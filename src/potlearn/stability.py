"""Exhaustive analysis of the perturbed chain induced by partial-synchronous
binary log-linear learning on small games.

The chain's states are joint actions.  Noise enters through a perturbation
index ``eps`` in (0, 1), related to the learning temperature by
``eps = exp(-1 / temperature)``.  Each feasible transition has a resistance:
the exponential order at which its probability vanishes as eps -> 0.  States
that keep non-vanishing stationary mass in that limit are the stochastically
stable states.

The kernel ``build_chain`` makes is the one transition model: it sums
every wake, draw and accept path of the learner, including those on which
a player wakes and keeps or re-selects its current action.  Each awake
player weighs its own trial with the others at the source, as
``dynamics.psblll_step`` does, so given the source the players move
independently and every kernel row is the product of the players'
next-action rows, which ``_marginal_rows`` builds.  ``resistance`` charges
the direct path, on which the deviators wake and the others sleep; each
deviator's term reads its own target with the others at the source, so it
is the exponent of the kernel entry as eps -> 0, which the tests read off.

The exhaustive layers read one payoff table, ``U[state, player]``, whose
column for player i is filled by one ``game.utility_row(i, .)`` call per
profile of the other players.  A caller that runs several layers on one
game, as ``harness.oracle_report`` does, makes the table once with
``_space`` and passes it to each through its ``space`` argument.  Wake
probabilities form a table of the same shape: a scalar or per-player wake
is resolved once per player and broadcast, a callable is asked once per
(state, player).  States are numbered in
``game.joint_actions()`` order, so a joint action's index is its mixed-radix
value (the last player's action varies fastest).  ``build_chain`` works on
chunks of source states with numpy: it builds each player's next-action
rows from those sources and multiplies them out in player order, which is
the mixed-radix order of the targets.  ``_gth_stationary`` is blocked GTH
elimination: it eliminates ``_GTH_BLOCK`` states at a time, keeping only
the block's rows and columns current, then updates the leading submatrix
with one rank-block product; every term stays a sum of non-negative
products.  It works only inside the kernel's bandwidth b, the largest
|i - j| over its nonzero entries.  Constrained actions keep b small: a
Moore move changes a robot's cell index by at most grid + 1, so in
mixed-radix order the 6x6-grid, 2-robot coverage chain has b = 259 of 1295.
Eliminating state k combines entries within b of k only, so fill stays
inside the band, and the solve skips only entries that stay exactly zero.
The resistance enumerators visit only the feasible targets of each source,
the product of the players' allowed sets.

When every player's payoff column and wake probability depend on its own
action only, as in every built-in coverage game, so does each player's
next-action row.  The kernel is then the Kronecker product of the players'
own-move kernels in player order, P(s -> t) = prod_i Q_i(s_i, t_i), and the
stationary vector is the product of theirs.  ``build_chain`` keeps the
m_i x m_i kernels Q_i, player i's rows from the states where the others
play 0, in ``PerturbedChain.factors``, and ``stationary_distribution``
solves each by GTH.  Every other game is enumerated as above.

GTH is the only solver, so every matrix ``build_chain`` makes, the
enumerated kernel or each own-move kernel Q_i, has at most
``DENSE_SOLVE_LIMIT`` states; larger ones are refused before they are
allocated.  A factored chain is built and solved on its factors alone:
``stationary_distribution`` checks its residual through them, and its joint
kernel is built only when read, and refused above that size.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import (
    ConstrainedActionMap,
    WakeModel,
    validate_constraints,
    wake_probabilities,
)
from .games import GameDefinition, JointAction, replace_action

# Most states of a matrix build_chain makes dense and GTH solves.
DENSE_SOLVE_LIMIT = 2000
# Most joint actions _space tabulates, for the chain and the resistance lists.
_CHAIN_MAX_STATES = 20_000
# States eliminated together by one block of _gth_stationary.
_GTH_BLOCK = 48
# Multiply-adds per row slab of the GTH block update.  OpenBLAS runs a
# product of fewer than 2**18 on the calling thread; larger ones hand work
# to a second thread, which cost up to 15 ms per product on a busy 2-core
# host and made a 1296-state solve ten times slower.
_GTH_SLAB = 200_000
# Work-array entries a chunk may hold: kernel entries in build_chain,
# feasible pairs in the resistance enumerators.
_CHUNK_ENTRIES = 1 << 17
# Stationary-mass drop between noise levels that still counts as non-decreasing.
_TREND_SLACK = 1e-9
# Floor of stationary_distribution's residual bound, max(1e-10, 1e-12 n).
_STATIONARY_TOL = 1e-10
# Largest game min_resistance_tree searches exhaustively, in joint actions.
_TREE_MAX_STATES = 12


class InfeasibleTransitionError(ValueError):
    """A deviating player's target action is outside its constrained set."""


class StationaryConvergenceError(RuntimeError):
    """The stationary solve failed: a reducible chain or a residual above the bound."""


class SeparabilityError(ValueError):
    """A player's payoff depends on other players' actions."""

    def __init__(self, player: int, profile_a: JointAction, profile_b: JointAction):
        self.player = player
        self.profile_a = profile_a
        self.profile_b = profile_b
        super().__init__(
            f"player {player} payoff differs between {profile_a} and {profile_b}, "
            "which share that player's action"
        )


class UnreachableRootError(ValueError):
    """No spanning in-tree toward the requested root exists."""


def temperature_from_noise(eps: float) -> float:
    """Temperature whose induced perturbation index equals eps."""
    if not 0 < eps < 1:
        raise ValueError("noise level must lie in (0, 1)")
    return -1.0 / math.log(eps)


def deviating_set(source: JointAction, target: JointAction) -> tuple[int, ...]:
    return tuple(i for i, (a, b) in enumerate(zip(source, target)) if a != b)


def check_feasible(
    constraints: ConstrainedActionMap, source: JointAction, target: JointAction
) -> tuple[int, ...]:
    """Deviating players of a feasible transition; raises when infeasible."""
    deviators = deviating_set(source, target)
    for i in deviators:
        if target[i] not in constraints.allowed(i, source[i]):
            raise InfeasibleTransitionError(
                f"player {i}: action {target[i]} not reachable from {source[i]}"
            )
    return deviators


@dataclass(frozen=True)
class TransitionResistance:
    source: JointAction
    target: JointAction
    deviators: tuple[int, ...]
    resistance: float


def resistance(
    game: GameDefinition,
    source: JointAction,
    target: JointAction,
    constraints: ConstrainedActionMap | None = None,
) -> TransitionResistance:
    """Resistance of a feasible transition.

    Each deviating player contributes the shortfall of its payoff at its own
    target, the others at the source, against the better of that and its
    source payoff, so improving moves are free and the total is always
    non-negative.
    """
    if constraints is None:
        deviators = deviating_set(source, target)
    else:
        deviators = check_feasible(constraints, source, target)
    total = 0.0
    for i in deviators:
        u1 = game.utility(i, source)
        u2 = game.utility(i, replace_action(source, i, target[i]))
        total += max(u1, u2) - u2
    return TransitionResistance(source, target, deviators, total)


class PerturbedChain:
    """Markov chain over joint actions at a fixed noise level.

    `factors`, when set, holds each player's own-move kernel in player
    order; the kernel is then their Kronecker product.  A chain made from
    factors alone builds `kernel` on its first read, by `_kron_kernel`, and
    keeps it; above `DENSE_SOLVE_LIMIT` states that read is a ValueError.
    `residual` is |pi P - pi|_1 of the last
    `stationary_distribution` solve that passed.
    """

    def __init__(
        self,
        *,
        states: tuple[JointAction, ...],
        noise: float,
        kernel: np.ndarray | None = None,
        factors: tuple[np.ndarray, ...] | None = None,
        residual: float | None = None,
    ):
        self.states = states
        self.noise = noise
        self.factors = factors
        self.residual = residual
        self._kernel = kernel

    @property
    def kernel(self) -> np.ndarray:
        if self._kernel is None:
            if self.n_states > DENSE_SOLVE_LIMIT:
                raise ValueError(
                    f"the joint kernel would have {self.n_states} states, "
                    f"above DENSE_SOLVE_LIMIT = {DENSE_SOLVE_LIMIT}"
                )
            self._kernel = _kron_kernel(self.factors)
        return self._kernel

    @property
    def n_states(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class _Space:
    """Joint-action space of a game with its payoff table."""

    states: tuple[JointAction, ...]
    actions: np.ndarray  # (n, players): actions[k] is states[k]
    strides: np.ndarray  # mixed-radix place values: k == actions[k] @ strides
    payoffs: np.ndarray  # (n, players): U[k, i] == game.utility(i, states[k])


def _space(game: GameDefinition) -> _Space:
    """Enumerate the joint actions and tabulate payoffs.

    One `utility_row(i, a)` call fills the states that differ from `a` only
    in i's action.  Games of more than `_CHAIN_MAX_STATES` joint actions are
    refused before any enumeration.
    """
    n = game.joint_size
    if n > _CHAIN_MAX_STATES:
        raise ValueError(f"joint-action space has {n} states, cap is {_CHAIN_MAX_STATES}")
    sizes = [game.n_actions(i) for i in range(game.n_players)]
    strides = np.array([math.prod(sizes[i + 1 :]) for i in range(len(sizes))])
    states = tuple(game.joint_actions())
    actions = np.indices(sizes, dtype=np.int64).reshape(len(sizes), n).T
    payoffs = np.empty((n, len(sizes)))
    for i, m in enumerate(sizes):
        bases = np.flatnonzero(actions[:, i] == 0)
        rows = [game.utility_row(i, states[k]) for k in bases.tolist()]
        payoffs[bases[:, None] + np.arange(m) * strides[i], i] = rows
    return _Space(states=states, actions=actions, strides=strides, payoffs=payoffs)


def _wake_table(wake: WakeModel, space: _Space) -> np.ndarray:
    """Wake probabilities, (n, players): rp[k, i] is player i's in states[k].

    A scalar or a sequence of one probability per player is resolved once
    and broadcast over the states; only a callable is asked per (state,
    player).  `dynamics.wake_probabilities` rejects anything else.
    """
    n, n_players = space.actions.shape
    if callable(wake):
        return np.array([wake_probabilities(wake, n_players, a) for a in space.states])
    return np.broadcast_to(wake_probabilities(wake, n_players, ()), (n, n_players))


def _option_table(
    game: GameDefinition, constraints: ConstrainedActionMap, player: int, feasible: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(options, counts): options[a, :counts[a]] are the player's draws from a.

    With `feasible` the options are the player's feasible targets from a,
    the sorted set of its allowed actions and a itself.  Rows are padded
    with a.
    """
    m = game.n_actions(player)
    rows = []
    for a in range(m):
        options = constraints.allowed(player, a)
        if feasible:
            options = sorted(set(options) | {a})
        if any(not 0 <= b < m for b in options):
            raise ValueError(f"player {player}: allowed set {options} leaves the action range")
        rows.append(list(options))
    counts = np.array([len(r) for r in rows])
    width = int(counts.max())
    options = np.array([r + [a] * (width - len(r)) for a, r in enumerate(rows)])
    return options, counts


def _chunks(cost: np.ndarray):
    """Consecutive (lo, hi) ranges whose summed cost fits _CHUNK_ENTRIES."""
    ends = np.cumsum(cost)
    lo = 0
    while lo < len(cost):
        budget = (ends[lo - 1] if lo else 0) + _CHUNK_ENTRIES
        hi = max(int(np.searchsorted(ends, budget, side="right")), lo + 1)
        yield lo, hi
        lo = hi


def _keep_weights(u_current: np.ndarray, u_alternative: np.ndarray, temperature: float):
    """Keep probabilities of the binary logit, by `binary_logit_weights`' branches."""
    d = (u_alternative - u_current) / temperature
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, e / (1.0 + e), 1.0 / (1.0 + e))


def _marginal_rows(
    space: _Space, rp: np.ndarray, tables, tau: float, i: int, sources: np.ndarray
) -> np.ndarray:
    """Player i's next-action distribution from each source, (len(sources), m_i).

    One `np.bincount` adds, per row, the sleep term, each trial's keep term
    in option order, then each trial's switch term; the row's residual goes
    to staying.  The trial is weighed with the others at the source.
    """
    options, counts = tables[i]
    m = len(counts)
    own = space.actions[sources, i]
    wake = rp[sources, i]
    r, j = np.nonzero(np.arange(options.shape[1]) < counts[own][:, None])
    src, trial = sources[r], options[own[r], j]
    u_src = space.payoffs[src, i]
    u_trial = space.payoffs[src + (trial - own[r]) * space.strides[i], i]
    # The switch is the reversed pair's keep, not 1 - keep, which rounds to 0 below about 1e-16.
    keep, switch = _keep_weights(u_src, u_trial, tau), _keep_weights(u_trial, u_src, tau)
    w = (wake / counts[own])[r]
    rows = np.bincount(
        np.concatenate([np.arange(len(sources)) * m + own, r * m + own[r], r * m + trial]),
        np.concatenate([1.0 - wake, w * keep, w * switch]),
        minlength=len(sources) * m,
    ).reshape(len(sources), m)
    rows[np.arange(len(sources)), own] += 1.0 - rows.sum(axis=1)
    return rows


def _kron_kernel(factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """Kronecker product of the factors in player order, self-loop absorbing
    the rows' floating residual."""
    kernel = functools.reduce(np.kron, factors)
    kernel[np.diag_indices_from(kernel)] += 1.0 - kernel.sum(axis=1)
    return kernel


def build_chain(
    game: GameDefinition,
    wake: WakeModel,
    constraints: ConstrainedActionMap,
    eps: float,
    *,
    space: _Space | None = None,
) -> PerturbedChain:
    """Construct the full one-step kernel of the partial-synchronous learner.

    Row s sums every wake subset, trial draw and accept outcome from s, so
    paths on which a player wakes but ends up re-selecting its current
    action are aggregated with genuine sleep events.  Each awake player
    weighs its own trial with the others at s, so the players move
    independently given s and the row is the outer product, in player
    order, of their `_marginal_rows` at s.  Rows sum to one; any floating
    residual is absorbed into the self-loop.

    When every player's payoff and wake probability depend on its own action
    only, so does its row, and the kernel is the Kronecker product of the
    players' own-move kernels in player order (the mixed-radix state order).
    Those kernels are built instead and kept in `factors`; the joint rows
    are built only for other games.

    Games of more than `_CHAIN_MAX_STATES` joint actions are refused, and so
    is any matrix built dense above `DENSE_SOLVE_LIMIT` states: the
    enumerated kernel, or a player's own-move kernel in a factored chain.
    A factored chain's joint kernel is built only when `chain.kernel` is
    read, and refused above that limit.
    `space`, when given, is `_space(game)` made once by the caller.
    """
    tau = temperature_from_noise(eps)
    if space is None:
        space = _space(game)
    n, n_players = space.payoffs.shape
    rp = _wake_table(wake, space)
    tables = [_option_table(game, constraints, i, feasible=False) for i in range(n_players)]
    factored = all(_cross_dependence(space, t) is None for t in (space.payoffs, rp))
    largest = max(len(counts) for _, counts in tables) if factored else n
    if largest > DENSE_SOLVE_LIMIT:
        what = "a player's own-move kernel" if factored else "the enumerated kernel"
        raise ValueError(
            f"{what} would have {largest} states, above DENSE_SOLVE_LIMIT = {DENSE_SOLVE_LIMIT}"
        )
    if factored:
        factors = tuple(
            _marginal_rows(space, rp, tables, tau, i, np.arange(len(counts)) * space.strides[i])
            for i, (_, counts) in enumerate(tables)
        )
        return PerturbedChain(states=space.states, noise=eps, factors=factors)
    kernel = np.empty((n, n))
    for lo, hi in _chunks(np.full(n, n)):
        sources = np.arange(lo, hi)
        rows = functools.reduce(
            lambda a, b: (a[:, :, None] * b[:, None, :]).reshape(hi - lo, -1),
            [_marginal_rows(space, rp, tables, tau, i, sources) for i in range(n_players)],
        )
        rows[np.arange(hi - lo), sources] += 1.0 - rows.sum(axis=1)
        kernel[lo:hi] = rows
    return PerturbedChain(states=space.states, kernel=kernel, noise=eps)


def _bandwidth(p: np.ndarray) -> int:
    """Largest |i - j| over the nonzero entries p[i, j], read _GTH_BLOCK rows at a time.

    An all-zero row reads as full width, which only widens the window.
    """
    n = p.shape[0]
    b = 0
    for r in range(0, n, _GTH_BLOCK):
        nonzero = p[r : r + _GTH_BLOCK] != 0.0
        rows = np.arange(r, r + len(nonzero))
        first = nonzero.argmax(axis=1)
        last = n - 1 - nonzero[:, ::-1].argmax(axis=1)
        b = max(b, int((rows - first).max()), int((last - rows).max()))
    return b


def _gth_stationary(kernel: np.ndarray) -> np.ndarray:
    """Stationary vector of a row-stochastic matrix by GTH elimination.

    The Grassmann-Taksar-Heyman recursion avoids subtractions, so it stays
    accurate even when off-diagonal entries span hundreds of orders of
    magnitude, as they do for small noise levels.  States are eliminated
    from the last in blocks of _GTH_BLOCK.  Within a block, step k first
    applies the block's earlier steps to row k and column k only; the
    leading submatrix then takes the whole block's update as one product of
    the block's columns and rows, in row slabs.

    Every slice starts at the edge of the kernel's bandwidth b, the largest
    |i - j| over its nonzero entries: at w = max(lo - b, 0) for the block
    [lo, top) and at max(k - b, 0) in the back substitution.  GTH never
    pivots, and eliminating k adds p[i, k] * p[k, j] to p[i, j] only where
    both factors are nonzero, so i and j lie within b below k and fill stays
    inside the band.  Entries outside the window are exact zeros that
    would add nothing to any sum.  A full kernel has b = n - 1 and w = 0.
    """
    p = np.array(kernel, dtype=float)
    n = p.shape[0]
    b = _bandwidth(p)
    for top in range(n, 1, -_GTH_BLOCK):
        lo = max(top - _GTH_BLOCK, 1)
        w = max(lo - b, 0)
        for k in range(top - 1, lo - 1, -1):
            if k + 1 < top:
                p[k, w:k] += p[k, k + 1 : top] @ p[k + 1 : top, w:k]
                p[w:k, k] += p[w:k, k + 1 : top] @ p[k + 1 : top, k]
            s = p[k, w:k].sum()
            if s <= 0.0:
                raise StationaryConvergenceError(
                    "chain is reducible: no escape mass from a trapped block"
                )
            p[w:k, k] /= s
        slab = max(1, _GTH_SLAB // ((top - lo) * (lo - w)))
        for r in range(w, lo, slab):
            p[r : r + slab, w:lo] += p[r : r + slab, lo:top] @ p[lo:top, w:lo]
    pi = np.zeros(n)
    pi[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n):
            start = max(k - b, 0)
            pi[k] = pi[start:k] @ p[start:k, k]
            if not math.isfinite(pi[k]):
                # unnormalised masses overflowed: rescale the solved ones and redo
                pi[:k] /= pi[:k].max()
                pi[k] = pi[start:k] @ p[start:k, k]
    return pi / pi.sum()


def _residual(kernel: np.ndarray, pi: np.ndarray) -> float:
    """|pi P - pi|_1 of a dense P, summed in row slabs of at most _GTH_SLAB
    multiply-adds, each a product OpenBLAS keeps on the calling thread."""
    n = len(pi)
    slab = max(1, _GTH_SLAB // n)
    flow = np.zeros(n)
    for r in range(0, n, slab):
        flow += pi[r : r + slab] @ kernel[r : r + slab]
    return float(np.abs(flow - pi).sum())


def _factored_residual(factors: tuple[np.ndarray, ...], pi: np.ndarray) -> float:
    """|pi P - pi|_1 for P = `_kron_kernel(factors)`, read off the factors.

    pi shaped (m_1, ..., m_k) times the Kronecker product is pi with each
    axis i contracted with Q_i, since (A x B)^T vec X = vec(B^T X A).
    `_kron_kernel` adds 1 - prod_i rowsum(Q_i)[s_i] to each diagonal entry
    s, so that self-loop adds pi times it.
    """
    x = pi.reshape([len(q) for q in factors])
    flow = x
    for q in factors:  # each contraction moves the new axis last
        flow = np.tensordot(flow, q, axes=(0, 0))
    loop = 1.0 - functools.reduce(np.multiply.outer, [q.sum(axis=1) for q in factors])
    return float(np.abs(flow + x * loop - x).sum())


def stationary_distribution(chain: PerturbedChain) -> np.ndarray:
    """Stationary probabilities of the chain, by GTH elimination.

    A factored chain (`chain.factors` set) is the normalised Kronecker
    product of its own-move kernels' stationary vectors, checked against
    the joint kernel through the factors without building it; any other
    chain is solved on its one kernel and checked against it.  Either way
    the solve raises when |pi P - pi|_1 exceeds max(1e-10, 1e-12 n) for n
    states; the residual is kept in `chain.residual`.
    """
    if chain.factors is not None:
        pi = functools.reduce(np.kron, [_gth_stationary(q) for q in chain.factors])
        pi = pi / pi.sum()
        residual = _factored_residual(chain.factors, pi)
    else:
        pi = _gth_stationary(chain.kernel)
        residual = _residual(chain.kernel, pi)
    bound = max(_STATIONARY_TOL, 1e-12 * chain.n_states)
    if not residual <= bound:  # a NaN residual fails too
        raise StationaryConvergenceError(f"GTH residual {residual:.3e} > bound {bound:.3e}")
    chain.residual = residual
    return pi


@dataclass
class StableSetReport:
    """Stationary masses across a decreasing noise schedule.

    Per noise level it also records the chain build and stationary solve
    wall times in seconds and the residual |pi P - pi|_1 the solve checked.
    The build time excludes the payoff table, which is made once before the
    first level; for a factored chain it covers the own-move kernels only,
    since neither the build nor the solve makes the joint kernel.
    """

    noise_levels: tuple[float, ...]
    states: tuple[JointAction, ...]
    masses: np.ndarray  # (n_levels, n_states)
    stable: tuple[JointAction, ...]
    mass_threshold: float
    build_seconds: tuple[float, ...] = ()
    solve_seconds: tuple[float, ...] = ()
    residuals: tuple[float, ...] = ()


def stochastically_stable_states(
    game: GameDefinition,
    wake: WakeModel,
    constraints: ConstrainedActionMap,
    noise_levels: Sequence[float] = (1e-1, 1e-2, 1e-3),
    mass_threshold: float = 0.05,
    *,
    space: _Space | None = None,
) -> StableSetReport:
    """States whose stationary mass survives as the noise level shrinks.

    A state qualifies when its mass is at least `mass_threshold` at the
    smallest noise level and non-decreasing (within `_TREND_SLACK`) along the
    whole schedule.  An empty schedule or a threshold outside (0, 1] is a
    ValueError; a chain that cannot be solved raises
    StationaryConvergenceError naming its noise level.  Every level's chain
    reads one payoff table, `space` when the caller made it.
    """
    levels = tuple(float(e) for e in noise_levels)
    if not levels:
        raise ValueError("noise_levels must name at least one noise level")
    if not 0 < mass_threshold <= 1:
        raise ValueError(f"mass_threshold must lie in (0, 1], got {mass_threshold}")
    if any(not 0 < e < 1 for e in levels):
        raise ValueError("noise levels must lie in (0, 1)")
    if any(b >= a for a, b in zip(levels, levels[1:])):
        raise ValueError("noise levels must be strictly decreasing")
    masses, build_s, solve_s, residuals = [], [], [], []
    if space is None:
        space = _space(game)
    for e in levels:
        start = time.perf_counter()
        chain = build_chain(game, wake, constraints, e, space=space)
        built = time.perf_counter()
        try:
            masses.append(stationary_distribution(chain))
        except StationaryConvergenceError as exc:
            raise StationaryConvergenceError(f"noise level {e:g}: {exc}") from exc
        solve_s.append(time.perf_counter() - built)
        build_s.append(built - start)
        residuals.append(chain.residual)
    states = chain.states
    masses = np.vstack(masses)
    stable = []
    for k, state in enumerate(states):
        column = masses[:, k]
        if column[-1] < mass_threshold:
            continue
        if all(b >= a - _TREND_SLACK for a, b in zip(column, column[1:])):
            stable.append(state)
    return StableSetReport(
        noise_levels=levels,
        states=states,
        masses=masses,
        stable=tuple(stable),
        mass_threshold=mass_threshold,
        build_seconds=tuple(build_s),
        solve_seconds=tuple(solve_s),
        residuals=tuple(residuals),
    )


def _cross_dependence(space: _Space, table: np.ndarray) -> tuple[int, int, int] | None:
    """First (player, base, state) at which column i of a per-state table
    differs between two states that share player i's action, else None.

    The base is the first state playing that action, every other player at 0.
    """
    for i in range(table.shape[1]):
        first = space.actions[:, i] * space.strides[i]
        bad = np.flatnonzero(table[:, i] != table[first, i])
        if bad.size:
            return i, int(first[bad[0]]), int(bad[0])
    return None


def _own_values(game: GameDefinition, space: _Space) -> list[np.ndarray]:
    """Per-player own-action payoffs of a separable game, else SeparabilityError."""
    witness = _cross_dependence(space, space.payoffs)
    if witness is not None:
        i, base, k = witness
        raise SeparabilityError(i, space.states[base], space.states[k])
    return [
        space.payoffs[np.arange(game.n_actions(i)) * space.strides[i], i]
        for i in range(game.n_players)
    ]


def _feasible_pairs(game: GameDefinition, constraints: ConstrainedActionMap, space: _Space):
    """Chunks (source, target, *`_pair_resistances`) of every feasible transition.

    Self-transitions are included; pairs come in (source, target) state
    order, the targets of a source being the product of the players'
    feasible-target sets.  Each chunk lays out a grid with one axis per
    player over its sources and drops the combinations that use padding.
    """
    n_players = game.n_players
    tables = [_option_table(game, constraints, i, feasible=True) for i in range(n_players)]
    count = np.ones(len(space.states), dtype=np.int64)
    for i, (_, counts) in enumerate(tables):
        count *= counts[space.actions[:, i]]
    for lo, hi in _chunks(count):
        valid = np.ones((hi - lo,) + (1,) * n_players, dtype=bool)
        shift = np.zeros_like(valid, dtype=np.int64)
        for i, (options, counts) in enumerate(tables):
            own = space.actions[lo:hi, i]
            shape = [hi - lo] + [1] * n_players
            shape[i + 1] = options.shape[1]
            shift = shift + ((options[own] - own[:, None]) * space.strides[i]).reshape(shape)
            valid = valid & (np.arange(options.shape[1]) < counts[own][:, None]).reshape(shape)
        source = np.nonzero(valid)[0] + lo
        target = source + shift[valid]
        yield source, target, *_pair_resistances(space, source, target)


def _pair_resistances(space: _Space, source: np.ndarray, target: np.ndarray):
    """(deviator bits, forward, backward) resistances of transition pairs.

    A deviator's forward term reads its payoff at source + shift_i, its own
    target with the others at the source, and its backward term at
    target - shift_i.  Each player's term is added in player order as in
    `resistance`, so the values equal its results exactly.
    """
    bits = np.zeros(len(source), dtype=np.int64)
    forward = np.zeros(len(source))
    backward = np.zeros(len(source))
    for i in range(space.payoffs.shape[1]):
        shift = (space.actions[target, i] - space.actions[source, i]) * space.strides[i]
        deviates = shift != 0
        u_source, u_target = space.payoffs[source, i], space.payoffs[target, i]
        u_moved, u_back = space.payoffs[source + shift, i], space.payoffs[target - shift, i]
        bits |= deviates.astype(np.int64) << i
        forward = forward + np.where(deviates, np.maximum(u_source, u_moved) - u_moved, 0.0)
        backward = backward + np.where(deviates, np.maximum(u_target, u_back) - u_back, 0.0)
    return bits, forward, backward


def transition_resistances(
    game: GameDefinition, constraints: ConstrainedActionMap, *, space: _Space | None = None
) -> list[tuple[JointAction, JointAction, tuple[int, ...], float]]:
    """(source, target, deviators, resistance) of every feasible transition
    between distinct joint actions, in (source, target) state order.
    `space`, when given, is `_space(game)` made once by the caller."""
    space = _space(game) if space is None else space
    return _transition_rows(space, _feasible_pairs(game, constraints, space))


def _transition_rows(space: _Space, pairs):
    """`transition_resistances` from the `_feasible_pairs` chunks `pairs`."""
    n = space.actions.shape[1]
    deviator_sets = [tuple(i for i in range(n) if bits >> i & 1) for bits in range(1 << n)]
    states, out = space.states, []
    for source, target, bits, forward, _ in pairs:
        moved = source != target
        rows = (x[moved].tolist() for x in (source, target, bits, forward))
        out += [(states[a], states[b], deviator_sets[d], r) for a, b, d, r in zip(*rows)]
    return out


@dataclass
class ResistanceIdentityReport:
    """Forward-minus-backward resistance residuals against potential drops."""

    pairs_checked: int
    max_residual: float
    violations: tuple[tuple[JointAction, JointAction, float], ...]
    tol: float

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_resistance_identity(
    game: GameDefinition,
    constraints: ConstrainedActionMap,
    tol: float = 1e-12,
    *,
    space: _Space | None = None,
) -> ResistanceIdentityReport:
    """Check R(a->b) - R(b->a) == potential(a) - potential(b) exhaustively.

    Requires a separable game (checked, with a witness on failure) and a
    symmetric constraint map; the potential is the sum of own-action values.
    Every feasible ordered pair, including multi-deviator and self
    transitions, is checked.  `space`, when given, is `_space(game)` made
    once by the caller.
    """
    return _identity_report(game, constraints, space, tol=tol)


def _identity_report(game, constraints, space, pairs=None, tol=1e-12) -> ResistanceIdentityReport:
    """`verify_resistance_identity`, over the `_feasible_pairs` chunks `pairs` if given."""
    report = validate_constraints(constraints)
    if not report.symmetric:
        raise ValueError(
            f"constraint map must be symmetric; offending edges {report.asymmetric_pairs[:3]}"
        )
    space = _space(game) if space is None else space
    values = _own_values(game, space)
    potential = np.zeros(len(space.states))
    for i in range(game.n_players):
        potential = potential + values[i][space.actions[:, i]]
    violations: list[tuple[JointAction, JointAction, float]] = []
    worst, checked = 0.0, 0
    pairs = _feasible_pairs(game, constraints, space) if pairs is None else pairs
    for source, target, _, forward, backward in pairs:
        residual = np.abs((forward - backward) - (potential[source] - potential[target]))
        checked += len(source)
        worst = max(worst, float(residual.max()))
        for k in np.flatnonzero(residual > tol):
            a, b = space.states[source[k]], space.states[target[k]]
            violations.append((a, b, float(residual[k])))
    return ResistanceIdentityReport(
        pairs_checked=checked, max_residual=worst, violations=tuple(violations), tol=tol
    )


def resistances_and_identity(
    game: GameDefinition, constraints: ConstrainedActionMap, *, space: _Space | None = None
) -> tuple[list, ResistanceIdentityReport | None, str | None]:
    """(`transition_resistances`, `verify_resistance_identity`, None) from one walk over the
    pairs; a game that is not separable gives no report and a note of its `SeparabilityError`."""
    space = _space(game) if space is None else space
    pairs = list(_feasible_pairs(game, constraints, space))
    try:
        identity, note = _identity_report(game, constraints, space, pairs), None
    except SeparabilityError as exc:
        identity, note = None, f"resistance identity skipped: {exc}"
    return _transition_rows(space, pairs), identity, note


@dataclass
class MinResistanceTree:
    root: JointAction
    edges: tuple[tuple[JointAction, JointAction, float], ...]
    total_resistance: float


def min_resistance_tree(
    game: GameDefinition,
    constraints: ConstrainedActionMap,
    root: JointAction,
) -> MinResistanceTree:
    """Minimum-total-resistance spanning in-tree toward `root`.

    Edges are all feasible transitions (single- and multi-deviator).  The
    optimum is found by Edmonds' arborescence algorithm on the edge-reversed
    graph with the root's parent edges removed; the total resistance of the
    tree is the root's stochastic potential.  Games of more than 12 joint
    actions (`_TREE_MAX_STATES`) are refused.
    """
    if game.joint_size > _TREE_MAX_STATES:
        raise ValueError(
            f"{game.joint_size} states exceed the exhaustive-search cap {_TREE_MAX_STATES}"
        )
    states = list(game.joint_actions())
    if root not in set(states):
        raise ValueError(f"root {root} is not a joint action of the game")
    import networkx as nx

    reversed_graph = nx.DiGraph()
    reversed_graph.add_nodes_from(states)
    for a, b, _, r in transition_resistances(game, constraints):
        if a != root:  # the root keeps no outgoing tree edge
            reversed_graph.add_edge(b, a, weight=r)
    try:
        tree = nx.minimum_spanning_arborescence(reversed_graph, attr="weight")
    except nx.NetworkXException as exc:
        raise UnreachableRootError(
            f"no spanning in-tree toward {root} under the given constraints"
        ) from exc
    edges = tuple(
        (u, v, reversed_graph[v][u]["weight"]) for v, u in tree.edges()
    )
    total = float(sum(w for _, _, w in edges))
    return MinResistanceTree(root=root, edges=edges, total_resistance=total)


def stochastic_potential(
    game: GameDefinition, constraints: ConstrainedActionMap, root: JointAction
) -> float:
    return min_resistance_tree(game, constraints, root).total_resistance
