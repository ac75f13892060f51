"""Exhaustive analysis of the perturbed chain induced by partial-synchronous
binary log-linear learning on small games.

The chain's states are joint actions.  Noise enters through a perturbation
index ``eps`` in (0, 1), related to the learning temperature by
``eps = exp(-1 / temperature)``.  Each feasible transition has a resistance:
the exponential order at which its probability vanishes as eps -> 0.  States
that keep non-vanishing stationary mass in that limit are the stochastically
stable states.

Resistances and per-transition probabilities follow the independent-wake
product structure of the learner; the full kernel built here additionally
marginalizes over unobservable wake events (players that wake and re-select
their current action), which is the ground truth the diagnostics are checked
against.

The exhaustive layers read one payoff table, ``U[state, player]``, whose
column for player i is filled by one ``game.utility_row(i, .)`` call per
profile of the other players.  States are numbered in
``game.joint_actions()`` order, so a joint action's index is its mixed-radix
value (the last player's action varies fastest).  ``build_chain`` works on
chunks of source states with numpy: for each wake mask it lays out the trial
grid of the awake players' allowed sets, evaluates the binary-logit keep
weights of every trial at once, and sums every accept pattern into the rows
with ``np.bincount``.  ``_gth_stationary`` is blocked GTH elimination: it
eliminates ``_GTH_BLOCK`` states at a time, keeping only the block's rows and
columns current, then updates the leading submatrix with one rank-block
product; every term stays a sum of non-negative products.  The resistance
enumerators visit only the feasible targets of each source, the product of
the players' allowed sets.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import networkx as nx
import numpy as np
import scipy.sparse as sp

from .dynamics import (
    ConstrainedActionMap,
    WakeModel,
    resolve_wake_probability,
    validate_constraints,
)
from .games import GameDefinition, JointAction

DENSE_SOLVE_LIMIT = 2000
# States eliminated together by one block of _gth_stationary.
_GTH_BLOCK = 48
# Multiply-adds per row slab of the GTH block update.  OpenBLAS runs a
# product of fewer than 2**18 on the calling thread; larger ones hand work
# to a second thread, which cost up to 15 ms per product on a busy 2-core
# host and made a 1296-state solve ten times slower.
_GTH_SLAB = 200_000
# Work-array entries a chunk may hold: trial paths plus kernel entries in
# build_chain, feasible pairs in the resistance enumerators.
_CHUNK_ENTRIES = 1 << 17
# Stationary-mass drop between noise levels that still counts as non-decreasing.
_TREND_SLACK = 1e-9


class InfeasibleTransitionError(ValueError):
    """A deviating player's target action is outside its constrained set."""


class StationaryConvergenceError(RuntimeError):
    """Power iteration failed to reach the requested residual."""


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

    Each deviating player contributes the shortfall of its target payoff
    against the better of its two payoffs, so improving moves are free and
    the total is always non-negative.
    """
    if constraints is None:
        deviators = deviating_set(source, target)
    else:
        deviators = check_feasible(constraints, source, target)
    total = 0.0
    for i in deviators:
        u1 = game.utility(i, source)
        u2 = game.utility(i, target)
        total += max(u1, u2) - u2
    return TransitionResistance(source, target, deviators, total)


def _log_switch(u_keep: float, u_switch: float, temperature: float) -> float:
    """log of the binary-logit switch probability, stable for any payoff gap."""
    y = (u_keep - u_switch) / temperature
    if y > 30:
        return -y - math.log1p(math.exp(-y))
    return -math.log1p(math.exp(y))


def log_transition_probability(
    game: GameDefinition,
    source: JointAction,
    target: JointAction,
    wake: WakeModel,
    constraints: ConstrainedActionMap,
    eps: float,
) -> float:
    """log of the single-path transition probability (deviators wake, rest sleep).

    The path probability is the product of the deviators' wake-and-draw
    terms, the sleepers' stay-asleep terms, and each deviator's binary logit
    switch weight between the source and target profiles.  Computed in log
    space so that no payoff normalization can overflow.
    """
    deviators = check_feasible(constraints, source, target)
    tau = temperature_from_noise(eps)
    total = 0.0
    for i in range(game.n_players):
        p = resolve_wake_probability(wake, i, source)
        if i in deviators:
            if p == 0.0:
                return -math.inf
            total += math.log(p) - math.log(len(constraints.allowed(i, source[i])))
            total += _log_switch(
                game.utility(i, source), game.utility(i, target), tau
            )
        else:
            if p == 1.0:
                return -math.inf
            total += math.log1p(-p)
    return total


def transition_probability(
    game: GameDefinition,
    source: JointAction,
    target: JointAction,
    wake: WakeModel,
    constraints: ConstrainedActionMap,
    eps: float,
) -> float:
    return math.exp(
        log_transition_probability(game, source, target, wake, constraints, eps)
    )


def scaled_transition_probability(
    game: GameDefinition,
    source: JointAction,
    target: JointAction,
    wake: WakeModel,
    constraints: ConstrainedActionMap,
    eps: float,
) -> float:
    """Transition probability divided by eps ** resistance.

    Stays bounded and positive as eps -> 0; evaluated in log space so the
    ratio is accurate even when the probability itself underflows.
    """
    log_p = log_transition_probability(game, source, target, wake, constraints, eps)
    r = resistance(game, source, target, constraints).resistance
    return math.exp(log_p - r * math.log(eps))


@dataclass
class PerturbedChain:
    """Markov chain over joint actions at a fixed noise level."""

    states: tuple[JointAction, ...]
    index: dict[JointAction, int]
    kernel: np.ndarray | sp.csr_matrix
    noise: float

    @property
    def n_states(self) -> int:
        return len(self.states)

    def row_sums(self) -> np.ndarray:
        if sp.issparse(self.kernel):
            return np.asarray(self.kernel.sum(axis=1)).ravel()
        return self.kernel.sum(axis=1)


@dataclass(frozen=True)
class _Space:
    """Joint-action space of a game with its payoff table."""

    states: tuple[JointAction, ...]
    actions: np.ndarray  # (n, players): actions[k] is states[k]
    strides: np.ndarray  # mixed-radix place values: k == actions[k] @ strides
    payoffs: np.ndarray  # (n, players): U[k, i] == game.utility(i, states[k])


def _space(game: GameDefinition, max_states: int | None = None) -> _Space:
    """Enumerate the joint actions and tabulate payoffs, after the state cap.

    One `utility_row(i, a)` call fills the states that differ from `a` only in i's action.
    """
    n = game.joint_size
    if max_states is not None and n > max_states:
        raise ValueError(f"joint-action space has {n} states, cap is {max_states}")
    sizes = [game.n_actions(i) for i in range(game.n_players)]
    strides = np.array([math.prod(sizes[i + 1 :]) for i in range(len(sizes))])
    states = tuple(game.joint_actions())
    actions = np.array(states, dtype=np.int64).reshape(n, len(sizes))
    payoffs = np.empty((n, len(sizes)))
    for i, m in enumerate(sizes):
        own = np.arange(m) * strides[i]
        for k in np.flatnonzero(actions[:, i] == 0).tolist():
            payoffs[k + own, i] = game.utility_row(i, states[k])
    return _Space(states=states, actions=actions, strides=strides, payoffs=payoffs)


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


def _trial_grid(space: _Space, tables, players, lo: int, hi: int):
    """Every combination of the listed players' options from each source.

    The grid has one axis per listed player over the sources in [lo, hi);
    combinations that use padding are dropped.  Returns each combination's
    row (its source minus lo) and, per listed player, the state-index shift
    of switching to its option, in (source, first player's option, ...)
    order.
    """
    k = len(players)
    valid = np.ones((hi - lo,) + (1,) * k, dtype=bool)
    shifts = []
    for j, i in enumerate(players):
        options, counts = tables[i]
        own = space.actions[lo:hi, i]
        shape = [hi - lo] + [1] * k
        shape[j + 1] = options.shape[1]
        shifts.append(((options[own] - own[:, None]) * space.strides[i]).reshape(shape))
        used = np.arange(options.shape[1]) < counts[own][:, None]
        valid = valid & used.reshape(shape)
    rows = np.nonzero(valid)[0]
    return rows, [np.broadcast_to(s, valid.shape)[valid] for s in shifts]


def _keep_weights(u_current: np.ndarray, u_alternative: np.ndarray, temperature: float):
    """Keep probabilities of the binary logit, by `binary_logit_weights`' branches."""
    d = (u_alternative - u_current) / temperature
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, e / (1.0 + e), 1.0 / (1.0 + e))


def _chain_rows(space: _Space, rp: np.ndarray, tables, tau: float, lo: int, hi: int) -> np.ndarray:
    """Kernel rows of the sources in [lo, hi), as a dense (hi - lo, n) block."""
    n, n_players = space.payoffs.shape
    rows = hi - lo
    source = np.arange(lo, hi)
    block = np.zeros(rows * n)
    keys, weights = [], []
    for mask in range(1 << n_players):
        if sum(len(k) for k in keys) > _CHUNK_ENTRIES:  # one source with many paths
            block += np.bincount(np.concatenate(keys), np.concatenate(weights), minlength=rows * n)
            keys, weights = [], []
        awake = [i for i in range(n_players) if mask >> i & 1]
        p = np.ones(rows)
        for i in range(n_players):
            p = p * (rp[lo:hi, i] if mask >> i & 1 else 1.0 - rp[lo:hi, i])
        if not p.any():
            continue
        for i in awake:
            p = p / tables[i][1][space.actions[lo:hi, i]]
        r, shifts = _trial_grid(space, tables, awake, lo, hi)
        src = source[r]
        trial = src + sum(shifts)
        keep = [_keep_weights(space.payoffs[src, i], space.payoffs[trial, i], tau) for i in awake]
        switch = [1.0 - kp for kp in keep]
        for accept in range(1 << len(awake)):
            w = p[r]
            out = src
            for bit in range(len(awake)):
                if accept >> bit & 1:
                    w = w * switch[bit]
                    out = out + shifts[bit]
                else:
                    w = w * keep[bit]
            keys.append(r * n + out)
            weights.append(w)
    if keys:
        block += np.bincount(np.concatenate(keys), np.concatenate(weights), minlength=rows * n)
    block = block.reshape(rows, n)
    block[np.arange(rows), source] += 1.0 - block.sum(axis=1)
    return block


def build_chain(
    game: GameDefinition,
    wake: WakeModel,
    constraints: ConstrainedActionMap,
    eps: float,
    max_states: int = 20_000,
) -> PerturbedChain:
    """Construct the full one-step kernel of the partial-synchronous learner.

    For every source profile the builder enumerates all wake subsets, all
    trial draws of the awake players, and all accept/keep outcomes, so paths
    on which a player wakes but ends up re-selecting its current action are
    aggregated with genuine sleep events.  Rows sum to one; any floating
    residual is absorbed into the self-loop.
    """
    tau = temperature_from_noise(eps)
    space = _space(game, max_states)
    n, n_players = space.payoffs.shape
    rp = np.array(
        [[resolve_wake_probability(wake, i, a) for i in range(n_players)] for a in space.states]
    ).reshape(n, n_players)
    tables = [_option_table(game, constraints, i, feasible=False) for i in range(n_players)]
    paths = np.ones(n, dtype=np.int64)
    for i, (_, counts) in enumerate(tables):
        paths *= 1 + 2 * counts[space.actions[:, i]]
    dense = n <= DENSE_SOLVE_LIMIT
    kernel = np.zeros((n, n)) if dense else None
    triplets = []
    for lo, hi in _chunks(paths + n):
        block = _chain_rows(space, rp, tables, tau, lo, hi)
        if dense:
            kernel[lo:hi] = block
        else:
            r, c = np.nonzero(block)
            triplets.append((block[r, c], r + lo, c))
    if not dense:
        values, rows, cols = (np.concatenate(t) for t in zip(*triplets))
        kernel = sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()
    index = {a: k for k, a in enumerate(space.states)}
    return PerturbedChain(states=space.states, index=index, kernel=kernel, noise=eps)


def _gth_stationary(kernel: np.ndarray) -> np.ndarray:
    """Stationary vector of a row-stochastic matrix by GTH elimination.

    The Grassmann-Taksar-Heyman recursion avoids subtractions, so it stays
    accurate even when off-diagonal entries span hundreds of orders of
    magnitude, as they do for small noise levels.  States are eliminated
    from the last in blocks of _GTH_BLOCK.  Within a block, step k first
    applies the block's earlier steps to row k and column k only; the
    leading submatrix then takes the whole block's update as one product of
    the block's columns and rows, in row slabs.
    """
    p = np.array(kernel, dtype=float)
    n = p.shape[0]
    for top in range(n, 1, -_GTH_BLOCK):
        lo = max(top - _GTH_BLOCK, 1)
        for k in range(top - 1, lo - 1, -1):
            if k + 1 < top:
                p[k, :k] += p[k, k + 1 : top] @ p[k + 1 : top, :k]
                p[:k, k] += p[:k, k + 1 : top] @ p[k + 1 : top, k]
            s = p[k, :k].sum()
            if s <= 0.0:
                raise StationaryConvergenceError(
                    "chain is reducible: no escape mass from a trapped block"
                )
            p[:k, k] /= s
        slab = max(1, _GTH_SLAB // ((top - lo) * lo))
        for r in range(0, lo, slab):
            p[r : r + slab, :lo] += p[r : r + slab, lo:top] @ p[lo:top, :lo]
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ p[:k, k]
    return pi / pi.sum()


def _residual(kernel: np.ndarray | sp.csr_matrix, pi: np.ndarray) -> float:
    """|pi P - pi|_1."""
    return float(np.abs(np.asarray(pi @ kernel).ravel() - pi).sum())


def stationary_distribution(
    chain: PerturbedChain, tol: float = 1e-10, max_iter: int = 200_000
) -> np.ndarray:
    """Stationary probabilities of the chain.

    Small chains are solved exactly by GTH elimination; larger (sparse)
    chains fall back to power iteration, raising if the residual does not
    reach `tol` within `max_iter` sweeps.
    """
    kernel = chain.kernel
    n = chain.n_states
    if n <= DENSE_SOLVE_LIMIT:
        dense = kernel.toarray() if sp.issparse(kernel) else kernel
        pi = _gth_stationary(dense)
        residual = _residual(dense, pi)
        if residual > max(tol, 1e-12 * n):
            raise StationaryConvergenceError(f"GTH residual {residual:.3e} > {tol}")
        return pi
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = np.asarray(pi @ kernel).ravel()
        nxt /= nxt.sum()
        if np.abs(nxt - pi).sum() <= tol:
            return nxt
        pi = nxt
    raise StationaryConvergenceError(
        f"power iteration did not converge within {max_iter} sweeps"
    )


@dataclass
class StableSetReport:
    """Stationary masses across a decreasing noise schedule.

    Per noise level it also records the chain build and stationary solve
    wall times in seconds and the solve's residual |pi P - pi|_1.
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
) -> StableSetReport:
    """States whose stationary mass survives as the noise level shrinks.

    A state qualifies when its mass is at least `mass_threshold` at the
    smallest noise level and non-decreasing (within `_TREND_SLACK`) along the
    whole schedule.
    """
    levels = tuple(float(e) for e in noise_levels)
    if any(not 0 < e < 1 for e in levels):
        raise ValueError("noise levels must lie in (0, 1)")
    if any(b >= a for a, b in zip(levels, levels[1:])):
        raise ValueError("noise levels must be strictly decreasing")
    masses, build_s, solve_s, residuals = [], [], [], []
    for e in levels:
        start = time.perf_counter()
        chain = build_chain(game, wake, constraints, e)
        built = time.perf_counter()
        masses.append(stationary_distribution(chain))
        solve_s.append(time.perf_counter() - built)
        build_s.append(built - start)
        residuals.append(_residual(chain.kernel, masses[-1]))
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


def _own_values(game: GameDefinition, space: _Space) -> list[np.ndarray]:
    """Per-player own-action payoffs of a separable game, else SeparabilityError."""
    values: list[np.ndarray] = []
    for i in range(game.n_players):
        # the first state playing action b for player i has every other player at 0
        first = space.actions[:, i] * space.strides[i]
        u = space.payoffs[:, i]
        bad = np.flatnonzero(u != u[first])
        if bad.size:
            k = bad[0]
            raise SeparabilityError(i, space.states[first[k]], space.states[k])
        values.append(u[np.arange(game.n_actions(i)) * space.strides[i]])
    return values


def _feasible_pairs(game: GameDefinition, constraints: ConstrainedActionMap, space: _Space):
    """Chunks of (source, target) index arrays of every feasible transition.

    Self-transitions are included; pairs come in (source, target) state
    order, the targets of a source being the product of the players'
    feasible-target sets.
    """
    n_players = game.n_players
    tables = [_option_table(game, constraints, i, feasible=True) for i in range(n_players)]
    count = np.ones(len(space.states), dtype=np.int64)
    for i, (_, counts) in enumerate(tables):
        count *= counts[space.actions[:, i]]
    for lo, hi in _chunks(count):
        rows, shifts = _trial_grid(space, tables, range(n_players), lo, hi)
        source = rows + lo
        yield source, source + sum(shifts)


def _pair_resistances(space: _Space, source: np.ndarray, target: np.ndarray):
    """(deviator bits, forward, backward) resistances of transition pairs.

    Each player's term is added in player order as in `resistance`, so the
    values equal its results exactly.
    """
    bits = np.zeros(len(source), dtype=np.int64)
    forward = np.zeros(len(source))
    backward = np.zeros(len(source))
    for i in range(space.payoffs.shape[1]):
        deviates = space.actions[source, i] != space.actions[target, i]
        u_source, u_target = space.payoffs[source, i], space.payoffs[target, i]
        bits |= deviates.astype(np.int64) << i
        forward = forward + np.where(deviates, np.maximum(u_source, u_target) - u_target, 0.0)
        backward = backward + np.where(deviates, np.maximum(u_target, u_source) - u_source, 0.0)
    return bits, forward, backward


def transition_resistances(
    game: GameDefinition, constraints: ConstrainedActionMap
) -> list[tuple[JointAction, JointAction, tuple[int, ...], float]]:
    """(source, target, deviators, resistance) of every feasible transition
    between distinct joint actions, in (source, target) state order."""
    space = _space(game)
    deviator_sets = [
        tuple(i for i in range(game.n_players) if bits >> i & 1)
        for bits in range(1 << game.n_players)
    ]
    states = space.states
    out = []
    for source, target in _feasible_pairs(game, constraints, space):
        moved = source != target
        source, target = source[moved], target[moved]
        bits, forward, _ = _pair_resistances(space, source, target)
        out += [
            (states[a], states[b], deviator_sets[d], r)
            for a, b, d, r in zip(source.tolist(), target.tolist(), bits.tolist(), forward.tolist())
        ]
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
) -> ResistanceIdentityReport:
    """Check R(a->b) - R(b->a) == potential(a) - potential(b) exhaustively.

    Requires a separable game (checked, with a witness on failure) and a
    symmetric constraint map; the potential is the sum of own-action values.
    Every feasible ordered pair, including multi-deviator and self
    transitions, is checked.
    """
    report = validate_constraints(constraints)
    if not report.symmetric:
        raise ValueError(
            f"constraint map must be symmetric; offending edges {report.asymmetric_pairs[:3]}"
        )
    space = _space(game)
    values = _own_values(game, space)
    potential = np.zeros(len(space.states))
    for i in range(game.n_players):
        potential = potential + values[i][space.actions[:, i]]
    violations: list[tuple[JointAction, JointAction, float]] = []
    worst = 0.0
    checked = 0
    for source, target in _feasible_pairs(game, constraints, space):
        _, forward, backward = _pair_resistances(space, source, target)
        residual = np.abs((forward - backward) - (potential[source] - potential[target]))
        checked += len(source)
        worst = max(worst, float(residual.max()))
        for k in np.flatnonzero(residual > tol):
            violations.append(
                (space.states[source[k]], space.states[target[k]], float(residual[k]))
            )
    return ResistanceIdentityReport(
        pairs_checked=checked,
        max_residual=worst,
        violations=tuple(violations),
        tol=tol,
    )


@dataclass
class MinResistanceTree:
    root: JointAction
    edges: tuple[tuple[JointAction, JointAction, float], ...]
    total_resistance: float


def min_resistance_tree(
    game: GameDefinition,
    constraints: ConstrainedActionMap,
    root: JointAction,
    max_states: int = 12,
) -> MinResistanceTree:
    """Minimum-total-resistance spanning in-tree toward `root`.

    Edges are all feasible transitions (single- and multi-deviator).  The
    optimum is found by Edmonds' arborescence algorithm on the edge-reversed
    graph with the root's parent edges removed; the total resistance of the
    tree is the root's stochastic potential.
    """
    if game.joint_size > max_states:
        raise ValueError(
            f"{game.joint_size} states exceed the exhaustive-search cap {max_states}"
        )
    states = list(game.joint_actions())
    if root not in set(states):
        raise ValueError(f"root {root} is not a joint action of the game")
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
    game: GameDefinition,
    constraints: ConstrainedActionMap,
    root: JointAction,
    max_states: int = 12,
) -> float:
    return min_resistance_tree(game, constraints, root, max_states).total_resistance
