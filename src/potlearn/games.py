"""Finite normal-form games: potentials, best responses, and the logit map.

A joint action is a tuple of per-player action indices.  Utilities are
evaluated through a callback, so a game may be backed by dense payoff tables
(small, exhaustively analyzable instances) or by an arbitrary evaluator such
as the coverage world, whose joint-action space does not fit in a table.

All operations here are pure functions of their inputs and safe to call
concurrently on shared game objects.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

JointAction = tuple[int, ...]

# Relative tolerance for grouping near-equal computed payoffs as argmax ties.
TIE_REL_TOL = 1e-12


class ImprovementLimitError(RuntimeError):
    """An improvement path exceeded its step budget without terminating."""


@dataclass(eq=False)
class GameDefinition:
    """A finite N-player game.

    action_sets holds one tuple of action labels per player; utility_fn maps
    (player index, joint action) to a finite real payoff and must be defined
    on the whole joint-action space.  row_fn, when given, maps (player, joint
    action) to that player's payoff for each of its actions with the others'
    held fixed, equal entry for entry to the utility_fn loop it replaces.
    """

    action_sets: tuple[tuple[str, ...], ...]
    utility_fn: Callable[[int, JointAction], float]
    players: tuple[str, ...] = ()
    row_fn: Callable[[int, JointAction], np.ndarray] | None = None

    def __post_init__(self) -> None:
        self.action_sets = tuple(tuple(s) for s in self.action_sets)
        if not self.action_sets or any(len(s) == 0 for s in self.action_sets):
            raise ValueError("every player needs a non-empty action set")
        if not self.players:
            self.players = tuple(f"p{i}" for i in range(len(self.action_sets)))
        if len(self.players) != len(self.action_sets):
            raise ValueError("players and action_sets lengths differ")

    @property
    def n_players(self) -> int:
        return len(self.action_sets)

    def n_actions(self, player: int) -> int:
        return len(self.action_sets[player])

    @property
    def joint_size(self) -> int:
        return math.prod(len(s) for s in self.action_sets)

    def joint_actions(self) -> Iterator[JointAction]:
        return itertools.product(*(range(len(s)) for s in self.action_sets))

    def utility(self, player: int, action: JointAction) -> float:
        return float(self.utility_fn(player, action))

    def utilities(self, action: JointAction) -> tuple[float, ...]:
        return tuple(self.utility(i, action) for i in range(self.n_players))

    def utility_row(self, player: int, action: JointAction) -> np.ndarray:
        """Payoff of each of `player`'s actions, the others' held at `action`."""
        if self.row_fn is not None:
            return np.asarray(self.row_fn(player, action), dtype=float)
        return np.array(
            [
                self.utility(player, replace_action(action, player, b))
                for b in range(self.n_actions(player))
            ]
        )

    @classmethod
    def from_tables(
        cls,
        tables: Sequence[np.ndarray],
        players: Sequence[str] | None = None,
        action_labels: Sequence[Sequence[str]] | None = None,
    ) -> "GameDefinition":
        """Build a game from one dense payoff array per player.

        Each array must have one axis per player, identically shaped across
        players, and contain only finite values.
        """
        arrays = [np.asarray(t, dtype=float) for t in tables]
        if not arrays:
            raise ValueError("need at least one payoff table")
        shape = arrays[0].shape
        if len(shape) != len(arrays):
            raise ValueError("payoff tables must have one axis per player")
        for a in arrays:
            if a.shape != shape:
                raise ValueError("payoff tables must share a common shape")
            if not np.isfinite(a).all():
                raise ValueError("payoffs must be finite")
        if action_labels is None:
            action_labels = [[f"a{j}" for j in range(n)] for n in shape]
        sets = tuple(tuple(labels) for labels in action_labels)
        return cls(
            action_sets=sets,
            utility_fn=lambda i, a: float(arrays[i][a]),
            players=tuple(players) if players else (),
        )

    @classmethod
    def identical_interest(cls, table: np.ndarray) -> "GameDefinition":
        """All players share the payoff array `table` (one axis per player)."""
        arr = np.asarray(table, dtype=float)
        return cls.from_tables([arr] * arr.ndim)


def replace_action(action: JointAction, player: int, value: int) -> JointAction:
    return action[:player] + (value,) + action[player + 1 :]


def check_simplex(weights: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Validate a mixed strategy: non-negative weights summing to one."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("mixed strategy must be a non-empty 1-d vector")
    if (w < -tol).any() or abs(w.sum() - 1.0) > tol:
        raise ValueError("mixed strategy weights must be >= 0 and sum to 1")
    return w


def argmax_ties(values: Sequence[float], rel_tol: float = TIE_REL_TOL) -> tuple[int, ...]:
    """Indices of all values within a relative tolerance of the maximum."""
    vals = np.asarray(values, dtype=float)
    top = vals.max()
    cut = top - rel_tol * max(1.0, abs(top))
    return tuple(np.flatnonzero(vals >= cut).tolist())


@dataclass
class PotentialCertificate:
    """Result of checking a candidate potential against a game.

    max_violation is the worst absolute mismatch between a unilateral
    potential change and the deviator's utility change; witness records one
    maximizing (player, action_from, action_to, profile_from) quadruple when
    the mismatch exceeds the tolerance.
    """

    potential: dict[JointAction, float]
    max_violation: float
    witness: tuple[int, int, int, JointAction] | None
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_violation <= self.tol


def verify_potential(
    game: GameDefinition,
    potential: Mapping[JointAction, float],
    tol: float = 1e-9,
) -> PotentialCertificate:
    """Exhaustively check a candidate potential over all unilateral deviations."""
    table = dict(potential)
    if len(table) != game.joint_size:
        raise ValueError("potential table size does not match the joint-action space")
    for a in game.joint_actions():
        if a not in table:
            raise ValueError(f"potential table missing joint action {a}")
    worst = 0.0
    witness: tuple[int, int, int, JointAction] | None = None
    for i in range(game.n_players):
        other_ranges = [
            range(game.n_actions(k)) for k in range(game.n_players) if k != i
        ]
        for ctx in itertools.product(*other_ranges):
            for a1, a2 in itertools.combinations(range(game.n_actions(i)), 2):
                p1 = ctx[:i] + (a1,) + ctx[i:]
                p2 = ctx[:i] + (a2,) + ctx[i:]
                dphi = table[p2] - table[p1]
                du = game.utility(i, p2) - game.utility(i, p1)
                violation = abs(dphi - du)
                if violation > worst:
                    worst = violation
                    witness = (i, a1, a2, p1)
    return PotentialCertificate(
        potential=table,
        max_violation=worst,
        witness=witness if worst > tol else None,
        tol=tol,
    )


def construct_potential(
    game: GameDefinition, tol: float = 1e-9
) -> dict[JointAction, float] | None:
    """Recover a potential table by path integration, or None.

    Sums unilateral utility differences along the canonical coordinate path
    from the all-first-actions profile (anchored at zero there).  If the
    resulting table fails the exhaustive deviation check at `tol`, path sums
    disagree and the game is not a potential game.
    """
    ref = (0,) * game.n_players
    table: dict[JointAction, float] = {}
    for a in game.joint_actions():
        total = 0.0
        cur = list(ref)
        for i in range(game.n_players):
            prev = tuple(cur)
            cur[i] = a[i]
            step = tuple(cur)
            if a[i] != 0:
                total += game.utility(i, step) - game.utility(i, prev)
        table[a] = total
    cert = verify_potential(game, table, tol)
    return table if cert.ok else None


def best_response_set(
    game: GameDefinition, player: int, context: JointAction
) -> tuple[int, ...]:
    """All payoff-maximizing actions of `player` against `context`'s others."""
    return argmax_ties(game.utility_row(player, context))


def is_pure_nash(game: GameDefinition, profile: JointAction) -> bool:
    return all(
        profile[i] in best_response_set(game, i, profile)
        for i in range(game.n_players)
    )


def expected_utility(
    game: GameDefinition, player: int, strategies: Sequence[np.ndarray]
) -> float:
    """Expected payoff of `player` under a full mixed-strategy profile."""
    if len(strategies) != game.n_players:
        raise ValueError("need one mixed strategy per player")
    mixed = [np.asarray(x, dtype=float) for x in strategies]
    for i, x in enumerate(mixed):
        if x.shape != (game.n_actions(i),):
            raise ValueError(f"strategy for player {i} has the wrong length")
    total = 0.0
    for a in game.joint_actions():
        weight = math.prod(mixed[i][a[i]] for i in range(game.n_players))
        if weight:
            total += weight * game.utility(player, a)
    return total


def logit_map(scores: Sequence[float], temperature: float) -> np.ndarray:
    """Probabilities proportional to exp(score / temperature).

    Max-score subtraction keeps the evaluation finite for any finite inputs,
    including scores of magnitude 1e300.
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise ValueError("need at least one score")
    shifted = (s - s.max()) / temperature
    w = np.exp(shifted)
    return w / w.sum()


def _first_improving(game: GameDefinition, profile: JointAction) -> JointAction | None:
    for i in range(game.n_players):
        here = game.utility(i, profile)
        for b in range(game.n_actions(i)):
            if b == profile[i]:
                continue
            candidate = replace_action(profile, i, b)
            if game.utility(i, candidate) > here:
                return candidate
    return None


def improvement_path(
    game: GameDefinition, start: JointAction, max_steps: int = 10_000
) -> list[JointAction]:
    """Follow strictly improving unilateral deviations until none remain.

    Ties are broken deterministically: lowest player index, then lowest
    action index.  The terminal profile is a pure Nash equilibrium.  Raises
    ImprovementLimitError after max_steps deviations, which signals either a
    non-potential game or too small a budget.
    """
    current = start
    path = [start]
    for _ in range(max_steps):
        nxt = _first_improving(game, current)
        if nxt is None:
            return path
        current = nxt
        path.append(nxt)
    if _first_improving(game, current) is None:
        return path
    raise ImprovementLimitError(
        f"no terminal profile within {max_steps} improvement steps"
    )


def random_separable_game(
    rng: np.random.Generator,
    n_actions: Sequence[int],
    min_gap: float = 0.0,
    scale: float = 1.0,
) -> tuple[GameDefinition, dict[JointAction, float]]:
    """Random game where each player's payoff depends only on its own action.

    With min_gap > 0, each player's own-action values are a random permutation
    of an evenly spaced grid, so per-player payoffs are distinct with exactly
    that gap and the potential has a unique maximizer.  Returns the game and
    its potential table (the sum of own-action values).
    """
    values = []
    for k in n_actions:
        if min_gap > 0:
            v = min_gap * rng.permutation(k).astype(float)
        else:
            v = scale * rng.uniform(size=k)
        values.append(v)
    shape = tuple(int(k) for k in n_actions)
    tables = []
    for i, v in enumerate(values):
        axes = [1] * len(shape)
        axes[i] = shape[i]
        tables.append(np.broadcast_to(v.reshape(axes), shape).copy())
    game = GameDefinition.from_tables(tables)
    potential = {
        a: float(sum(values[i][a[i]] for i in range(len(shape))))
        for a in itertools.product(*(range(k) for k in shape))
    }
    return game, potential


def random_potential_game(
    rng: np.random.Generator, n_actions: Sequence[int], scale: float = 1.0
) -> tuple[GameDefinition, dict[JointAction, float]]:
    """Random exact potential game, generally non-separable.

    Each player's payoff is a shared random potential plus a player-specific
    term that depends only on the others' actions, which leaves unilateral
    payoff changes equal to potential changes.
    """
    shape = tuple(int(k) for k in n_actions)
    phi = scale * rng.uniform(size=shape)
    tables = []
    for i in range(len(shape)):
        other_shape = shape[:i] + (1,) + shape[i + 1 :]
        bias = scale * rng.uniform(size=other_shape)
        tables.append(phi + np.broadcast_to(bias, shape))
    game = GameDefinition.from_tables(tables)
    potential = {
        a: float(phi[a]) for a in itertools.product(*(range(k) for k in shape))
    }
    return game, potential
