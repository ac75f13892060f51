"""Log-linear learning dynamics: single-updater, binary, and partial-synchronous.

Three learners share the same binary smoothed-best-response kernel:

* ``lll_step``     -- one uniformly random player resamples its action from a
  full-support logit distribution over its entire action set.
* ``blll_step``    -- one uniformly random player draws a single trial action
  from its constrained set and plays a binary logit choice against it.
* ``psblll_step``  -- every player independently wakes with its revision
  probability; the awake set draws trials simultaneously and each awake
  player plays a binary logit choice between staying and its own trial,
  weighed with the others at their current actions.  A revising player
  knows the others' actions, not their simultaneous trials (Marden &
  Shamma's synchronous log-linear learning), so given the current profile
  the players move independently.

Step functions mutate only the state passed in and advance its RNG stream;
distinct runs with distinct states may execute concurrently.  Each step
records which players woke and which adopted a new action: for the binary
learners a player adopts when it takes its trial, even a trial of its own
current action; for ``lll_step`` only when the resampled action differs.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .games import GameDefinition, JointAction, draw_index, logit_map, replace_action

WakeModel = float | Sequence[float] | Callable[[int, JointAction], float]

# Keeps every revision probability strictly inside (0, 1): each player can
# always both wake and sleep.
PROB_CLAMP = 1e-6


@dataclass(frozen=True)
class ConstrainedActionMap:
    """Per-player map from the current action to the reachable actions.

    reachable[player][action] lists the action indices available from
    `action`, including (by the conventions of this package) the action
    itself when staying put is allowed.
    """

    reachable: tuple[tuple[tuple[int, ...], ...], ...]

    @classmethod
    def complete(cls, game: GameDefinition) -> "ConstrainedActionMap":
        """Every action reachable from every action (no constraint)."""
        return cls(
            tuple(
                tuple(tuple(range(game.n_actions(i))) for _ in range(game.n_actions(i)))
                for i in range(game.n_players)
            )
        )

    @classmethod
    def from_lists(cls, per_player: Sequence[Sequence[Sequence[int]]]) -> "ConstrainedActionMap":
        return cls(
            tuple(tuple(tuple(dests) for dests in player_map) for player_map in per_player)
        )

    @property
    def n_players(self) -> int:
        return len(self.reachable)

    def allowed(self, player: int, action: int) -> tuple[int, ...]:
        options = self.reachable[player][action]
        if not options:
            raise ValueError(f"empty constrained set for player {player} at action {action}")
        return options


@dataclass
class ConstraintReport:
    """Connectivity and symmetry diagnostics for a constrained action map."""

    connected: bool
    symmetric: bool
    disconnected_players: tuple[int, ...] = ()
    asymmetric_pairs: tuple[tuple[int, int, int], ...] = ()  # (player, from, to)

    @property
    def ok(self) -> bool:
        return self.connected and self.symmetric


def _reaches_all(graph: Sequence[Sequence[int]]) -> bool:
    """Whether a search from action 0 along `graph`'s edges reaches every action."""
    seen = {0} if graph else set()
    frontier = list(seen)
    while frontier:
        for b in graph[frontier.pop()]:
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return len(seen) == len(graph)


def validate_constraints(constraints: ConstrainedActionMap) -> ConstraintReport:
    """Check that every player's reachability graph is connected and symmetric.

    Both properties must hold for the binary and partial-synchronous learners'
    stability guarantees to apply.  A graph is strongly connected when one
    search from action 0 reaches every action along its edges and another
    does so against them.
    """
    asymmetric: list[tuple[int, int, int]] = []
    disconnected: list[int] = []
    for i, player_map in enumerate(constraints.reachable):
        dest_sets = [set(dests) for dests in player_map]
        reverse: list[list[int]] = [[] for _ in player_map]
        for a, dests in enumerate(player_map):
            for b in dests:
                reverse[b].append(a)
                if a not in dest_sets[b]:
                    asymmetric.append((i, a, b))
        if not (_reaches_all(player_map) and _reaches_all(reverse)):
            disconnected.append(i)
    return ConstraintReport(
        connected=not disconnected,
        symmetric=not asymmetric,
        disconnected_players=tuple(disconnected),
        asymmetric_pairs=tuple(asymmetric),
    )


@dataclass(frozen=True)
class RevisionPolicy:
    """Wake-up probability as a function of sensed signal and gradient.

    The curve decays exponentially in the normalized signal F at zero
    gradient and interpolates linearly in the normalized gradient G toward a
    fixed value at G = 1:

        rp(F, G) = (climb_wake - d(F)) * G + d(F),   d(F) = exp(-drop_rate * (F - anchor))

    with anchor = ln(explore_wake) / drop_rate, so rp(0, 0) = explore_wake and
    rp(., 1) = climb_wake.  settle_wake documents the intended wake level for
    a settled player (high signal, flat gradient); it is not a curve
    parameter -- tune drop_rate to move that regime.  Output is clamped to
    [PROB_CLAMP, 1 - PROB_CLAMP] (1e-6) to keep probabilities strictly inside
    (0, 1).
    """

    explore_wake: float = 1.0     # wake probability with nothing sensed
    climb_wake: float = 0.5       # wake probability at maximal gradient
    settle_wake: float = 0.1      # documented target once settled on a peak
    drop_rate: float = 4.0

    def __post_init__(self) -> None:
        if not 0 < self.explore_wake <= 1:
            raise ValueError("explore_wake must be in (0, 1]")
        if not 0 < self.climb_wake < 1:
            raise ValueError("climb_wake must be in (0, 1)")
        if not self.drop_rate > 0:
            raise ValueError("drop_rate must be positive")

    @property
    def anchor(self) -> float:
        return math.log(self.explore_wake) / self.drop_rate

    def probability(self, signal: float, gradient: float) -> float:
        return revision_probability(self, signal, gradient)


def revision_probability(policy: RevisionPolicy, signal: float, gradient: float) -> float:
    """Wake-up probability for normalized signal and gradient in [0, 1]."""
    if not 0 <= signal <= 1:
        raise ValueError("signal must lie in [0, 1]")
    if not 0 <= gradient <= 1:
        raise ValueError("gradient must lie in [0, 1]")
    decay = math.exp(-policy.drop_rate * (signal - policy.anchor))
    if gradient == 1.0:
        raw = policy.climb_wake
    else:
        raw = (policy.climb_wake - decay) * gradient + decay
    return min(max(raw, PROB_CLAMP), 1.0 - PROB_CLAMP)


@dataclass
class LoglinearState:
    """Evolving state of a log-linear run: joint action, temperature, clock, RNG,
    the players that woke and adopted in the last step, and every player's
    payoff at the step's new action with the others at the source.

    The payoffs are the values the step weighed (for a player that did not
    revise, its payoff at its kept action), so on the coverage game their
    sum is the step potential and costs no further payoff query.
    """

    action: JointAction
    temperature: float
    rng: np.random.Generator
    n: int = 0
    awake: tuple[int, ...] = ()
    adopted: tuple[int, ...] = ()
    payoffs: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")
        self.action = tuple(self.action)


def binary_logit_weights(
    u_current: float, u_alternative: float, temperature: float
) -> tuple[float, float]:
    """(keep, switch) probabilities of the binary logit choice.

    keep is proportional to exp(u_current / temperature) and switch to
    exp(u_alternative / temperature); the pair sums to 1 exactly.
    """
    d = (u_alternative - u_current) / temperature
    if d >= 0:
        e = math.exp(-d)
        keep = e / (1.0 + e)
    else:
        keep = 1.0 / (1.0 + math.exp(d))
    return keep, 1.0 - keep


def lll_step(game: GameDefinition, state: LoglinearState) -> LoglinearState:
    """One uniformly random player resamples from the full-support logit."""
    i = int(state.rng.integers(game.n_players))
    row = game.utility_row(i, state.action)
    choice = draw_index(logit_map(row, state.temperature), state.rng)
    state.awake = (i,)
    state.adopted = (i,) if choice != state.action[i] else ()
    source = game.utilities(state.action)
    state.payoffs = source[:i] + (float(row[choice]),) + source[i + 1 :]
    state.action = replace_action(state.action, i, choice)
    state.n += 1
    return state


def blll_step(
    game: GameDefinition, state: LoglinearState, constraints: ConstrainedActionMap
) -> LoglinearState:
    """One uniformly random player plays a binary logit against one trial:
    the partial-synchronous step with only that player awake."""
    i = int(state.rng.integers(game.n_players))
    return psblll_step(game, state, constraints, None, forced_awake=(i,))


def _is_real(value) -> bool:
    """A real number that is not a bool; a float is asked no further, since
    the steps ask this of every wake entry."""
    return type(value) is float or (
        isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    )


def wake_probabilities(wake: WakeModel, n_players: int, action: JointAction) -> list[float]:
    """Each player's wake probability at `action`.

    A scalar is every player's, a sequence holds exactly one per player and
    a callable is asked once per player.  Anything else is a ValueError
    naming `wake`, and so is a probability outside [0, 1].
    """
    if callable(wake):
        probs = [float(wake(i, action)) for i in range(n_players)]
    elif _is_real(wake):
        probs = [float(wake)] * n_players
    elif (
        # list and tuple first: the Sequence ABC check is the slow one
        isinstance(wake, (list, tuple, np.ndarray, Sequence))
        and not isinstance(wake, (str, bytes))
        and getattr(wake, "ndim", 1) == 1
        and len(wake) == n_players
        and all(_is_real(p) for p in wake)
    ):
        probs = [float(p) for p in wake]
    else:
        raise ValueError(
            f"wake must be a probability, a sequence of {n_players} probabilities "
            f"(one per player) or a callable, got {wake!r}"
        )
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"wake probability {p} outside [0, 1]")
    return probs


def psblll_step(
    game: GameDefinition,
    state: LoglinearState,
    constraints: ConstrainedActionMap,
    wake: WakeModel,
    forced_awake: Sequence[int] | None = None,
) -> LoglinearState:
    """Partial-synchronous binary step: independent wake-ups, simultaneous trials.

    Each awake player draws one trial uniformly from its constrained set and
    weighs its payoff there, the others held at their current actions,
    against its current payoff.  `forced_awake` bypasses the wake draws
    entirely (`blll_step` wakes its one player this way); sleeping players'
    actions are untouched.  `state.payoffs` keeps each awake player's
    weighed payoff at the option it took and each sleeping player's payoff
    at its action.
    """
    if forced_awake is not None:
        awake = sorted(set(int(i) for i in forced_awake))
    else:
        probs = wake_probabilities(wake, game.n_players, state.action)
        awake = [i for i, p in enumerate(probs) if state.rng.random() < p]
    state.awake = tuple(awake)
    trials = list(state.action)
    for i in awake:
        options = constraints.allowed(i, state.action[i])
        trials[i] = int(options[state.rng.integers(len(options))])
    new_action = list(state.action)
    adopted = []
    weighed = list(game.utilities(state.action))
    for i in awake:
        alternative = game.utility(i, replace_action(state.action, i, trials[i]))
        keep, _ = binary_logit_weights(weighed[i], alternative, state.temperature)
        if state.rng.random() >= keep:
            new_action[i] = trials[i]
            adopted.append(i)
            weighed[i] = alternative
    state.payoffs = tuple(weighed)
    state.action = tuple(new_action)
    state.adopted = tuple(adopted)
    state.n += 1
    return state
