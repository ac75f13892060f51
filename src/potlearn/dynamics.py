"""Log-linear learning dynamics: single-updater, binary, and partial-synchronous.

Three learners share the same binary smoothed-best-response kernel:

* ``lll_step``     -- one uniformly random player resamples its action from a
  full-support logit distribution over its entire action set.
* ``blll_step``    -- one uniformly random player draws a single trial action
  from its constrained set and plays a binary logit choice against it.
* ``psblll_step``  -- every player independently wakes with its revision
  probability; the awake set draws trials simultaneously and each awake
  player plays a binary logit choice between staying and the profile in
  which all awake players adopt their trials.

Step functions mutate only the state passed in and advance its RNG stream;
distinct runs with distinct states may execute concurrently.  Each step
records which players woke and which adopted a new action: for the binary
learners a player adopts when it takes its trial, even a trial of its own
current action; for ``lll_step`` only when the resampled action differs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .games import GameDefinition, JointAction, logit_map, replace_action

WakeModel = float | Sequence[float] | Callable[[int, JointAction], float]


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


def validate_constraints(constraints: ConstrainedActionMap) -> ConstraintReport:
    """Check that every player's reachability graph is connected and symmetric.

    Both properties must hold for the binary and partial-synchronous learners'
    stability guarantees to apply.
    """
    asymmetric: list[tuple[int, int, int]] = []
    disconnected: list[int] = []
    for i, player_map in enumerate(constraints.reachable):
        n = len(player_map)
        for a, dests in enumerate(player_map):
            for b in dests:
                if a not in player_map[b]:
                    asymmetric.append((i, a, b))
        # directed reachability from every action to every other
        ok = True
        for start in range(n):
            seen = {start}
            frontier = [start]
            while frontier:
                a = frontier.pop()
                for b in player_map[a]:
                    if b not in seen:
                        seen.add(b)
                        frontier.append(b)
            if len(seen) != n:
                ok = False
                break
        if not ok:
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
    [prob_clamp, 1 - prob_clamp] to keep probabilities strictly inside (0, 1).
    """

    explore_wake: float = 1.0     # wake probability with nothing sensed
    climb_wake: float = 0.5       # wake probability at maximal gradient
    settle_wake: float = 0.1      # documented target once settled on a peak
    drop_rate: float = 4.0
    prob_clamp: float = 1e-6

    def __post_init__(self) -> None:
        if not 0 < self.explore_wake <= 1:
            raise ValueError("explore_wake must be in (0, 1]")
        if not 0 < self.climb_wake < 1:
            raise ValueError("climb_wake must be in (0, 1)")
        if not self.drop_rate > 0:
            raise ValueError("drop_rate must be positive")
        if not 0 < self.prob_clamp < 0.5:
            raise ValueError("prob_clamp must be in (0, 0.5)")

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
    lo = policy.prob_clamp
    return min(max(raw, lo), 1.0 - lo)


@dataclass
class LoglinearState:
    """Evolving state of a log-linear run: joint action, temperature, clock, RNG,
    and the players that woke and adopted in the last step."""

    action: JointAction
    temperature: float
    rng: np.random.Generator
    n: int = 0
    awake: tuple[int, ...] = ()
    adopted: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")
        self.action = tuple(self.action)

    @property
    def noise_level(self) -> float:
        """Perturbation index exp(-1 / temperature) of the induced chain."""
        return math.exp(-1.0 / self.temperature)


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
    probs = logit_map(game.utility_row(i, state.action), state.temperature)
    choice = int(state.rng.choice(game.n_actions(i), p=probs))
    state.awake = (i,)
    state.adopted = (i,) if choice != state.action[i] else ()
    state.action = replace_action(state.action, i, choice)
    state.n += 1
    return state


def blll_step(
    game: GameDefinition, state: LoglinearState, constraints: ConstrainedActionMap
) -> LoglinearState:
    """One uniformly random player plays a binary logit against one trial."""
    i = int(state.rng.integers(game.n_players))
    options = constraints.allowed(i, state.action[i])
    trial = int(options[state.rng.integers(len(options))])
    u_keep = game.utility(i, state.action)
    u_trial = game.utility(i, replace_action(state.action, i, trial))
    keep, _ = binary_logit_weights(u_keep, u_trial, state.temperature)
    state.awake = (i,)
    state.adopted = ()
    if state.rng.random() >= keep:
        state.action = replace_action(state.action, i, trial)
        state.adopted = (i,)
    state.n += 1
    return state


def resolve_wake_probability(
    wake: WakeModel, player: int, action: JointAction
) -> float:
    if wake is None:
        raise ValueError("need wake probabilities unless forced_awake is given")
    if callable(wake):
        p = float(wake(player, action))
    elif isinstance(wake, (int, float)):
        p = float(wake)
    else:
        p = float(wake[player])
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"wake probability {p} outside [0, 1]")
    return p


def psblll_step(
    game: GameDefinition,
    state: LoglinearState,
    constraints: ConstrainedActionMap,
    wake: WakeModel,
    forced_awake: Sequence[int] | None = None,
) -> LoglinearState:
    """Partial-synchronous binary step: independent wake-ups, simultaneous trials.

    Each awake player draws one trial uniformly from its constrained set;
    the alternative payoff every awake player weighs is evaluated at the
    profile where all awake players adopt their trials and sleepers repeat.
    `forced_awake` bypasses the wake draws entirely (used to compare against
    the single-updater kernel); sleeping players' actions are untouched.
    """
    if forced_awake is not None:
        awake = sorted(set(int(i) for i in forced_awake))
    else:
        awake = [
            i
            for i in range(game.n_players)
            if state.rng.random() < resolve_wake_probability(wake, i, state.action)
        ]
    state.awake = tuple(awake)
    state.adopted = ()
    if not awake:
        state.n += 1
        return state
    trials: dict[int, int] = {}
    for i in awake:
        options = constraints.allowed(i, state.action[i])
        trials[i] = int(options[state.rng.integers(len(options))])
    trial_profile = tuple(
        trials.get(i, state.action[i]) for i in range(game.n_players)
    )
    new_action = list(state.action)
    adopted = []
    for i in awake:
        keep, _ = binary_logit_weights(
            game.utility(i, state.action),
            game.utility(i, trial_profile),
            state.temperature,
        )
        if state.rng.random() >= keep:
            new_action[i] = trials[i]
            adopted.append(i)
    state.action = tuple(new_action)
    state.adopted = tuple(adopted)
    state.n += 1
    return state
