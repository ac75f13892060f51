"""Tabular reinforcement learners.

Two learners operate on per-player score tables:

* standard first-order Q-learning with Boltzmann action selection, and
* a second-order variant in which realized payoffs feed a payoff trace,
  the trace feeds the Q-values (a double aggregation that deepens the
  memory of past play), and the mixed strategy mixes geometrically toward
  the greedy best response of the Q row.

Closed-form iterates of the constant-step recursions are provided so the
step operators can be cross-checked against exact expressions; a vertex
perturbation re-injects exploration once strategies commit.

The episode steps score every player with the game's utility at the
realized joint action before any state outside the learner changes.  On the
coverage game (`coverage.as_game`) that is each robot's move payoff against
the world before the round's moves and flags, so the payoffs do not depend
on the order of the players.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dynamics import ConstrainedActionMap
from .games import GameDefinition, argmax_ties, logit_map


@dataclass(frozen=True)
class SOQLParams:
    """Parameters of the second-order learner.

    selection_step must stay below aggregation_step (both in (0, 1)):
    strategies must commit more slowly than scores aggregate.
    """

    aggregation_step: float = 0.97    # score update step
    selection_step: float = 0.5       # strategy mixing step toward the greedy target
    perturbation_size: float = 0.01   # exploration mass injected at full commitment
    commitment_threshold: float = 0.9999  # max-norm level at which perturbation arms
    temperature: float = 0.1          # Boltzmann temperature of the first-order comparator

    def __post_init__(self) -> None:
        if not 0 < self.selection_step < self.aggregation_step < 1:
            raise ValueError("need 0 < selection_step < aggregation_step < 1")
        if not 0 < self.perturbation_size < 1:
            raise ValueError("perturbation_size must lie in (0, 1)")
        if not 0 < self.commitment_threshold < 1:
            raise ValueError("commitment_threshold must lie in (0, 1)")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")


@dataclass
class QState:
    """Per-player score tables, mixed strategies, and standing actions of a run."""

    payoff_trace: list[np.ndarray]   # first aggregate, fed by realized payoffs
    q_values: list[np.ndarray]       # second aggregate, fed by the payoff trace
    strategies: list[np.ndarray]
    actions: list[int] = field(default_factory=list)
    n: int = 0

    @classmethod
    def initial(
        cls,
        action_counts: Sequence[int],
        initial_actions: Sequence[int] | None = None,
    ) -> "QState":
        """Zero scores and uniform strategies."""
        return cls(
            payoff_trace=[np.zeros(k) for k in action_counts],
            q_values=[np.zeros(k) for k in action_counts],
            strategies=[np.full(k, 1.0 / k) for k in action_counts],
            actions=list(initial_actions) if initial_actions else [0] * len(action_counts),
        )


def q_update(
    state: QState, player: int, played: int, payoff: float, step: float
) -> QState:
    """First-order update: only the played action's Q moves toward the payoff."""
    if not 0 < step <= 1:
        raise ValueError("step must lie in (0, 1]")
    q = state.q_values[player]
    q[played] += step * (payoff - q[played])
    return state


def boltzmann_strategy(state: QState, player: int, temperature: float) -> np.ndarray:
    """Logit distribution over the player's Q row."""
    return logit_map(state.q_values[player], temperature)


def soql_update(
    state: QState, player: int, played: int, payoff: float, step: float
) -> QState:
    """Second-order update of the played action's trace and Q value.

    The Q row sees the pre-update trace of the same iteration (the two rows
    advance simultaneously); unplayed actions keep stale values.
    """
    trace = state.payoff_trace[player]
    q = state.q_values[player]
    old_trace = trace[played]
    trace[played] += step * (payoff - trace[played])
    q[played] += step * (old_trace - q[played])
    return state


def best_response_indices(q_row: np.ndarray) -> tuple[int, ...]:
    """Maximizing actions of a Q row, grouping near-equal values as ties."""
    return argmax_ties(np.asarray(q_row, dtype=float))


def greedy_update(
    state: QState,
    player: int,
    selection_step: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Mix the strategy one step toward the pure best response of the Q row.

    Among tied maximizers one is drawn uniformly at random when an RNG is
    supplied, otherwise the lowest index wins.
    """
    ties = best_response_indices(state.q_values[player])
    target = int(ties[0]) if rng is None or len(ties) == 1 else int(rng.choice(ties))
    x = state.strategies[player]
    x *= 1.0 - selection_step
    x[target] += selection_step
    return x


def payoff_trace_after(trace0: float, payoff: float, step: float, repeats: int) -> float:
    """Closed form of the payoff trace after `repeats` identical plays."""
    if repeats < 0:
        raise ValueError("repeats must be non-negative")
    decay = (1.0 - step) ** repeats
    return decay * trace0 + (1.0 - decay) * payoff


def q_value_after(
    q_n: float, q_n1: float, payoff: float, step: float, repeats: int
) -> float:
    """Closed form of the Q value after `repeats` identical plays.

    Takes the values at two consecutive iterations (the second encodes the
    trace) and the constant payoff of the repeatedly played action.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    m = repeats
    d = 1.0 - step
    lead = m * d ** (m - 1)
    lag = (m - 1) * d**m
    return lead * q_n1 - lag * q_n + (lag - lead + 1.0) * payoff


def strategy_after(
    x0: np.ndarray, target: int, selection_step: float, repeats: int
) -> np.ndarray:
    """Closed form of the strategy after `repeats` greedy steps at a fixed target."""
    x = np.asarray(x0, dtype=float)
    decay = (1.0 - selection_step) ** repeats
    out = decay * x
    out[target] += 1.0 - decay
    return out


def perturb_strategy(
    x: np.ndarray, params: SOQLParams, zone_active: bool
) -> np.ndarray:
    """Blend a committed strategy with the uniform distribution.

    The blend weight ramps linearly from zero at the commitment threshold to
    `perturbation_size` at full commitment and is zero whenever the strategy
    is outside the commitment zone or the zone is not active.
    """
    x = np.asarray(x, dtype=float)
    if not zone_active:
        return x
    top = float(x.max())
    zeta = params.commitment_threshold
    rho = params.perturbation_size * max(0.0, (top - zeta) / (1.0 - zeta))
    if rho == 0.0:
        return x
    return (1.0 - rho) * x + rho / x.size


def adaptive_step(x_tilde: np.ndarray, action: int) -> float:
    """Step size 1 - weight: committed actions stop adapting, novel ones overwrite."""
    return 1.0 - float(x_tilde[action])


def constrained_draw(
    x: np.ndarray, allowed: Sequence[int], rng: np.random.Generator
) -> int:
    """Sample an action from a strategy restricted to `allowed` and renormalized.

    Masked-out mass is dropped, not redistributed into storage; when the
    allowed mass vanishes the draw is uniform over the allowed set.
    """
    idx = np.asarray(allowed, dtype=int)
    weights = np.asarray(x, dtype=float)[idx]
    total = weights.sum()
    if total <= 0.0:
        return int(idx[rng.integers(len(idx))])
    return int(idx[rng.choice(len(idx), p=weights / total)])


def commitment_zone_active(state: QState, params: SOQLParams) -> bool:
    """True once every player's strategy max-norm exceeds the threshold."""
    return all(float(x.max()) > params.commitment_threshold for x in state.strategies)


def soql_episode_step(
    game: GameDefinition,
    state: QState,
    params: SOQLParams,
    constraints: ConstrainedActionMap,
    rng: np.random.Generator,
) -> tuple[QState, tuple[int, ...]]:
    """One synchronous round of the second-order learner on a finite game.

    Every player draws from its strategy restricted to its constrained set,
    receives its payoff at the realized joint action, then applies the
    second-order score update and the greedy strategy step.  Once all
    strategies are inside the commitment zone, draws come from the perturbed
    strategy and step sizes adapt per action -- but a token limits the round
    to at most one realized non-best-response draw, so perturbations stay
    asynchronous.  Returns the state and the realized joint action.
    """
    zone = commitment_zone_active(state, params)
    token_available = True
    draws: list[int] = []
    draw_strategies: list[np.ndarray] = []
    for i in range(game.n_players):
        if zone and token_available:
            x_draw = perturb_strategy(state.strategies[i], params, True)
        else:
            x_draw = state.strategies[i]
        allowed = constraints.allowed(i, state.actions[i])
        a = constrained_draw(x_draw, allowed, rng)
        if zone and a not in best_response_indices(state.q_values[i]):
            token_available = False
        draws.append(a)
        draw_strategies.append(x_draw)
    realized = tuple(draws)
    for i in range(game.n_players):
        payoff = game.utility(i, realized)
        step = adaptive_step(draw_strategies[i], realized[i]) if zone else params.aggregation_step
        if step > 0.0:
            soql_update(state, i, realized[i], payoff, step)
        greedy_update(state, i, params.selection_step, rng)
    state.n += 1
    state.actions = list(realized)
    return state, realized


def ql_episode_step(
    game: GameDefinition,
    state: QState,
    params: SOQLParams,
    constraints: ConstrainedActionMap,
    rng: np.random.Generator,
) -> tuple[QState, tuple[int, ...]]:
    """One synchronous round of the first-order comparator.

    Boltzmann selection over the Q row at the configured temperature, with
    the same constrained-draw masking and payoff masking as the second-order
    learner; constant step size.
    """
    draws: list[int] = []
    for i in range(game.n_players):
        x = boltzmann_strategy(state, i, params.temperature)
        allowed = constraints.allowed(i, state.actions[i])
        draws.append(constrained_draw(x, allowed, rng))
    realized = tuple(draws)
    for i in range(game.n_players):
        q_update(state, i, realized[i], game.utility(i, realized), params.aggregation_step)
    state.n += 1
    state.actions = list(realized)
    return state, realized
