"""`run_experiment` against the plain Q-learner runner of `reference_qrun`.

The Q runner's shortcuts (the game's payoff memo, the strategy maxima carried
out of each round, the allowed-cell draws and the commit path that keeps the
cell tuples of robots that stay) must leave the run's CSV and final flags
byte-identical to the reference's, on small random configs of both learners.
"""
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st_

from potlearn.harness import ExperimentConfig, run_experiment

from reference_run import reference_qrun
from test_reference_run import components


@st_.composite
def small_configs(draw, algorithm):
    """A small run of a Q-learner.  Selection steps near 1 and low commitment
    thresholds bring `soql` into the commitment zone within a few rounds,
    and large perturbations spend the token there."""
    grid = draw(st_.integers(3, 12))
    steps = st_.lists(st_.floats(0.01, 0.99), min_size=2, max_size=2, unique=True)
    selection, aggregation = sorted(draw(steps))  # 0 < selection < aggregation < 1
    return ExperimentConfig(
        algorithm=algorithm,
        grid_size=grid,
        robots=draw(st_.integers(1, 4)),
        iterations=draw(st_.integers(1, 60)),
        steady_window=draw(st_.integers(2, 80)),
        steady_tol=draw(st_.sampled_from((0.0, 1e-4, 1e-2))),
        scenario_components=draw(components(grid)),
        temperature=draw(st_.sampled_from((0.01, 0.1, 1.0))),
        cover_radius=draw(st_.sampled_from((0.5, 1.0, 1.5, math.sqrt(2.0), 2.0, 2.5))),
        move_cost=draw(st_.sampled_from((1e-6, 3e-5, 1e-3))),
        aggregation_step=aggregation,
        selection_step=selection,
        perturbation_size=draw(st_.sampled_from((0.01, 0.3, 0.9))),
        commitment_threshold=draw(st_.sampled_from((0.5, 0.9, 0.9999))),
    )


@pytest.mark.parametrize("algorithm", ["ql", "soql"])
@given(data=st_.data())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_qrun_equals_the_reference_run_byte_for_byte(algorithm, data):
    config = data.draw(small_configs(algorithm), label="config")
    seed = data.draw(st_.integers(0, 2**16), label="seed")
    got, want = run_experiment(config, seed), reference_qrun(config, seed)
    assert got.to_csv() == want.to_csv()
    assert got.final_flags == want.final_flags
