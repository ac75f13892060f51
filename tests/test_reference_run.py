"""`run_experiment` against the plain log-linear runner of `reference_run`.

Every shortcut of the runs (the game's row and payoff memos, the kept
sensing and wake probabilities, the sorted sensed history, the kept estimate
raster and the `AICState` candidate memo) must leave the run's CSV and its
estimate snapshots byte-identical to the reference's, on small random configs
of each log-linear learner in both field modes.
"""
import math

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st_

from potlearn.harness import ENVIRONMENTS, LOGLINEAR, ExperimentConfig, run_experiment

from reference_run import reference_run


@st_.composite
def components(draw, grid):
    """One to three diagonal Gaussian worth components on a `grid` field."""
    weights = draw(st_.lists(st_.integers(1, 4), min_size=1, max_size=3))
    out = []
    for w in weights:
        mean = [draw(st_.floats(0.0, float(grid))) for _ in range(2)]
        var = [draw(st_.floats(0.3, grid * grid / 16 + 0.3)) for _ in range(2)]
        out.append(
            {
                "weight": w / sum(weights),
                "mean": mean,
                "cov": [[var[0], 0.0], [0.0, var[1]]],
            }
        )
    return tuple(out)


@st_.composite
def small_configs(draw, environment):
    """A small run of a log-linear learner.  An `em_period` above 1 lets a log
    grow under a kept estimate between model checks, and temperature 1.0 (also
    the proposals' temperature) adopts candidates at random: together they
    reach the candidate memo's log-revision clause."""
    grid = draw(st_.integers(3, 12))
    return ExperimentConfig(
        algorithm=draw(st_.sampled_from(LOGLINEAR)),
        environment=environment,
        grid_size=grid,
        robots=draw(st_.integers(1, 4)),
        iterations=draw(st_.integers(1, 60)),
        steady_window=draw(st_.integers(2, 80)),
        steady_tol=draw(st_.sampled_from((0.0, 1e-4, 1e-2))),
        scenario_components=draw(components(grid)),
        temperature=draw(st_.sampled_from((0.01, 0.1, 1.0))),
        cover_radius=draw(st_.sampled_from((0.5, 1.0, 1.5, math.sqrt(2.0), 2.0, 2.5))),
        move_cost=draw(st_.sampled_from((1e-6, 3e-5, 1e-3))),
        repeat_factor=draw(st_.integers(0, 4)),
        worth_percentile=draw(st_.sampled_from((0.0, 37.5, 60.0, 100.0))),
        model_check_period=draw(st_.integers(0, 10)),
        em_iters=draw(st_.integers(1, 10)),
        em_period=draw(st_.integers(1, 4)),
    )


@pytest.mark.parametrize("environment", ENVIRONMENTS)
@given(data=st_.data())
# No shrink phase: shrinking reruns both runners on every smaller config, so a
# failure took minutes to report; it is reported with the config first drawn.
@settings(
    max_examples=80,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
    suppress_health_check=[HealthCheck.too_slow],
)
def test_run_equals_the_reference_run_byte_for_byte(environment, data):
    config = data.draw(small_configs(environment), label="config")
    seed = data.draw(st_.integers(0, 2**16), label="seed")
    got, want = run_experiment(config, seed), reference_run(config, seed)
    assert got.to_csv() == want.to_csv()
    assert got.estimates_csv() == want.estimates_csv()
    assert got.final_flags == want.final_flags
    assert got.failed_proposals == want.failed_proposals
