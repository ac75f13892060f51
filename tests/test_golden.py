"""Golden digests: the same (config, seed) must keep producing the same run.

Each case is a short, seeded run of one learner on an acceptance-suite
setting; its full `RunRecord.to_csv()` is hashed with SHA-256 and compared
with the digest recorded before any performance work on the coverage payoff.
A speed-up that changes a single bit of any column (positions, covered worth,
potential or diagnostics) fails here.  Regenerate a digest only when a change
of behaviour is intended, and say why in CHANGES.md.  The model-search
digests pin the fitted mixture of `aic_model_search` the same way, and the
oracle digests pin `OracleReport.resistances_csv()`.
"""
import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest
import yaml

from potlearn.harness import ExperimentConfig, load_game_spec, oracle_report, run_experiment
from potlearn.mixtures import ObservationLog, aic_model_search
from potlearn.rng import make_rng
from potlearn.stability import StableSetReport

ROOT = Path(__file__).resolve().parents[1]

FIG5_COMPONENTS = (
    {"weight": 0.4, "mean": [8.0, 8.0], "cov": [[2.0, 0.0], [0.0, 2.0]]},
    {"weight": 0.35, "mean": [30.0, 12.0], "cov": [[1.8, 0.0], [0.0, 1.8]]},
    {"weight": 0.25, "mean": [15.0, 32.0], "cov": [[2.2, 0.0], [0.0, 2.2]]},
)

FIG7_COMPONENTS = (
    {"weight": 0.4, "mean": [4.0, 4.0], "cov": [[1.5, 0.0], [0.0, 1.5]]},
    {"weight": 0.35, "mean": [15.0, 6.0], "cov": [[1.3, 0.0], [0.0, 1.3]]},
    {"weight": 0.25, "mean": [8.0, 16.0], "cov": [[1.6, 0.0], [0.0, 1.6]]},
)


def golden_config(case: str) -> ExperimentConfig:
    """The config of one golden case: `<algorithm>-<setting>`."""
    algorithm, setting = case.split("-", 1)
    if setting == "fig5":
        return ExperimentConfig(
            algorithm=algorithm,
            grid_size=40,
            robots=5,
            iterations=1000,
            temperature=0.01,
            move_cost=3e-5,
            cover_radius=1.5,
            explore_wake=1.0,
            climb_wake=0.5,
            settle_wake=0.1,
            scenario_components=FIG5_COMPONENTS,
            steady_window=500,
            steady_tol=1e-6,
        )
    if setting == "fig7":
        return ExperimentConfig(
            algorithm=algorithm,
            grid_size=20,
            robots=5,
            iterations=1000,
            aggregation_step=0.97,
            selection_step=0.5,
            perturbation_size=0.01,
            commitment_threshold=0.9999,
            scenario_components=FIG7_COMPONENTS,
            steady_window=500,
            steady_tol=1e-6,
        )
    if setting == "estimated":
        config = ExperimentConfig.from_yaml(ROOT / "configs" / "psblll_estimated.yaml")
        return dataclasses.replace(config, algorithm=algorithm, iterations=400)
    raise ValueError(f"unknown golden setting {setting!r}")


def run_digest(case: str, seed: int) -> str:
    record = run_experiment(golden_config(case), seed)
    return hashlib.sha256(record.to_csv().encode()).hexdigest()


# Recorded with the disc-walk coverage payoff, before the disc-sum raster;
# the ql-fig7 digests were recorded again once the Q-learners scored every
# robot against the frozen pre-step snapshot instead of the committed world.
GOLDEN = {
    ("psblll-fig5", 0): "feb73f6af0827ff3e913cf961fad757c7ecf4dbacfa61ec5dcb1e2410b4c524f",
    ("psblll-fig5", 1): "3e049942601267fe3347fa79538e50422f5c73085859e308f8570ac294ac5512",
    ("blll-fig5", 0): "680afedeb231474682276b5e776a4f2b98da3e619f9e1d25faac045f2374513a",
    ("blll-fig5", 1): "67bca853320460ff4fa6a2f7543bdcd7c835db9fc177430004a05f4532c3646c",
    ("lll-fig5", 0): "4e70a2b5bd533dfd07cda65d9a571e0c557870b9942280690dbafe3d843291dd",
    ("lll-fig5", 1): "199689c4ee7a6fd774e440b2ed46c55494f4673ddf8044a5ef42ab7a23e74a91",
    ("ql-fig7", 0): "25f9498de1f92f095480d65b1f8ddf196491f8b47404da50a630a3e76aef9b32",
    ("ql-fig7", 1): "5c80936b01d21bdabd9acd68e5664d0ebc20a827ddb0f776df0e77e68e6124d6",
    ("soql-fig7", 0): "520ae2770a09359e10419c550e9105c400878f9818f9c9ada7a02e73d3db011c",
    ("soql-fig7", 1): "fd3e38a8f0d8e6fa1ca030b350f2916cacb6468523c76f36e275349595bd632b",
    ("psblll-estimated", 0): "253bf522fa126e261c7b2cd74cfa8d1ce22c42d4a165db6a090d0bafc1130207",
    ("psblll-estimated", 1): "dcd79ffdb855c95579ea9e51357d1ed3890bf39c71c6a7689c26488a7272d7db",
}


@pytest.mark.parametrize("case,seed", sorted(GOLDEN), ids=lambda v: str(v))
def test_run_csv_digest_is_unchanged(case, seed):
    assert run_digest(case, seed) == GOLDEN[(case, seed)]


def criterion7_log(s: int) -> ObservationLog:
    """The observation log of acceptance criterion 7, case `s`."""
    true_m = (s % 5) + 1
    rng = make_rng(s)
    while True:
        means = rng.uniform(6.0, 34.0, size=(true_m, 2))
        if all(
            np.linalg.norm(means[i] - means[j]) >= 10
            for i in range(true_m)
            for j in range(i + 1, true_m)
        ):
            break
    log = ObservationLog()
    for m in means:
        pts = np.clip(np.floor(rng.normal(m, 1.8, size=(2000 // true_m, 2))) + 0.5, 0.5, 39.5)
        for p in pts:
            log.append(p)
    return log


# SHA-256 of the weights, means and covariances `aic_model_search` returns on
# criterion-7 logs (rounds=14, rng seed 1000 + s), recorded while the online
# runs and the model search still had separate split/merge proposal code.
MODEL_SEARCH_GOLDEN = {
    1: "44673f775260502bf04ed321282c7fa4a6605bc413b9fc5068029100fc147209",
    4: "822ab16c99d7c89727407764337fc092fba3114993e07422274ccd8cb0113fc0",
    7: "aaac828ddd0283c651498a55a9e9c6dbe536047e0f5e7b830d9fa5b5edbd93ea",
    8: "a8c0f8172267066755d7d96cb4a203e9abd877d040b98252615de05f637c5eb9",
}


@pytest.mark.parametrize("s", sorted(MODEL_SEARCH_GOLDEN))
def test_model_search_digest_is_unchanged(s):
    est = aic_model_search(criterion7_log(s), make_rng(1000 + s), rounds=14)
    digest = hashlib.sha256()
    for array in (est.weights, est.means, est.covs):
        digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
    assert digest.hexdigest() == MODEL_SEARCH_GOLDEN[s]


def oracle_game(name: str, tmp_path: Path):
    """The separable 2x2 example config, or the 4x4 two-robot built-in coverage game."""
    if name == "separable-2x2":
        return load_game_spec(ROOT / "configs" / "game_separable_2x2.yaml")
    path = tmp_path / "coverage.yaml"
    spec = {"builtin": "coverage", "grid_size": 4, "robots": 2, "placement_seed": 0}
    path.write_text(yaml.safe_dump(spec))
    return load_game_spec(path)


# SHA-256 of `resistances_csv()` of `oracle_report` at its defaults, recorded
# while the payoff table still took one `game.utilities` call per joint action.
ORACLE_GOLDEN = {
    "separable-2x2": "82008cdab4faafc5c237063b46a7d0382360a1bb40043faaa54c911f07f06431",
    "coverage-4x4": "0946bbf4b5c6cc26063aaaf93b1b1b38573f9a85864dc9eb5a08f3d3e0195cdf",
}
# Stationary masses of some states at noise 1e-1, 1e-2 and 1e-3, recorded
# with the digests.  GTH runs through BLAS products, whose last bits may vary
# with the library, so these are compared to 1e-12 relative.
ORACLE_STATIONARY = {
    "separable-2x2": {
        0: [0.012436989873019106, 0.0002426075995082785, 3.961324294856893e-06],
        1: [0.07847210103607184, 0.009658382499501631, 0.0009950396747059973],
        2: [0.12436989873019098, 0.02426075995082783, 0.003961324294857468],
        3: [0.7847210103607181, 0.9658382499501623, 0.9950396747061416],
    },
    "coverage-4x4": {
        0: [0.0006660548444032108, 0.0002169531105231368, 6.012236653744315e-05],
        90: [0.016937472631968153, 0.027712651163247757, 0.03857641274474448],
        255: [0.002155895069890723, 0.0022730089045372263, 0.002038867254565976],
    },
}


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDEN))
def test_oracle_output_is_unchanged(name, tmp_path):
    report = oracle_report(*oracle_game(name, tmp_path))
    assert hashlib.sha256(report.resistances_csv().encode()).hexdigest() == ORACLE_GOLDEN[name]
    for k, masses in ORACLE_STATIONARY[name].items():
        assert report.stationary[:, k] == pytest.approx(masses, rel=1e-12, abs=0)
    assert isinstance(report, StableSetReport)
    assert report.stationary is report.masses
