"""Golden run digests: the same (config, seed) must keep producing the same run.

Each case is a short, seeded run of one learner on an acceptance-suite
setting; its full `RunRecord.to_csv()` is hashed with SHA-256 and compared
with the digest recorded before any performance work on the coverage payoff.
A speed-up that changes a single bit of any column (positions, covered worth,
potential or diagnostics) fails here.  Regenerate a digest only when a change
of behaviour is intended, and say why in CHANGES.md.
"""
import dataclasses
import hashlib
from pathlib import Path

import pytest

from potlearn.harness import ExperimentConfig, run_experiment

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
