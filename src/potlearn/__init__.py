"""Multi-agent learning lab for finite potential games.

Log-linear learners (single-updater, binary, partial-synchronous), tabular
Q-learners (first- and second-order), a brute-force stochastic-stability
oracle, Gaussian-mixture environment estimation with split/merge moves, and
a multi-robot coverage-control case study tying them together.

The package namespace re-exports the game definition, potential certificate
and best responses, the log-linear steps and their constraint maps, the
worth fields, and the experiment config, run and sweep; the oracle,
Q-learners, coverage game and mixture estimators live in their modules.
"""
from .games import (
    GameDefinition,
    JointAction,
    PotentialCertificate,
    best_response_set,
    logit_map,
    verify_potential,
)
from .dynamics import (
    ConstrainedActionMap,
    LoglinearState,
    RevisionPolicy,
    blll_step,
    lll_step,
    psblll_step,
    revision_probability,
    validate_constraints,
)
from .harness import ExperimentConfig, RunRecord, run_experiment, sweep
from .worthfield import GaussianComponent, WorthField, generate_scenario

__version__ = "0.1.0"

__all__ = [
    "ConstrainedActionMap",
    "ExperimentConfig",
    "GameDefinition",
    "GaussianComponent",
    "JointAction",
    "LoglinearState",
    "PotentialCertificate",
    "RevisionPolicy",
    "RunRecord",
    "WorthField",
    "best_response_set",
    "blll_step",
    "generate_scenario",
    "lll_step",
    "logit_map",
    "psblll_step",
    "revision_probability",
    "run_experiment",
    "sweep",
    "validate_constraints",
    "verify_potential",
]
