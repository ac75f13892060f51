"""Gaussian-mixture estimation from observation logs.

Observations are grid coordinates with integer multiplicities (worthwhile
cells are logged repeatedly).  The log stores unique points with weights,
which is numerically identical to literal repetition but keeps EM cost
proportional to the number of distinct cells.

The component count is learned online: an information-criterion score (two
times the parameter count minus twice the log-likelihood) drives stochastic
accept/reject decisions between the current model and a candidate produced
by merging the most responsibility-overlapping pair or splitting the
component whose local data diverges most from its own density.  Merge and
split re-estimate only the affected components, leaving the rest untouched;
a split seeds its children half a principal standard deviation apart.
`count_proposal` is the one proposal round: the online runs and the offline
`aic_model_search` both play it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import binary_logit_weights
from .worthfield import gaussian_log_density

# Observations sit on a unit-cell lattice, so variance below a half-cell
# standard deviation is unresolvable quantization noise; flooring eigenvalues
# there keeps near-singular spike components from dominating likelihoods.
COV_FLOOR = 0.25
STARVE_FRACTION = 1e-6
# Largest component count a proposal may reach.
MAX_COMPONENTS = 10


class EmptyLogError(ValueError):
    """The operation needs at least one observation."""


class ObservationLog:
    """Ordered log of observed coordinates with repetition multiplicities."""

    def __init__(self) -> None:
        self._weights: dict[tuple[float, float], int] = {}
        self._revision = 0
        self._cache: tuple[int, np.ndarray, np.ndarray] | None = None

    def append(self, point: Sequence[float], multiplicity: int = 1) -> None:
        if multiplicity < 1:
            raise ValueError("multiplicity must be at least 1")
        key = (float(point[0]), float(point[1]))
        self._weights[key] = self._weights.get(key, 0) + int(multiplicity)
        self._revision += 1

    def extend(self, points: Sequence[Sequence[float]], multiplicity: int = 1) -> None:
        for p in points:
            self.append(p, multiplicity)

    @property
    def n_unique(self) -> int:
        return len(self._weights)

    def __len__(self) -> int:
        """Total number of logged entries, counting repetitions."""
        return sum(self._weights.values())

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique points (k, 2) and their multiplicities (k,)."""
        if not self._weights:
            raise EmptyLogError("observation log is empty")
        if self._cache is None or self._cache[0] != self._revision:
            pts = np.array(list(self._weights.keys()), dtype=float)
            w = np.array(list(self._weights.values()), dtype=float)
            self._cache = (self._revision, pts, w)
        return self._cache[1], self._cache[2]


@dataclass
class GmmEstimate:
    """Estimated mixture: weights, means, covariances, and fitting metadata."""

    weights: np.ndarray          # (M,)
    means: np.ndarray            # (M, 2)
    covs: np.ndarray             # (M, 2, 2)
    log_likelihood: float | None = None
    starved: tuple[int, ...] = ()

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def copy(self) -> "GmmEstimate":
        return GmmEstimate(
            weights=self.weights.copy(),
            means=self.means.copy(),
            covs=self.covs.copy(),
            log_likelihood=self.log_likelihood,
            starved=self.starved,
        )

    def density(self, points: np.ndarray) -> np.ndarray:
        return np.exp(mixture_log_density(self, points))


def _row_logsumexp(a: np.ndarray) -> np.ndarray:
    """`scipy.special.logsumexp(a, axis=1, keepdims=True)` of a real 2-d array.

    Bit for bit: the same ufuncs in the same order, without scipy's per-call
    dispatch, which costs more than the arithmetic on the few-component
    arrays fitted here.
    """
    a_max = a.max(axis=1, keepdims=True)
    is_max = a == a_max
    m = is_max.sum(axis=1, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(is_max, -np.inf, a) - a_max).sum(axis=1, keepdims=True) / m
        out = np.log1p(s) + np.log(m) + a_max
        return np.where(np.isfinite(out), out, np.log(np.exp(a).sum(axis=1, keepdims=True)))


def component_log_densities(est: GmmEstimate, points: np.ndarray) -> np.ndarray:
    """log(weight_j * g_j(point)) for every point and component, shape (n, M)."""
    n = len(np.atleast_2d(points))
    out = np.empty((n, est.n_components))
    for j in range(est.n_components):
        wj = est.weights[j]
        logw = math.log(wj) if wj > 0 else -np.inf
        out[:, j] = logw + gaussian_log_density(points, est.means[j], est.covs[j])
    return out


def mixture_log_density(est: GmmEstimate, points: np.ndarray) -> np.ndarray:
    return _row_logsumexp(component_log_densities(est, points))[:, 0]


def responsibilities(est: GmmEstimate, points: np.ndarray) -> np.ndarray:
    """Posterior component memberships; each row sums to one."""
    logs = component_log_densities(est, points)
    return np.exp(logs - _row_logsumexp(logs))


def log_likelihood(est: GmmEstimate, log: ObservationLog) -> float:
    points, weights = log.arrays()
    return float(weights @ mixture_log_density(est, points))


def _max_change(a: GmmEstimate, b: GmmEstimate) -> float:
    """Largest absolute difference of any weight, mean or covariance entry."""
    return max(
        float(np.abs(a.weights - b.weights).max()),
        float(np.abs(a.means - b.means).max()),
        float(np.abs(a.covs - b.covs).max()),
    )


def _floor_covariance(cov: np.ndarray, floor: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T


def _weighted_moments(
    weighted: np.ndarray, mass: float, points: np.ndarray, cov_floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and floored covariance of `points` under weights summing to `mass`.

    The caller passes `mass` in, so each caller keeps its own summation order.
    """
    mean = weighted @ points / mass
    diff = points - mean
    return mean, _floor_covariance((diff.T * weighted) @ diff / mass, cov_floor)


def initial_estimate(log: ObservationLog, n_components: int = 1) -> GmmEstimate:
    """Deterministic starting estimate.

    A single component sits at the weighted observation mean; several
    components spread along the principal axis of the data at even quantile
    offsets, all sharing the data covariance.
    """
    points, weights = log.arrays()
    mean, cov = _weighted_moments(weights, weights.sum(), points, COV_FLOOR)
    if n_components == 1:
        return GmmEstimate(
            weights=np.ones(1), means=mean.reshape(1, 2), covs=cov.reshape(1, 2, 2)
        )
    vals, vecs = np.linalg.eigh(cov)
    axis = vecs[:, -1]
    spread = math.sqrt(vals[-1])
    offsets = np.linspace(-1.0, 1.0, n_components) * spread
    means = mean + np.outer(offsets, axis)
    return GmmEstimate(
        weights=np.full(n_components, 1.0 / n_components),
        means=means,
        covs=np.repeat(cov.reshape(1, 2, 2), n_components, axis=0),
    )


def em_iterate(
    log: ObservationLog,
    est: GmmEstimate,
    iters: int,
    tol: float = 1e-6,
    cov_floor: float = COV_FLOOR,
) -> GmmEstimate:
    """Run up to `iters` full EM sweeps; stop early when parameters settle.

    Weighted maximum-likelihood updates of weights, means, and covariances;
    covariance eigenvalues are floored.  Components whose total
    responsibility falls below a vanishing fraction of the log are flagged
    as starved and their weight floored (they keep their location, becoming
    natural merge candidates).  The input estimate is not mutated.
    """
    points, weights = log.arrays()
    total = weights.sum()
    out = est.copy()
    for _ in range(iters):
        resp = responsibilities(out, points)
        weighted = resp * weights[:, None]
        mass = weighted.sum(axis=0)
        starved = [j for j in range(out.n_components) if mass[j] < STARVE_FRACTION * total]
        new_weights = mass / total
        new_means = out.means.copy()
        new_covs = out.covs.copy()
        for j in range(out.n_components):
            if j in starved:
                new_weights[j] = STARVE_FRACTION
                continue
            new_means[j], new_covs[j] = _weighted_moments(
                weighted[:, j], mass[j], points, cov_floor
            )
        if starved:
            new_weights = new_weights / new_weights.sum()
        delta = _max_change(GmmEstimate(new_weights, new_means, new_covs), out)
        out.weights, out.means, out.covs = new_weights, new_means, new_covs
        out.starved = tuple(starved)
        if delta < tol:
            break
    out.log_likelihood = log_likelihood(out, log)
    return out


def worth_weighted_multiplicity(f_value: float, f_mode: float, repeat_factor: int) -> int:
    """Log-entry multiplicity for a sensed worth value.

    Entries at or above the worthwhile threshold f_mode are repeated in
    proportion to how far above it they sit (half-up rounding); entries below
    the threshold are logged once.
    """
    if f_mode <= 0:
        raise ValueError("f_mode must be positive")
    if f_value < f_mode:
        return 1
    return 1 + repeat_factor * int(math.floor(f_value / f_mode + 0.5))


def aic_value(n_parameters: int, loglik: float) -> float:
    """Information criterion: two times the parameter count minus 2 ln L."""
    return 2.0 * n_parameters - 2.0 * loglik


def aic(est: GmmEstimate, log: ObservationLog) -> float:
    """Criterion value of a fitted mixture on a log.

    A 2-d mixture with M components has 6M - 1 free parameters (weight, two
    mean, three covariance entries per component, minus one for the weight
    simplex constraint).
    """
    return aic_value(6 * est.n_components - 1, log_likelihood(est, log))


@dataclass
class AICState:
    """Bookkeeping of the component-count proposals."""

    tau: float = 0.1
    last_proposal: int | None = None
    iaic_current: float | None = None
    iaic_candidate: float | None = None


def propose_component_count(
    state: AICState,
    current: GmmEstimate,
    candidate: GmmEstimate,
    log: ObservationLog,
    rng: np.random.Generator,
) -> int:
    """Choose between the current and candidate component counts.

    Both models are scored by the negated criterion (larger is better) and
    the choice is a two-point logit at the state's temperature, so a clearly
    better model is kept almost surely while near-ties stay stochastic.
    """
    state.iaic_current = -aic(current, log)
    state.iaic_candidate = -aic(candidate, log)
    state.last_proposal = candidate.n_components
    p_keep, _ = binary_logit_weights(state.iaic_current, state.iaic_candidate, state.tau)
    if rng.random() < p_keep:
        return current.n_components
    return candidate.n_components


def merge_select(est: GmmEstimate, log: ObservationLog) -> tuple[int, int]:
    """Pair whose posterior-responsibility vectors have the largest inner product."""
    if est.n_components < 2:
        raise ValueError("need at least two components to merge")
    points, weights = log.arrays()
    resp = responsibilities(est, points)
    best, best_pair = -1.0, (0, 1)
    for j in range(est.n_components):
        for j2 in range(j + 1, est.n_components):
            score = float(np.sum(weights * resp[:, j] * resp[:, j2]))
            if score > best:
                best, best_pair = score, (j, j2)
    return best_pair


def merge_components(
    est: GmmEstimate,
    pair: tuple[int, int],
    log: ObservationLog,
    cov_floor: float = COV_FLOOR,
) -> GmmEstimate:
    """Replace a component pair by one merged component, re-fit in isolation.

    The merged component starts from the weight sum and weight-averaged
    moments.  Its partial re-estimation routes the pair's posterior mass to
    the merged component, whose own normalization then cancels, so the
    merged responsibilities are fixed and one moment fit is the converged
    re-estimate; a pair with no posterior mass keeps the averaged start.
    All other components are untouched.
    """
    j, j2 = sorted(pair)
    if j == j2 or j2 >= est.n_components:
        raise ValueError(f"invalid merge pair {pair}")
    points, weights = log.arrays()
    resp = responsibilities(est, points)

    w0 = est.weights[j] + est.weights[j2]
    mu0 = (est.weights[j] * est.means[j] + est.weights[j2] * est.means[j2]) / w0
    cov0 = (est.weights[j] * est.covs[j] + est.weights[j2] * est.covs[j2]) / w0

    keep = [k for k in range(est.n_components) if k not in (j, j2)]
    new_weights = np.concatenate([est.weights[keep], [w0]])
    new_means = np.vstack([est.means[keep], mu0.reshape(1, 2)])
    new_covs = np.concatenate([est.covs[keep], cov0.reshape(1, 2, 2)])

    weighted = (resp[:, j] + resp[:, j2]) * weights
    mass = weighted.sum()
    if mass > 0:
        new_weights[-1] = mass / weights.sum()
        new_means[-1], new_covs[-1] = _weighted_moments(weighted, mass, points, cov_floor)
    return GmmEstimate(weights=new_weights, means=new_means, covs=new_covs)


def split_scores(est: GmmEstimate, log: ObservationLog) -> np.ndarray:
    """Local divergence of each component's data from its own density.

    The responsibility-weighted empirical density is binned on unit grid
    cells and compared against the component density at the bin centers
    (midpoint rule over unit cells); larger divergence means the component
    underfits its local data.
    """
    points, weights = log.arrays()
    resp = responsibilities(est, points)
    bins = np.floor(points).astype(int)
    keys, inverse = np.unique(bins, axis=0, return_inverse=True)
    centers = keys + 0.5
    scores = np.empty(est.n_components)
    for k in range(est.n_components):
        weighted = resp[:, k] * weights
        total = weighted.sum()
        if total <= 0:
            scores[k] = 0.0
            continue
        binned = np.zeros(len(keys))
        np.add.at(binned, inverse, weighted)
        p = binned / total
        q = np.exp(gaussian_log_density(centers, est.means[k], est.covs[k]))
        q = np.maximum(q, 1e-300)
        mask = p > 0
        scores[k] = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    return scores


def split_select(est: GmmEstimate, log: ObservationLog) -> int:
    return int(np.argmax(split_scores(est, log)))


def principal_split_scale(est: GmmEstimate, k: int) -> float:
    """Mean offset for splitting component k at half its principal spread.

    This is `split_component`'s default seeding.  A vanishing offset leaves
    the two children at a symmetric configuration that is marginally stable
    (their refitted covariances absorb the full local variance), so escaping
    it can take arbitrarily many sweeps; seeding the children a half standard
    deviation apart keeps the re-estimation in its fast regime.
    """
    vals = np.linalg.eigvalsh(est.covs[k])
    return 0.5 * math.sqrt(max(float(vals[-1]), 0.0))


def split_component(
    est: GmmEstimate,
    k: int,
    log: ObservationLog,
    eps_scale: float | None = None,
    iters: int = 300,
    tol: float = 1e-8,
    cov_floor: float = COV_FLOOR,
) -> GmmEstimate:
    """Replace one component by two children, re-fit in isolation.

    Children split the parent weight evenly, start from an isotropic
    covariance with the parent's generalized variance, and sit at opposite
    offsets `eps_scale` along the parent's principal axis (by default
    `principal_split_scale(est, k)`, half the parent's principal standard
    deviation).  Partial re-estimation divides the parent's posterior mass
    between the children in proportion to their densities, for up to `iters`
    sweeps or until the children settle; other components are untouched.
    """
    if not 0 <= k < est.n_components:
        raise ValueError(f"invalid split index {k}")
    points, weights = log.arrays()
    parent_resp = responsibilities(est, points)[:, k]

    if eps_scale is None:
        eps_scale = principal_split_scale(est, k)
    axis = np.linalg.eigh(est.covs[k])[1][:, -1]
    iso = math.sqrt(max(float(np.linalg.det(est.covs[k])), cov_floor**2))
    child_cov = iso * np.eye(2)

    keep = [j for j in range(est.n_components) if j != k]
    new_weights = np.concatenate([est.weights[keep], [est.weights[k] / 2] * 2])
    new_means = np.vstack(
        [est.means[keep], est.means[k] + eps_scale * axis, est.means[k] - eps_scale * axis]
    )
    new_covs = np.concatenate(
        [est.covs[keep], child_cov.reshape(1, 2, 2), child_cov.reshape(1, 2, 2)]
    )
    # Views of the last two rows: the children's fits below write through them.
    children = GmmEstimate(new_weights[-2:], new_means[-2:], new_covs[-2:])

    total = weights.sum()
    prev = children.copy()
    for _ in range(max(iters, 1)):
        share = responsibilities(children, points)
        for c in range(2):
            weighted = share[:, c] * parent_resp * weights
            mass = weighted.sum()
            if mass <= 0:
                continue
            children.weights[c] = mass / total
            children.means[c], children.covs[c] = _weighted_moments(
                weighted, mass, points, cov_floor
            )
        delta = _max_change(children, prev)
        prev = children.copy()
        if delta < tol:
            break
    return GmmEstimate(weights=new_weights, means=new_means, covs=new_covs)


def count_proposal(
    est: GmmEstimate,
    log: ObservationLog,
    state: AICState,
    rng: np.random.Generator,
    em_iters: int,
    cov_floor: float = COV_FLOOR,
) -> GmmEstimate:
    """One component-count proposal round; returns the kept or adopted model.

    Draws a neighboring count (one up from a single component, otherwise one
    up or down with equal probability), builds the candidate by splitting the
    worst-fitting component or merging the most overlapping pair, refines it
    with `em_iters` full EM sweeps and chooses by `propose_component_count`.
    A draw above `MAX_COMPONENTS` ends the round with `est` unchanged.
    """
    m = est.n_components
    if m == 1:
        target = 2
    elif rng.random() < 0.5:
        target = m + 1
    else:
        target = m - 1
    if target > MAX_COMPONENTS:
        return est
    if target > m:
        cand = split_component(est, split_select(est, log), log, cov_floor=cov_floor)
    else:
        cand = merge_components(est, merge_select(est, log), log, cov_floor=cov_floor)
    cand = em_iterate(log, cand, em_iters, cov_floor=cov_floor)
    chosen = propose_component_count(state, est, cand, log, rng)
    return cand if chosen == cand.n_components else est


def aic_model_search(
    log: ObservationLog,
    rng: np.random.Generator,
    rounds: int = 16,
    tau: float = 0.1,
    em_iters: int = 10,
    cov_floor: float = COV_FLOOR,
) -> GmmEstimate:
    """Fit a mixture while learning the component count.

    Starts from one EM-refined component, then plays `rounds` rounds of
    `count_proposal`.
    """
    est = em_iterate(log, initial_estimate(log, 1), em_iters, cov_floor=cov_floor)
    state = AICState(tau=tau)
    for _ in range(rounds):
        est = count_proposal(est, log, state, rng, em_iters, cov_floor)
    return est
