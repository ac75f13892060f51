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
`aic_model_search` both play it.  A candidate is a pure function of the
estimate, the log and the target count, so the round's `AICState` keeps the
candidates built from one (estimate, log, log revision) with their
log-likelihoods, and that estimate's own score, until the estimate is
replaced or the log grows; a fit itself carries no score.

Every EM-family sweep (`responsibilities`, `em_iterate`, the partial
re-estimation in `split_component`, `GmmEstimate.density`) evaluates the M
components as (M, n) rows of one `worthfield.log_density_rows` call and floors
all refitted covariances with one `eigh`, each LAPACK call made as `np.linalg`
makes it.  It stays bit for bit equal to one call per component: only per-matrix
LAPACK calls are batched; the quadratic form keeps `einsum`'s order (from three
points on) and `_sum_rows` numpy's order for a contiguous run; each mean is its
own `w @ points`; `em_iterate` reads a C-ordered (n, M) responsibility array, so
its masses stay sequential sums along axis 0; a split child sums its own weight
row.

Fits pass the E-step contiguous (2, n) coordinate rows made once per fit.
Two rows strictly ordered in every column (every split sweep) take
`log1p(exp(lo - hi)) + hi`, exact because the general sum adds the max row's
`exp(-inf) = 0` and divides by one match, and `log(1) = 0`; ties and NaN take
the general path.  The moment difference is a contiguous (K, n, 2) array read
as (K, 2, n), the layout of the broadcast `points.T - means` whose BLAS path
the covariance product must keep.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .dynamics import binary_logit_weights
from .worthfield import det, eigh, eigvalsh, log_density_rows

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
        if (
            type(multiplicity) is bool
            or not isinstance(multiplicity, numbers.Integral)
            or multiplicity < 1
        ):
            raise ValueError(f"multiplicity must be an integer of at least 1, got {multiplicity!r}")
        key = (float(point[0]), float(point[1]))
        if not (math.isfinite(key[0]) and math.isfinite(key[1])):
            raise ValueError(f"observation point must be finite, got {key!r}")
        self._weights[key] = self._weights.get(key, 0) + int(multiplicity)
        self._revision += 1

    @property
    def revision(self) -> int:
        """Number of appends so far; the log changes only through `append`."""
        return self._revision

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
        """Unique points (k, 2) and their multiplicities (k,), both read-only."""
        if not self._weights:
            raise EmptyLogError("observation log is empty")
        if self._cache is None or self._cache[0] != self._revision:
            pts = np.array(list(self._weights.keys()), dtype=float)
            w = np.array(list(self._weights.values()), dtype=float)
            pts.setflags(write=False)
            w.setflags(write=False)
            self._cache = (self._revision, pts, w)
        return self._cache[1], self._cache[2]


@dataclass
class GmmEstimate:
    """Estimated mixture: weights, means, covariances, and fitting metadata."""

    weights: np.ndarray          # (M,)
    means: np.ndarray            # (M, 2)
    covs: np.ndarray             # (M, 2, 2)
    starved: tuple[int, ...] = ()

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def copy(self) -> "GmmEstimate":
        return replace(
            self, weights=self.weights.copy(), means=self.means.copy(), covs=self.covs.copy()
        )

    def density(self, points: np.ndarray) -> np.ndarray:
        """Mixture density at each row of `points` (n, 2), or at one point (2,)."""
        return np.exp(mixture_log_density(self, np.asarray(points, dtype=float).reshape(-1, 2)))


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Axis-0 sum of an (M, n) array in numpy's order for a contiguous run of M <= 128:
    one by one below 8, else 8 partial sums added pairwise, then the rest one by one."""
    if len(a) < 8:
        return a.sum(axis=0)
    blocks = len(a) - len(a) % 8
    acc = sum((a[i:i + 8] for i in range(8, blocks, 8)), a[:8])
    acc = acc[0::2] + acc[1::2]
    acc = acc[0::2] + acc[1::2]
    return np.concatenate((acc[:1] + acc[1:], a[blocks:])).sum(axis=0)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """`scipy.special.logsumexp(b, axis=1)` of the C-ordered transpose b of a real
    (M, n) array, bit for bit: the same ufuncs in the same order, without scipy's
    per-call dispatch, which costs more than the arithmetic on few components.
    Two strictly ordered rows take the exact two-row identity (module docstring);
    an infinite `hi` gives inf on both paths, and two -inf entries are a tie.  Outside
    the general path only `lo - hi` sets a flag (overflow), so one error state serves."""
    if len(a) == 2:
        lo, hi = np.minimum(a[0], a[1]), np.maximum(a[0], a[1])
        if (lo < hi).all():
            return np.log1p(np.exp(lo - hi)) + hi
    a_max = a.max(axis=0)
    is_max = a == a_max
    m = is_max.sum(axis=0, dtype=float)
    s = _sum_rows(np.exp(np.where(is_max, -np.inf, a) - a_max)) / m
    out = np.log1p(s) + np.log(m) + a_max
    finite = np.isfinite(out)
    if finite.all():
        return out
    return np.where(finite, out, np.log(_sum_rows(np.exp(a))))


def component_log_densities(est: GmmEstimate, points: np.ndarray) -> np.ndarray:
    """log(weight_j * g_j(point)) at each row of the float64 array `points` (n, 2), (M, n)."""
    logw = np.array([[math.log(w) if w > 0 else -math.inf] for w in est.weights.tolist()])
    return logw + log_density_rows(points.T, est.means, est.covs)


def mixture_log_density(est: GmmEstimate, points: np.ndarray) -> np.ndarray:
    """Log mixture density at each row of the float64 array `points` (n, 2)."""
    return _logsumexp_rows(component_log_densities(est, points))


def _posteriors(est: GmmEstimate, points: np.ndarray) -> np.ndarray:
    """Posterior component memberships as (M, n) rows; each column sums to one.
    One component with finite log densities is exactly 1 (exp(x - x)) everywhere."""
    logs = component_log_densities(est, points)
    if len(logs) == 1 and np.isfinite(logs).all():
        return np.ones_like(logs)
    logs -= _logsumexp_rows(logs)
    return np.exp(logs, out=logs)


def responsibilities(est: GmmEstimate, points: np.ndarray) -> np.ndarray:
    """Posterior memberships at float64 `points` (n, 2), C-ordered (n, M); rows sum to one."""
    return np.ascontiguousarray(_posteriors(est, points).T)


def log_likelihood(est: GmmEstimate, log: ObservationLog) -> float:
    points, weights = log.arrays()
    return float(weights @ mixture_log_density(est, points))


def _params(est: GmmEstimate) -> np.ndarray:
    """Every weight, mean and covariance entry in one vector, so that the
    largest change between sweeps is one `abs().max()`."""
    return np.concatenate((est.weights, est.means.ravel(), est.covs.ravel()))


def _floor_covariance(covs: np.ndarray, floor: float) -> np.ndarray:
    """Covariances (..., 2, 2), symmetrised, with eigenvalues raised to `floor`;
    one `eigh` for the whole stack."""
    vals, vecs = eigh(0.5 * (covs + covs.swapaxes(-1, -2)))
    vals = np.maximum(vals, floor)
    return (vecs * vals[..., None, :]) @ vecs.swapaxes(-1, -2)


def _weighted_moments(
    weighted: Sequence[np.ndarray], masses: Sequence[float], points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Means (K, 2) and `COV_FLOOR`-floored covariances (K, 2, 2) of `points` under
    each of K weight vectors, the k-th summing to `masses[k]`: the caller's masses
    keep its summation order, and each mean is its own `w @ points` (a stacked
    product rounds differently)."""
    masses = np.asarray(masses, dtype=float)
    means = np.array([w @ points for w in weighted]) / masses[:, None]
    # (K, 2, n) view of a contiguous (K, n, 2) difference: the memory layout numpy gives
    # the broadcast `points.T - means`, on which the product's BLAS path depends
    diff = (points - means[:, None, :]).transpose(0, 2, 1)
    scaled = diff * np.reshape(weighted, (len(masses), 1, len(points)))
    raw = scaled @ diff.swapaxes(1, 2) / masses[:, None, None]
    return means, _floor_covariance(raw, COV_FLOOR)


def initial_estimate(log: ObservationLog, n_components: int = 1) -> GmmEstimate:
    """Deterministic starting estimate.

    A single component sits at the weighted observation mean; several
    components spread along the principal axis of the data at even quantile
    offsets, all sharing the data covariance.
    """
    points, weights = log.arrays()
    means, covs = _weighted_moments([weights], [weights.sum()], points)
    if n_components == 1:
        return GmmEstimate(weights=np.ones(1), means=means, covs=covs)
    mean, cov = means[0], covs[0]
    vals, vecs = eigh(cov)
    axis = vecs[:, -1]
    spread = math.sqrt(vals[-1])
    offsets = np.linspace(-1.0, 1.0, n_components) * spread
    means = mean + np.outer(offsets, axis)
    return GmmEstimate(
        weights=np.full(n_components, 1.0 / n_components),
        means=means,
        covs=np.repeat(cov.reshape(1, 2, 2), n_components, axis=0),
    )


def em_iterate(log: ObservationLog, est: GmmEstimate, iters: int) -> GmmEstimate:
    """Run up to `iters` full EM sweeps; stop early when no parameter moves by 1e-6.

    Weighted maximum-likelihood updates of weights, means, and covariances;
    covariance eigenvalues are floored at `COV_FLOOR`.  Components whose total
    responsibility falls below a vanishing fraction of the log are flagged
    as starved and their weight floored (they keep their location, becoming
    natural merge candidates).  The input estimate is not mutated.
    """
    points, weights = log.arrays()
    xy = np.ascontiguousarray(points.T).T  # (n, 2) view of contiguous (2, n) rows for the kernel
    total = weights.sum()
    out = est.copy()
    prev = _params(out)
    for _ in range(iters):
        resp = responsibilities(out, xy)
        weighted = resp * weights[:, None]
        mass = weighted.sum(axis=0)
        starved = [j for j in range(out.n_components) if mass[j] < STARVE_FRACTION * total]
        live = [j for j in range(out.n_components) if j not in starved]
        new_weights = mass / total
        new_means, new_covs = out.means.copy(), out.covs.copy()
        new_means[live], new_covs[live] = _weighted_moments(
            [weighted[:, j] for j in live], [mass[j] for j in live], points
        )
        if starved:
            new_weights[starved] = STARVE_FRACTION
            new_weights = new_weights / new_weights.sum()
        out.weights, out.means, out.covs = new_weights, new_means, new_covs
        out.starved = tuple(starved)
        params = _params(out)
        if np.abs(params - prev).max() < 1e-6:
            break
        prev = params
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


def _percentile(values: Sequence[float], q: float) -> float:
    """`np.percentile(values, q)` of finite values in ascending order, bit for
    bit, without its per-call dispatch: numpy's linear rule."""
    if not 0 <= q <= 100:
        raise ValueError("Percentiles must be in the range [0, 100]")
    top = len(values) - 1
    at = top * (q / 100)
    # numpy's neighbours are floor(at) and the next value, or from `top` on the last
    # value twice with fraction at + 1; from a fraction of 0.5 it interpolates down
    i, j = (math.floor(at), math.floor(at) + 1) if at < top else (-1, -1)
    lo, hi, t = values[i], values[j], at - i
    return hi - (hi - lo) * (1 - t) if t >= 0.5 else lo + (hi - lo) * t


def sensed_multiplicity(
    f_value: float, sensed: Sequence[float], percentile: float, repeat_factor: int
) -> int:
    """`worth_weighted_multiplicity` against the adaptive worthwhile threshold,
    the `percentile`-th percentile of the sensed worths, given in ascending
    order; 1 while that is not positive."""
    threshold = _percentile(sensed, percentile) if len(sensed) else 0.0
    if threshold > 0:
        return worth_weighted_multiplicity(f_value, threshold, repeat_factor)
    return 1


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
    """Bookkeeping of the component-count proposals.

    `_candidates` holds what the rounds computed for one basis: the
    estimate object, the log object and the log's revision, then a dict from
    (target count, EM sweeps) to the refined candidate and its log-likelihood
    and from "current" to the basis estimate's score.  A round on another
    basis (an adopted candidate, a refit, an append to the log) drops it, so
    at most a split and a merge candidate are held.
    """

    tau: float = 0.1
    last_proposal: int | None = None
    iaic_current: float | None = None
    iaic_candidate: float | None = None
    _candidates: tuple[GmmEstimate, ObservationLog, int, dict] | None = field(
        default=None, init=False, repr=False, compare=False
    )


def _basis_memo(state: AICState, est: GmmEstimate, log: ObservationLog) -> dict:
    """The dict `state` keeps for (`est`, `log` at its revision), replacing one
    kept for any other basis."""
    memo = state._candidates
    if memo is None or memo[0] is not est or memo[1] is not log or memo[2] != log.revision:
        memo = state._candidates = (est, log, log.revision, {})
    return memo[3]


def propose_component_count(
    state: AICState,
    current: GmmEstimate,
    candidate: GmmEstimate,
    log: ObservationLog,
    rng: np.random.Generator,
    candidate_loglik: float | None = None,
) -> int:
    """Choose between the current and candidate component counts.

    Both models are scored by the negated criterion (larger is better) and
    the choice is a two-point logit at the state's temperature, so a clearly
    better model is kept almost surely while near-ties stay stochastic.
    `candidate_loglik` is the candidate's log-likelihood on `log`, if known.
    The current model's score is kept with the state's candidate memo, so a
    later round on the same estimate and unchanged log reuses it.
    """
    loglik = log_likelihood(candidate, log) if candidate_loglik is None else candidate_loglik
    kept = _basis_memo(state, current, log)
    if "current" not in kept:
        kept["current"] = -aic(current, log)
    state.iaic_current = kept["current"]
    state.iaic_candidate = -aic_value(6 * candidate.n_components - 1, loglik)
    state.last_proposal = candidate.n_components
    p_keep, _ = binary_logit_weights(state.iaic_current, state.iaic_candidate, state.tau)
    if rng.random() < p_keep:
        return current.n_components
    return candidate.n_components


def merge_select(
    est: GmmEstimate, log: ObservationLog, resp: np.ndarray | None = None
) -> tuple[int, int]:
    """Pair whose posterior-responsibility vectors have the largest inner product;
    `resp` (here and in the other split and merge steps) is the caller's E-step."""
    if est.n_components < 2:
        raise ValueError("need at least two components to merge")
    points, weights = log.arrays()
    resp = responsibilities(est, points) if resp is None else resp
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
    resp: np.ndarray | None = None,
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
    resp = responsibilities(est, points) if resp is None else resp

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
        new_means[-1:], new_covs[-1:] = _weighted_moments([weighted], [mass], points)
    return GmmEstimate(weights=new_weights, means=new_means, covs=new_covs)


def _unit_cells(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(np.floor(points).astype(int), axis=0, return_inverse=True)` with no sort:
    the key (x - x0) * height + y - y0 indexes a table over the bounding box, if small."""
    bins = np.floor(points).astype(int)
    (x0, y0), (x1, y1) = bins.min(axis=0).tolist(), bins.max(axis=0).tolist()
    width, height = x1 - x0 + 1, y1 - y0 + 1
    if width * height > 4096 + 4 * len(bins):
        return np.unique(bins, axis=0, return_inverse=True)
    key = (bins - [x0, y0]) @ [height, 1]
    present = np.bincount(key, minlength=width * height) > 0
    cells = np.column_stack(divmod(np.flatnonzero(present), height)) + [x0, y0]
    return cells, (present.cumsum() - 1)[key]


def split_scores(
    est: GmmEstimate, log: ObservationLog, resp: np.ndarray | None = None
) -> np.ndarray:
    """Local divergence of each component's data from its own density.

    The responsibility-weighted empirical density is binned on unit grid
    cells and compared against the component density at the bin centers
    (midpoint rule over unit cells); larger divergence means the component
    underfits its local data.
    """
    points, weights = log.arrays()
    resp = responsibilities(est, points) if resp is None else resp
    keys, inverse = _unit_cells(points)
    densities = np.exp(log_density_rows(keys.T + 0.5, est.means, est.covs))
    scores = np.empty(est.n_components)
    for k in range(est.n_components):
        weighted = resp[:, k] * weights
        total = weighted.sum()
        if total <= 0:
            scores[k] = 0.0
            continue
        binned = np.bincount(inverse, weighted, len(keys))  # in input order, as `np.add.at`
        p = binned / total
        q = np.maximum(densities[k], 1e-300)
        mask = p > 0
        scores[k] = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    return scores


def split_select(est: GmmEstimate, log: ObservationLog, resp: np.ndarray | None = None) -> int:
    return int(np.argmax(split_scores(est, log, resp)))


def principal_split_scale(est: GmmEstimate, k: int) -> float:
    """Mean offset for splitting component k at half its principal spread.

    This is `split_component`'s default seeding.  A vanishing offset leaves
    the two children at a symmetric configuration that is marginally stable
    (their refitted covariances absorb the full local variance), so escaping
    it can take arbitrarily many sweeps; seeding the children a half standard
    deviation apart keeps the re-estimation in its fast regime.
    """
    vals = eigvalsh(est.covs[k])
    return 0.5 * math.sqrt(max(float(vals[-1]), 0.0))


def split_component(
    est: GmmEstimate,
    k: int,
    log: ObservationLog,
    eps_scale: float | None = None,
    iters: int = 300,
    resp: np.ndarray | None = None,
) -> GmmEstimate:
    """Replace one component by two children, re-fit in isolation.

    Children split the parent weight evenly, start from an isotropic
    covariance with the parent's generalized variance, and sit at opposite
    offsets `eps_scale` along the parent's principal axis (by default
    `principal_split_scale(est, k)`, half the parent's principal standard
    deviation).  Partial re-estimation divides the parent's posterior mass
    between the children in proportion to their densities, for up to `iters`
    sweeps or until no child parameter moves by 1e-8; other components are
    untouched.
    """
    if not 0 <= k < est.n_components:
        raise ValueError(f"invalid split index {k}")
    points, weights = log.arrays()
    parent_resp = (responsibilities(est, points) if resp is None else resp)[:, k]

    if eps_scale is None:
        eps_scale = principal_split_scale(est, k)
    axis = eigh(est.covs[k])[1][:, -1]
    iso = math.sqrt(max(float(det(est.covs[k])), COV_FLOOR**2))

    keep = [j for j in range(est.n_components) if j != k]
    new_weights = np.concatenate([est.weights[keep], [est.weights[k] / 2] * 2])
    offset = eps_scale * axis
    new_means = np.vstack([est.means[keep], est.means[k] + offset, est.means[k] - offset])
    new_covs = np.concatenate([est.covs[keep], [iso * np.eye(2)] * 2])
    # Views of the last two rows: the children's fits below write through them.
    children = GmmEstimate(new_weights[-2:], new_means[-2:], new_covs[-2:])

    xy = np.ascontiguousarray(points.T).T  # as in `em_iterate`
    total = weights.sum()
    prev = _params(children)
    for _ in range(max(iters, 1)):
        weighted = _posteriors(children, xy)
        weighted *= parent_resp
        weighted *= weights
        masses = weighted.sum(axis=1)
        # a NaN mass is fitted, so it surfaces; any live subset of two is a slice
        live = [c for c, mass in enumerate(masses.tolist()) if not mass <= 0]
        if live:
            fit = slice(live[0], live[-1] + 1)
            children.weights[fit] = masses[fit] / total
            children.means[fit], children.covs[fit] = _weighted_moments(
                weighted[fit], masses[fit], points
            )
        params = _params(children)
        if np.abs(params - prev).max() < 1e-8:
            break
        prev = params
    return GmmEstimate(weights=new_weights, means=new_means, covs=new_covs)


def count_proposal(
    est: GmmEstimate,
    log: ObservationLog,
    state: AICState,
    rng: np.random.Generator,
    em_iters: int,
) -> GmmEstimate:
    """One component-count proposal round; returns the kept or adopted model.

    Draws a neighboring count (one up from a single component, otherwise one
    up or down with equal probability), builds the candidate by splitting the
    worst-fitting component or merging the most overlapping pair, refines it
    with `em_iters` full EM sweeps and chooses by `propose_component_count`.
    A draw above `MAX_COMPONENTS` ends the round with `est` unchanged.  A
    candidate already built on the same estimate and unchanged log, for the
    same (target, `em_iters`), is taken from `state` instead of being
    rebuilt; it is the same model bit for bit, and the round draws the same
    random numbers.
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
    built = _basis_memo(state, est, log)
    key = (target, em_iters)
    if key not in built:
        resp = responsibilities(est, log.arrays()[0])
        if target > m:
            k = split_select(est, log, resp)
            cand = split_component(est, k, log, resp=resp)
        else:
            cand = merge_components(est, merge_select(est, log, resp), log, resp)
        cand = em_iterate(log, cand, em_iters)
        built[key] = cand, log_likelihood(cand, log)
    cand, loglik = built[key]
    chosen = propose_component_count(state, est, cand, log, rng, loglik)
    return cand if chosen == cand.n_components else est


def aic_model_search(
    log: ObservationLog,
    rng: np.random.Generator,
    rounds: int = 16,
) -> GmmEstimate:
    """Fit a mixture while learning the component count.

    Starts from one component refined by 10 EM sweeps, then plays `rounds`
    rounds of `count_proposal` with 10 EM sweeps per candidate, at the
    default `AICState` temperature 0.1.
    """
    est = em_iterate(log, initial_estimate(log, 1), 10)
    state = AICState()
    for _ in range(rounds):
        est = count_proposal(est, log, state, rng, 10)
    return est
