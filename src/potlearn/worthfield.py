"""Ground-truth worth field over a square grid.

The field is a mixture of bivariate Gaussian target signals evaluated at
cell centroids.  Cells are unit squares; the centroid of cell (ix, iy) sits
at (ix + 0.5, iy + 0.5).  Fields are immutable after construction and can be
shared freely across concurrent runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import make_rng


@dataclass(frozen=True, eq=False)
class GaussianComponent:
    """One weighted bivariate Gaussian signal source."""

    weight: float
    mean: np.ndarray      # (2,)
    cov: np.ndarray       # (2, 2) symmetric positive-definite

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float).reshape(2))
        cov = np.asarray(self.cov, dtype=float).reshape(2, 2)
        object.__setattr__(self, "cov", cov)
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"component weight must be finite and >= 0, got {self.weight!r}")
        if not (np.isfinite(self.mean).all() and np.isfinite(cov).all()):
            raise ValueError("component mean and covariance must be finite")
        if abs(cov[0, 1] - cov[1, 0]) > 1e-12:
            raise ValueError("covariance must be symmetric")
        if not (np.linalg.det(cov) > 0 and cov[0, 0] > 0):
            raise ValueError("covariance must be positive-definite")

    def to_dict(self) -> dict:
        return {
            "weight": float(self.weight),
            "mean": [float(v) for v in self.mean],
            "cov": [[float(v) for v in row] for row in self.cov],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianComponent":
        return cls(weight=d["weight"], mean=d["mean"], cov=d["cov"])


def _mahalanobis(
    points: np.ndarray, means: np.ndarray, covs: np.ndarray
) -> tuple[np.ndarray, list[float]]:
    """Squared Mahalanobis distance of each row of `points` (n, 2) from each of
    the stacked means (M, 2) under the stacked covariances (M, 2, 2), as (M, n)
    rows, and the M determinants as floats.  A single mean (2,) and covariance
    (2, 2) is a stack of one.

    `det` and `inv` run once on the stack, which matches per-matrix calls bit for
    bit.  The quadratic form, one elementwise pass for all components, keeps the
    order of `np.einsum("ni,ij,nj->n")` from three points on.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    means = np.asarray(means, dtype=float).reshape(-1, 2)
    covs = np.asarray(covs, dtype=float).reshape(-1, 2, 2)
    # `det` warns on a NaN entry; the check below raises on its NaN determinant instead.
    with np.errstate(invalid="ignore"):
        dets = np.linalg.det(covs).tolist()
    # `not <` also rejects NaN; a NaN or infinite entry makes its determinant NaN or infinite
    if not all(0 < d < math.inf for d in dets):
        raise ValueError("singular or non-finite covariance")
    diff = pts.T - means[:, :, None]  # (M, 2, n); contiguous when `points` is rows.T
    # (((d0 a) d0 + (d0 b) d1) + (d1 c) d0) + (d1 e) d1 for inverse [[a, b], [c, e]]
    terms = diff[:, :, None] * np.linalg.inv(covs)[..., None] * diff[:, None]
    quad = ((terms[:, 0, 0] + terms[:, 0, 1]) + terms[:, 1, 0]) + terms[:, 1, 1]
    return quad, dets


def gaussian_density(points: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Bivariate normal density of each stacked component at each row of `points`, (M, n)."""
    quad, dets = _mahalanobis(points, means, covs)
    return np.exp(-0.5 * quad) / np.array([[2.0 * math.pi * math.sqrt(d)] for d in dets])


def gaussian_log_density(points: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Log of each stacked component's bivariate normal density at each row of
    `points`, (M, n).  The constant of each component is scalar `math` arithmetic
    (`np.log` may round differently)."""
    quad, dets = _mahalanobis(points, means, covs)
    consts = np.array([[-math.log(2.0 * math.pi) - 0.5 * math.log(d)] for d in dets])
    return consts - 0.5 * quad


class WorthField:
    """Mixture-of-Gaussians worth over an L x L grid of unit cells."""

    def __init__(self, components: Sequence[GaussianComponent], grid_size: int):
        if grid_size < 1:
            raise ValueError("grid_size must be positive")
        comps = tuple(components)
        if not comps:
            raise ValueError("need at least one component")
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"component weights sum to {total}, expected 1")
        self.components = comps
        self.grid_size = int(grid_size)
        self._raster: np.ndarray | None = None
        self._gradients: dict[tuple[int, int], float] = {}

    @property
    def n_components(self) -> int:
        return len(self.components)

    def centroids(self) -> np.ndarray:
        """All cell centroids, row-major over (ix, iy), shape (L*L, 2)."""
        L = self.grid_size
        ix, iy = np.meshgrid(np.arange(L), np.arange(L), indexing="ij")
        return np.column_stack([ix.ravel() + 0.5, iy.ravel() + 0.5]).astype(float)

    def density(self, points: np.ndarray) -> np.ndarray:
        """Mixture density at each row of `points`."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(pts))
        for c in self.components:
            out += c.weight * gaussian_density(pts, c.mean, c.cov)[0]
        return out

    def raster(self) -> np.ndarray:
        """Worth at every centroid as an (L, L) array indexed [ix, iy]; cached."""
        if self._raster is None:
            L = self.grid_size
            flat = self.density(self.centroids())
            flat.setflags(write=False)
            self._raster = flat.reshape(L, L)
        return self._raster

    def total_mass(self) -> float:
        """Sum of worth over all cells (unit cell area)."""
        return float(self.raster().sum())

    def local_gradient(self, point: Sequence[float]) -> float:
        """Magnitude of the finite-difference worth gradient at a centroid.

        Central differences over neighboring centroids, one-sided at grid
        boundaries.  Points are clamped onto the grid; each cell's value is
        computed once and kept.
        """
        L = self.grid_size
        cell = (
            min(max(int(math.floor(point[0])), 0), L - 1),
            min(max(int(math.floor(point[1])), 0), L - 1),
        )
        value = self._gradients.get(cell)
        if value is None:
            value = self._gradients[cell] = self._cell_gradient(*cell)
        return value

    def _cell_gradient(self, ix: int, iy: int) -> float:
        raster = self.raster()
        L = self.grid_size

        def axis_slope(i: int, values: np.ndarray) -> float:
            if L == 1:
                return 0.0
            lo, hi = max(i - 1, 0), min(i + 1, L - 1)
            return (float(values[hi]) - float(values[lo])) / float(hi - lo)

        gx = axis_slope(ix, raster[:, iy])
        gy = axis_slope(iy, raster[ix, :])
        return math.hypot(gx, gy)

    def to_dict(self) -> dict:
        return {
            "grid_size": self.grid_size,
            "components": [c.to_dict() for c in self.components],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WorthField":
        return cls(
            components=[GaussianComponent.from_dict(c) for c in d["components"]],
            grid_size=d["grid_size"],
        )


def generate_scenario(
    seed: int,
    grid_size: int = 40,
    component_range: tuple[int, int] = (1, 5),
) -> WorthField:
    """Random worth field, fully determined by the seed.

    The component count is uniform over the (inclusive) range; means fall in
    the grid interior with a 10% margin so mass leakage past the boundary
    stays small; weights come from a flat Dirichlet; covariances are diagonal
    with per-axis standard deviations uniform in [L/20, L/8].
    """
    if grid_size < 8:
        raise ValueError("grid_size must be at least 8")
    lo, hi = component_range
    if not 1 <= lo <= hi:
        raise ValueError("component_range must satisfy 1 <= lo <= hi")
    rng = make_rng(seed, 0xF1E1D)
    m = int(rng.integers(lo, hi + 1))
    margin = 0.1 * grid_size
    means = rng.uniform(margin, grid_size - margin, size=(m, 2))
    weights = rng.dirichlet(np.ones(m))
    sigmas = rng.uniform(grid_size / 20.0, grid_size / 8.0, size=(m, 2))
    components = [
        GaussianComponent(
            weight=float(weights[j]),
            mean=means[j],
            cov=np.diag(sigmas[j] ** 2),
        )
        for j in range(m)
    ]
    return WorthField(components, grid_size)
