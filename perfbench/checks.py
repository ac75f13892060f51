"""Output checks that recompute what they check instead of trusting the program.

Each check takes plain data (CSV text, arrays, counts) and returns a list of
failure messages; an empty list means the output passed.  The covered-worth
reference, the feasible-pair count and the stationary residual are all
computed here from first principles.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# Learners whose robots take at most one Moore step per iteration.
ONE_STEP = ("blll", "psblll", "ql", "soql")
# Learners that move at most one robot per iteration.
ONE_MOVER = ("blll", "lll")
COVERED_RTOL = 1e-12
ROW_SAMPLE = 97


def parse_run_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a run-record CSV; raises on a ragged table."""
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if rows.ndim != 2 or rows.shape[1] != len(header):
        raise ValueError("run CSV rows do not match the header")
    return header, rows


def disc_offsets(radius: float) -> list[tuple[int, int]]:
    r = int(math.floor(radius))
    return [
        (dx, dy)
        for dx in range(-r, r + 1)
        for dy in range(-r, r + 1)
        if dx * dx + dy * dy <= radius * radius
    ]


def reference_raster(
    components: Sequence[tuple[float, np.ndarray, np.ndarray]], grid: int
) -> np.ndarray:
    """Mixture density at every cell centroid, indexed [ix, iy]."""
    c = np.arange(grid) + 0.5
    px, py = np.meshgrid(c, c, indexing="ij")
    out = np.zeros((grid, grid))
    for weight, mean, cov in components:
        inv = np.linalg.inv(cov)
        dx, dy = px - mean[0], py - mean[1]
        quad = inv[0, 0] * dx * dx + (inv[0, 1] + inv[1, 0]) * dx * dy + inv[1, 1] * dy * dy
        out += weight * np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(np.linalg.det(cov)))
    return out


def disc_sum(raster: np.ndarray, cell: tuple[int, int], offsets) -> float:
    grid = raster.shape[0]
    x, y = cell
    return math.fsum(
        raster[x + dx, y + dy]
        for dx, dy in offsets
        if 0 <= x + dx < grid and 0 <= y + dy < grid
    )


def check_run(
    csv_text: str,
    *,
    algorithm: str,
    grid: int,
    cap: int,
    window: int,
    tol_abs: float,
    raster: np.ndarray,
    cover_radius: float,
) -> list[str]:
    """Failures of one run record against the learner's invariants."""
    try:
        header, rows = parse_run_csv(csv_text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    fails: list[str] = []
    if len(rows) == 0:
        return ["run has no rows"]
    if not np.isfinite(rows).all():
        fails.append("non-finite CSV value")
    col = {name: k for k, name in enumerate(header)}
    robots = sum(1 for name in header if name.startswith("x") and name[1:].isdigit())
    pos = np.stack(
        [rows[:, [col[f"x{i}"], col[f"y{i}"]]] for i in range(robots)], axis=1
    )  # (T, robots, 2)
    n = rows[:, col["n"]]
    T = len(rows)
    if not np.array_equal(n, np.arange(1, T + 1)):
        fails.append("iteration column is not 1..T")
    if T > cap:
        fails.append(f"{T} iterations exceed the cap {cap}")
    if (pos != np.round(pos)).any() or (pos < 0).any() or (pos >= grid).any():
        fails.append("a position is off the grid")
        return fails
    cells = pos.astype(int)
    if T > 1:
        step = np.abs(np.diff(cells, axis=0)).max(axis=2)  # (T-1, robots)
        moved = (step > 0).sum(axis=1)
        if algorithm in ONE_STEP and (step > 1).any():
            t = int(np.argwhere(step > 1)[0][0]) + 2
            fails.append(f"a robot moved more than one Moore step at n={t}")
        if algorithm in ONE_MOVER and (moved > 1).any():
            t = int(np.argmax(moved > 1)) + 2
            fails.append(f"{int(moved.max())} robots moved in one iteration at n={t}")
        if algorithm == "psblll":
            awake = rows[1:, col["awake"]]
            if (moved > awake).any():
                t = int(np.argmax(moved > awake)) + 2
                fails.append(f"more robots moved than were awake at n={t}")
    offsets = disc_offsets(cover_radius)
    covered = rows[:, col["covered"]]
    for k in sorted(set(range(0, T, ROW_SAMPLE)) | {T - 1}):
        ref = math.fsum(disc_sum(raster, tuple(c), offsets) for c in cells[k])
        if abs(covered[k] - ref) > COVERED_RTOL * max(abs(ref), 1e-300):
            fails.append(f"covered {covered[k]!r} != reference {ref!r} at n={k + 1}")
            break
    if T < cap:
        tail = covered[-window:]
        if len(tail) < window or tail.max() - tail.min() > tol_abs:
            fails.append(f"run stopped at {T} < {cap} without reaching steady state")
    return fails


def check_mixture(
    weights: np.ndarray, means: np.ndarray, covs: np.ndarray, points: np.ndarray
) -> list[str]:
    """Failures of a fitted mixture: simplex weights, PD covariances, finite LL.

    The log-likelihood is recomputed here over the unique points of the
    observation entries, weighted by their counts.
    """
    fails: list[str] = []
    if not np.isfinite(weights).all() or (weights < 0).any():
        fails.append("mixture weights are not finite and non-negative")
    if abs(math.fsum(weights) - 1.0) > 1e-9:
        fails.append(f"mixture weights sum to {math.fsum(weights)!r}")
    for j, cov in enumerate(covs):
        if not np.allclose(cov, cov.T, rtol=0, atol=1e-12) or not (
            np.linalg.eigvalsh(0.5 * (cov + cov.T)) > 0
        ).all():
            fails.append(f"covariance {j} is not symmetric positive-definite")
    if fails:
        return fails
    uniq, counts = np.unique(points, axis=0, return_counts=True)
    logs = np.empty((len(uniq), len(weights)))
    for j in range(len(weights)):
        inv = np.linalg.inv(covs[j])
        d = uniq - means[j]
        quad = np.einsum("ni,ij,nj->n", d, inv, d)
        logs[:, j] = (
            math.log(weights[j]) - math.log(2 * math.pi)
            - 0.5 * math.log(np.linalg.det(covs[j])) - 0.5 * quad
        )
    top = logs.max(axis=1)
    ll = float(counts @ (top + np.log(np.exp(logs - top[:, None]).sum(axis=1))))
    if not math.isfinite(ll):
        fails.append("mixture log-likelihood is not finite")
    return fails


def moore_pair_counts(grid: int, robots: int) -> tuple[int, int]:
    """Feasible ordered (source, target) pairs of the coverage game's chain.

    Each robot moves within its Moore neighbourhood (staying included), so
    the feasible targets of a profile number the product of its robots'
    neighbourhood sizes.  Returns (pairs including self-transitions, pairs
    between distinct profiles).
    """
    per_axis = sum(min(x + 1, grid - 1) - max(x - 1, 0) + 1 for x in range(grid))
    with_self = (per_axis * per_axis) ** robots
    return with_self, with_self - grid ** (2 * robots)


def check_stationary(kernel: np.ndarray, pi: np.ndarray, label: str) -> list[str]:
    """Failures of a stationary vector against its kernel, within 1e-12 * n."""
    P = np.asarray(kernel.toarray() if hasattr(kernel, "toarray") else kernel, dtype=float)
    pi = np.asarray(pi, dtype=float)
    n = P.shape[0]
    tol = 1e-12 * n
    fails: list[str] = []
    if P.shape != (n, n) or pi.shape != (n,):
        return [f"{label}: kernel {P.shape} and vector {pi.shape} do not match"]
    if (P < 0).any() or not np.isfinite(P).all():
        fails.append(f"{label}: kernel has negative or non-finite entries")
    rows = np.abs(P.sum(axis=1) - 1.0).max()
    if rows > tol:
        fails.append(f"{label}: kernel row sums off by {rows:.3e} > {tol:.1e}")
    if (pi < 0).any() or abs(pi.sum() - 1.0) > tol:
        fails.append(f"{label}: stationary vector is not a distribution")
    residual = float(np.abs(pi @ P - pi).sum())
    if not residual <= tol:
        fails.append(f"{label}: |pi P - pi|_1 = {residual:.3e} > {tol:.1e}")
    return fails


def check_oracle_report(report, chains: Sequence, grid: int, robots: int) -> list[str]:
    """Failures of an oracle report on the coverage game."""
    fails: list[str] = []
    n = grid ** (2 * robots)
    with_self, distinct = moore_pair_counts(grid, robots)
    if len(report.states) != n:
        fails.append(f"report has {len(report.states)} states, expected {n}")
    if len(report.resistances) != distinct:
        fails.append(
            f"resistance table has {len(report.resistances)} rows, expected {distinct}"
        )
    if any(not (math.isfinite(r) and r >= 0) for *_, r in report.resistances):
        fails.append("a resistance is negative or non-finite")
    rep = report.identity_report
    if rep is None:
        fails.append("identity report missing: the coverage game should be separable")
    else:
        if rep.violations:
            fails.append(f"identity report has {len(rep.violations)} violations")
        if rep.pairs_checked != with_self:
            fails.append(f"identity checked {rep.pairs_checked} pairs, expected {with_self}")
    if len(chains) != len(report.noise_levels):
        fails.append(f"{len(chains)} chains built for {len(report.noise_levels)} noise levels")
    else:
        for j, chain in enumerate(chains):
            fails += check_stationary(
                chain.kernel, report.stationary[j], f"eps={report.noise_levels[j]:g}"
            )
    return fails
