"""Multi-robot coverage game on a worth-field grid.

Robots occupy cells of an L x L grid and sense the worth within a covering
radius.  A robot's payoff for a move is the worth it alone covers at the
destination (overlap with every other robot's sensing disc is deducted,
counted once per other robot) minus a movement-energy cost proportional to
the Euclidean step length.  Cells a robot has visited carry its flag;
moving onto a foreign flag the robot can see (flags are detectable out to
twice the covering radius) earns no coverage reward at all.

Payoffs are evaluated against a frozen snapshot of the other robots'
positions and all flags -- a deciding robot knows where the others stand now,
not where they are simultaneously moving.  Under this convention each
robot's payoff depends only on its own move, so the sum of all payoffs is an
exact potential of the per-step game.

Covered worth is read from a disc-sum raster: the worth a robot would cover
standing on each cell, built by shifted adds in the covering-disc offset
order, so every entry equals the left-to-right sum over the disc bit for bit.
A world keeps the raster of each read-only worth raster it is asked about
(the true field's raster and the estimate rasters of the harness are
read-only) for as long as that raster is alive; a read-only raster, and every
array it is a view of, must therefore never change.  A writable `values`
array is summed afresh on every call, so mutating it in place between calls
is safe.  Positions and flags are never cached: callers may assign
`positions` and edit `flags` directly.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dynamics import ConstrainedActionMap
from .games import GameDefinition, JointAction
from .mixtures import ObservationLog, worth_weighted_multiplicity
from .worthfield import WorthField

Cell = tuple[int, int]


def _offsets_within(radius: float) -> list[tuple[int, int]]:
    r = int(math.floor(radius))
    out = []
    for dx in range(-r, r + 1):
        for dy in range(-r, r + 1):
            if dx * dx + dy * dy <= radius * radius:
                out.append((dx, dy))
    return out


_MOORE = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]


@dataclass
class CoverageWorld:
    """Grid world state: field, robot positions, flags, observation logs."""

    field_model: WorthField
    positions: list[Cell]
    flags: list[set[Cell]]
    logs: list[ObservationLog]
    cover_radius: float = 1.5
    move_costs: np.ndarray = field(default_factory=lambda: np.array([3e-5]))
    repeat_factor: int = 3
    worth_percentile: float = 60.0
    sensed_worths: list[list[float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.cover_radius <= 0:
            raise ValueError("cover_radius must be positive")
        n = len(self.positions)
        self.move_costs = np.broadcast_to(
            np.asarray(self.move_costs, dtype=float), (n,)
        ).copy()
        if (self.move_costs <= 0).any():
            raise ValueError("move costs must be positive")
        if not self.sensed_worths:
            self.sensed_worths = [[] for _ in range(n)]
        self._cover_offsets = _offsets_within(self.cover_radius)
        # Two discs share no cell once their centres are this far apart on an axis.
        self._overlap_reach = 2 * int(math.floor(self.cover_radius))
        # Measured with math.dist, exactly as visible_foreign_flag() measures.
        reach = int(math.floor(self.flag_range))
        self._flag_offsets = [
            (dx, dy)
            for dx in range(-reach, reach + 1)
            for dy in range(-reach, reach + 1)
            if math.dist((dx, dy), (0, 0)) <= self.flag_range
        ]
        # Every (disc cell l, cell c in the disc of l) offset pair, as
        # (lx, ly, cx, cy) rows in the order overlap_worth() visits them.
        self._overlap_pairs = np.array(
            [
                (ex, ey, ex + ox, ey + oy)
                for ex, ey in self._cover_offsets
                for ox, oy in self._cover_offsets
            ]
        )
        span = np.arange(1 - self.grid_size, self.grid_size)
        self._step_lengths = np.hypot(span[:, None], span[None, :])
        self._step_lengths.setflags(write=False)
        # id(raster) -> (weak reference to the raster, its disc-sum raster)
        self._disc_sum_cache: dict[int, tuple[weakref.ref, np.ndarray]] = {}

    @classmethod
    def create(
        cls,
        field_model: WorthField,
        n_robots: int,
        rng: np.random.Generator,
        cover_radius: float = 1.5,
        move_cost: float | Sequence[float] = 3e-5,
        repeat_factor: int = 3,
        worth_percentile: float = 60.0,
    ) -> "CoverageWorld":
        """World with robots placed uniformly at random on the grid."""
        L = field_model.grid_size
        cells = [
            (int(rng.integers(L)), int(rng.integers(L))) for _ in range(n_robots)
        ]
        return cls(
            field_model=field_model,
            positions=list(cells),
            flags=[set() for _ in range(n_robots)],
            logs=[ObservationLog() for _ in range(n_robots)],
            cover_radius=cover_radius,
            move_costs=move_cost,
            repeat_factor=repeat_factor,
            worth_percentile=worth_percentile,
        )

    @property
    def n_robots(self) -> int:
        return len(self.positions)

    @property
    def grid_size(self) -> int:
        return self.field_model.grid_size

    @property
    def flag_range(self) -> float:
        """Distance out to which foreign flags are detectable."""
        return 2.0 * self.cover_radius

    def worth_values(self) -> np.ndarray:
        return self.field_model.raster()


def neighbor_cells(world: CoverageWorld, position: Cell, radius: float) -> list[Cell]:
    """Cells whose centroids lie within `radius` of the position's centroid."""
    L = world.grid_size
    x, y = position
    if radius == world.cover_radius:
        offsets = world._cover_offsets
    else:
        offsets = _offsets_within(radius)
    return [
        (x + dx, y + dy)
        for dx, dy in offsets
        if 0 <= x + dx < L and 0 <= y + dy < L
    ]


def _is_frozen(values: np.ndarray) -> bool:
    """True when neither the array nor any array it views can be written."""
    a = values
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def _disc_sum_raster(grid: np.ndarray, offsets: Sequence[tuple[int, int]]) -> np.ndarray:
    """Shifted adds, one per offset in order, onto zeros: each entry is the
    left-to-right sum of its disc."""
    L = grid.shape[0]
    out = np.zeros((L, L))
    for dx, dy in offsets:
        if abs(dx) >= L or abs(dy) >= L:
            continue
        out[max(0, -dx) : L - max(0, dx), max(0, -dy) : L - max(0, dy)] += grid[
            max(0, dx) : L - max(0, -dx), max(0, dy) : L - max(0, -dy)
        ]
    return out


def covered_worth_map(world: CoverageWorld, values: np.ndarray | None = None) -> np.ndarray:
    """Worth a robot covers standing on each cell, as an (L, L) raster.

    Read-only rasters (the true field's, the harness's estimates) are summed
    once and kept while they live; writable ones are summed on every call.
    The returned array is read-only when it is kept.
    """
    grid = world.worth_values() if values is None else values
    key = id(grid)
    hit = world._disc_sum_cache.get(key)
    if hit is not None and hit[0]() is grid and not grid.flags.writeable:
        return hit[1]
    sums = _disc_sum_raster(grid, world._cover_offsets)
    if _is_frozen(grid):
        sums.flags.writeable = False
        cache = world._disc_sum_cache
        cache[key] = (weakref.ref(grid, lambda _, k=key: cache.pop(k, None)), sums)
    return sums


def _on_grid(world: CoverageWorld, position: Cell) -> tuple[int, int]:
    x, y = position
    L = world.grid_size
    if not (0 <= x < L and 0 <= y < L):
        raise ValueError(f"position {tuple(position)} is off the {L}x{L} grid")
    return x, y


def covered_worth(
    world: CoverageWorld,
    robot: int,
    position: Cell | None = None,
    values: np.ndarray | None = None,
) -> float:
    """Worth summed over the robot's covering disc."""
    pos = world.positions[robot] if position is None else position
    return float(covered_worth_map(world, values)[_on_grid(world, pos)])


def overlap_worth(
    world: CoverageWorld,
    robot: int,
    position: Cell | None = None,
    values: np.ndarray | None = None,
) -> float:
    """Worth in the robot's disc also covered by others, one term per other robot.

    Co-located robots each contribute the full shared worth, so three robots
    on one cell each see twice their covered worth here.
    """
    pos = world.positions[robot] if position is None else position
    grid = world.worth_values() if values is None else values
    x, y = pos
    reach = world._overlap_reach
    own = None
    total = 0.0
    for j, other in enumerate(world.positions):
        if j == robot or abs(other[0] - x) > reach or abs(other[1] - y) > reach:
            continue
        if own is None:
            own = set(neighbor_cells(world, pos, world.cover_radius))
        for c in neighbor_cells(world, other, world.cover_radius):
            if c in own:
                total += float(grid[c])
    return total


def overlap_worth_map(
    world: CoverageWorld, robot: int, values: np.ndarray | None = None
) -> np.ndarray:
    """overlap_worth() of the robot standing on each cell, as an (L, L) raster.

    Each cell collects the same terms in the same order as overlap_worth():
    other robots in index order, then the cells of each one's disc in offset
    order.  The terms are scattered with one ordered bincount, which adds
    them one by one, so every entry matches overlap_worth() bit for bit.
    """
    grid = world.worth_values() if values is None else values
    L = world.grid_size
    others = [p for j, p in enumerate(world.positions) if j != robot]
    if not others:
        return np.zeros((L, L))
    r = int(math.floor(world.cover_radius))
    # Off-grid disc cells read 0.0 from the padding of `worth`; off-grid
    # covered cells land in the padding of the result and are cut off.
    worth = np.zeros((L + 2 * r, L + 2 * r))
    worth[r : r + L, r : r + L] = grid
    pos = np.array(others, dtype=int)[:, None, :]
    pairs = world._overlap_pairs
    l_cells = pos + pairs[:, :2] + r
    c_cells = pos + pairs[:, 2:] + 2 * r
    n = L + 4 * r
    overlap = np.bincount(
        (c_cells[..., 0] * n + c_cells[..., 1]).ravel(),
        weights=worth[l_cells[..., 0], l_cells[..., 1]].ravel(),
        minlength=n * n,
    )
    return overlap.reshape(n, n)[2 * r : 2 * r + L, 2 * r : 2 * r + L]


def utility_row(
    world: CoverageWorld, robot: int, values: np.ndarray | None = None
) -> np.ndarray:
    """utility() of `robot` moving from where it stands to every cell, as an
    (L, L) raster, without the reachability check.

    Covered minus overlap worth, zeroed on detectable foreign flags, minus
    distance cost from the current cell; each entry equals utility() bit for
    bit.
    """
    gain = covered_worth_map(world, values) - overlap_worth_map(world, robot, values)
    old = world.positions[robot]
    for c in visible_foreign_flags(world, robot, old):
        gain[c] = 0.0
    return gain - world.move_costs[robot] * step_lengths(world, old)


def step_lengths(world: CoverageWorld, origin: Cell) -> np.ndarray:
    """Euclidean distance from `origin` to every cell, as a read-only (L, L) view."""
    x, y = _on_grid(world, origin)
    L = world.grid_size
    return world._step_lengths[L - 1 - x : 2 * L - 1 - x, L - 1 - y : 2 * L - 1 - y]


def visible_foreign_flag(world: CoverageWorld, robot: int, cell: Cell, vantage: Cell) -> bool:
    """Whether `cell` carries another robot's flag detectable from `vantage`."""
    if math.dist(cell, vantage) > world.flag_range:
        return False
    return any(
        cell in world.flags[j] for j in range(world.n_robots) if j != robot
    )


def visible_foreign_flags(world: CoverageWorld, robot: int, vantage: Cell) -> set[Cell]:
    """Every cell carrying another robot's flag detectable from `vantage`."""
    L = world.grid_size
    x, y = vantage
    near = [
        (x + dx, y + dy)
        for dx, dy in world._flag_offsets
        if 0 <= x + dx < L and 0 <= y + dy < L
    ]
    seen: set[Cell] = set()
    for j, flags in enumerate(world.flags):
        if j != robot:
            seen.update(flags.intersection(near))
    return seen


def constrained_moves(world: CoverageWorld, position: Cell) -> list[Cell]:
    """The 8-neighborhood plus the current cell, truncated at grid boundaries."""
    L = world.grid_size
    x, y = position
    return [
        (x + dx, y + dy)
        for dx, dy in _MOORE
        if 0 <= x + dx < L and 0 <= y + dy < L
    ]


def utility(
    world: CoverageWorld,
    robot: int,
    new_pos: Cell,
    old_pos: Cell | None = None,
    values: np.ndarray | None = None,
    enforce_reachable: bool = True,
) -> float:
    """Move payoff: exclusively covered worth at the destination minus move cost.

    The coverage term vanishes when the destination carries a foreign flag
    the robot can detect from where it stands.  `values` substitutes an
    estimated worth raster for the true one (decisions under an unknown
    field); other robots' positions and all flags are frozen world state.
    """
    old = world.positions[robot] if old_pos is None else old_pos
    if enforce_reachable:
        L = world.grid_size
        x, y = new_pos
        if not (
            abs(x - old[0]) <= 1 and abs(y - old[1]) <= 1 and 0 <= x < L and 0 <= y < L
        ):
            raise ValueError(f"move {old} -> {new_pos} outside the constrained set")
    move_cost = world.move_costs[robot] * math.dist(new_pos, old)
    if visible_foreign_flag(world, robot, new_pos, old):
        return -move_cost
    gain = covered_worth(world, robot, new_pos, values) - overlap_worth(
        world, robot, new_pos, values
    )
    return gain - move_cost


def potential(
    world: CoverageWorld,
    joint_new: Sequence[Cell],
    joint_old: Sequence[Cell] | None = None,
    values: np.ndarray | None = None,
    enforce_reachable: bool = True,
) -> float:
    """Sum of all robots' move payoffs, the exact potential of the step game."""
    old = list(world.positions) if joint_old is None else list(joint_old)
    return float(
        sum(
            utility(world, i, joint_new[i], old[i], values, enforce_reachable)
            for i in range(world.n_robots)
        )
    )


def sense(world: CoverageWorld, robot: int) -> tuple[float, float]:
    """Worth and gradient magnitude at the robot's cell, recorded for normalization."""
    pos = world.positions[robot]
    centroid = (pos[0] + 0.5, pos[1] + 0.5)
    f = float(world.worth_values()[pos])
    g = world.field_model.local_gradient(centroid)
    world.sensed_worths[robot].append(f)
    return f, g


def worth_threshold(world: CoverageWorld, robot: int) -> float:
    """Adaptive worthwhile-signal threshold: a percentile of sensed worths."""
    seen = world.sensed_worths[robot]
    if not seen:
        return 0.0
    return float(np.percentile(seen, world.worth_percentile))


def lay_flag(world: CoverageWorld, robot: int) -> None:
    world.flags[robot].add(world.positions[robot])


def lay_flag_and_observe(world: CoverageWorld, robot: int) -> int:
    """Flag the robot's cell and log it with worth-weighted multiplicity.

    Revisits leave the flag set unchanged (set semantics) but always add log
    entries.  Returns the multiplicity used.
    """
    pos = world.positions[robot]
    lay_flag(world, robot)
    f = float(world.worth_values()[pos])
    threshold = worth_threshold(world, robot)
    if threshold > 0:
        multiplicity = worth_weighted_multiplicity(f, threshold, world.repeat_factor)
    else:
        multiplicity = 1
    world.logs[robot].append((pos[0] + 0.5, pos[1] + 0.5), multiplicity)
    return multiplicity


def commit_positions(world: CoverageWorld, new_positions: Sequence[Cell]) -> None:
    """Advance the world one iteration: adopt the new positions."""
    world.positions = [tuple(p) for p in new_positions]


def total_covered_worth(world: CoverageWorld, values: np.ndarray | None = None) -> float:
    """Sum of every robot's covered worth (overlap deliberately not deducted)."""
    sums = covered_worth_map(world, values)
    return float(sum(float(sums[_on_grid(world, p)]) for p in world.positions))


def cell_index(world: CoverageWorld, cell: Cell) -> int:
    return cell[0] * world.grid_size + cell[1]


def index_cell(world: CoverageWorld, index: int) -> Cell:
    return divmod(index, world.grid_size)


def as_game(
    world: CoverageWorld, values: Sequence[np.ndarray | None] | None = None
) -> GameDefinition:
    """View the frozen-context step game as a finite game over all cells.

    Player i's action is its destination cell; its payoff is its move payoff
    from its standing position, with the other robots and flags frozen.
    `values`, when given, holds one worth raster per robot (None for the
    true field); positions, flags and `values[i]` are read at call time, so
    the game follows the world as it advances and as estimates are replaced.
    """
    L = world.grid_size
    labels = tuple(f"{ix},{iy}" for ix in range(L) for iy in range(L))
    rasters = [None] * world.n_robots if values is None else values

    def payoff(i: int, joint: JointAction) -> float:
        return utility(
            world,
            i,
            index_cell(world, joint[i]),
            world.positions[i],
            rasters[i],
            enforce_reachable=False,
        )

    def row(i: int, joint: JointAction) -> np.ndarray:
        return utility_row(world, i, rasters[i]).ravel()

    return GameDefinition(
        action_sets=tuple(labels for _ in range(world.n_robots)),
        utility_fn=payoff,
        row_fn=row,
    )


def moves_constraint_map(world: CoverageWorld) -> ConstrainedActionMap:
    """Adjacency of `as_game` actions: Moore neighborhood plus staying put.

    Each tuple lists the indices of constrained_moves() in its order.  A grid
    row's cells have consecutive indices, so each tuple is joined from up to
    three slices of one index list, whose int objects the tuples share.
    """
    L = world.grid_size
    cells = list(range(L * L))
    per_action = []
    for x in range(L):
        rows = [r * L for r in (x - 1, x, x + 1) if 0 <= r < L]
        for y in range(L):
            lo, hi = max(y - 1, 0), min(y + 2, L)
            moves: list[int] = []
            for start in rows:
                moves += cells[start + lo : start + hi]
            per_action.append(tuple(moves))
    player_map = tuple(per_action)
    return ConstrainedActionMap(tuple(player_map for _ in range(world.n_robots)))


def render_svg(
    field_model: WorthField,
    positions: Sequence[Cell],
    flags: Sequence[set[Cell]] | Sequence[Sequence[Cell]] = (),
    cell_px: int = 14,
) -> str:
    """SVG raster of the worth field with robots and flag traces overlaid.

    Cells are shaded by worth (white to dark blue), flags drawn as small
    marks in each owner's hue, robots as numbered circles.
    """
    L = field_model.grid_size
    raster = field_model.raster()
    top = float(raster.max()) or 1.0
    size = L * cell_px
    palette = ["#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    for ix in range(L):
        for iy in range(L):
            shade = raster[ix, iy] / top
            level = int(255 - 175 * shade)
            parts.append(
                f'<rect x="{ix * cell_px}" y="{(L - 1 - iy) * cell_px}" '
                f'width="{cell_px}" height="{cell_px}" '
                f'fill="rgb({level},{level},255)"/>'
            )
    for owner, trace in enumerate(flags):
        color = palette[owner % len(palette)]
        for (ix, iy) in trace:
            cx = ix * cell_px + cell_px / 2
            cy = (L - 1 - iy) * cell_px + cell_px / 2
            parts.append(
                f'<rect x="{cx - 1.5:.1f}" y="{cy - 1.5:.1f}" width="3" height="3" '
                f'fill="{color}" opacity="0.55"/>'
            )
    for i, (ix, iy) in enumerate(positions):
        color = palette[i % len(palette)]
        cx = ix * cell_px + cell_px / 2
        cy = (L - 1 - iy) * cell_px + cell_px / 2
        parts.append(
            f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{cell_px * 0.38:.1f}" '
            f'fill="{color}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{cx:.1f}" y="{cy + 3:.1f}" text-anchor="middle" '
            f'font-size="{cell_px * 0.5:.0f}" fill="white">{i}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
