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
is safe.  Positions and flags are read-only: `commit_positions` and `lay_flag`
write them and keep the per-cell foreign-flag owner map in step with the flags.
`sense` only reads: what a robot records of its sensing (the observation log
of an estimated-field run) is kept by the runner, not by the world.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import ConstrainedActionMap
from .games import GameDefinition, JointAction
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
    """Grid world state: field, robot positions, flags and the move cost per unit step."""

    field_model: WorthField
    _positions: Sequence[Cell]
    cover_radius: float = 1.5
    move_cost: float = 3e-5

    def __post_init__(self) -> None:
        self.move_cost = float(self.move_cost)
        for key in ("cover_radius", "move_cost"):
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be finite and > 0, got {getattr(self, key)!r}")
        self._positions = tuple(tuple(p) for p in self._positions)
        self._flags: tuple[frozenset[Cell], ...] = (frozenset(),) * len(self._positions)
        # cell -> bitmask of the robots whose flag lies there
        self._owners: dict[Cell, int] = {}
        self._cover_offsets = _offsets_within(self.cover_radius)
        # Another robot's displacement (dx, dy) -> the offsets of its disc, in
        # disc order, whose cells this robot's disc shares (none beyond 2 floor(r)).
        disc, reach = set(self._cover_offsets), 2 * int(math.floor(self.cover_radius))
        self._shared_offsets = {
            (dx, dy): [(ox, oy) for ox, oy in self._cover_offsets if (dx + ox, dy + oy) in disc]
            for dx in range(-reach, reach + 1)
            for dy in range(-reach, reach + 1)
        }
        # Measured with math.dist, exactly as visible_foreign_flag() measures.
        reach = int(math.floor(self.flag_range))
        self._flag_offsets = [
            (dx, dy)
            for dx in range(-reach, reach + 1)
            for dy in range(-reach, reach + 1)
            if math.dist((dx, dy), (0, 0)) <= self.flag_range
        ]
        # Every (disc cell l, cell c in the disc of l) offset pair, in the order
        # overlap_worth() visits them, as flat index offsets from a robot's
        # cell: l's in the worth raster padded by r, c's in the sum padded by 2r.
        r, L = int(math.floor(self.cover_radius)), self.grid_size
        pairs = [(e, o) for e in self._cover_offsets for o in self._cover_offsets]
        self._overlap_reads = np.array([(ex + r) * (L + 2 * r) + ey + r for (ex, ey), _ in pairs])
        self._overlap_writes = np.array(
            [(ex + ox + 2 * r) * (L + 4 * r) + ey + oy + 2 * r for (ex, ey), (ox, oy) in pairs]
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
        move_cost: float = 3e-5,
    ) -> "CoverageWorld":
        """World with robots placed uniformly at random on the grid."""
        L = field_model.grid_size
        cells = [(int(rng.integers(L)), int(rng.integers(L))) for _ in range(n_robots)]
        return cls(field_model, cells, cover_radius, move_cost)

    @property
    def positions(self) -> tuple[Cell, ...]:
        return self._positions

    @property
    def flags(self) -> tuple[frozenset[Cell], ...]:
        return self._flags

    @property
    def n_robots(self) -> int:
        return len(self._positions)

    @property
    def grid_size(self) -> int:
        return self.field_model.grid_size

    @property
    def flag_range(self) -> float:
        """Distance out to which foreign flags are detectable."""
        return 2.0 * self.cover_radius

    def worth_values(self) -> np.ndarray:
        return self.field_model.raster()


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
    x, y = world.positions[robot] if position is None else position
    table, L = world._shared_offsets, world.grid_size
    grid = world.worth_values() if values is None else values
    total = 0.0
    for j, (ox, oy) in enumerate(world.positions):
        shared = table.get((ox - x, oy - y))
        if shared is None or j == robot:
            continue
        for dx, dy in shared:
            cx, cy = ox + dx, oy + dy
            if 0 <= cx < L and 0 <= cy < L:
                total += grid.item(cx, cy)
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
    x, y = np.array(others).T
    n = L + 4 * r
    reads = (x * (L + 2 * r) + y)[:, None] + world._overlap_reads
    writes = (x * n + y)[:, None] + world._overlap_writes
    overlap = np.bincount(writes.ravel(), weights=worth.ravel()[reads.ravel()], minlength=n * n)
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
    return gain - world.move_cost * step_lengths(world, old)


def step_lengths(world: CoverageWorld, origin: Cell) -> np.ndarray:
    """Euclidean distance from `origin` to every cell, as a read-only (L, L) view."""
    x, y = _on_grid(world, origin)
    L = world.grid_size
    return world._step_lengths[L - 1 - x : 2 * L - 1 - x, L - 1 - y : 2 * L - 1 - y]


def visible_foreign_flag(world: CoverageWorld, robot: int, cell: Cell, vantage: Cell) -> bool:
    """Whether `cell` carries another robot's flag detectable from `vantage`."""
    if not world._owners.get(cell, 0) & ~(1 << robot):
        return False
    return math.dist(cell, vantage) <= world.flag_range


def visible_foreign_flags(world: CoverageWorld, robot: int, vantage: Cell) -> set[Cell]:
    """Every cell carrying another robot's flag detectable from `vantage`."""
    x, y = vantage
    owner, mask = world._owners.get, ~(1 << robot)
    return {c for dx, dy in world._flag_offsets if owner(c := (x + dx, y + dy), 0) & mask}


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
    return _move_payoff(world, robot, new_pos, old, values)


def _move_payoff(
    world: CoverageWorld, robot: int, new_pos: Cell, old: Cell, values: np.ndarray | None
) -> float:
    """utility() past its reachability check: the one payoff formula."""
    move_cost = world.move_cost * math.dist(new_pos, old)
    if visible_foreign_flag(world, robot, new_pos, old):
        return -move_cost
    grid = world.worth_values() if values is None else values
    covered = covered_worth_map(world, grid).item(_on_grid(world, new_pos))
    return covered - overlap_worth(world, robot, new_pos, grid) - move_cost


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
    """Worth and gradient magnitude at the robot's cell."""
    pos = world.positions[robot]
    f = float(world.worth_values()[pos])
    return f, world.field_model.local_gradient((pos[0] + 0.5, pos[1] + 0.5))


def lay_flag(world: CoverageWorld, robot: int, cell: Cell | None = None) -> None:
    """Flag `cell` (by default the robot's own cell) as the robot's."""
    cell = world.positions[robot] if cell is None else cell
    if cell not in world._flags[robot]:
        _on_grid(world, cell)
        world._flags = tuple(f | {cell} if j == robot else f for j, f in enumerate(world._flags))
        world._owners[cell] = world._owners.get(cell, 0) | 1 << robot


def commit_positions(world: CoverageWorld, new_positions: Sequence[Cell]) -> None:
    """Advance the world one iteration: adopt the new positions (a new tuple only on a move)."""
    cells = tuple(tuple(p) for p in new_positions)
    if len(cells) != world.n_robots:
        raise ValueError(f"need {world.n_robots} positions, got {len(cells)}")
    if cells != world._positions:
        world._positions = cells


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
    `utilities` scores every robot in one loop over the kernel `utility` runs.

    A robot's payoff row reads only the world and its raster, never the
    joint action, so each robot's last row is kept, read-only, while the
    world's position and flag tuples and its raster are the same objects.
    Only `commit_positions` and `lay_flag` replace those tuples, and only on
    a change; the move cost, covering radius and field are fixed at
    construction.  A writable raster may change in place, so its rows are
    never kept.  By the same rule `utilities` keeps its last result for a repeated joint.
    """
    rasters = [None] * world.n_robots if values is None else values
    # robot -> ((positions, flags, raster) the row was made from, row)
    kept: dict[int, tuple[tuple, np.ndarray]] = {}
    # (positions, flags, joint, rasters) of the last `payoffs` call, and its result
    last: list = [None, None, None, (), []]

    def payoff(i: int, joint: JointAction) -> float:
        return _move_payoff(world, i, index_cell(world, joint[i]), world.positions[i], rasters[i])

    def payoffs(joint: JointAction) -> list[float]:
        cells, flags = world._positions, world._flags
        if cells is last[0] and flags is last[1] and joint == last[2]:
            if all(r is k and (r is None or _is_frozen(r)) for r, k in zip(rasters, last[3])):
                return last[4]
        L = world.grid_size
        out = [
            _move_payoff(world, i, divmod(a, L), cells[i], rasters[i]) for i, a in enumerate(joint)
        ]
        last[:] = cells, flags, tuple(joint), tuple(rasters), out
        return out

    def row(i: int, joint: JointAction) -> np.ndarray:
        raster = rasters[i]
        key = (world._positions, world._flags, raster)
        hit = kept.get(i)
        if hit is not None and all(a is b for a, b in zip(hit[0], key)):
            return hit[1]
        out = utility_row(world, i, raster).ravel()
        out.flags.writeable = False
        if raster is None or _is_frozen(raster):
            kept[i] = (key, out)
        return out

    return GameDefinition(
        action_counts=(world.grid_size**2,) * world.n_robots,
        utility_fn=payoff,
        row_fn=row,
        utilities_fn=payoffs,
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
