import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from potlearn import coverage as cov
from potlearn.dynamics import validate_constraints
from potlearn.games import best_response_set, replace_action, verify_potential
from potlearn.harness import _estimate_raster
from potlearn.mixtures import (
    GmmEstimate,
    ObservationLog,
    sensed_multiplicity,
    worth_weighted_multiplicity,
)
from potlearn.rng import make_rng
from potlearn.worthfield import GaussianComponent, WorthField


def flat_world(grid=8, robots=2, seed=0, **kw):
    field = WorthField(
        [GaussianComponent(1.0, [grid / 2, grid / 2], (grid / 3) ** 2 * np.eye(2))],
        grid,
    )
    return cov.CoverageWorld.create(field, robots, make_rng(seed), **kw)


def uniform_values(world, value=0.01):
    return np.full((world.grid_size, world.grid_size), value)


def covering(world, cell):
    """Cells whose covering disc holds `cell`: by the disc's symmetry, the
    cells of the disc around `cell`."""
    one_hot = np.zeros((world.grid_size, world.grid_size))
    one_hot[cell] = 1.0
    return {c for c, v in np.ndenumerate(cov.covered_worth_map(world, one_hot)) if v}


class TestNeighborCells:
    """The covering disc, read off the covered-worth raster of a one-hot field."""

    def test_interior_disc_is_the_3x3_block(self):
        world = flat_world()
        cells = covering(world, (4, 4))
        assert len(cells) == 9
        # exhaustive check against the definition
        expected = {
            (x, y)
            for x in range(8)
            for y in range(8)
            if math.dist((x, y), (4, 4)) <= 1.5
        }
        assert cells == expected

    def test_zero_radius_is_the_cell_itself(self):
        world = flat_world(cover_radius=1e-9)  # a world's radius must be positive
        assert covering(world, (3, 5)) == {(3, 5)}

    def test_corner_truncates_to_four(self):
        world = flat_world()
        assert len(covering(world, (0, 0))) == 4

    def test_radius_two_includes_straight_two_steps(self):
        world = flat_world(grid=9, cover_radius=2.0)
        cells = covering(world, (4, 4))
        assert (6, 4) in cells and (4, 2) in cells
        assert (6, 6) not in cells  # distance 2*sqrt(2)


class TestCoveredAndOverlap:
    def test_zero_field_covers_nothing(self):
        world = flat_world()
        assert cov.covered_worth_map(world, np.zeros((8, 8)))[world.positions[0]] == 0.0

    def test_uniform_interior_disc(self):
        world = flat_world()
        cov.commit_positions(world, [(4, 4), world.positions[1]])
        assert cov.covered_worth_map(world, uniform_values(world))[4, 4] == pytest.approx(
            0.09, abs=1e-15
        )

    def test_sharp_target_caught_almost_entirely(self):
        # sharpest grid-resolvable target: half-cell standard deviation; the
        # midpoint cell sum then tracks the component mass to a fraction of
        # a percent (sub-cell targets would alias above their true mass)
        comp = GaussianComponent(1.0, [4.5, 4.5], 0.36 * np.eye(2))
        field = WorthField([comp], 9)
        world = cov.CoverageWorld.create(field, 1, make_rng(1))
        cov.commit_positions(world, [(4, 4)])
        covered = cov.covered_worth_map(world)[4, 4]
        grid_sum = sum(field.raster()[c] for c in ref_cells(world, (4, 4)))
        assert covered == pytest.approx(grid_sum, abs=1e-15)
        assert 0.9 <= covered <= 1.005

    def test_distant_robots_do_not_overlap(self):
        world = flat_world()
        cov.commit_positions(world, [(0, 0), (7, 7)])  # distance > 2 * 1.5
        assert cov.overlap_worth(world, 0, values=uniform_values(world)) == 0.0

    def test_colocated_pair_overlaps_fully(self):
        world = flat_world()
        cov.commit_positions(world, [(4, 4), (4, 4)])
        vals = uniform_values(world)
        assert cov.overlap_worth(world, 0, values=vals) == pytest.approx(
            cov.covered_worth_map(world, vals)[4, 4], abs=1e-15
        )

    def test_three_colocated_robots_double_count(self):
        world = flat_world(robots=3)
        cov.commit_positions(world, [(4, 4), (4, 4), (4, 4)])
        vals = uniform_values(world)
        covered = cov.covered_worth_map(world, vals)[4, 4]
        assert cov.overlap_worth(world, 0, values=vals) == pytest.approx(
            2 * covered, abs=1e-14
        )


class TestUtility:
    def test_lone_interior_robot_staying_put(self):
        world = flat_world()
        cov.commit_positions(world, [(4, 4), (0, 0)])
        vals = uniform_values(world)
        # the corner robot's disc is far from (4, 4): zero overlap
        u = cov.utility(world, 0, (4, 4), (4, 4), values=vals)
        assert u == pytest.approx(0.09 - 0.04, abs=1e-12) or u <= 0.09
        cov.commit_positions(world, [world.positions[0], (7, 7)])
        assert cov.utility(world, 0, (4, 4), (4, 4), values=vals) == pytest.approx(
            0.09, abs=1e-15
        )

    def test_unit_move_pays_the_energy_cost(self):
        world = flat_world(move_cost=3e-5)
        cov.commit_positions(world, [(4, 4), (7, 7)])
        vals = uniform_values(world)
        u = cov.utility(world, 0, (4, 3), (4, 4), values=vals)
        assert u == pytest.approx(0.09 - 3e-5, abs=1e-15)

    def test_foreign_flag_kills_the_coverage_term(self):
        world = flat_world(move_cost=3e-5)
        cov.commit_positions(world, [(4, 4), (7, 7)])
        cov.lay_flag(world, 1, (4, 3))
        u = cov.utility(world, 0, (4, 3), (4, 4), values=uniform_values(world))
        assert u == pytest.approx(-3e-5 * 1.0, abs=1e-18)
        assert u <= 0.0

    def test_own_flag_does_not_suppress(self):
        world = flat_world()
        cov.commit_positions(world, [(4, 4), (7, 7)])
        cov.lay_flag(world, 0, (4, 3))
        u = cov.utility(world, 0, (4, 3), (4, 4), values=uniform_values(world))
        assert u > 0.0

    def test_undetectable_flag_beyond_twice_the_radius(self):
        world = flat_world()
        cov.commit_positions(world, [(0, 0), (7, 7)])
        cov.lay_flag(world, 1, (4, 4))
        # evaluating a teleport move far away: flag at (4, 4) is beyond
        # detection range from (0, 0), so the coverage term survives
        u = cov.utility(
            world, 0, (4, 4), (0, 0), values=uniform_values(world), enforce_reachable=False
        )
        assert u > 0.0

    def test_unreachable_move_rejected(self):
        world = flat_world()
        with pytest.raises(ValueError):
            cov.utility(world, 0, (7, 7), (0, 0))

    def test_utility_bounded_by_total_mass(self):
        world = flat_world(grid=10, robots=3, seed=3)
        rng = make_rng(4)
        for _ in range(100):
            i = int(rng.integers(3))
            moves = cov.constrained_moves(world, world.positions[i])
            new = moves[int(rng.integers(len(moves)))]
            assert cov.utility(world, i, new, world.positions[i]) <= 1.0 + 1e-9


class TestPotential:
    def test_single_robot_potential_is_its_utility(self):
        world = flat_world(robots=1)
        cov.commit_positions(world, [(4, 4)])
        moves = cov.constrained_moves(world, (4, 4))
        joint_new = [moves[3]]
        assert cov.potential(world, joint_new) == pytest.approx(
            cov.utility(world, 0, moves[3], (4, 4)), abs=0
        )

    def test_unilateral_deviations_match_exactly(self):
        rng = make_rng(5)
        world = flat_world(grid=4, robots=2, seed=6)
        for robot, cell in ((0, (1, 1)), (0, (2, 3)), (1, (0, 3))):
            cov.lay_flag(world, robot, cell)
        base = list(world.positions)
        for _ in range(200):
            i = int(rng.integers(2))
            moves = cov.constrained_moves(world, base[i])
            new = moves[int(rng.integers(len(moves)))]
            joint_new = list(base)
            joint_new[i] = new
            d_phi = cov.potential(world, joint_new, base) - cov.potential(world, base, base)
            d_u = cov.utility(world, i, new, base[i]) - cov.utility(
                world, i, base[i], base[i]
            )
            assert abs(d_phi - d_u) <= 1e-9

    def test_all_robots_on_foreign_zero_worth_flags(self):
        world = flat_world(move_cost=2e-4)
        cov.commit_positions(world, [(0, 0), (7, 7)])
        cov.lay_flag(world, 0, (6, 7))
        cov.lay_flag(world, 1, (1, 0))
        joint_new = [(1, 0), (6, 7)]
        phi = cov.potential(world, joint_new, values=np.zeros((8, 8)))
        assert phi == pytest.approx(-2e-4 * 2.0, abs=1e-15)

    def test_exhaustive_potential_certificate_on_small_world(self):
        world = flat_world(grid=4, robots=2, seed=7)
        cov.lay_flag(world, 0, (1, 1))
        cov.lay_flag(world, 1, (3, 0))
        game = cov.as_game(world)
        phi = {
            a: cov.potential(
                world,
                [cov.index_cell(world, a[0]), cov.index_cell(world, a[1])],
                enforce_reachable=False,
            )
            for a in game.joint_actions()
        }
        cert = verify_potential(game, phi, tol=1e-9)
        assert cert.ok


class TestMovesAndFlags:
    def test_interior_moves_are_the_moore_block(self):
        world = flat_world()
        moves = cov.constrained_moves(world, (4, 4))
        assert len(moves) == 9
        assert (4, 4) in moves

    def test_corner_moves_truncate(self):
        world = flat_world()
        moves = cov.constrained_moves(world, (0, 0))
        assert len(moves) == 4
        assert (0, 0) in moves

    def test_moves_map_is_symmetric_and_connected(self):
        world = flat_world(grid=4)
        report = validate_constraints(cov.moves_constraint_map(world))
        assert report.ok

    @pytest.mark.parametrize("grid", range(1, 13))
    def test_moves_map_lists_constrained_moves_in_order(self, grid):
        world = flat_world(grid=grid, robots=2)
        expected = tuple(
            tuple(cov.cell_index(world, c) for c in cov.constrained_moves(world, cell))
            for cell in np.ndindex(grid, grid)
        )
        cmap = cov.moves_constraint_map(world)
        assert cmap.reachable == (expected, expected)
        assert all(type(a) is int for dests in cmap.reachable[0] for a in dests)

    def test_flag_idempotent_log_grows(self):
        world = flat_world()
        cov.commit_positions(world, [(2, 2), world.positions[1]])
        log = ObservationLog()
        for _ in range(2):
            cov.lay_flag(world, 0)
            f, _ = cov.sense(world, 0)
            log.append((2.5, 2.5), sensed_multiplicity(f, [], 60.0, 3))
        assert world.flags[0] == {(2, 2)}
        assert len(log) == 2

    def test_fresh_cell_extends_the_flag_trace(self):
        world = flat_world()
        cov.commit_positions(world, [(2, 2), world.positions[1]])
        cov.lay_flag(world, 0)
        cov.commit_positions(world, [(2, 3), world.positions[1]])
        cov.lay_flag(world, 0)
        assert world.flags[0] == {(2, 2), (2, 3)}

    def test_worthwhile_cell_logged_with_multiplicity(self):
        world = flat_world()
        peak = max(
            ((x, y) for x in range(8) for y in range(8)),
            key=lambda c: world.worth_values()[c],
        )
        sensed = [1e-6, 2e-6, 1e-5]  # low history -> low threshold
        cov.commit_positions(world, [peak, world.positions[1]])
        f_peak, _ = cov.sense(world, 0)
        assert f_peak == float(world.worth_values()[peak])
        multiplicity = sensed_multiplicity(f_peak, sensed, 60.0, 3)
        threshold = float(np.percentile(sensed, 60.0))
        assert multiplicity == worth_weighted_multiplicity(f_peak, threshold, 3)
        assert multiplicity >= 1 + 3
        log = ObservationLog()
        log.append((peak[0] + 0.5, peak[1] + 0.5), multiplicity)
        assert len(log) == multiplicity

    def test_total_covered_worth_sums_robots(self):
        world = flat_world()
        vals = uniform_values(world)
        cov.commit_positions(world, [(4, 4), (4, 4)])
        assert cov.total_covered_worth(world, vals) == pytest.approx(0.18, abs=1e-14)


class TestBestResponseOnGrid:
    def test_adjacent_robot_moves_onto_the_peak(self):
        comp = GaussianComponent(1.0, [4.5, 4.5], 0.25 * np.eye(2))
        field = WorthField([comp], 9)
        world = cov.CoverageWorld.create(field, 1, make_rng(8))
        cov.commit_positions(world, [(3, 4)])  # one step west of the peak cell (4, 4)
        moves = cov.constrained_moves(world, (3, 4))
        best = max(moves, key=lambda c: cov.utility(world, 0, c, (3, 4)))
        assert best == (4, 4)

    def test_matches_game_core_best_response_on_constrained_view(self):
        comp = GaussianComponent(1.0, [4.5, 4.5], 0.25 * np.eye(2))
        field = WorthField([comp], 9)
        world = cov.CoverageWorld.create(field, 1, make_rng(9))
        cov.commit_positions(world, [(3, 4)])
        game = cov.as_game(world)
        context = (cov.cell_index(world, (3, 4)),)
        br = best_response_set(game, 0, context)
        assert cov.index_cell(world, br[0]) == (4, 4)


class TestCellIndexing:
    def test_round_trip(self):
        world = flat_world()
        for c in [(0, 0), (3, 7), (7, 1)]:
            assert cov.index_cell(world, cov.cell_index(world, c)) == c


# Naive disc-walk reference: the coverage payoff as it was written before the
# disc-sum raster, kept here only to pin the fast evaluator to it bit for bit.


def ref_offsets(radius):
    r = int(math.floor(radius))
    return [
        (dx, dy)
        for dx in range(-r, r + 1)
        for dy in range(-r, r + 1)
        if dx * dx + dy * dy <= radius * radius
    ]


def ref_cells(world, position):
    L = world.grid_size
    x, y = position
    return [
        (x + dx, y + dy)
        for dx, dy in ref_offsets(world.cover_radius)
        if 0 <= x + dx < L and 0 <= y + dy < L
    ]


def ref_grid(world, values):
    return world.worth_values() if values is None else values


def ref_covered(world, robot, position=None, values=None):
    pos = world.positions[robot] if position is None else position
    grid = ref_grid(world, values)
    return float(sum(grid[c] for c in ref_cells(world, pos)))


def ref_overlap(world, robot, position=None, values=None):
    pos = world.positions[robot] if position is None else position
    grid = ref_grid(world, values)
    own = set(ref_cells(world, pos))
    total = 0.0
    for j in range(world.n_robots):
        if j == robot:
            continue
        for c in ref_cells(world, world.positions[j]):
            if c in own:
                total += float(grid[c])
    return total


def ref_flagged(world, robot, cell, vantage):
    if math.dist(cell, vantage) > world.flag_range:
        return False
    return any(cell in world.flags[j] for j in range(world.n_robots) if j != robot)


def ref_utility(world, robot, new_pos, old_pos=None, values=None, enforce_reachable=True):
    old = world.positions[robot] if old_pos is None else old_pos
    if enforce_reachable and new_pos not in cov.constrained_moves(world, old):
        raise ValueError("unreachable")
    move_cost = world.move_cost * math.dist(new_pos, old)
    if ref_flagged(world, robot, new_pos, old):
        return -move_cost
    gain = ref_covered(world, robot, new_pos, values) - ref_overlap(world, robot, new_pos, values)
    return gain - move_cost


def ref_potential(world, joint_new, joint_old=None, values=None, enforce_reachable=True):
    old = list(world.positions) if joint_old is None else list(joint_old)
    return float(
        sum(
            ref_utility(world, i, joint_new[i], old[i], values, enforce_reachable)
            for i in range(world.n_robots)
        )
    )


def ref_total(world, values=None):
    return float(sum(ref_covered(world, i, values=values) for i in range(world.n_robots)))


def ref_all_cell_utilities(world, robot, values):
    grid = ref_grid(world, values)
    L = world.grid_size
    covered_map = np.zeros((L, L))
    for c in np.ndindex(L, L):
        covered_map[c] = ref_covered(world, robot, c, values)
    overlap_map = np.zeros((L, L))
    for j in range(world.n_robots):
        if j == robot:
            continue
        for l_cell in ref_cells(world, world.positions[j]):
            for c in ref_cells(world, l_cell):
                overlap_map[c] += grid[l_cell]
    gain = covered_map - overlap_map
    old = world.positions[robot]
    for j in range(world.n_robots):
        if j == robot:
            continue
        for c in world.flags[j]:
            if math.dist(c, old) <= world.flag_range:
                gain[c] = 0.0
    xs = np.arange(L)
    dist = np.hypot(xs[:, None] - old[0], xs[None, :] - old[1])
    return gain - world.move_cost * dist


RADII = (0.5, 1.0, 1.2, 1.5, math.sqrt(2.0), 2.0, 2.3, 2.5, math.sqrt(8.0), 3.0, 3.7)


@st_.composite
def coverage_cases(draw):
    """A small world with boundary, co-located and 2*floor(r)-apart robots and
    foreign flags at and just beyond the detection range."""
    L = draw(st_.integers(1, 12))
    radius = draw(st_.sampled_from(RADII) | st_.floats(0.3, 4.0))
    robots = draw(st_.integers(1, 4))
    coord = st_.sampled_from((0, L - 1)) | st_.integers(0, L - 1)
    positions = [(draw(coord), draw(coord))]
    reach = 2 * int(math.floor(radius))
    for _ in range(robots - 1):
        kind = draw(st_.sampled_from(("free", "colocated", "reach")))
        if kind == "colocated":
            positions.append(draw(st_.sampled_from(positions)))
        elif kind == "reach":
            bx, by = draw(st_.sampled_from(positions))
            sx, sy = draw(st_.sampled_from((-1, 1))), draw(st_.integers(-reach, reach))
            cell = (bx + sx * reach, by + sy) if draw(st_.booleans()) else (bx + sy, by + sx * reach)
            positions.append(
                (min(max(cell[0], 0), L - 1), min(max(cell[1], 0), L - 1))
            )
        else:
            positions.append((draw(coord), draw(coord)))
    field = WorthField(
        [GaussianComponent(1.0, [L / 2, L / 2], max(L / 3, 0.5) ** 2 * np.eye(2))], L
    )
    seed = draw(st_.integers(0, 2**32 - 1))
    world = cov.CoverageWorld.create(
        field, robots, make_rng(seed), cover_radius=radius, move_cost=3e-5
    )
    cov.commit_positions(world, positions)
    flag_range = 2.0 * radius
    cells = list(np.ndindex(L, L))
    rim = [
        c
        for c in cells
        if any(abs(math.dist(c, p) - flag_range) <= 1.0 for p in positions)
    ]
    for j in range(robots):
        pool = rim if rim and draw(st_.booleans()) else cells
        for cell in draw(st_.lists(st_.sampled_from(pool), max_size=6)):
            cov.lay_flag(world, j, cell)
    kind = draw(st_.sampled_from(("field", "writable", "estimate")))
    values = None
    if kind == "writable":
        rng = np.random.default_rng(seed)
        values = rng.random((L, L)) * draw(st_.sampled_from((1.0, 1e-3, 7.5)))
    elif kind == "estimate":
        mean = [draw(st_.floats(0.0, L)), draw(st_.floats(0.0, L))]
        estimate = GmmEstimate(
            weights=np.array([1.0]),
            means=np.array([mean]),
            covs=np.array([draw(st_.floats(0.3, 9.0)) * np.eye(2)]),
        )
        values = _estimate_raster(estimate, field)
    return world, values


def assert_matches_reference(world, values):
    L = world.grid_size
    assert cov.total_covered_worth(world, values) == ref_total(world, values)
    for i, pos in enumerate(world.positions):
        covered_map = cov.covered_worth_map(world, values)
        overlap_map = cov.overlap_worth_map(world, i, values)
        for c in np.ndindex(L, L):
            covered = ref_covered(world, i, c, values)
            overlap = ref_overlap(world, i, c, values)
            assert covered == covered_map[c]
            assert cov.overlap_worth(world, i, c, values) == overlap == overlap_map[c]
            assert cov.utility(world, i, c, pos, values, False) == ref_utility(
                world, i, c, pos, values, False
            )
            reachable = c in cov.constrained_moves(world, pos)
            if reachable:
                assert cov.utility(world, i, c, pos, values) == ref_utility(
                    world, i, c, pos, values
                )
            else:
                with pytest.raises(ValueError):
                    cov.utility(world, i, c, pos, values)
        row = cov.utility_row(world, i, values)
        assert (row == ref_all_cell_utilities(world, i, values)).all()
    # The game view with one raster per robot (the true field for odd robots):
    # its all-action row equals its own per-action payoff loop.
    per_robot = [values if i % 2 == 0 else None for i in range(world.n_robots)]
    game = cov.as_game(world, per_robot)
    action = tuple(cov.cell_index(world, p) for p in world.positions)
    for i in range(world.n_robots):
        loop = [game.utility(i, replace_action(action, i, b)) for b in range(L * L)]
        assert (game.utility_row(i, action) == np.array(loop)).all()
    moves = [cov.constrained_moves(world, p)[-1] for p in world.positions]
    assert cov.potential(world, moves, values=values) == ref_potential(
        world, moves, values=values
    )


class TestDiscSumDifferential:
    """The disc-sum evaluator against the naive disc walk, compared with ==."""

    @given(coverage_cases())
    @settings(max_examples=150, deadline=None)
    def test_every_payoff_piece_matches_the_disc_walk(self, case):
        world, values = case
        assert_matches_reference(world, values)

    @given(coverage_cases())
    @settings(max_examples=15, deadline=None)
    def test_writable_values_mutated_in_place_are_never_stale(self, case):
        world, _ = case
        L = world.grid_size
        values = np.random.default_rng(L).random((L, L))
        assert_matches_reference(world, values)
        values *= 3.0
        values[0, 0] += 1.0
        assert_matches_reference(world, values)

    def test_field_raster_sums_are_kept_and_read_only(self):
        world = flat_world()
        sums = cov.covered_worth_map(world)
        assert cov.covered_worth_map(world) is sums
        assert not sums.flags.writeable

    def test_read_only_view_of_a_writable_array_is_not_kept(self):
        world = flat_world()
        base = uniform_values(world)
        view = base.view()
        view.setflags(write=False)
        before = cov.covered_worth_map(world, view)[4, 4]
        base *= 2.0
        assert cov.covered_worth_map(world, view)[4, 4] == 2.0 * before

    def test_kept_sums_are_dropped_with_their_raster(self):
        world = flat_world()
        values = uniform_values(world)
        values.setflags(write=False)
        cov.covered_worth_map(world, values)
        kept = len(world._disc_sum_cache)
        del values
        assert len(world._disc_sum_cache) == kept - 1

    def test_off_grid_position_is_rejected(self):
        world = flat_world()
        with pytest.raises(ValueError, match="off the"):
            cov.utility(world, 0, (-1, 3), enforce_reachable=False)


def ref_visible_flags(world, robot, vantage):
    """Set-based foreign-flag scan, as written before the owner map."""
    L = world.grid_size
    reach = int(math.floor(world.flag_range))
    near = [
        (vantage[0] + dx, vantage[1] + dy)
        for dx in range(-reach, reach + 1)
        for dy in range(-reach, reach + 1)
        if math.dist((dx, dy), (0, 0)) <= world.flag_range
        and 0 <= vantage[0] + dx < L
        and 0 <= vantage[1] + dy < L
    ]
    seen = set()
    for j, flags in enumerate(world.flags):
        if j != robot:
            seen.update(flags.intersection(near))
    return seen


@st_.composite
def writer_sequences(draw):
    """A world and a random sequence of position commits and flag layings."""
    L = draw(st_.integers(1, 9))
    robots = draw(st_.integers(1, 4))
    radius = draw(st_.sampled_from(RADII))
    world = flat_world(grid=L, robots=robots, cover_radius=radius)
    cell = st_.tuples(st_.integers(0, L - 1), st_.integers(0, L - 1))
    for _ in range(draw(st_.integers(0, 25))):
        kind = draw(st_.sampled_from(("commit", "own", "cell")))
        if kind == "commit":
            cov.commit_positions(world, draw(st_.lists(cell, min_size=robots, max_size=robots)))
        elif kind == "own":
            cov.lay_flag(world, draw(st_.integers(0, robots - 1)))
        else:
            cov.lay_flag(world, draw(st_.integers(0, robots - 1)), draw(cell))
    return world


def ref_generator_flags(world, robot, vantage):
    """visible_foreign_flags() as written before: a generator of cells filtered into a set."""
    x, y = vantage
    near = ((x + dx, y + dy) for dx, dy in world._flag_offsets)
    return {c for c in near if world._owners.get(c, 0) & ~(1 << robot)}


class TestWorldWriters:
    @given(writer_sequences())
    @settings(max_examples=100, deadline=None)
    def test_foreign_flag_set_equals_the_generator_built_set(self, world):
        L = world.grid_size
        for robot in range(world.n_robots):
            for vantage in [(x, y) for x in range(-1, L + 1) for y in range(-1, L + 1)]:
                assert cov.visible_foreign_flags(world, robot, vantage) == ref_generator_flags(
                    world, robot, vantage
                )

    def test_commit_keeps_the_position_tuple_while_every_cell_is_equal(self):
        world = flat_world(robots=3)
        cov.commit_positions(world, [(1, 1), (2, 2), (3, 3)])
        kept = world.positions
        cov.commit_positions(world, [[1, 1], (2, 2), np.array([3, 3])])
        assert world.positions is kept
        cov.commit_positions(world, [(1, 1), (2, 3), (3, 3)])
        assert world.positions is not kept
        assert world.positions == ((1, 1), (2, 3), (3, 3))
        moved = world.positions
        with pytest.raises(ValueError, match="need 3 positions"):
            cov.commit_positions(world, [(1, 1), (2, 3)])
        assert world.positions is moved

    @given(writer_sequences())
    @settings(max_examples=150, deadline=None)
    def test_owner_map_follows_the_flag_sets(self, world):
        rebuilt = {}
        for robot, flags in enumerate(world.flags):
            for c in flags:
                rebuilt[c] = rebuilt.get(c, 0) | 1 << robot
        assert world._owners == rebuilt
        L = world.grid_size
        for robot in range(world.n_robots):
            for vantage in np.ndindex(L, L):
                assert cov.visible_foreign_flags(world, robot, vantage) == ref_visible_flags(
                    world, robot, vantage
                )
                for c in [(x, y) for x in range(-1, L + 1) for y in range(-1, L + 1)]:
                    assert cov.visible_foreign_flag(world, robot, c, vantage) == ref_flagged(
                        world, robot, c, vantage
                    )

    def test_state_changes_only_through_the_writers(self):
        world = flat_world()
        with pytest.raises(AttributeError):
            world.positions = [(0, 0), (1, 1)]
        with pytest.raises(TypeError):
            world.positions[0] = (0, 0)
        with pytest.raises(AttributeError):
            world.flags[0].add((3, 3))
        with pytest.raises(AttributeError):
            world.flags = [set(), set()]
        assert world.flags == (frozenset(), frozenset())

    @pytest.mark.parametrize("cost", [math.nan, math.inf, 0.0, -3e-5])
    def test_create_rejects_a_move_cost_not_finite_and_positive(self, cost):
        with pytest.raises(ValueError, match="move_cost"):
            flat_world(move_cost=cost)

    def test_writers_reject_bad_input(self):
        world = flat_world()
        with pytest.raises(ValueError, match="need 2 positions"):
            cov.commit_positions(world, [(0, 0)])
        with pytest.raises(ValueError, match="off the"):
            cov.lay_flag(world, 0, (8, 0))
        assert world.flags == (frozenset(), frozenset())


class TestGameRowMemo:
    """`as_game` keeps each robot's row only while the world's position and
    flag tuples and the robot's raster are the same objects."""

    def frozen_values(self, seed, grid=8):
        values = np.random.default_rng(seed).random((grid, grid))
        values.setflags(write=False)
        return values

    def test_rows_equal_a_fresh_row_after_every_write(self):
        world = flat_world(grid=8, robots=3)
        cov.commit_positions(world, [(2, 2), (5, 5), (6, 1)])
        rasters = [self.frozen_values(1), None, self.frozen_values(2)]
        game = cov.as_game(world, rasters)
        previous = {}

        def check(changed):
            action = tuple(cov.cell_index(world, p) for p in world.positions)
            for i in range(world.n_robots):
                fresh = cov.utility_row(world, i, rasters[i]).ravel()
                for _ in range(2):  # the first call may be kept, the second is
                    assert (game.utility_row(i, action) == fresh).all()
                if i in changed:  # a stale row would fail the comparison above
                    assert not (previous[i] == fresh).all()
                previous[i] = fresh

        check(changed=())
        cov.commit_positions(world, [(3, 2), (5, 5), (6, 1)])
        check(changed=(0, 1, 2))
        assert math.dist((4, 3), world.positions[0]) <= world.flag_range
        cov.lay_flag(world, 1, (4, 3))
        check(changed=(0,))
        rasters[2] = self.frozen_values(3)
        check(changed=(2,))

    def test_rows_are_read_only(self):
        world = flat_world(grid=6, robots=2)
        writable = np.full((6, 6), 0.01)
        for values in (None, self.frozen_values(4, grid=6), writable):
            game = cov.as_game(world, [values, values])
            row = game.utility_row(0, (0, 0))
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1.0

    def test_a_writable_raster_is_read_afresh(self):
        world = flat_world(grid=6, robots=2)
        values = np.full((6, 6), 0.01)
        game = cov.as_game(world, [values, None])
        first = game.utility_row(0, (0, 0)).copy()
        values *= 2.0
        assert (game.utility_row(0, (0, 0)) == cov.utility_row(world, 0, values).ravel()).all()
        assert not (game.utility_row(0, (0, 0)) == first).all()


class TestGameUtilities:
    """`as_game(...).utilities` equals its own per-player utility loop, with ==."""

    def assert_utilities_match(self, world, rasters, seed):
        game = cov.as_game(world, rasters)
        n, cells = world.n_robots, world.grid_size**2
        source = tuple(cov.cell_index(world, p) for p in world.positions)
        rng = np.random.default_rng(seed)
        joints = [source] + [tuple(int(a) for a in rng.integers(cells, size=n)) for _ in range(4)]
        for joint in joints:
            expected = tuple(game.utility(i, joint) for i in range(n))
            assert game.utilities(joint) == expected
            assert expected == tuple(
                ref_utility(world, i, cov.index_cell(world, a), None, rasters[i], False)
                for i, a in enumerate(joint)
            )

    @given(coverage_cases(), st_.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_utilities_equal_the_per_player_loop(self, case, seed):
        world, values = case
        L = world.grid_size
        estimate = GmmEstimate(
            weights=np.array([1.0]), means=np.array([[L / 3, L / 2]]), covs=np.array([np.eye(2)])
        )
        other = _estimate_raster(estimate, world.field_model)
        rasters = [(values, None, other)[i % 3] for i in range(world.n_robots)]
        self.assert_utilities_match(world, rasters, seed)

    def test_foreign_flags_at_and_just_past_the_range(self):
        world = flat_world(grid=8, robots=3)
        cov.commit_positions(world, [(0, 0), (0, 0), (7, 7)])
        assert world.flag_range == 3.0
        for cell in ((3, 0), (3, 1), (0, 3), (2, 2), (3, 3)):
            cov.lay_flag(world, 2, cell)
        cov.lay_flag(world, 0, (1, 1))
        game = cov.as_game(world)
        for dest in ((3, 0), (3, 1), (0, 3), (2, 2), (3, 3), (1, 1), (0, 0)):
            joint = (cov.cell_index(world, dest),) * 2 + (cov.cell_index(world, (7, 7)),)
            payoffs = game.utilities(joint)
            assert payoffs == tuple(game.utility(i, joint) for i in range(3))
            # only robot 1 sees robot 0's flag on (1, 1)
            assert (payoffs[0] == payoffs[1]) == (dest != (1, 1))
        self.assert_utilities_match(world, [None] * 3, 0)

    def test_a_writable_raster_mutated_between_calls_is_read_afresh(self):
        world = flat_world(grid=6, robots=3)
        cov.commit_positions(world, [(0, 5), (1, 4), (1, 4)])
        values = np.random.default_rng(5).random((6, 6))
        game = cov.as_game(world, [values, values, None])
        joint = (cov.cell_index(world, (0, 4)), 3, 27)
        before = game.utilities(joint)
        values *= 2.0
        after = game.utilities(joint)
        assert after == tuple(game.utility(i, joint) for i in range(3))
        assert after[0] != before[0] and after[1] != before[1] and after[2] == before[2]
        self.assert_utilities_match(world, [values, values, None], 1)

    def test_kept_payoffs_equal_a_fresh_loop_after_every_writer(self, monkeypatch):
        """The last payoffs are kept only while the joint action, the world's
        position and flag tuples and every robot's frozen raster are unchanged."""
        move_payoff = cov._move_payoff
        calls = []

        def counting(*args):
            calls.append(args[1])
            return move_payoff(*args)

        monkeypatch.setattr(cov, "_move_payoff", counting)
        world = flat_world(grid=8, robots=3)
        cov.commit_positions(world, [(2, 2), (5, 5), (6, 1)])
        for i in range(3):
            cov.lay_flag(world, i)
        frozen = [np.random.default_rng(k).random((8, 8)) for k in range(2)]
        for values in frozen:
            values.setflags(write=False)
        rasters = [frozen[0], None, None]
        game = cov.as_game(world, rasters)
        joint = tuple(cov.cell_index(world, c) for c in [(3, 2), (5, 5), (6, 2)])
        last = {}

        def check(changes):
            fresh = tuple(
                move_payoff(world, i, cov.index_cell(world, a), world.positions[i], rasters[i])
                for i, a in enumerate(joint)
            )
            assert game.utilities(joint) == fresh
            if "payoffs" in last:
                assert (game.utilities(joint) != last["payoffs"]) == changes
            last["payoffs"] = fresh
            calls.clear()
            assert game.utilities(joint) == fresh  # a still repeat
            return len(calls)

        assert check(changes=None) == 0
        cov.commit_positions(world, [(2, 1), (5, 5), (6, 1)])  # a commit that moves
        assert check(changes=True) == 0
        cov.commit_positions(world, [(2, 1), (5, 5), (6, 1)])  # a commit that stays
        assert check(changes=False) == 0
        cov.lay_flag(world, 1, (3, 2))  # a new cell, in robot 0's sight
        assert check(changes=True) == 0
        cov.lay_flag(world, 1, (3, 2))  # an already flagged cell
        assert check(changes=False) == 0
        rasters[1] = frozen[1]  # a replaced raster
        assert check(changes=True) == 0
        writable = np.random.default_rng(7).random((8, 8))
        rasters[2] = writable
        assert check(changes=True) == 3  # a writable raster is never kept
        writable *= 2.0  # mutated in place
        assert check(changes=True) == 3

    def test_a_joint_given_as_a_list_and_changed_in_place_is_not_kept(self):
        world = flat_world(grid=6, robots=2)
        cov.commit_positions(world, [(1, 1), (4, 4)])
        game = cov.as_game(world)
        joint = [cov.cell_index(world, (1, 2)), cov.cell_index(world, (4, 4))]
        game.utilities(joint)
        joint[0] = cov.cell_index(world, (2, 2))
        assert game.utilities(joint) == tuple(game.utility(i, joint) for i in range(2))


class TestSharedOffsetOverlap:
    @pytest.mark.parametrize("radius", RADII + (0.3, 4.0))
    def test_every_displacement_matches_the_disc_walk(self, radius):
        reach = 2 * int(math.floor(radius))
        L = reach + 3
        world = flat_world(grid=L, robots=2, cover_radius=radius)
        values = np.random.default_rng(L).random((L, L))
        edge = (0, L // 2, L - 1)
        for anchor in itertools.product(edge, edge):
            for dx, dy in itertools.product(range(-reach, reach + 1), repeat=2):
                other = (anchor[0] + dx, anchor[1] + dy)
                if not (0 <= other[0] < L and 0 <= other[1] < L):
                    continue
                cov.commit_positions(world, [anchor, other])
                for robot in (0, 1):
                    assert cov.overlap_worth(world, robot, values=values) == ref_overlap(
                        world, robot, values=values
                    )
