import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from potlearn import coverage as cov
from potlearn.dynamics import validate_constraints
from potlearn.games import best_response_set, replace_action, verify_potential
from potlearn.harness import _estimate_raster
from potlearn.mixtures import GmmEstimate, worth_weighted_multiplicity
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


class TestNeighborCells:
    def test_interior_disc_is_the_3x3_block(self):
        world = flat_world()
        cells = cov.neighbor_cells(world, (4, 4), 1.5)
        assert len(cells) == 9
        # exhaustive check against the definition
        expected = {
            (x, y)
            for x in range(8)
            for y in range(8)
            if math.dist((x, y), (4, 4)) <= 1.5
        }
        assert set(cells) == expected

    def test_zero_radius_is_the_cell_itself(self):
        world = flat_world()
        assert cov.neighbor_cells(world, (3, 5), 0.0) == [(3, 5)]

    def test_corner_truncates_to_four(self):
        world = flat_world()
        assert len(cov.neighbor_cells(world, (0, 0), 1.5)) == 4

    def test_radius_two_includes_straight_two_steps(self):
        world = flat_world(grid=9)
        cells = set(cov.neighbor_cells(world, (4, 4), 2.0))
        assert (6, 4) in cells and (4, 2) in cells
        assert (6, 6) not in cells  # distance 2*sqrt(2)


class TestCoveredAndOverlap:
    def test_zero_field_covers_nothing(self):
        world = flat_world()
        assert cov.covered_worth(world, 0, values=np.zeros((8, 8))) == 0.0

    def test_uniform_interior_disc(self):
        world = flat_world()
        world.positions[0] = (4, 4)
        assert cov.covered_worth(world, 0, values=uniform_values(world)) == pytest.approx(
            0.09, abs=1e-15
        )

    def test_sharp_target_caught_almost_entirely(self):
        # sharpest grid-resolvable target: half-cell standard deviation; the
        # midpoint cell sum then tracks the component mass to a fraction of
        # a percent (sub-cell targets would alias above their true mass)
        comp = GaussianComponent(1.0, [4.5, 4.5], 0.36 * np.eye(2))
        field = WorthField([comp], 9)
        world = cov.CoverageWorld.create(field, 1, make_rng(1))
        world.positions[0] = (4, 4)
        covered = cov.covered_worth(world, 0)
        grid_sum = sum(
            field.raster()[c] for c in cov.neighbor_cells(world, (4, 4), 1.5)
        )
        assert covered == pytest.approx(grid_sum, abs=1e-15)
        assert 0.9 <= covered <= 1.005

    def test_distant_robots_do_not_overlap(self):
        world = flat_world()
        world.positions = [(0, 0), (7, 7)]  # distance > 2 * 1.5
        assert cov.overlap_worth(world, 0, values=uniform_values(world)) == 0.0

    def test_colocated_pair_overlaps_fully(self):
        world = flat_world()
        world.positions = [(4, 4), (4, 4)]
        vals = uniform_values(world)
        assert cov.overlap_worth(world, 0, values=vals) == pytest.approx(
            cov.covered_worth(world, 0, values=vals), abs=1e-15
        )

    def test_three_colocated_robots_double_count(self):
        world = flat_world(robots=3)
        world.positions = [(4, 4), (4, 4), (4, 4)]
        vals = uniform_values(world)
        covered = cov.covered_worth(world, 0, values=vals)
        assert cov.overlap_worth(world, 0, values=vals) == pytest.approx(
            2 * covered, abs=1e-14
        )


class TestUtility:
    def test_lone_interior_robot_staying_put(self):
        world = flat_world()
        world.positions = [(4, 4), (0, 0)]
        world.positions[1] = (0, 0)
        vals = uniform_values(world)
        # the corner robot's disc is far from (4, 4): zero overlap
        u = cov.utility(world, 0, (4, 4), (4, 4), values=vals)
        assert u == pytest.approx(0.09 - 0.04, abs=1e-12) or u <= 0.09
        world.positions[1] = (7, 7)
        assert cov.utility(world, 0, (4, 4), (4, 4), values=vals) == pytest.approx(
            0.09, abs=1e-15
        )

    def test_unit_move_pays_the_energy_cost(self):
        world = flat_world(move_cost=3e-5)
        world.positions = [(4, 4), (7, 7)]
        vals = uniform_values(world)
        u = cov.utility(world, 0, (4, 3), (4, 4), values=vals)
        assert u == pytest.approx(0.09 - 3e-5, abs=1e-15)

    def test_foreign_flag_kills_the_coverage_term(self):
        world = flat_world(move_cost=3e-5)
        world.positions = [(4, 4), (7, 7)]
        world.flags[1].add((4, 3))
        u = cov.utility(world, 0, (4, 3), (4, 4), values=uniform_values(world))
        assert u == pytest.approx(-3e-5 * 1.0, abs=1e-18)
        assert u <= 0.0

    def test_own_flag_does_not_suppress(self):
        world = flat_world()
        world.positions = [(4, 4), (7, 7)]
        world.flags[0].add((4, 3))
        u = cov.utility(world, 0, (4, 3), (4, 4), values=uniform_values(world))
        assert u > 0.0

    def test_undetectable_flag_beyond_twice_the_radius(self):
        world = flat_world()
        world.positions = [(0, 0), (7, 7)]
        world.flags[1].add((4, 4))
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
        world.positions = [(4, 4)]
        moves = cov.constrained_moves(world, (4, 4))
        joint_new = [moves[3]]
        assert cov.potential(world, joint_new) == pytest.approx(
            cov.utility(world, 0, moves[3], (4, 4)), abs=0
        )

    def test_unilateral_deviations_match_exactly(self):
        rng = make_rng(5)
        world = flat_world(grid=4, robots=2, seed=6)
        world.flags[0].update({(1, 1), (2, 3)})
        world.flags[1].update({(0, 3)})
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
        world.positions = [(0, 0), (7, 7)]
        world.flags[0].add((6, 7))
        world.flags[1].add((1, 0))
        joint_new = [(1, 0), (6, 7)]
        phi = cov.potential(world, joint_new, values=np.zeros((8, 8)))
        assert phi == pytest.approx(-2e-4 * 2.0, abs=1e-15)

    def test_exhaustive_potential_certificate_on_small_world(self):
        world = flat_world(grid=4, robots=2, seed=7)
        world.flags[0].add((1, 1))
        world.flags[1].add((3, 0))
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
        world.positions[0] = (2, 2)
        cov.lay_flag_and_observe(world, 0)
        cov.lay_flag_and_observe(world, 0)
        assert world.flags[0] == {(2, 2)}
        assert len(world.logs[0]) == 2

    def test_fresh_cell_extends_the_flag_trace(self):
        world = flat_world()
        world.positions[0] = (2, 2)
        cov.lay_flag(world, 0)
        world.positions[0] = (2, 3)
        cov.lay_flag(world, 0)
        assert world.flags[0] == {(2, 2), (2, 3)}

    def test_worthwhile_cell_logged_with_multiplicity(self):
        world = flat_world()
        peak = max(
            ((x, y) for x in range(8) for y in range(8)),
            key=lambda c: world.worth_values()[c],
        )
        world.sensed_worths[0] = [1e-6, 2e-6, 1e-5]  # low history -> low threshold
        world.positions[0] = peak
        multiplicity = cov.lay_flag_and_observe(world, 0)
        f_peak = float(world.worth_values()[peak])
        threshold = float(np.percentile(world.sensed_worths[0], 60.0))
        assert multiplicity == worth_weighted_multiplicity(f_peak, threshold, 3)
        assert multiplicity >= 1 + 3

    def test_total_covered_worth_sums_robots(self):
        world = flat_world()
        vals = uniform_values(world)
        world.positions = [(4, 4), (4, 4)]
        assert cov.total_covered_worth(world, vals) == pytest.approx(0.18, abs=1e-14)


class TestBestResponseOnGrid:
    def test_adjacent_robot_moves_onto_the_peak(self):
        comp = GaussianComponent(1.0, [4.5, 4.5], 0.25 * np.eye(2))
        field = WorthField([comp], 9)
        world = cov.CoverageWorld.create(field, 1, make_rng(8))
        world.positions = [(3, 4)]  # one step west of the peak cell (4, 4)
        moves = cov.constrained_moves(world, (3, 4))
        best = max(moves, key=lambda c: cov.utility(world, 0, c, (3, 4)))
        assert best == (4, 4)

    def test_matches_game_core_best_response_on_constrained_view(self):
        comp = GaussianComponent(1.0, [4.5, 4.5], 0.25 * np.eye(2))
        field = WorthField([comp], 9)
        world = cov.CoverageWorld.create(field, 1, make_rng(9))
        world.positions = [(3, 4)]
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
    move_cost = world.move_costs[robot] * math.dist(new_pos, old)
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
    return gain - world.move_costs[robot] * dist


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
    world.positions = list(positions)
    flag_range = 2.0 * radius
    cells = list(np.ndindex(L, L))
    rim = [
        c
        for c in cells
        if any(abs(math.dist(c, p) - flag_range) <= 1.0 for p in positions)
    ]
    for j in range(robots):
        pool = rim if rim and draw(st_.booleans()) else cells
        world.flags[j].update(draw(st_.lists(st_.sampled_from(pool), max_size=6)))
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
            assert cov.covered_worth(world, i, c, values) == covered == covered_map[c]
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
        before = cov.covered_worth(world, 0, (4, 4), view)
        base *= 2.0
        assert cov.covered_worth(world, 0, (4, 4), view) == 2.0 * before

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
            cov.covered_worth(world, 0, (-1, 3))
