import math
import warnings

import numpy as np
import pytest

from potlearn.mixtures import MAX_COMPONENTS
from potlearn.worthfield import (
    GaussianComponent,
    WorthField,
    gaussian_density,
    gaussian_log_density,
    generate_scenario,
)


def single_component_field(mean=(20.0, 20.0), var=4.0, grid=40):
    comp = GaussianComponent(1.0, np.asarray(mean), var * np.eye(2))
    return WorthField([comp], grid)


class TestEvaluate:
    def test_density_at_the_mean_of_unit_covariance(self):
        field = WorthField([GaussianComponent(1.0, [5.0, 5.0], np.eye(2))], 10)
        assert field.density((5.0, 5.0))[0] == pytest.approx(1 / (2 * math.pi), rel=1e-12)

    def test_far_tail_vanishes(self):
        field = WorthField([GaussianComponent(1.0, [5.0, 5.0], np.eye(2))], 40)
        assert field.density((35.5, 35.5))[0] < 1e-20

    def test_two_equal_components_double_at_equidistant_point(self):
        comps = [
            GaussianComponent(0.5, [10.0, 20.0], 4 * np.eye(2)),
            GaussianComponent(0.5, [30.0, 20.0], 4 * np.eye(2)),
        ]
        field = WorthField(comps, 40)
        midpoint = (20.0, 20.0)
        single = 0.5 * math.exp(-0.5 * 100 / 4) / (2 * math.pi * 4)
        assert field.density(midpoint)[0] == pytest.approx(2 * single, rel=1e-9)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorthField([GaussianComponent(0.5, [1.0, 1.0], np.eye(2))], 8)

    def test_raster_matches_pointwise_evaluation(self):
        field = single_component_field(grid=12, mean=(6.0, 4.0))
        raster = field.raster()
        assert raster[3, 7] == pytest.approx(field.density((3.5, 7.5))[0], rel=1e-12)


class TestGradient:
    def test_nearly_constant_field_has_vanishing_gradient(self):
        field = WorthField(
            [GaussianComponent(1.0, [20.0, 20.0], 1e12 * np.eye(2))], 40
        )
        assert field.local_gradient((5.5, 30.5)) < 1e-12

    def test_stationary_at_an_isolated_mean(self):
        field = single_component_field(mean=(20.5, 20.5), var=4.0)
        assert field.local_gradient((20.5, 20.5)) <= 1e-3

    def test_matches_analytic_slope_away_from_the_peak(self):
        var = 16.0
        field = single_component_field(mean=(20.5, 20.5), var=var)
        point = (24.5, 20.5)  # offset of 4 along x only
        dx = 4.0
        f = field.density(point)[0]
        analytic = f * dx / var  # |grad| of an isotropic Gaussian along its axis
        measured = field.local_gradient(point)
        assert measured == pytest.approx(analytic, rel=0.05)

    def test_one_sided_at_the_boundary(self):
        field = single_component_field(mean=(2.0, 2.0), var=2.0, grid=8)
        assert field.local_gradient((0.5, 0.5)) > 0


def scalar_gradient(field, point):
    """The per-call finite-difference gradient, as computed before it was memoised."""
    raster = field.raster()
    L = field.grid_size
    ix = min(max(int(math.floor(point[0])), 0), L - 1)
    iy = min(max(int(math.floor(point[1])), 0), L - 1)

    def axis_slope(i, values):
        if L == 1:
            return 0.0
        lo, hi = max(i - 1, 0), min(i + 1, L - 1)
        return (float(values[hi]) - float(values[lo])) / float(hi - lo)

    return math.hypot(axis_slope(ix, raster[:, iy]), axis_slope(iy, raster[ix, :]))


class TestGradientMemo:
    @pytest.mark.parametrize("setting", ["fig5", "fig7"])
    def test_every_cell_equals_the_scalar_code(self, setting):
        from test_golden import golden_config

        field = golden_config(f"psblll-{setting}").scenario()
        L = field.grid_size
        cells = [(x, y) for x in range(L) for y in range(L)]
        for _ in range(2):  # the first pass fills the memo, the second reads it
            for x, y in cells:
                point = (x + 0.5, y + 0.5)
                assert field.local_gradient(point) == scalar_gradient(field, point)

    def test_off_grid_points_clamp_like_the_scalar_code(self):
        field = single_component_field(mean=(2.0, 5.0), var=2.0, grid=8)
        for point in [(-3.0, 0.5), (0.5, 41.0), (7.99, -0.01), (100.0, 100.0), (3.2, 7.7)]:
            assert field.local_gradient(point) == scalar_gradient(field, point)
            assert field.local_gradient(point) == scalar_gradient(field, point)

    def test_one_cell_grid(self):
        field = WorthField([GaussianComponent(1.0, [0.5, 0.5], np.eye(2))], 1)
        assert field.local_gradient((0.5, 0.5)) == 0.0
        assert field.local_gradient((3.0, -2.0)) == scalar_gradient(field, (3.0, -2.0))


def quadratic_form(diff, inv):
    """diff_n^T inv diff_n for each row of `diff` (n, 2), written out term by term."""
    d0, d1 = diff[:, 0], diff[:, 1]
    (a, b), (c, e) = inv
    return (((d0 * a) * d0 + (d0 * b) * d1) + (d1 * c) * d0) + (d1 * e) * d1


def one_component_kernel(points, mean, cov):
    """The bivariate normal of one component: its own `det`, `inv` and quadratic form.

    Returns the log density and the density, each written as a one-component
    kernel computes it."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    det = float(np.linalg.det(cov))
    quad = quadratic_form(pts - mean, np.linalg.inv(cov))
    log = -math.log(2.0 * math.pi) - 0.5 * math.log(det) - 0.5 * quad
    return log, np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


class TestStackedKernel:
    """The stacked kernel against one-component calls, compared with `np.array_equal`."""

    @pytest.mark.parametrize("m", range(1, MAX_COMPONENTS + 1))
    @pytest.mark.parametrize("n", [1, 2, 3, 301])
    def test_stack_matches_one_component_calls(self, m, n):
        rng = np.random.default_rng(1000 * m + n)
        means = rng.uniform(0.0, 40.0, size=(m, 2))
        a = rng.normal(size=(m, 2, 2))
        covs = a @ a.swapaxes(1, 2) + 0.25 * np.eye(2)
        points = rng.uniform(0.0, 40.0, size=(n, 2))
        logs = gaussian_log_density(points, means, covs)
        dens = gaussian_density(points, means, covs)
        assert logs.shape == dens.shape == (m, n)
        for j in range(m):
            want_log, want_dens = one_component_kernel(points, means[j], covs[j])
            assert np.array_equal(logs[j], want_log)
            assert np.array_equal(dens[j], want_dens)
            assert np.array_equal(gaussian_log_density(points, means[j], covs[j])[0], want_log)

    @pytest.mark.parametrize("n", [3, 4, 8, 16, 17])
    def test_quadratic_form_equals_einsum_from_three_points(self, n):
        # below three points `einsum` adds the four terms in another order
        rng = np.random.default_rng(n)
        for _ in range(3000):
            diff = rng.uniform(-40.0, 40.0, size=(n, 2))
            a = rng.normal(size=(2, 2))
            inv = np.linalg.inv(a @ a.T + 0.25 * np.eye(2))
            want = np.einsum("ni,ij,nj->n", diff, inv, diff)
            assert np.array_equal(quadratic_form(diff, inv), want)

    def test_field_density_keeps_the_one_component_sum(self):
        field = generate_scenario(3, 24, (4, 4))
        points = field.centroids()
        want = np.zeros(len(points))
        for c in field.components:
            want += c.weight * one_component_kernel(points, c.mean, c.cov)[1]
        assert np.array_equal(field.density(points), want)

    @pytest.mark.parametrize(
        "cov",
        [[[0.0, 0.0], [0.0, 0.0]], [[math.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, math.inf]]],
        ids=["singular", "nan", "inf"],
    )
    def test_bad_covariance_raises(self, cov):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fault is the ValueError alone
            with pytest.raises(ValueError, match="singular or non-finite covariance"):
                gaussian_log_density([[1.0, 1.0]], [0.0, 0.0], cov)


class TestComponentValidation:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianComponent(1.0, [0.0, 0.0], np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_non_positive_definite_rejected(self):
        with pytest.raises(ValueError):
            GaussianComponent(1.0, [0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            GaussianComponent(-0.1, [0.0, 0.0], np.eye(2))

    @pytest.mark.parametrize(
        "weight,mean,cov",
        [
            (math.nan, [0.0, 0.0], np.eye(2)),
            (math.inf, [0.0, 0.0], np.eye(2)),
            (1.0, [math.nan, 5.0], np.eye(2)),
            (1.0, [0.0, -math.inf], np.eye(2)),
            (1.0, [0.0, 0.0], [[math.nan, 0.0], [0.0, 1.0]]),
            (1.0, [0.0, 0.0], [[1.0, 0.0], [0.0, math.nan]]),
            (1.0, [0.0, 0.0], [[math.inf, 0.0], [0.0, 1.0]]),
        ],
    )
    def test_non_finite_value_rejected(self, weight, mean, cov):
        with pytest.raises(ValueError, match="finite"):
            GaussianComponent(weight, mean, cov)


class TestGenerateScenario:
    def test_same_seed_reproduces_the_field(self):
        a = generate_scenario(123, 40)
        b = generate_scenario(123, 40)
        assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self):
        assert generate_scenario(1, 40).to_dict() != generate_scenario(2, 40).to_dict()

    def test_invariants_hold_over_a_thousand_seeds(self):
        for seed in range(1000):
            field = generate_scenario(seed, 24)
            assert 1 <= field.n_components <= 5
            total = sum(c.weight for c in field.components)
            assert abs(total - 1.0) <= 1e-9
            for c in field.components:
                assert np.linalg.det(c.cov) > 0
                assert (c.mean >= 0.1 * 24).all() and (c.mean <= 0.9 * 24).all()

    def test_degenerate_component_range(self):
        field = generate_scenario(7, 16, (3, 3))
        assert field.n_components == 3

    def test_minimum_grid_enforced(self):
        with pytest.raises(ValueError):
            generate_scenario(0, 7)

    def test_mass_stays_near_unity(self):
        # interior-margin rule keeps boundary leakage small
        for seed in range(50):
            field = generate_scenario(seed, 40)
            mass = field.total_mass()
            assert 0.5 <= mass <= 1.05
            assert (field.raster() >= 0).all()

    def test_round_trip_serialization(self):
        field = generate_scenario(9, 16)
        clone = WorthField.from_dict(field.to_dict())
        assert np.allclose(clone.raster(), field.raster(), atol=0)
