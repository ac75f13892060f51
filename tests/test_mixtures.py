import importlib.util
import itertools
import math
from pathlib import Path

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from scipy.special import logsumexp

from potlearn import mixtures as mix
from potlearn.mixtures import (
    AICState,
    EmptyLogError,
    GmmEstimate,
    ObservationLog,
    aic,
    aic_model_search,
    aic_value,
    count_proposal,
    em_iterate,
    initial_estimate,
    log_likelihood,
    merge_components,
    merge_select,
    principal_split_scale,
    propose_component_count,
    responsibilities,
    sensed_multiplicity,
    split_component,
    split_scores,
    split_select,
    worth_weighted_multiplicity,
    COV_FLOOR,
    MAX_COMPONENTS,
    component_log_densities,
    _floor_covariance,
    _logsumexp_rows,
    _percentile,
    _posteriors,
    _weighted_moments,
)
from potlearn.rng import make_rng
from potlearn.worthfield import gaussian_log_density


def snapped(points, grid=40):
    pts = np.clip(np.floor(points) + 0.5, 0.5, grid - 0.5)
    return pts


def cluster_log(rng, means, sigma=2.0, n_per=1000, grid=40):
    log = ObservationLog()
    for m in np.atleast_2d(means):
        pts = snapped(rng.normal(m, sigma, size=(n_per, 2)), grid)
        for p in pts:
            log.append(p)
    return log


def two_cluster_log(seed=42, separation=((10.0, 10.0), (30.0, 30.0)), sigma=2.0):
    return cluster_log(make_rng(seed), np.asarray(separation), sigma)


class TestRowLogsumexp:
    """`_logsumexp_rows` of the (M, n) layout against scipy's `logsumexp` of the
    C-ordered (n, M) array along axis 1, compared with `==`."""

    @staticmethod
    def random_rows(seed, k=None):
        rng = make_rng(seed)
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, 12)) if k is None else k
        a = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-3, 4) + rng.normal() * 1000
        case = seed % 6
        if case == 1:
            a[:, rng.integers(0, k)] = -np.inf  # a zero-weight component
        elif case == 2:
            a[rng.random(size=a.shape) < 0.3] = -np.inf
        elif case == 3 and k > 1:
            a[:, 1] = a[:, 0]  # tied row maxima
        elif case == 4:
            a[rng.random(size=a.shape) < 0.1] = rng.choice([np.nan, np.inf])
        elif case == 5:
            a = np.round(a)
        return a

    @staticmethod
    def assert_equals_scipy(a):
        ref = logsumexp(a, axis=1)
        got = _logsumexp_rows(np.ascontiguousarray(a.T))
        assert got.shape == ref.shape
        assert np.array_equal(got, ref, equal_nan=True), a

    @pytest.mark.parametrize("seed", range(0, 3000, 500))
    def test_equals_scipy_bit_for_bit(self, seed):
        for s in range(seed, seed + 500):
            self.assert_equals_scipy(self.random_rows(s))

    @pytest.mark.parametrize("k", [8, 9, 10])
    def test_pairwise_component_counts_equal_scipy(self, k):
        # no golden search reaches 8 components, so this alone guards the pairwise order
        for s in range(300):
            self.assert_equals_scipy(self.random_rows(10_000 * k + s, k))

    def test_all_minus_infinity_row(self):
        self.assert_equals_scipy(np.array([[-np.inf, -np.inf], [0.0, -np.inf]]))

    @pytest.mark.parametrize("seed", range(0, 3000, 1000))
    def test_two_rows_equal_scipy(self, seed):
        # every case of `random_rows` at k = 2, where the two-row identity applies
        for s in range(seed, seed + 1000):
            self.assert_equals_scipy(self.random_rows(s, 2))

    def test_two_rows_of_large_magnitude_equal_scipy(self):
        rng = make_rng(22)
        for _ in range(300):
            a = rng.normal(size=(int(rng.integers(1, 40)), 2)) * 10.0 ** rng.uniform(0, 300)
            self.assert_equals_scipy(a)

    TWO_ROW_COLUMNS = [
        (0.0, 0.0), (-0.0, 0.0), (3.5, 3.5), (1e300, 1e300),  # ties
        (-np.inf, 0.0), (2.0, -np.inf), (-np.inf, -np.inf),  # zero weights
        (np.nan, 0.0), (0.0, np.nan), (np.nan, np.nan), (np.nan, -np.inf),
        (np.inf, 0.0), (-1.0, np.inf), (np.inf, np.inf), (np.inf, -np.inf),
        (1e300, -1e300), (-1e300, 1e300), (1e300, 1e300 * (1 - 2.0**-52)),
        (1.7e308, -1.7e308),  # `lo - hi` overflows to -inf
        (5e-324, 0.0), (1.0, 1.0 + 2.0**-52), (-745.0, 0.0), (0.0, 710.0),
    ]

    @pytest.mark.parametrize("column", TWO_ROW_COLUMNS, ids=repr)
    def test_two_row_special_column_equals_scipy(self, column):
        finite = (-3.0, 1.0)  # strictly ordered, so alone it takes the identity
        for rows in ([column], [column, finite], [finite, column, finite]):
            a = np.array(rows, dtype=float)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no warning escapes the kernel
                got = _logsumexp_rows(np.ascontiguousarray(a.T))
            with np.errstate(over="ignore"):
                want = logsumexp(a, axis=1)
            assert np.array_equal(got, want, equal_nan=True)

    def test_two_rows_with_every_special_column_equal_scipy(self):
        with np.errstate(over="ignore"):
            self.assert_equals_scipy(np.array(self.TWO_ROW_COLUMNS, dtype=float))


class TestObservationLog:
    def test_repetition_aggregates_into_weights(self):
        log = ObservationLog()
        log.append((1.5, 2.5))
        log.append((1.5, 2.5), multiplicity=3)
        log.append((0.5, 0.5))
        assert log.n_unique == 2
        assert len(log) == 5
        points, weights = log.arrays()
        assert sorted(weights.tolist()) == [1.0, 4.0]

    def test_empty_log_rejected(self):
        with pytest.raises(EmptyLogError):
            ObservationLog().arrays()

    def test_multiplicity_domain(self):
        with pytest.raises(ValueError):
            ObservationLog().append((0.5, 0.5), multiplicity=0)

    @pytest.mark.parametrize("multiplicity", [2.7, 2.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_multiplicity_rejected_by_name(self, multiplicity):
        log = ObservationLog()
        with pytest.raises(ValueError, match="^multiplicity must be an integer"):
            log.append((0.5, 0.5), multiplicity)
        assert log.n_unique == 0 and log.revision == 0

    def test_numpy_integer_multiplicity_accepted(self):
        log = ObservationLog()
        log.append((0.5, 0.5), np.int64(3))
        assert len(log) == 3

    @pytest.mark.parametrize("point", [(math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf)])
    def test_non_finite_point_rejected_by_name(self, point):
        log = ObservationLog()
        with pytest.raises(ValueError, match=r"finite, got \(.*(nan|inf)"):
            log.append(point)
        assert log.n_unique == 0 and log.revision == 0


class TestEmIterate:
    def test_single_component_closed_form_after_one_sweep(self):
        log = two_cluster_log(1)
        points, weights = log.arrays()
        est = em_iterate(log, initial_estimate(log, 1), iters=1)
        total = weights.sum()
        mean = weights @ points / total
        diff = points - mean
        cov = (diff.T * weights) @ diff / total
        assert est.weights == pytest.approx([1.0], abs=0)
        assert est.means[0] == pytest.approx(mean, abs=1e-12)
        assert est.covs[0] == pytest.approx(cov, abs=1e-9)

    def test_zero_iterations_is_identity(self):
        log = two_cluster_log(2)
        start = initial_estimate(log, 2)
        out = em_iterate(log, start, iters=0)
        assert np.array_equal(out.weights, start.weights)
        assert np.array_equal(out.means, start.means)
        assert np.array_equal(out.covs, start.covs)

    def test_input_estimate_not_mutated(self):
        log = two_cluster_log(3)
        start = initial_estimate(log, 2)
        before = start.means.copy()
        em_iterate(log, start, iters=5)
        assert np.array_equal(start.means, before)

    def test_separated_clusters_recovered(self):
        true_means = np.array([[10.0, 10.0], [30.0, 30.0]])
        log = two_cluster_log(4, true_means, sigma=2.0)
        est = em_iterate(log, initial_estimate(log, 2), iters=200)
        order = np.argsort(est.means[:, 0])
        err = np.abs(est.means[order] - true_means).max()
        assert err <= 0.5

    def test_log_likelihood_non_decreasing(self):
        log = two_cluster_log(5)
        est = initial_estimate(log, 2)
        previous = log_likelihood(est, log)
        for _ in range(25):
            est = em_iterate(log, est, iters=1)
            current = log_likelihood(est, log)
            assert current >= previous - 1e-9
            previous = current

    def test_responsibility_rows_sum_to_one(self):
        log = two_cluster_log(6)
        est = em_iterate(log, initial_estimate(log, 3), iters=10)
        points, _ = log.arrays()
        r = responsibilities(est, points)
        assert np.abs(r.sum(axis=1) - 1.0).max() <= 1e-12

    def test_weighted_log_equals_literal_repetition(self):
        rng = make_rng(7)
        pts = snapped(rng.normal((12.0, 14.0), 2.0, size=(300, 2)))
        weighted = ObservationLog()
        literal = ObservationLog()
        for k, p in enumerate(pts):
            m = 1 + (k % 3)
            weighted.append(p, multiplicity=m)
            for _ in range(m):
                literal.append(p)
        a = em_iterate(weighted, initial_estimate(weighted, 2), iters=40)
        b = em_iterate(literal, initial_estimate(literal, 2), iters=40)
        assert np.abs(a.means - b.means).max() <= 1e-9
        assert np.abs(a.weights - b.weights).max() <= 1e-9

    def test_starved_component_flagged_and_floored(self):
        log = cluster_log(make_rng(8), [(10.0, 10.0)], sigma=1.5, n_per=500)
        est = GmmEstimate(
            weights=np.array([0.999, 0.001]),
            means=np.array([[10.0, 10.0], [39.0, 39.0]]),
            covs=np.array([np.eye(2) * 2, np.eye(2) * 0.5]),
        )
        out = em_iterate(log, est, iters=3)
        assert out.starved == (1,)
        assert out.weights[1] > 0
        assert abs(out.weights.sum() - 1.0) <= 1e-12


def random_covs(rng, m):
    a = rng.normal(size=(m, 2, 2))
    return a @ a.swapaxes(1, 2) + 0.1 * np.eye(2)


def rotated_covs(eigenvalue_pairs, angles):
    """Covariances R diag(l0, l1) R^T with the given eigenvalues and rotations."""
    out = []
    for (l0, l1), t in zip(eigenvalue_pairs, angles):
        r = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        out.append((r * [l0, l1]) @ r.T)
    return np.array(out)


class TestBatchedKernel:
    """The stacked kernel and floor against one call per component, compared with
    `np.array_equal`: batching may only drop calls, never change a bit."""

    @pytest.mark.parametrize("m", range(1, MAX_COMPONENTS + 1))
    @pytest.mark.parametrize("n", [1, 2, 3, 300])
    def test_component_log_densities_match_per_component_calls(self, m, n):
        rng = make_rng(100 * m + n)
        est = GmmEstimate(
            weights=rng.dirichlet(np.ones(m)),
            means=rng.uniform(0.0, 40.0, size=(m, 2)),
            covs=random_covs(rng, m),
        )
        points = np.floor(rng.uniform(0.0, 40.0, size=(n, 2))) + 0.5
        got = component_log_densities(est, points)
        assert got.shape == (m, n)
        for j in range(m):
            single = gaussian_log_density(points, est.means[j], est.covs[j])
            assert single.shape == (1, n)
            assert np.array_equal(got[j], math.log(est.weights[j]) + single[0])

    def test_zero_weight_component_has_minus_infinity(self):
        est = GmmEstimate(np.array([1.0, 0.0]), np.zeros((2, 2)), np.array([np.eye(2)] * 2))
        logs = component_log_densities(est, np.array([[0.5, 0.5]]))
        assert np.isfinite(logs[0, 0]) and logs[1, 0] == -np.inf

    def test_stacked_floor_matches_per_matrix_calls(self):
        below, at, above = 0.1, COV_FLOOR, 3.0
        pairs = list(itertools.product([below, at, above], repeat=2)) + [(1e-9, 0.0)]
        angles = make_rng(7).uniform(0.0, math.pi, size=len(pairs))
        covs = rotated_covs(pairs, angles)
        stacked = _floor_covariance(covs, COV_FLOOR)
        assert stacked.shape == covs.shape
        for cov, got in zip(covs, stacked):
            # the 2-d arithmetic of one matrix, written out
            vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
            want = (vecs * np.maximum(vals, COV_FLOOR)) @ vecs.T
            assert np.array_equal(got, _floor_covariance(cov, COV_FLOOR))
            assert np.array_equal(got, want)
            assert np.linalg.eigvalsh(got).min() >= COV_FLOOR * (1 - 1e-12)

    def test_starved_component_stays_unfloored_and_keeps_its_location(self):
        log = cluster_log(make_rng(8), [(10.0, 10.0)], sigma=1.5, n_per=500)
        spike = np.array([[0.01, 0.002], [0.002, 0.02]])  # both eigenvalues below the floor
        est = GmmEstimate(
            weights=np.array([0.998, 0.001, 0.001]),
            means=np.array([[10.0, 10.0], [39.0, 39.0], [-30.0, 5.0]]),
            covs=np.array([np.eye(2) * 2, spike, np.eye(2) * 0.5]),
        )
        out = em_iterate(log, est, iters=3)
        assert out.starved == (1, 2)
        for j in (1, 2):
            assert np.array_equal(out.means[j], est.means[j])
            assert np.array_equal(out.covs[j], est.covs[j])
        assert np.linalg.eigvalsh(out.covs[0]).min() >= COV_FLOOR * (1 - 1e-12)

    @pytest.mark.parametrize(
        "bad",
        [np.zeros((2, 2)), [[math.nan, 0.0], [0.0, 1.0]], [[math.inf, 0.0], [0.0, 1.0]],
         [[1.0, 0.0], [0.0, -1.0]]],
        ids=["singular", "nan", "inf", "indefinite"],
    )
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_one_bad_covariance_in_the_stack_raises(self, bad, position):
        covs = np.repeat(np.eye(2)[None], 5, axis=0)
        covs[position] = bad
        est = GmmEstimate(np.full(5, 0.2), np.zeros((5, 2)), covs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fault is the ValueError alone
            with pytest.raises(ValueError, match="singular or non-finite covariance"):
                responsibilities(est, np.array([[0.5, 0.5]]))
            with pytest.raises(ValueError, match="singular or non-finite covariance"):
                gaussian_log_density(np.array([[0.5, 0.5]]), est.means, covs)


class TestWorthWeightedMultiplicity:
    def test_below_threshold_logs_once(self):
        assert worth_weighted_multiplicity(0.1, 0.5, 3) == 1

    def test_at_threshold(self):
        assert worth_weighted_multiplicity(0.5, 0.5, 3) == 4

    def test_above_threshold_rounds_half_up(self):
        assert worth_weighted_multiplicity(1.2, 0.5, 3) == 7  # 2.4 rounds to 2

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            worth_weighted_multiplicity(0.1, 0.0, 3)


class TestOneComponentPosteriors:
    """`_posteriors` of one component against the general log-sum-exp path,
    compared with `np.array_equal` (NaN equal to NaN)."""

    ROWS = {
        "finite": [-3.2, 0.0, 17.5, -1e300, 1e300, 5e-324],
        "minus_inf": [-np.inf, 0.5, -np.inf],
        "all_minus_inf": [-np.inf, -np.inf],
        "nan": [0.5, np.nan, -2.0],
        "plus_inf": [np.inf, 1.0],
    }

    @pytest.mark.parametrize("name", ROWS)
    def test_equals_the_general_path(self, monkeypatch, name):
        row = np.array([self.ROWS[name]])
        monkeypatch.setattr(mix, "component_log_densities", lambda est, points: row.copy())
        est = GmmEstimate(np.ones(1), np.zeros((1, 2)), np.eye(2)[None])
        with np.errstate(invalid="ignore"):  # -inf - -inf, as in the general path
            want = np.exp(row - _logsumexp_rows(row))
            got = _posteriors(est, np.zeros((row.shape[1], 2)))
        assert got.shape == row.shape
        assert np.array_equal(got, want, equal_nan=True)

    def test_fitted_single_component_is_one(self):
        log = cluster_log(make_rng(9), [(10.0, 10.0)], sigma=2.0, n_per=300)
        points = log.arrays()[0]
        est = em_iterate(log, initial_estimate(log, 1), 3)
        logs = component_log_densities(est, points)
        assert np.array_equal(_posteriors(est, points), np.exp(logs - _logsumexp_rows(logs)))


class TestWeightedMoments:
    @staticmethod
    def strided_moments(weighted, masses, points):
        """The moments with the strided `points.T - means` difference, kept as a reference."""
        masses = np.asarray(masses, dtype=float)
        means = np.array([w @ points for w in weighted]) / masses[:, None]
        diff = points.T - means[:, :, None]
        scaled = diff * np.reshape(weighted, (len(masses), 1, len(points)))
        raw = scaled @ diff.swapaxes(1, 2) / masses[:, None, None]
        return means, _floor_covariance(raw, COV_FLOOR)

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_contiguous_difference_equals_the_strided_one(self, k):
        rng = make_rng(70 + k)
        for _ in range(750):
            n = int(rng.integers(1, 401))
            points = np.floor(rng.uniform(0.0, 40.0, size=(n, 2))) + 0.5
            weighted = rng.random((k, n)) * rng.integers(1, 50, size=n)
            weighted[rng.random((k, n)) < 0.1] = 0.0
            weighted[:, 0] += 1e-3  # every mass positive
            masses = weighted.sum(axis=1)
            got = _weighted_moments(weighted, masses, points)
            want = self.strided_moments(weighted, masses, points)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (k, n)


class TestPercentile:
    """`_percentile` of sorted values against `np.percentile` of the same
    values in any order, compared with `==`."""

    values = st_.lists(
        st_.one_of(
            st_.floats(0.0, 1e3),
            st_.sampled_from([0.0, 0.0, 0.25, 1.0, 5e-324, 2.2250738585072014e-308, 1e-310]),
        ),
        min_size=1,
        max_size=2000,
    )

    qs = st_.one_of(st_.sampled_from([0, 60, 100, 0.0, 60.0, 100.0]), st_.floats(0.0, 100.0))

    @given(values, qs)
    @settings(max_examples=400, deadline=None)
    def test_equals_numpy(self, values, q):
        assert _percentile(sorted(values), q) == float(np.percentile(np.array(values), q))

    @pytest.mark.parametrize(
        "values,q", [([0.7, 0.1], 50), ([0.1, 0.7, 0.7], 25.0), ([0.7, 0.1, 0.7, 0.1, 0.7], 37.5)]
    )
    def test_fraction_one_half_interpolates_down_from_the_upper_value(self, values, q):
        # 0.1 + 0.6 * 0.5 is 0.4 but 0.7 - 0.6 * 0.5 is 0.39999999999999997
        assert _percentile(sorted(values), q) == np.percentile(values, q) == 0.7 - 0.6 * 0.5

    @pytest.mark.parametrize("q", [-1.0, 100.5, math.nan])
    def test_out_of_range_rejected(self, q):
        with pytest.raises(ValueError):
            _percentile([1.0], q)


class TestSensedMultiplicity:
    @pytest.mark.parametrize("sensed", [[], [0.0, 0.0, 0.0, 1.0], [-1.0]])
    def test_no_positive_threshold_logs_once(self, sensed):
        assert sensed_multiplicity(5.0, sensed, 60.0, 3) == 1


class TestAic:
    def test_direct_formula(self):
        assert aic_value(6, 10.0) == -8.0

    def test_duplicate_component_adds_twelve(self):
        log = two_cluster_log(9)
        est = em_iterate(log, initial_estimate(log, 2), iters=50)
        dup = GmmEstimate(
            weights=np.concatenate([est.weights[:1] / 2, est.weights[:1] / 2, est.weights[1:]]),
            means=np.vstack([est.means[:1], est.means[:1], est.means[1:]]),
            covs=np.concatenate([est.covs[:1], est.covs[:1], est.covs[1:]]),
        )
        assert log_likelihood(dup, log) == pytest.approx(log_likelihood(est, log), abs=1e-9)
        assert aic(dup, log) - aic(est, log) == pytest.approx(12.0, abs=1e-9)

    def test_true_model_beats_inflated_model_on_most_seeds(self):
        # quantized logs carry non-Gaussian structure an extra component can
        # exploit, so the comparison is a sweep, not a per-seed certainty
        wins = 0
        for seed in range(20):
            rng = make_rng(200 + seed)
            log = ObservationLog()
            for m in ((10.0, 10.0), (30.0, 30.0)):
                for p in rng.normal(m, 2.0, size=(1000, 2)):
                    log.append(p)
            est2 = em_iterate(log, initial_estimate(log, 2), iters=100)
            est3 = em_iterate(log, initial_estimate(log, 3), iters=100)
            wins += aic(est2, log) < aic(est3, log)
        assert wins >= 16


class TestProposal:
    def test_much_better_candidate_always_wins(self):
        log = two_cluster_log(11)
        one = em_iterate(log, initial_estimate(log, 1), iters=30)
        two = em_iterate(log, initial_estimate(log, 2), iters=100)
        state = AICState(tau=0.1)
        rng = make_rng(12)
        choices = {propose_component_count(state, one, two, log, rng) for _ in range(50)}
        assert choices == {2}
        assert state.iaic_candidate > state.iaic_current
        assert state.last_proposal == 2

    def test_score_gap_equal_to_temperature_keeps_current_at_logit_rate(self):
        log = two_cluster_log(13)
        est = em_iterate(log, initial_estimate(log, 2), iters=50)
        dup = GmmEstimate(
            weights=np.concatenate([est.weights[:1] / 2, est.weights[:1] / 2, est.weights[1:]]),
            means=np.vstack([est.means[:1], est.means[:1], est.means[1:]]),
            covs=np.concatenate([est.covs[:1], est.covs[:1], est.covs[1:]]),
        )
        # candidate is worse by exactly 12 criterion points; at tau = 12 the
        # keep probability is the two-point logit value e / (1 + e)
        state = AICState(tau=12.0)
        rng = make_rng(14)
        n = 4000
        keeps = sum(
            propose_component_count(state, est, dup, log, rng) == 2 for _ in range(n)
        )
        p = math.e / (1 + math.e)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(keeps / n - p) <= 4 * sigma


class TestMerge:
    def test_identical_components_merge_to_double_weight(self):
        log = two_cluster_log(15)
        base = em_iterate(log, initial_estimate(log, 2), iters=100)
        order = np.argsort(base.means[:, 0])
        dup = GmmEstimate(
            weights=np.array(
                [base.weights[order[0]] / 2, base.weights[order[0]] / 2, base.weights[order[1]]]
            ),
            means=np.vstack([base.means[order[0]]] * 2 + [base.means[order[1]]]),
            covs=np.array(
                [base.covs[order[0]], base.covs[order[0]], base.covs[order[1]]]
            ),
        )
        pair = merge_select(dup, log)
        assert pair == (0, 1)
        merged = merge_components(dup, pair, log)
        assert merged.n_components == 2
        k = int(np.argmin(np.abs(merged.means[:, 0] - base.means[order[0], 0])))
        assert merged.weights[k] == pytest.approx(base.weights[order[0]], abs=1e-6)
        assert merged.means[k] == pytest.approx(base.means[order[0]], abs=1e-6)

    def test_untouched_components_bit_identical(self):
        log = two_cluster_log(16)
        est = em_iterate(log, initial_estimate(log, 3), iters=60)
        pair = merge_select(est, log)
        merged = merge_components(est, pair, log)
        survivor = [k for k in range(3) if k not in pair][0]
        assert any(
            np.array_equal(merged.means[j], est.means[survivor])
            and np.array_equal(merged.covs[j], est.covs[survivor])
            and merged.weights[j] == est.weights[survivor]
            for j in range(merged.n_components)
        )

    def test_merge_select_requires_two_components(self):
        log = two_cluster_log(17)
        est = initial_estimate(log, 1)
        with pytest.raises(ValueError):
            merge_select(est, log)

    def test_overlapping_pair_selected_over_separated_ones(self):
        rng = make_rng(18)
        log = cluster_log(rng, [(8.0, 8.0), (32.0, 32.0)], sigma=1.5, n_per=800)
        est = GmmEstimate(
            weights=np.array([0.25, 0.25, 0.5]),
            means=np.array([[8.0, 8.0], [8.6, 8.4], [32.0, 32.0]]),
            covs=np.array([np.eye(2) * 2.0] * 3),
        )
        assert merge_select(est, log) == (0, 1)

    def test_merged_fit_close_to_direct_smaller_fit(self):
        log = two_cluster_log(19)
        est3 = em_iterate(log, initial_estimate(log, 3), iters=100)
        merged = em_iterate(
            log, merge_components(est3, merge_select(est3, log), log), iters=100
        )
        direct = em_iterate(log, initial_estimate(log, 2), iters=100)
        assert log_likelihood(merged, log) >= 1.02 * log_likelihood(direct, log)
        # log-likelihoods are negative here: within 2% means ratio <= 1.02

    def test_weight_conservation(self):
        log = two_cluster_log(20)
        est = em_iterate(log, initial_estimate(log, 3), iters=80)
        merged = merge_components(est, merge_select(est, log), log)
        assert abs(merged.weights.sum() - 1.0) <= 1e-9


def two_sweep_merge(est, pair, log, iters=50, tol=1e-8, cov_floor=0.25):
    """The merge as an iterated partial re-estimation, kept as a reference."""
    j, j2 = sorted(pair)
    points, weights = log.arrays()
    resp = responsibilities(est, points)
    pair_resp = resp[:, j] + resp[:, j2]
    w0 = est.weights[j] + est.weights[j2]
    mu0 = (est.weights[j] * est.means[j] + est.weights[j2] * est.means[j2]) / w0
    cov0 = (est.weights[j] * est.covs[j] + est.weights[j2] * est.covs[j2]) / w0
    keep = [k for k in range(est.n_components) if k not in (j, j2)]
    new_weights = np.concatenate([est.weights[keep], [w0]])
    new_means = np.vstack([est.means[keep], mu0.reshape(1, 2)])
    new_covs = np.concatenate([est.covs[keep], cov0.reshape(1, 2, 2)])
    target = len(keep)
    total = weights.sum()
    prev = (new_weights[target], new_means[target].copy(), new_covs[target].copy())
    for _ in range(max(iters, 1)):
        weighted = pair_resp * weights
        mass = weighted.sum()
        if mass <= 0:
            break
        new_weights[target] = mass / total
        new_means[target] = weighted @ points / mass
        diff = points - new_means[target]
        new_covs[target] = _floor_covariance((diff.T * weighted) @ diff / mass, cov_floor)
        delta = max(
            abs(new_weights[target] - prev[0]),
            float(np.abs(new_means[target] - prev[1]).max()),
            float(np.abs(new_covs[target] - prev[2]).max()),
        )
        prev = (new_weights[target], new_means[target].copy(), new_covs[target].copy())
        if delta < tol:
            break
    return GmmEstimate(weights=new_weights, means=new_means, covs=new_covs)


class TestMergeAgainstIteratedFit:
    def assert_equal(self, est, pair, log):
        out = merge_components(est, pair, log)
        ref = two_sweep_merge(est, pair, log)
        for a, b in ((out.weights, ref.weights), (out.means, ref.means), (out.covs, ref.covs)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed,m", [(40, 2), (41, 3), (42, 4)])
    def test_every_pair_equals_the_iterated_fit(self, seed, m):
        log = cluster_log(make_rng(seed), [(10.0, 12.0), (28.0, 30.0)], n_per=300)
        est = em_iterate(log, initial_estimate(log, m), iters=20)
        for pair in itertools.combinations(range(m), 2):
            self.assert_equal(est, pair, log)

    def test_pair_without_mass_keeps_the_averaged_start(self):
        log = cluster_log(make_rng(43), [(10.0, 10.0)], n_per=200)
        est = GmmEstimate(
            weights=np.array([0.5, 0.25, 0.25]),
            means=np.array([[10.0, 10.0], [5000.0, 5000.0], [-5000.0, 5000.0]]),
            covs=np.array([np.eye(2) * 4.0, np.eye(2), np.eye(2) * 2.0]),
        )
        assert responsibilities(est, log.arrays()[0])[:, 1:].max() == 0.0
        self.assert_equal(est, (1, 2), log)
        merged = merge_components(est, (1, 2), log)
        assert merged.weights[-1] == 0.5
        assert np.array_equal(merged.means[-1], [0.0, 5000.0])


class TestSplit:
    def test_single_gaussian_data_scores_low(self):
        log = cluster_log(make_rng(21), [(20.0, 20.0)], sigma=2.5, n_per=2000)
        est = em_iterate(log, initial_estimate(log, 1), iters=50)
        assert split_scores(est, log)[0] <= 0.1

    def test_bimodal_data_scores_high_and_is_selected(self):
        log = two_cluster_log(22)
        est = em_iterate(log, initial_estimate(log, 1), iters=50)
        assert split_scores(est, log)[0] >= 1.0
        assert split_select(est, log) == 0

    def test_round_trip_split_then_merge_recovers_parent(self):
        log = two_cluster_log(23)
        est = em_iterate(log, initial_estimate(log, 1), iters=50)
        # vanishing offset and no re-estimation sweeps: children stay put
        span = log.arrays()[0]
        eps = 0.005 * np.hypot(*(span.max(axis=0) - span.min(axis=0)))
        children = split_component(est, 0, log, eps_scale=eps, iters=1)
        pair = merge_select(children, log)
        back = merge_components(children, pair, log)
        assert back.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.abs(back.means[0] - est.means[0]).max() <= max(eps, 1e-6) + 1e-9

    def test_untouched_components_bit_identical(self):
        log = two_cluster_log(24)
        est = em_iterate(log, initial_estimate(log, 2), iters=60)
        k = split_select(est, log)
        out = split_component(est, k, log)
        other = 1 - k
        assert any(
            np.array_equal(out.means[j], est.means[other])
            and np.array_equal(out.covs[j], est.covs[other])
            and out.weights[j] == est.weights[other]
            for j in range(out.n_components)
        )

    def test_split_recovers_two_clusters(self):
        true_means = np.array([[10.0, 10.0], [30.0, 30.0]])
        log = two_cluster_log(25, true_means)
        est = em_iterate(log, initial_estimate(log, 1), iters=50)
        out = split_component(
            est, 0, log, eps_scale=principal_split_scale(est, 0), iters=500
        )
        order = np.argsort(out.means[:, 0])
        assert np.abs(out.means[order] - true_means).max() <= 1.0

    def test_default_seeding_is_the_principal_split_scale(self):
        log = two_cluster_log(26)
        est = em_iterate(log, initial_estimate(log, 2), iters=80)
        k = split_select(est, log)
        out = split_component(est, k, log)
        ref = split_component(est, k, log, eps_scale=principal_split_scale(est, k))
        for a, b in ((out.weights, ref.weights), (out.means, ref.means), (out.covs, ref.covs)):
            assert np.array_equal(a, b)

    def test_weight_conservation(self):
        log = two_cluster_log(26)
        est = em_iterate(log, initial_estimate(log, 2), iters=80)
        out = split_component(est, split_select(est, log), log)
        assert abs(out.weights.sum() - 1.0) <= 1e-9

    def test_invalid_index_rejected(self):
        log = two_cluster_log(27)
        est = initial_estimate(log, 1)
        with pytest.raises(ValueError):
            split_component(est, 3, log)


def iterated_split(est, k, log, eps_scale=None, iters=300, tol=1e-8):
    """The split as per-child partial re-estimation sweeps, kept as a reference;
    returns the split estimate and the number of sweeps run."""
    points, weights = log.arrays()
    parent_resp = responsibilities(est, points)[:, k]
    eps = principal_split_scale(est, k) if eps_scale is None else eps_scale
    axis = np.linalg.eigh(est.covs[k])[1][:, -1]
    iso = math.sqrt(max(float(np.linalg.det(est.covs[k])), COV_FLOOR**2))
    keep = [j for j in range(est.n_components) if j != k]
    new_weights = np.concatenate([est.weights[keep], [est.weights[k] / 2] * 2])
    new_means = np.vstack([est.means[keep], est.means[k] + eps * axis, est.means[k] - eps * axis])
    new_covs = np.concatenate([est.covs[keep], [iso * np.eye(2)] * 2])
    first = len(keep)
    total = weights.sum()
    for sweep in range(1, max(iters, 1) + 1):
        before = GmmEstimate(
            new_weights[first:].copy(), new_means[first:].copy(), new_covs[first:].copy()
        )
        share = responsibilities(before, points)
        for c in range(2):
            w = share[:, c] * parent_resp * weights
            mass = w.sum()
            if mass <= 0:
                continue
            new_weights[first + c] = mass / total
            new_means[first + c] = w @ points / mass
            diff = points - new_means[first + c]
            new_covs[first + c] = _floor_covariance((diff.T * w) @ diff / mass, COV_FLOOR)
        delta = max(
            float(np.abs(new_weights[first:] - before.weights).max()),
            float(np.abs(new_means[first:] - before.means).max()),
            float(np.abs(new_covs[first:] - before.covs).max()),
        )
        if delta < tol:
            break
    return GmmEstimate(weights=new_weights, means=new_means, covs=new_covs), sweep


class TestSplitAgainstIteratedFit:
    """`split_component` against the per-child reference sweeps, compared with `==`."""

    @staticmethod
    def assert_equal(est, k, log, eps_scale=None):
        out = split_component(est, k, log, eps_scale=eps_scale)
        ref, sweeps = iterated_split(est, k, log, eps_scale=eps_scale)
        for a, b in ((out.weights, ref.weights), (out.means, ref.means), (out.covs, ref.covs)):
            assert np.array_equal(a, b)
        return ref, sweeps

    def test_criterion7_split_at_the_sweep_cap(self):
        from test_golden import criterion7_log

        log = criterion7_log(0)
        est = em_iterate(log, initial_estimate(log, 1), 10)
        assert self.assert_equal(est, 0, log)[1] == 300

    def test_two_cell_log(self):
        log = ObservationLog()
        log.append((10.5, 12.5), 3)
        log.append((13.5, 11.5), 5)
        est = em_iterate(log, initial_estimate(log, 1), 10)
        self.assert_equal(est, 0, log)

    def test_child_without_mass_keeps_its_start(self):
        # children 500 cells either side of x = 0, data near x = 10: the far
        # child's share underflows to zero at every point
        log = cluster_log(make_rng(44), [(10.0, 10.0)], sigma=1.5, n_per=200)
        est = GmmEstimate(np.ones(1), np.array([[0.0, 10.0]]), np.diag([4.0, 1.0])[None])
        ref, _ = self.assert_equal(est, 0, log, eps_scale=500.0)
        far = int(np.argmin(ref.means[:, 0]))
        assert ref.weights[far] == 0.5
        assert abs(ref.means[far, 0]) == 500.0
        assert np.array_equal(ref.covs[far], 2.0 * np.eye(2))


class TestModelSearch:
    def test_two_cluster_data_found(self):
        log = two_cluster_log(28)
        est = aic_model_search(log, make_rng(29), rounds=10)
        assert est.n_components == 2

    def test_single_cluster_stays_single(self):
        log = cluster_log(make_rng(30), [(20.0, 20.0)], sigma=2.5, n_per=2000)
        est = aic_model_search(log, make_rng(31), rounds=10)
        assert est.n_components == 1


class TestLogRevision:
    def test_revision_counts_appends_and_is_read_only(self):
        log = ObservationLog()
        assert log.revision == 0
        log.append((1.5, 2.5))
        log.extend([(1.5, 2.5), (0.5, 0.5)], multiplicity=2)
        assert log.revision == 3
        with pytest.raises(AttributeError):
            log.revision = 0

    def test_cached_arrays_are_read_only(self):
        log = ObservationLog()
        log.extend([(1.5, 2.5), (3.5, 0.5)])
        points, weights = log.arrays()
        for array in (points, weights):
            with pytest.raises(ValueError):
                array[0] = 7.0
        log.append((9.5, 9.5))
        assert len(log.arrays()[0]) == 3


class ScriptedRng:
    """Returns the given `random()` values in order; the only draw `count_proposal` makes."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestCandidateMemo:
    """`count_proposal` builds a candidate once per (estimate, log, revision)."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = {"split": 0, "em": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mix, "split_component", counted("split", mix.split_component))
        monkeypatch.setattr(mix, "em_iterate", counted("em", mix.em_iterate))
        return calls

    @staticmethod
    def one_cluster():
        log = cluster_log(make_rng(40), [(20.0, 20.0)], sigma=2.5, n_per=400)
        return log, em_iterate(log, initial_estimate(log, 1), 10)

    def test_second_rejected_round_on_an_unchanged_log_builds_nothing(self, builds):
        log, est = self.one_cluster()
        state = AICState(tau=0.1)
        # a single component always proposes a split; a draw of 0 keeps it
        assert count_proposal(est, log, state, ScriptedRng(0.0), 10) is est
        assert builds == {"split": 1, "em": 1}
        scores = (state.iaic_current, state.iaic_candidate)
        assert count_proposal(est, log, state, ScriptedRng(0.0), 10) is est
        assert builds == {"split": 1, "em": 1}
        assert (state.iaic_current, state.iaic_candidate) == scores

    def test_second_rejected_round_does_not_rescore_the_current_model(self, monkeypatch):
        log, est = self.one_cluster()
        passes = []

        def counted(model, log_):
            passes.append(model is est)
            return log_likelihood(model, log_)

        monkeypatch.setattr(mix, "log_likelihood", counted)
        state = AICState(tau=0.1)
        assert count_proposal(est, log, state, ScriptedRng(0.0), 10) is est
        assert passes.count(True) == 1
        first = state.iaic_current
        passes.clear()
        assert count_proposal(est, log, state, ScriptedRng(0.0), 10) is est
        assert passes == []
        assert state.iaic_current == first == -aic(est, log)
        passes.clear()
        log.append((20.5, 20.5))
        count_proposal(est, log, state, ScriptedRng(0.0), 10)
        assert passes.count(True) == 1

    def test_an_append_between_rounds_forces_a_rebuild(self, builds):
        log, est = self.one_cluster()
        state = AICState(tau=0.1)
        count_proposal(est, log, state, ScriptedRng(0.0), 10)
        log.append((20.5, 20.5))
        count_proposal(est, log, state, ScriptedRng(0.0), 10)
        assert builds == {"split": 2, "em": 2}

    def test_other_sweep_counts_are_not_served_from_the_memo(self, builds):
        log, est = self.one_cluster()
        state = AICState(tau=0.1)
        count_proposal(est, log, state, ScriptedRng(0.0), 10)
        count_proposal(est, log, state, ScriptedRng(0.0), 3)
        assert builds == {"split": 2, "em": 2}

    def test_an_adopted_candidate_becomes_the_new_basis(self, builds):
        log = two_cluster_log(41)
        one = em_iterate(log, initial_estimate(log, 1), 10)
        state = AICState(tau=0.1)
        builds.update(em=0)  # the starting fit above
        two = count_proposal(one, log, state, ScriptedRng(0.5), 10)
        assert two.n_components == 2
        assert builds == {"split": 1, "em": 1}
        # 0.0 draws the split target (3 components) and keeps `two`
        assert count_proposal(two, log, state, ScriptedRng(0.0, 0.0), 10) is two
        assert builds == {"split": 2, "em": 2}
        assert count_proposal(two, log, state, ScriptedRng(0.0, 0.0), 10) is two
        assert builds == {"split": 2, "em": 2}
        # the old estimate is no longer the basis
        count_proposal(one, log, state, ScriptedRng(0.0), 10)
        assert builds == {"split": 3, "em": 3}

    def test_a_failing_build_raises_on_every_round(self, monkeypatch):
        def failing_split(*args, **kwargs):
            raise np.linalg.LinAlgError("singular covariance")

        log, est = self.one_cluster()
        monkeypatch.setattr(mix, "split_component", failing_split)
        state = AICState(tau=0.1)
        for _ in range(3):
            with pytest.raises(np.linalg.LinAlgError):
                count_proposal(est, log, state, ScriptedRng(0.0), 10)


def unmemoised_model_search(log, rng, rounds, tau=0.1, em_iters=10):
    """`aic_model_search` with a fresh `AICState` every round, so nothing is reused."""
    est = em_iterate(log, initial_estimate(log, 1), em_iters)
    for _ in range(rounds):
        est = count_proposal(est, log, AICState(tau=tau), rng, em_iters)
    return est


def benchmark_search_log(true_m, seed=0):
    """The benchmark's `search_m<true_m>` log at workload seed `seed`, logged in order."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    log = ObservationLog()
    for p in inputs._search_points(seed, true_m):
        log.append(p)
    return log


class TestModelSearchMemoDifferential:
    """The memoised model search returns the unmemoised search's mixture bit for bit,
    after scoring the same candidates in every round."""

    @staticmethod
    def assert_same(monkeypatch, log, make, rounds=14):
        scored = []

        def recorded(state, current, candidate, *args):
            chosen = propose_component_count(state, current, candidate, *args)
            scored.append((state.iaic_current, state.iaic_candidate, chosen))
            return chosen

        monkeypatch.setattr(mix, "propose_component_count", recorded)
        got = aic_model_search(log, make(), rounds=rounds)
        got_scores, scored[:] = scored[:], []
        want = unmemoised_model_search(log, make(), rounds)
        assert got_scores == scored
        for name in ("weights", "means", "covs"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert log_likelihood(got, log) == log_likelihood(want, log)

    @pytest.mark.parametrize("s", [1, 4, 7, 8])
    def test_criterion7_logs(self, monkeypatch, s):
        from test_golden import criterion7_log

        self.assert_same(monkeypatch, criterion7_log(s), lambda: make_rng(1000 + s))

    @pytest.mark.parametrize("true_m", [2, 3, 4, 5])
    def test_benchmark_search_logs(self, monkeypatch, true_m):
        # the benchmark seeds numpy's generator directly
        log = benchmark_search_log(true_m)
        self.assert_same(monkeypatch, log, lambda: np.random.default_rng(1000 + true_m))
