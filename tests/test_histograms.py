"""Histogram data model and weighted means."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jeffreys import (
    MODES,
    ClusteringConfig,
    ValidationError,
    WeightedHistogramSet,
    kmeans,
    smooth_bins,
)
from jeffreys import centroids
from jeffreys.centroids import _means
from references import normalized_means


class TestWeightedSet:
    def test_weight_validation(self):
        rows = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(ValidationError):
            WeightedHistogramSet(rows, [0.5, -0.5])
        with pytest.raises(ValidationError):
            WeightedHistogramSet(rows, [0.9, 0.9])
        s = WeightedHistogramSet(rows, [0.5 + 1e-8, 0.5])
        assert s.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            WeightedHistogramSet([[1.0, 2.0], [1.0, 2.0, 3.0]], np.array([0.5, 0.5]))

    def test_as_frequency(self):
        s = WeightedHistogramSet([[0.5, 0.5], [0.25, 0.75]])
        assert s.as_frequency().frequency
        bad = WeightedHistogramSet([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValidationError):
            bad.as_frequency()


class TestMeans:
    def test_arithmetic_examples(self):
        s = WeightedHistogramSet([[1.0, 3.0], [3.0, 1.0]])
        assert np.allclose(_means(s)[0], [2.0, 2.0])
        single = WeightedHistogramSet([[1.5, 2.5]])
        assert np.allclose(_means(single)[0], [1.5, 2.5])
        s2 = WeightedHistogramSet([[1.0, 0.5], [2.0, 1.0]], [0.25, 0.75])
        assert np.allclose(_means(s2)[0], [1.75, 0.875])

    def test_geometric_examples(self):
        s = WeightedHistogramSet([[1.0, 3.0], [3.0, 1.0]])
        assert np.allclose(_means(s)[1], [np.sqrt(3.0)] * 2)
        s2 = WeightedHistogramSet([[4.0, 1.0], [1.0, 1.0]])
        assert np.allclose(_means(s2)[1], [2.0, 1.0])
        single = WeightedHistogramSet([[1.5, 2.5]])
        assert np.allclose(_means(single)[1], [1.5, 2.5])

    def test_geometric_log_domain_underflow(self):
        # 400 sub-unit bins would underflow a naive product
        rows = np.full((400, 2), 1e-3)
        s = WeightedHistogramSet(rows.T)
        assert np.all(_means(s)[1] > 0.0)

    def test_am_gm_inequality(self, rng):
        from conftest import random_positive_set

        for _ in range(100):
            s = random_positive_set(rng)
            a, g = _means(s)
            assert np.all(a - g >= -1e-12 * a)

    def test_normalized_means_examples(self):
        member = np.array([0.3, 0.7])
        s = WeightedHistogramSet([member, member], frequency=True)
        arith, geom = normalized_means(s)
        assert np.allclose(arith, member, atol=1e-14)
        assert np.allclose(geom, member, atol=1e-14)

        s2 = WeightedHistogramSet([[0.5, 0.5], [0.9, 0.1]], frequency=True)
        arith2, geom2 = normalized_means(s2)
        assert np.allclose(arith2, [0.7, 0.3], atol=1e-14)
        # hand derivation: (sqrt(0.45), sqrt(0.05)) renormalized is (3/4, 1/4)
        hand = np.sqrt([0.45, 0.05])
        hand /= hand.sum()
        assert np.allclose(geom2, hand, atol=1e-14)
        assert np.allclose(geom2, [0.75, 0.25], atol=1e-12)

    def test_arithmetic_mean_of_frequency_inputs_is_normalized(self, rng):
        from conftest import random_frequency_set

        for _ in range(50):
            s = random_frequency_set(rng)
            assert _means(s)[0].sum() == pytest.approx(1.0, abs=1e-12)


# Anything a caller might pass as rows or weights: ragged nesting, any
# dimension (empty included), NaN, +-inf, zero, negative, huge integers and
# non-numbers.
_NUMBERS = st.floats() | st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300]) | st.integers()
_CELLS = _NUMBERS | st.none() | st.text(max_size=3) | st.complex_numbers()
_NESTED = st.recursive(_CELLS, lambda inner: st.lists(inner, max_size=4), max_leaves=24)
_ARRAYS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=st.floats() | st.sampled_from([0.0, 1.0, 0.25]),
)


@st.composite
def _near_simplex(draw):
    """Positive rows on the simplex, each scaled by 1 + a defect around the tolerances."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    raw = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(1e-3, 1.0)))
    scale = draw(hnp.arrays(np.float64, (n, 1), elements=st.sampled_from(
        [1.0, 1.0 + 1e-13, 1.0 - 5e-12, 1.0 + 1e-9, 1.0 - 1e-7, 1.0 + 9.9e-7, 1.0 + 2e-6, 1.5]
    )))
    return raw / raw.sum(axis=1, keepdims=True) * scale


_WEIGHTS = st.none() | _NESTED | hnp.arrays(
    np.float64, st.integers(0, 6), elements=st.floats(1e-3, 1.0) | st.floats()
)


def _simplex_rule(rows):
    """The rule for frequency rows, written out, and each row's ``|sum - 1|``.

    A row whose sum is within 1e-12 of one is kept, one within 1e-6 is
    divided by its sum, and any other is rejected.
    """
    total = rows.sum(axis=1, keepdims=True)
    defect = np.abs(total - 1.0)
    return np.where(defect <= 1e-12, rows, rows / total), defect


class TestSetConstructor:
    @settings(max_examples=300, deadline=None)
    @given(rows=_NESTED | _ARRAYS | _near_simplex(), weights=_WEIGHTS, frequency=st.booleans())
    def test_builds_a_valid_set_or_raises_validation_error(self, rows, weights, frequency):
        self.check(rows, weights, frequency)

    @settings(max_examples=100, deadline=None)
    @given(rows=_near_simplex())
    def test_near_simplex_rows(self, rows):
        _, defect = _simplex_rule(rows)
        if np.any(defect > 1e-6):
            with pytest.raises(ValidationError, match="sum to 1"):
                WeightedHistogramSet(rows, frequency=True)
        else:
            WeightedHistogramSet(rows, frequency=True)  # accepted: no ValidationError
            self.check(rows, None, True)

    @staticmethod
    def check(rows, weights, frequency):
        try:
            s = WeightedHistogramSet(rows, weights, frequency=frequency)
        except ValidationError:
            return  # anything else (ValueError, TypeError, ...) fails the test
        m, w = s.matrix, s.weights
        assert m.ndim == 2 and m.shape == (s.n, s.d) and s.n >= 1 and s.d >= 1
        assert np.all(np.isfinite(m)) and np.all(m > 0.0)
        assert w.shape == (s.n,) and np.all(w > 0.0) and abs(w.sum() - 1.0) <= 1e-12
        assert not m.flags.writeable and not w.flags.writeable
        assert not s.log_matrix.flags.writeable
        assert np.array_equal(s.log_matrix, np.log(m))
        assert s.frequency is frequency
        if frequency:
            expected, defect = _simplex_rule(np.asarray(rows, dtype=np.float64))
            assert np.all(defect <= 1e-6)
            assert np.array_equal(m, expected)
            assert np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-12)
        else:
            assert np.array_equal(m, np.asarray(rows, dtype=np.float64))

    def test_read_only_copy(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        s = WeightedHistogramSet(rows)
        rows[0, 0] = 9.0
        assert s.matrix[0, 0] == 1.0
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            s.log_matrix[0, 0] = 5.0

    @pytest.mark.parametrize("rows", [
        [1.0, 2.0], [[[1.0]]], [], [[]], [["a", 1.0]], [[1.0, None]],
        [[1.0, float("inf")]], [[1.0, 0.0]], [[1.0, -1.0]], [[10**400]], [[1j]],
    ])
    def test_rejects_bad_rows(self, rows):
        with pytest.raises(ValidationError):
            WeightedHistogramSet(rows)

    def test_frequency_rows_follow_the_simplex_rule(self):
        rows = np.array([[0.5, 0.5], [0.5 + 1e-13, 0.5], [0.5 + 2e-7, 0.5]])
        s = WeightedHistogramSet(rows, frequency=True)
        assert np.array_equal(s.matrix[:2], rows[:2])  # within SIMPLEX_ATOL: kept
        assert np.array_equal(s.matrix[2], rows[2] / rows[2].sum())  # repaired
        with pytest.raises(ValidationError, match="sum to 1"):
            WeightedHistogramSet([[0.5, 0.5], [0.6, 0.5]], frequency=True)

    def test_smooth_bins(self):
        arr = smooth_bins(np.array([0.0, 4.0]))
        # epsilon = 1e-10 * max(1, w/d) = 2e-10 here
        assert arr[0] == pytest.approx(2e-10)
        assert arr[1] == pytest.approx(4.0 + 2e-10)
        untouched = smooth_bins(np.array([1.0, 2.0]))
        assert np.array_equal(untouched, [1.0, 2.0])
        with pytest.raises(ValidationError):
            smooth_bins(np.array([-1.0, 2.0]))

    @pytest.mark.filterwarnings("error")
    def test_smooth_bins_whose_sum_overflows(self):
        # The bins are finite and so is their mean: the epsilon is 1e-10 of it.
        rows = np.array([[0.0, 1e308, 1e308], [0.0, 4.0, 4.0]])
        smoothed = smooth_bins(rows)
        assert np.all(np.isfinite(smoothed))
        assert smoothed[0, 0] == pytest.approx(1e-10 * (2.0 * (1e308 / 3.0)))
        # A row whose sum is finite keeps its bits.
        assert np.array_equal(smoothed[1], smooth_bins(rows[1]))
        assert smoothed[1, 0] == 1e-10 * (8.0 / 3.0)

    @pytest.mark.filterwarnings("error")
    def test_weights_whose_sum_overflows_are_rejected_without_a_warning(self):
        with pytest.raises(ValidationError, match="weights must sum to 1, got inf"):
            WeightedHistogramSet([[1.0, 2.0], [2.0, 1.0]], weights=[1e308, 1e308])

    def test_smooth_bins_along_the_last_axis(self):
        rows = np.array([[0.0, 4.0], [1.0, 2.0], [0.0, 0.0]])
        smoothed = smooth_bins(rows)
        for row, out in zip(rows, smoothed):
            assert np.array_equal(smooth_bins(row), out)
        assert np.array_equal(smoothed[1], rows[1])


class TestResultArrays:
    """Centroids and means come back as read-only float64 arrays."""

    @staticmethod
    def assert_read_only(arr, shape):
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.shape == shape
        with pytest.raises(ValueError):
            arr[0] = 0.5

    @pytest.mark.parametrize("mode", [name for name, m in MODES.items() if m.solver])
    @pytest.mark.parametrize("n", [1, 3])
    def test_every_scalar_mode(self, mode, n):
        rows = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5]])[:n]
        result = getattr(centroids, MODES[mode].solver)(WeightedHistogramSet(rows))
        self.assert_read_only(result.centroid, (3,))

    @pytest.mark.parametrize("mode", [name for name, m in MODES.items() if m.builder])
    def test_kmeans_centroids(self, mode):
        rows = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5], [0.7, 0.2, 0.1]])
        res = kmeans(WeightedHistogramSet(rows), ClusteringConfig(k=2, centroid_mode=mode))
        self.assert_read_only(res.centroids, (2, 3))
        assert not res.assignments.flags.writeable

    def test_normalized_means(self):
        for mean in normalized_means(WeightedHistogramSet([[0.2, 0.8], [0.6, 0.4]])):
            self.assert_read_only(mean, (2,))
