import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtruth.vectors import (DistanceKind, distances_to, update_matrix,
                              weighted_sum)

ALL_KINDS = list(DistanceKind)


def test_update_matrix_stacks_lists_and_keeps_fitting_arrays():
    X = np.arange(6.0).reshape(2, 3)
    assert update_matrix(X) is X
    block = X[:, 1:]
    assert update_matrix(block) is block
    stacked = update_matrix([X[0], X[1]])
    assert stacked.dtype == np.float64 and np.array_equal(stacked, X)
    assert update_matrix([[1, 2]]).dtype == np.float64


@pytest.mark.parametrize("bad", [[], np.zeros((0, 3)), np.zeros(3),
                                 np.zeros((2, 2, 2)),
                                 [np.zeros(2), np.zeros(3)]])
def test_update_matrix_rejects_bad_update_sets(bad):
    with pytest.raises(ValueError):
        update_matrix(bad)


def test_weighted_sum_examples():
    assert weighted_sum([np.array([1.0, 1.0])], [1.0]).tolist() == [1.0, 1.0]
    out = weighted_sum([np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                       [0.5, 0.5])
    assert out.tolist() == [0.5, 0.5]
    out = weighted_sum([np.array([2.0]), np.array([4.0]), np.array([6.0])],
                       [1 / 3, 1 / 3, 1 / 3])
    assert out == pytest.approx([4.0], abs=1e-12)


def test_weighted_sum_errors():
    with pytest.raises(ValueError):
        weighted_sum([], [])
    with pytest.raises(ValueError):
        weighted_sum([np.zeros(2), np.zeros(3)], [0.5, 0.5])
    with pytest.raises(ValueError):
        weighted_sum([np.zeros(2)], [0.5, 0.5])


def test_weighted_sum_list_and_array_bit_identical():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(9, 42))
    w = rng.dirichlet(np.ones(9))
    out = weighted_sum(X, w)
    assert np.array_equal(out, weighted_sum(list(X), w))
    expected = np.zeros(42)
    for k in range(9):
        expected += w[k] * X[k]
    assert np.array_equal(out, expected)
    block = X[:, 5:20]
    assert np.array_equal(weighted_sum(block, w),
                          weighted_sum([u[5:20].copy() for u in X], w))


def test_distance_examples():
    E, A, C, M = (DistanceKind.EUCLIDEAN, DistanceKind.ANGULAR,
                  DistanceKind.COSINE, DistanceKind.MANHATTAN)
    assert distances_to(E, [0.0, 0.0], [[3.0, 4.0]])[0] == 5.0
    assert distances_to(A, [1.0, 0.0], [[0.0, 1.0]])[0] == 0.5
    assert distances_to(C, [1.0, 0.0], [[-1.0, 0.0]])[0] == 2.0
    assert distances_to(M, [1.0, -1.0], [[0.0, 1.0]])[0] == 3.0
    u, v = np.array([1.0, 0.0]), np.array([0.0, 2.0])
    expected = 0.5 * 0.5 + 0.5 * np.sqrt(5.0)
    assert distances_to(DistanceKind.CUSTOM_HALF_HALF, u, [v])[0] == \
        pytest.approx(expected, abs=1e-12)


def test_distance_dimension_mismatch():
    for kind in ALL_KINDS:
        with pytest.raises(ValueError):
            distances_to(kind, [1.0], [[1.0, 2.0]])


def test_zero_vector_cosine_convention():
    z = np.zeros(3)
    v = np.array([1.0, 2.0, 3.0])
    assert distances_to(DistanceKind.COSINE, z, [v])[0] == 1.0  # similarity 0
    assert distances_to(DistanceKind.ANGULAR, z, [v])[0] == 0.5


def test_distances_symmetric_and_zero_at_self():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        for kind in ALL_KINDS:
            assert distances_to(kind, u, [v])[0] == pytest.approx(
                distances_to(kind, v, [u])[0], abs=1e-12)
            assert distances_to(kind, u, [u])[0] == pytest.approx(
                0.0, abs=1e-12)
            assert distances_to(kind, u, [v])[0] >= 0.0


def test_distance_ranges():
    rng = np.random.default_rng(4)
    for _ in range(200):
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        assert 0.0 <= distances_to(DistanceKind.ANGULAR, u, [v])[0] <= 1.0
        assert 0.0 <= distances_to(DistanceKind.COSINE, u, [v])[0] <= 2.0


finite_vec = st.lists(
    st.floats(min_value=-100.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=2, max_size=8)


@settings(max_examples=200, deadline=None)
@given(u=finite_vec, v=finite_vec, scale=st.floats(min_value=1e-3,
                                                   max_value=1e3))
def test_angular_and_cosine_scale_invariant(u, v, scale):
    n = min(len(u), len(v))
    u = np.asarray(u[:n])
    v = np.asarray(v[:n])
    if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
        return
    for kind in (DistanceKind.COSINE, DistanceKind.ANGULAR):
        assert distances_to(kind, u, [scale * v])[0] == pytest.approx(
            distances_to(kind, u, [v])[0], abs=1e-9)


def test_angular_clamps_float_drift():
    # nearly parallel vectors can push raw cosine a hair above 1
    u = np.full(1000, 0.1)
    assert distances_to(DistanceKind.ANGULAR, u, [u * (1 + 1e-16)])[0] >= 0.0


def reference_distance(kind, u, v):
    """Per-pair restatement of each distance formula."""
    if kind is DistanceKind.EUCLIDEAN:
        return float(np.linalg.norm(u - v))
    if kind is DistanceKind.MANHATTAN:
        return float(np.abs(u - v).sum())
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    zero = nu == 0.0 or nv == 0.0
    if kind is DistanceKind.COSINE:
        return 1.0 - (0.0 if zero else float(np.dot(u, v) / (nu * nv)))
    angular = 0.5 if zero else 2.0 * math.atan2(
        float(np.linalg.norm(u / nu - v / nv)),
        float(np.linalg.norm(u / nu + v / nv))) / math.pi
    if kind is DistanceKind.ANGULAR:
        return angular
    return 0.5 * angular + 0.5 * float(np.linalg.norm(u - v))


@st.composite
def reference_and_rows(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 9))
    value = st.floats(min_value=-100.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False)
    ref = np.array(draw(st.lists(value, min_size=d, max_size=d)))
    X = np.array(draw(st.lists(st.lists(value, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    if draw(st.booleans()):
        ref[:] = 0.0
    for k in range(n):
        if draw(st.integers(0, 3)) == 0:
            X[k] = 0.0
        elif draw(st.integers(0, 3)) == 0:
            X[k] = ref * draw(st.sampled_from([1.0, -1.0, 2.5]))
    return ref, X


@settings(max_examples=300, deadline=None)
@given(case=reference_and_rows(), kind=st.sampled_from(ALL_KINDS))
def test_distances_to_matches_per_pair_formula_bitwise(case, kind):
    ref, X = case
    expected = np.array([reference_distance(kind, ref, x) for x in X])
    assert np.array_equal(distances_to(kind, ref, X), expected)
    assert np.array_equal(distances_to(kind, ref, list(X)), expected)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_distances_to_bitwise_at_model_sizes(kind):
    # long rows take the blocked paths of dot and sum; rows of a column
    # block start at unaligned offsets
    rng = np.random.default_rng(14)
    X = rng.normal(size=(100, 6762))
    ref = X.mean(axis=0)
    for rows in (X, X[:, 3:5000]):
        r = ref[:rows.shape[1]]
        expected = np.array([reference_distance(kind, r, x.copy())
                             for x in rows])
        assert np.array_equal(distances_to(kind, r, rows), expected)


def test_distances_to_rejects_mismatched_reference():
    with pytest.raises(ValueError):
        distances_to(DistanceKind.EUCLIDEAN, np.zeros(3), np.zeros((2, 4)))
