import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtruth.vectors import (DistanceKind, UpdateRows, distances_to,
                              update_matrix, weighted_sum)

from oracles import row_distances, row_weighted_sum

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
    assert np.array_equal(out, row_weighted_sum(X, w))
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


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_distances_to_bitwise_at_model_sizes(kind):
    # long rows take the blocked paths of dot and sum; rows of a column
    # block start at unaligned offsets
    rng = np.random.default_rng(14)
    X = rng.normal(size=(100, 6762))
    ref = X.mean(axis=0)
    for rows in (X, X[:, 3:5000]):
        r = ref[:rows.shape[1]]
        expected = row_distances(kind, r, [x.copy() for x in rows])
        assert np.array_equal(distances_to(kind, r, rows), expected)


def test_distances_to_rejects_mismatched_reference():
    with pytest.raises(ValueError):
        distances_to(DistanceKind.EUCLIDEAN, np.zeros(3), np.zeros((2, 4)))


@pytest.mark.parametrize("kind", list(DistanceKind))
def test_distances_without_out_are_fresh_arrays(kind):
    rng = np.random.default_rng(44)
    rows = UpdateRows(rng.normal(size=(6, 5)))
    u, v = rng.normal(size=5), rng.normal(size=5)
    first = distances_to(kind, u, rows)
    kept = first.copy()
    second = distances_to(kind, v, rows)
    assert first.tobytes() == kept.tobytes()
    assert not np.shares_memory(first, second)
    out = np.empty(6)
    assert distances_to(kind, u, rows, out=out) is out
    assert out.tobytes() == kept.tobytes()


def test_weighted_sums_without_out_are_fresh_arrays():
    rng = np.random.default_rng(45)
    rows = UpdateRows(rng.normal(size=(6, 5)))
    first = rows.weighted_sum(np.full(6, 1 / 6))
    kept = first.copy()
    second = rows.weighted_sum(rng.random(6))
    assert first.tobytes() == kept.tobytes()
    assert not np.shares_memory(first, second)
