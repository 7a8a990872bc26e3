import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtruth.truth import FedTruthConfig, estimate_truth_layered
from fedtruth.vectors import (DistanceKind, cosine_similarity, distance,
                              weighted_sum)

ALL_KINDS = list(DistanceKind)


# Layers are slices of the flat vector by layer size; the per-layer
# estimator is where a layer structure meets an update and is checked.

def test_empty_layer_rejected_at_construction():
    u = np.array([1.0])
    with pytest.raises(ValueError):
        estimate_truth_layered([u, u], [0, 1], FedTruthConfig())


def test_from_flat_rejects_wrong_length():
    u = np.zeros(3)
    with pytest.raises(ValueError):
        estimate_truth_layered([u, u], [2], FedTruthConfig())


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


def test_distance_examples():
    assert distance(DistanceKind.EUCLIDEAN, [0.0, 0.0], [3.0, 4.0]) == 5.0
    assert distance(DistanceKind.ANGULAR, [1.0, 0.0], [0.0, 1.0]) == 0.5
    assert distance(DistanceKind.COSINE, [1.0, 0.0], [-1.0, 0.0]) == 2.0
    assert distance(DistanceKind.MANHATTAN, [1.0, -1.0], [0.0, 1.0]) == 3.0
    u, v = np.array([1.0, 0.0]), np.array([0.0, 2.0])
    expected = 0.5 * 0.5 + 0.5 * np.sqrt(5.0)
    assert distance(DistanceKind.CUSTOM_HALF_HALF, u, v) == pytest.approx(
        expected, abs=1e-12)


def test_distance_dimension_mismatch():
    for kind in ALL_KINDS:
        with pytest.raises(ValueError):
            distance(kind, [1.0], [1.0, 2.0])


def test_zero_vector_cosine_convention():
    z = np.zeros(3)
    v = np.array([1.0, 2.0, 3.0])
    assert cosine_similarity(z, v) == 0.0
    assert distance(DistanceKind.COSINE, z, v) == 1.0
    assert distance(DistanceKind.ANGULAR, z, v) == 0.5


def test_distances_symmetric_and_zero_at_self():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        for kind in ALL_KINDS:
            assert distance(kind, u, v) == pytest.approx(
                distance(kind, v, u), abs=1e-12)
            assert distance(kind, u, u) == pytest.approx(0.0, abs=1e-12)
            assert distance(kind, u, v) >= 0.0


def test_distance_ranges():
    rng = np.random.default_rng(4)
    for _ in range(200):
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        assert 0.0 <= distance(DistanceKind.ANGULAR, u, v) <= 1.0
        assert 0.0 <= distance(DistanceKind.COSINE, u, v) <= 2.0


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
        assert distance(kind, u, scale * v) == pytest.approx(
            distance(kind, u, v), abs=1e-9)


def test_angular_clamps_float_drift():
    # nearly parallel vectors can push raw cosine a hair above 1
    u = np.full(1000, 0.1)
    assert distance(DistanceKind.ANGULAR, u, u * (1 + 1e-16)) >= 0.0
