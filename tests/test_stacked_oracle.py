"""The stacked distances, weighted sums and estimator against their row
loops in `oracles.py`, bit for bit, at every shape the blocking can meet:
d = 1 and 2, column blocks, and n * d above BLOCK_ELEMENTS, so that rows
span several blocks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtruth.truth import (CoefficientFunction, FedTruthConfig,
                            NonFiniteWeights, estimate_truth,
                            estimate_truth_layered)
from fedtruth.vectors import (BLOCK_ELEMENTS, DistanceKind, UpdateRows,
                              distances_to, weighted_sum)

from helpers import (assert_same_estimate, bits, reference_and_rows,
                     update_sets)
from oracles import (OracleNonFinite, row_distances, row_estimate_truth,
                     row_weighted_sum)

ALL_KINDS = list(DistanceKind)


@settings(max_examples=500, deadline=None)
@given(case=reference_and_rows(), kind=st.sampled_from(ALL_KINDS))
def test_distances_match_row_loop_bitwise(case, kind):
    ref, X = case
    expected = bits(row_distances(kind, ref, X))
    assert bits(distances_to(kind, ref, X)) == expected
    assert bits(distances_to(kind, ref, list(X))) == expected
    rows = UpdateRows(X)
    assert bits(distances_to(kind, ref, rows)) == expected
    assert bits(distances_to(kind, ref, rows)) == expected  # reuses caches


@settings(max_examples=150, deadline=None)
@given(X=update_sets(), data=st.data())
def test_weighted_sum_matches_row_loop_bitwise(X, data):
    n = len(X)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    w = data.draw(st.sampled_from([
        np.full(n, 1.0 / n), rng.random(n), rng.normal(size=n),
        rng.dirichlet(np.ones(n))]))
    expected = bits(row_weighted_sum(X, w))
    assert bits(weighted_sum(X, w)) == expected
    assert bits(weighted_sum(list(X), w)) == expected
    rows = UpdateRows(X)
    assert bits(rows.weighted_sum(w)) == expected
    assert bits(rows.weighted_sum(w)) == expected  # buffer reused


def iteration_cap(data, X):
    """Up to 100 iterations, but at most 3 where n * d passes the bound."""
    wide = X.size > BLOCK_ELEMENTS
    return data.draw(st.sampled_from([1, 3] if wide else [1, 3, 100]))


@pytest.mark.parametrize("coefficient", list(CoefficientFunction))
@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=20, deadline=None)
@given(X=update_sets(), data=st.data())
def test_estimate_truth_matches_row_loop_bitwise(kind, coefficient, X, data):
    cfg = FedTruthConfig(distance=kind, coefficient=coefficient,
                         max_iterations=iteration_cap(data, X))
    assert_same_estimate(estimate_truth(X, cfg), row_estimate_truth(X, cfg))


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=20, deadline=None)
@given(X=update_sets(), data=st.data())
def test_estimate_truth_layered_matches_row_loop_bitwise(kind, X, data):
    cfg = FedTruthConfig(
        distance=kind,
        coefficient=data.draw(st.sampled_from(list(CoefficientFunction))),
        max_iterations=iteration_cap(data, X))
    d = X.shape[1]
    cuts = sorted(data.draw(st.sets(st.integers(1, d - 1), max_size=3))
                  if d > 1 else [])
    bounds = [0, *cuts, d]
    sizes = [hi - lo for lo, hi in zip(bounds[:-1], bounds[1:])]
    truth, estimates = estimate_truth_layered(X, sizes, cfg)
    oracles = [row_estimate_truth(X[:, lo:hi], cfg)
               for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert bits(truth) == \
        bits(np.concatenate([o.truth for o in oracles]))
    for est, oracle in zip(estimates, oracles):
        assert_same_estimate(est, oracle)


def overflowing_rows(case):
    """Rows near the top of the float range: normal rows scaled by `case`,
    or ("outlier") one row at 1.45e154, whose distance from the plain
    average is finite and overflows once the truth moves away from it."""
    rng = np.random.default_rng(7)
    if case == "outlier":
        X = rng.normal(size=(10, 3))
        X[9] = 1.45e154 / math.sqrt(3)
        return X
    X = rng.normal(size=(10, 42)) * case
    X[4] *= 3.0  # one row farther out
    return X


@pytest.mark.parametrize("coefficient", list(CoefficientFunction))
@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("case", [1e150, 1e154, 1e300, "outlier"])
def test_overflowing_rows_fail_at_the_oracles_iteration(kind, coefficient,
                                                         case):
    # where the oracle's weights go non-finite, the estimator raises in the
    # same iteration; elsewhere (angular reads overflowed norms as zero
    # rows, manhattan sums no squares) it matches the oracle bitwise
    X = overflowing_rows(case)
    cfg = FedTruthConfig(distance=kind, coefficient=coefficient)
    with np.errstate(all="ignore"):
        try:
            oracle = row_estimate_truth(X, cfg)
        except OracleNonFinite as failed:
            with pytest.raises(NonFiniteWeights) as info:
                estimate_truth(X, cfg)
            assert info.value.iteration == failed.iteration
        else:
            assert_same_estimate(estimate_truth(X, cfg), oracle)


@pytest.mark.parametrize("case, iteration", [(1e300, 1), ("outlier", 2)])
def test_overflowing_rows_make_the_euclidean_oracle_fail(case, iteration):
    # the case above reaches its raising branch, and not only in the first
    # iteration
    with np.errstate(all="ignore"), pytest.raises(OracleNonFinite) as info:
        row_estimate_truth(overflowing_rows(case), FedTruthConfig())
    assert info.value.iteration == iteration


@pytest.mark.parametrize("max_iterations", [2, 100])
def test_report_pass_overflow_fails_at_the_oracles_iteration(max_iterations):
    # the third pass's weights are NaN: at a cap of 2 that pass is the
    # report's, which the estimator and the oracle both check
    X = np.array([[0.0], [0.0], [1.6e154]])
    cfg = FedTruthConfig(max_iterations=max_iterations)
    with np.errstate(all="ignore"):
        with pytest.raises(OracleNonFinite) as failed:
            row_estimate_truth(X, cfg)
        with pytest.raises(NonFiniteWeights) as info:
            estimate_truth(X, cfg)
    assert info.value.iteration == failed.value.iteration == 3
