"""Bitwise oracle for the stacked distances, weighted sums and estimator.

The oracle restates the row loops that the stacked code replaced: one
closure per distance kind applied to each row, an `acc += w[k] * X[k]`
loop for weighted sums, its own performance shares and weights, and the
estimator iterating over them; of the package it reads only the config
and its enums. The stacked functions must equal it bit for bit, at every
shape the blocking can meet: d = 1 and 2, column blocks, and n * d above
BLOCK_ELEMENTS, so that rows span several blocks.
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


# -- the row-loop oracle ----------------------------------------------------

def _norm(x):
    return math.sqrt(x.dot(x))


def row_distance_from(kind, u):
    """The distance of `kind` from u, as a function of one other vector."""
    if kind is DistanceKind.EUCLIDEAN:
        return lambda v: _norm(u - v)
    if kind is DistanceKind.MANHATTAN:
        return lambda v: float(np.abs(u - v).sum())
    nu = _norm(u)
    uu = u / nu if nu != 0.0 else u

    def cosine(v):
        nv = _norm(v)
        if nu == 0.0 or nv == 0.0:
            return 1.0
        return 1.0 - float(np.dot(u, v) / (nu * nv))

    def angular(v):
        nv = _norm(v)
        if nu == 0.0 or nv == 0.0:
            return 0.5
        vv = v / nv
        return 2.0 * math.atan2(_norm(uu - vv), _norm(uu + vv)) / math.pi

    if kind is DistanceKind.COSINE:
        return cosine
    if kind is DistanceKind.ANGULAR:
        return angular
    return lambda v: 0.5 * angular(v) + 0.5 * _norm(u - v)


def row_distances(kind, u, X):
    formula = row_distance_from(kind, u)
    return np.array([formula(x) for x in X])


def row_weighted_sum(X, w):
    acc = np.zeros(X.shape[1])
    for k in range(len(X)):
        acc += w[k] * X[k]
    return acc


def row_shares(dist, g):
    """p_k: d_k (sqrt(d_k) under 1/p, a negative rounding of 1 - cos read
    as 0) over their sum, or 1/n when that sum is not positive; then
    floored at 1e-12 and renormalised."""
    if g is CoefficientFunction.INVERSE:
        dist = np.array([math.sqrt(max(x, 0.0)) for x in dist])
    total = dist.sum()
    if total <= 0.0:
        p = [1.0 / len(dist)] * len(dist)
    else:
        p = [x / total for x in dist]
    p = np.array([max(x, 1e-12) for x in p])
    return p / p.sum()


def row_weights(p, g):
    """a_k = g(p_k) / sum_j g(p_j), uniform when every g(p_k) is 0."""
    raw = 1.0 / p if g is CoefficientFunction.INVERSE else -np.log(p)
    total = raw.sum()
    if total <= 0.0:
        return np.full(len(p), 1.0 / len(p))
    return raw / total


class OracleNonFinite(Exception):
    def __init__(self, iteration):
        self.iteration = iteration


def row_estimate_truth(X, cfg):
    """The estimator as row loops; raises OracleNonFinite with the first
    iteration whose weights are not all finite."""
    n = len(X)
    truth = row_weighted_sum(X, np.full(n, 1.0 / n))
    g = cfg.coefficient
    converged, iterations = False, 0
    for _ in range(cfg.max_iterations):
        iterations += 1
        w = row_weights(row_shares(row_distances(cfg.distance, truth, X), g),
                        g)
        if not all(math.isfinite(x) for x in w):
            raise OracleNonFinite(iterations)
        new_truth = row_weighted_sum(X, w)
        delta = float(np.linalg.norm(new_truth - truth))
        truth = new_truth
        if delta <= cfg.epsilon:
            converged = True
            break
    p = row_shares(row_distances(cfg.distance, truth, X), g)
    return truth, row_weights(p, g), p, iterations, converged


# -- inputs -----------------------------------------------------------------

# (n, d) pairs whose n * d exceeds BLOCK_ELEMENTS: several row blocks, and
# one row per block once d alone exceeds it
WIDE_SHAPES = [(40, 2000), (9, 8000), (3, BLOCK_ELEMENTS + 5)]


@st.composite
def update_sets(draw):
    """An (n, d) update set, possibly a column block of a wider array, with
    zero rows, repeated rows and rows parallel to another row."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.integers(0, 4)) == 0:
        n, d = draw(st.sampled_from(WIDE_SHAPES))
    else:
        n = draw(st.integers(1, 40))
        d = draw(st.sampled_from([1, 2, 3, 5, 42, 300]))
    offset = draw(st.sampled_from([0, 0, 3]))
    full = rng.normal(size=(n, d + offset))
    full *= 10.0 ** rng.integers(-3, 4, size=(n, 1))
    X = full[:, offset:]
    for k in range(n):
        shape = draw(st.integers(0, 9))
        if shape == 0:
            X[k] = 0.0
        elif shape == 1 and k > 0:
            scale = draw(st.sampled_from([1.0, -1.0, 2.5]))
            X[k] = X[rng.integers(k)] * scale
    return X


@st.composite
def reference_and_rows(draw):
    X = draw(update_sets())
    choice = draw(st.sampled_from(["zero", "row", "mean", "random"]))
    if choice == "zero":
        ref = np.zeros(X.shape[1])
    elif choice == "row":
        ref = X[draw(st.integers(0, len(X) - 1))] * draw(
            st.sampled_from([1.0, -2.0, 1e-3]))
    elif choice == "mean":
        ref = X.mean(axis=0)
    else:
        ref = np.random.default_rng(len(X)).normal(size=X.shape[1])
    return ref, X


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


ALL_KINDS = list(DistanceKind)


# -- tests ------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(case=reference_and_rows(), kind=st.sampled_from(ALL_KINDS))
def test_distances_match_row_loop_bitwise(case, kind):
    ref, X = case
    expected = bits(row_distances(kind, ref, X))
    assert bits(distances_to(kind, ref, X)) == expected
    rows = UpdateRows(X)
    assert bits(distances_to(kind, ref, rows)) == expected
    assert bits(distances_to(kind, ref, rows)) == expected  # reuses caches


@settings(max_examples=150, deadline=None)
@given(X=update_sets(), data=st.data())
def test_weighted_sum_matches_row_loop_bitwise(X, data):
    n = len(X)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    w = data.draw(st.sampled_from([
        np.full(n, 1.0 / n), rng.random(n), rng.normal(size=n)]))
    expected = bits(row_weighted_sum(X, w))
    assert bits(weighted_sum(X, w)) == expected
    rows = UpdateRows(X)
    assert bits(rows.weighted_sum(w)) == expected
    assert bits(rows.weighted_sum(w)) == expected  # buffer reused


def iteration_cap(data, X):
    """Up to 100 iterations, but at most 3 where n * d passes the bound."""
    wide = X.size > BLOCK_ELEMENTS
    return data.draw(st.sampled_from([1, 3] if wide else [1, 3, 100]))


def assert_same_estimate(est, oracle):
    truth, weights, performances, iterations, converged = oracle
    assert bits(est.truth) == bits(truth)
    assert bits(est.weights) == bits(weights)
    assert bits(est.performances) == bits(performances)
    assert est.iterations == iterations
    assert est.converged == converged


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
    assert bits(truth) == bits(np.concatenate([o[0] for o in oracles]))
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
