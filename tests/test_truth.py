import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedtruth.truth
from fedtruth.truth import (CoefficientFunction, FedTruthConfig,
                            NonFiniteWeights, _weights, estimate_truth,
                            estimate_truth_layered)
from fedtruth.vectors import DistanceKind, distances_to

from helpers import assert_same_estimate, random_instances
from oracles import (resilience_gap, resilience_gap_loop, row_shares,
                     row_weights)


# -- performance update -----------------------------------------------------

def neglog_shares(truth, updates):
    """The estimator's performance step for the neglog coefficient."""
    return CoefficientFunction.NEG_LOG.performance_shares(
        distances_to(DistanceKind.EUCLIDEAN, truth, updates))


def test_update_performances_direct_formula():
    p = neglog_shares(np.array([0.0]),
                      [np.array([1.0]), np.array([3.0])])
    assert p == pytest.approx([0.25, 0.75], abs=1e-15)


def test_update_performances_zero_distance_uniform():
    v = np.array([2.0, -1.0])
    p = neglog_shares(v, [v.copy(), v.copy(), v.copy()])
    assert p == pytest.approx([1 / 3] * 3, abs=1e-15)


def test_update_performances_symmetry():
    p = neglog_shares(np.array([0.0]),
                      [np.array([2.0]), np.array([2.0])])
    assert p == pytest.approx([0.5, 0.5], abs=1e-15)


def test_update_performances_partial_zero_distance_floored():
    truth = np.array([1.0])
    p = neglog_shares(truth, [np.array([1.0]), np.array([3.0])])
    assert p[0] > 0.0
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert p[0] < p[1]


# -- weights ----------------------------------------------------------------

def test_weights_inverse_example():
    a = _weights(np.array([0.25, 0.75]), CoefficientFunction.INVERSE)
    assert a == pytest.approx([0.75, 0.25], abs=1e-15)


def test_weights_neglog_example():
    # frozen from (-ln 0.25, -ln 0.75) normalised by independent arithmetic
    a = _weights(np.array([0.25, 0.75]), CoefficientFunction.NEG_LOG)
    assert a == pytest.approx([0.8281444907572746, 0.17185550924272538],
                              abs=1e-12)


def test_weights_uniform_fixed_point():
    for g in CoefficientFunction:
        a = _weights(np.full(4, 0.25), g)
        assert a == pytest.approx([0.25] * 4, abs=1e-12)


def test_weights_decreasing_in_performance():
    rng = np.random.default_rng(11)
    for g in CoefficientFunction:
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            p = np.maximum(p, 1e-12)
            p = p / p.sum()
            a = _weights(p, g)
            order = np.argsort(p)
            assert np.all(np.diff(a[order]) <= 1e-12)
            assert a.sum() == pytest.approx(1.0, abs=1e-12)


# -- truth estimation ---------------------------------------------------------

def test_single_update_is_identity():
    v = np.array([1.0, -2.0, 3.0])
    est = estimate_truth([v], FedTruthConfig())
    assert np.array_equal(est.truth, v)
    assert est.weights == pytest.approx([1.0], abs=1e-15)
    assert est.iterations <= 2
    assert est.converged


def test_identical_updates_fixed_point():
    v = np.array([0.5, 0.25])
    est = estimate_truth([v.copy() for _ in range(5)], FedTruthConfig())
    # uniform averaging costs one ulp; equality up to float summation
    assert est.truth == pytest.approx(v, abs=1e-15)
    assert est.weights == pytest.approx([0.2] * 5, abs=1e-12)


def test_scalar_three_client_fixed_point():
    # frozen output of the converged iteration from the plain average
    updates = [np.array([0.0]), np.array([1.0]), np.array([10.0])]
    est = estimate_truth(updates, FedTruthConfig())
    assert est.converged
    assert est.truth[0] == pytest.approx(0.7304691, abs=1e-3)
    # the far update gets by far the smallest weight
    assert est.weights[2] < 0.05 < est.weights[0]


def test_truth_estimate_invariants():
    rng = np.random.default_rng(21)
    for coeff in CoefficientFunction:
        cfg = FedTruthConfig(coefficient=coeff)
        for _ in range(20):
            updates = [rng.normal(size=10) for _ in range(7)]
            est = estimate_truth(updates, cfg)
            assert est.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert est.performances.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(est.weights >= 0)
            assert np.all(est.performances >= 0)
            assert est.iterations <= cfg.max_iterations


def test_fixed_point_consistency_both_coefficients():
    # converged estimates satisfy their own closed-form update equations
    rng = np.random.default_rng(5)
    for coeff in CoefficientFunction:
        cfg = FedTruthConfig(coefficient=coeff)
        for _ in range(50):
            updates = [rng.normal(size=8) for _ in range(6)]
            est = estimate_truth(updates, cfg)
            d = np.array([np.linalg.norm(est.truth - u) for u in updates])
            p_closed = row_shares(d, coeff)
            assert np.abs(est.performances - p_closed).max() < 1e-9
            a_closed = row_weights(p_closed, coeff)
            assert np.abs(est.weights - a_closed).max() < 1e-9


def test_monotone_distrust_under_euclidean():
    rng = np.random.default_rng(13)
    for _ in range(50):
        updates = [rng.normal(size=5) for _ in range(8)]
        est = estimate_truth(updates, FedTruthConfig())
        d = np.array([np.linalg.norm(est.truth - u) for u in updates])
        order = np.argsort(d)
        assert np.all(np.diff(est.weights[order]) <= 1e-12)


def test_non_convergence_reported_not_fatal():
    rng = np.random.default_rng(2)
    updates = [rng.normal(size=4) for _ in range(5)]
    est = estimate_truth(updates, FedTruthConfig(max_iterations=1))
    assert not est.converged
    assert est.iterations == 1


def test_estimate_truth_errors():
    with pytest.raises(ValueError):
        estimate_truth([], FedTruthConfig())
    with pytest.raises(ValueError):
        estimate_truth([np.zeros(2), np.zeros(3)], FedTruthConfig())
    with pytest.raises(ValueError):
        FedTruthConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        FedTruthConfig(max_iterations=0)


# finite updates whose distances overflow to inf make the weights NaN; in
# "report" the truth stays finite but the third pass's distances overflow,
# and at a cap of 2 that pass is the report's, which raises all the same
@pytest.mark.parametrize("rows, max_iterations, iteration", [
    pytest.param([[1e305, -1e305], [-1e305, 1e305], [3.0, 1.0]], 100, 1,
                 id="first"),
    pytest.param([[0.0], [0.0], [1.6e154]], 100, 3, id="third"),
    pytest.param([[0.0], [0.0], [1.6e154]], 2, 3, id="report"),
])
@pytest.mark.parametrize("kind", [DistanceKind.EUCLIDEAN,
                                  DistanceKind.CUSTOM_HALF_HALF])
def test_overflowing_distances_raise_typed_error(kind, rows, max_iterations,
                                                 iteration):
    cfg = FedTruthConfig(distance=kind, max_iterations=max_iterations)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteWeights) as info:
            estimate_truth(np.array(rows), cfg)
    assert info.value.iteration == iteration


@pytest.mark.parametrize("coeff", list(CoefficientFunction))
@pytest.mark.parametrize("kind", list(DistanceKind))
def test_list_and_stacked_array_give_identical_estimates(kind, coeff):
    rng = np.random.default_rng(31)
    updates = [rng.normal(size=42) for _ in range(10)]
    updates[3] = updates[3] * 20.0  # a boosted outlier
    updates[6] = np.zeros(42)
    cfg = FedTruthConfig(distance=kind, coefficient=coeff)
    assert_same_estimate(estimate_truth(updates, cfg),
                         estimate_truth(np.stack(updates), cfg))


def counting_distances_to(monkeypatch):
    """Count the rows every `fedtruth.truth.distances_to` call measures, as
    a tracer that wraps that module name does."""
    measured = []

    def counting(kind, reference, rows, *args, **kwargs):
        measured.append(len(rows))
        return distances_to(kind, reference, rows, *args, **kwargs)

    monkeypatch.setattr(fedtruth.truth, "distances_to", counting)
    return measured


@pytest.mark.parametrize("max_iterations", [2, 100])
@pytest.mark.parametrize("kind", list(DistanceKind))
def test_every_pass_measures_through_the_module_distances_to(
        kind, max_iterations, monkeypatch):
    # one pass per iteration plus the report's: a tracer wrapping the
    # module name sees n rows measured in each
    measured = counting_distances_to(monkeypatch)
    rng = np.random.default_rng(41)
    X = rng.normal(size=(10, 42))
    X[2] *= 15.0
    est = estimate_truth(X, FedTruthConfig(distance=kind,
                                           max_iterations=max_iterations))
    assert measured == [len(X)] * (est.iterations + 1)
    measured.clear()
    _, ests = estimate_truth_layered(X, [30, 12], FedTruthConfig(
        distance=kind, max_iterations=max_iterations))
    assert sum(measured) == len(X) * sum(e.iterations + 1 for e in ests)


@pytest.mark.parametrize("coeff", list(CoefficientFunction))
@pytest.mark.parametrize("kind", list(DistanceKind))
def test_an_estimate_shares_no_buffer_with_the_next(kind, coeff):
    rng = np.random.default_rng(43)
    cfg = FedTruthConfig(distance=kind, coefficient=coeff)
    first = estimate_truth(rng.normal(size=(10, 42)), cfg)
    kept = [first.truth.copy(), first.weights.copy(),
            first.performances.copy()]
    second = estimate_truth(rng.normal(size=(10, 42)) * 3.0, cfg)
    for before, now, other in zip(
            kept, (first.truth, first.weights, first.performances),
            (second.truth, second.weights, second.performances)):
        assert now.tobytes() == before.tobytes()
        assert not np.shares_memory(now, other)


@st.composite
def updates_with_parallel_rows(draw):
    n = draw(st.integers(2, 8))
    d = draw(st.integers(1, 8))
    value = st.floats(min_value=-100.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False)
    X = np.array(draw(st.lists(st.lists(value, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    for k in range(1, n):
        pick = draw(st.integers(0, 3))
        if pick == 0:  # parallel to an earlier row, as a converged truth is
            X[k] = X[draw(st.integers(0, k - 1))] * draw(
                st.sampled_from([1.0, 0.1, 3.0, 20.0]))
        elif pick == 1:
            X[k] = 0.0
    return X


@settings(max_examples=150, deadline=None)
@given(X=updates_with_parallel_rows(), kind=st.sampled_from(list(DistanceKind)))
def test_inverse_coefficient_never_gives_nan_weights(X, kind):
    cfg = FedTruthConfig(distance=kind,
                         coefficient=CoefficientFunction.INVERSE)
    est = estimate_truth(X, cfg)
    assert np.isfinite(est.weights).all()
    assert np.isfinite(est.truth).all()
    assert est.weights.sum() == pytest.approx(1.0)


def test_convergence_stays_in_budget():
    rng = np.random.default_rng(100)
    iters = []
    for _ in range(100):
        updates = [rng.normal(size=100) for _ in range(10)]
        est = estimate_truth(updates, FedTruthConfig())
        assert est.converged
        iters.append(est.iterations)
    assert np.mean(iters) <= 40
    assert max(iters) <= 100


# -- layered ------------------------------------------------------------------

def test_single_layer_matches_flat_bit_for_bit():
    rng = np.random.default_rng(8)
    flats = [rng.normal(size=12) for _ in range(6)]
    flat_est = estimate_truth(flats, FedTruthConfig())
    combined, ests = estimate_truth_layered(flats, [12], FedTruthConfig())
    assert np.array_equal(combined, flat_est.truth)
    assert np.array_equal(ests[0].weights, flat_est.weights)
    assert ests[0].iterations == flat_est.iterations


def test_layer_weights_vary_per_layer():
    rng = np.random.default_rng(9)
    shared = rng.normal(size=4)
    updates = []
    for i in range(5):
        updates.append(np.concatenate([shared, rng.normal(size=4)]))
    updates.append(np.concatenate([shared, rng.normal(size=4) + 50.0]))
    combined, ests = estimate_truth_layered(updates, [4, 4],
                                            FedTruthConfig())
    n = len(updates)
    assert ests[0].weights == pytest.approx([1 / n] * n, abs=1e-9)
    assert ests[1].weights[-1] < 1 / n  # outlier downweighted on layer 1 only
    assert len(ests) == 2 and combined.shape == (8,)


def test_layered_total_iterations_sum():
    rng = np.random.default_rng(10)
    updates = [rng.normal(size=9) for _ in range(5)]
    _, ests = estimate_truth_layered(updates, [6, 3], FedTruthConfig())
    assert sum(e.iterations for e in ests) >= max(e.iterations for e in ests)


@pytest.mark.parametrize("kind", list(DistanceKind))
def test_layered_column_blocks_match_contiguous_layer_copies(kind):
    rng = np.random.default_rng(12)
    X = rng.normal(size=(7, 15))
    X[2, 4:10] = 0.0  # a zero row in the middle layer
    sizes = [4, 6, 5]
    cfg = FedTruthConfig(distance=kind)
    combined, ests = estimate_truth_layered(X, sizes, cfg)
    from_list, _ = estimate_truth_layered(list(X), sizes, cfg)
    assert np.array_equal(combined, from_list)
    bounds = np.cumsum([0] + sizes)
    for est, lo, hi in zip(ests, bounds[:-1], bounds[1:]):
        copies = [np.ascontiguousarray(u[lo:hi]) for u in X]
        assert_same_estimate(est, estimate_truth(copies, cfg))
        assert np.array_equal(combined[lo:hi], est.truth)


def test_layered_structure_mismatch():
    a = np.zeros(5)
    b = np.zeros(6)
    with pytest.raises(ValueError):
        estimate_truth_layered([a, b], [2, 3], FedTruthConfig())
    with pytest.raises(ValueError):  # sizes do not sum to the length
        estimate_truth_layered([a, a], [2, 4], FedTruthConfig())
    with pytest.raises(ValueError):  # empty layer
        estimate_truth_layered([a, a], [0, 5], FedTruthConfig())


# -- resilience ---------------------------------------------------------------

def test_resilience_gap_all_equal():
    updates = [np.array([1.0, 1.0])] * 4
    assert resilience_gap(updates, 1, np.array([1.0, 1.0])) == 0.0


def test_resilience_gap_two_clients():
    updates = [np.array([0.0]), np.array([2.0])]
    assert resilience_gap(updates, 0, np.array([1.0])) == pytest.approx(-2.0)


def test_resilience_gap_fedtruth_enumerated():
    rng = np.random.default_rng(17)
    for _ in range(20):
        updates = [rng.normal(size=6) for _ in range(10)]
        est = estimate_truth(updates, FedTruthConfig())
        assert resilience_gap(updates, 3, est.truth) <= 1e-9


def test_resilience_gap_sampled_path():
    rng = np.random.default_rng(18)
    updates = [rng.normal(size=5) for _ in range(15)]
    est = estimate_truth(updates, FedTruthConfig())
    gap = resilience_gap(updates, 4, est.truth, n_samples=200)
    assert gap <= 1e-9


def test_resilience_gap_rejects_large_f():
    updates = [np.zeros(2)] * 4
    with pytest.raises(ValueError):
        resilience_gap(updates, 2, np.zeros(2))


def test_batched_resilience_gap_equals_the_loop_bitwise():
    # the first 50 of criterion 01's frozen instances, every f it checks
    cfg = FedTruthConfig()
    for updates in random_instances(50, 10, 20, "resilience"):
        truth = estimate_truth(updates, cfg).truth
        for f in (1, 2, 3, 4):
            assert resilience_gap(updates, f, truth) == \
                resilience_gap_loop(updates, f, truth)


def test_batched_resilience_gap_equals_the_loop_sampled():
    rng = np.random.default_rng(19)
    for n, f in ((13, 1), (15, 4), (20, 9)):
        updates = [rng.normal(size=7) for _ in range(n)]
        truth = estimate_truth(updates, FedTruthConfig()).truth
        for seed in (None, 4):  # the fixed stream, then a supplied one
            gaps = [gap(updates, f, truth, n_samples=300,
                        rng=None if seed is None
                        else np.random.default_rng(seed))
                    for gap in (resilience_gap, resilience_gap_loop)]
            assert gaps[0] == gaps[1]
