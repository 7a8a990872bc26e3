import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedtruth.aggregators import (_cosine_distance_matrix,
                                  coordinate_median, default_trim_k, fedavg,
                                  flame, flame_survivors, fltrust,
                                  krum_select, trimmed_mean)
from fedtruth.rng import stream
from fedtruth.vectors import weighted_sum


def vecs(*rows):
    return [np.asarray(r, dtype=float) for r in rows]


# -- fedavg -------------------------------------------------------------------

def test_fedavg_examples():
    assert fedavg(vecs([0.0], [2.0]), [1, 1]) == pytest.approx([1.0])
    assert fedavg(vecs([0.0], [4.0]), [3, 1]) == pytest.approx([1.0])
    only = np.array([3.0, -1.0])
    assert fedavg([only], [7]) == pytest.approx(only)


def test_fedavg_errors():
    with pytest.raises(ValueError):
        fedavg(vecs([1.0]), [0])
    with pytest.raises(ValueError):
        fedavg(vecs([1.0], [2.0]), [1])


# -- krum ---------------------------------------------------------------------

def test_krum_example_lowest_index_tie():
    updates = vecs([0.0], [0.1], [0.2], [10.0])
    assert krum_select(updates, 1) == 0
    assert updates[krum_select(updates, 1)] == pytest.approx([0.0])


def test_krum_identical_updates():
    v = np.array([1.0, 2.0])
    updates = [v.copy() for _ in range(5)]
    out = updates[krum_select(updates, 1)]
    assert np.array_equal(out, v)


def test_krum_too_small():
    with pytest.raises(ValueError):
        krum_select(vecs([0.0], [1.0], [2.0]), 1)


def krum_bruteforce(updates, f):
    n = len(updates)
    scores = []
    for i in range(n):
        dists = sorted(np.sum((updates[i] - updates[j]) ** 2)
                       for j in range(n) if j != i)
        scores.append(sum(dists[: n - f - 2]))
    return int(np.argmin(scores))


def test_krum_matches_bruteforce():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(4, 9))
        f = int(rng.integers(0, n - 2))
        updates = [rng.normal(size=int(rng.integers(1, 6))) for _ in range(n)]
        dim = max(u.size for u in updates)
        updates = [np.resize(u, dim) for u in updates]
        assert krum_select(updates, f) == krum_bruteforce(updates, f)


def test_krum_returns_an_input_bitwise():
    rng = np.random.default_rng(1)
    updates = [rng.normal(size=6) for _ in range(7)]
    out = updates[krum_select(updates, 2)]
    assert any(np.array_equal(out, u) for u in updates)


# -- median / trimmed mean ------------------------------------------------------

def test_median_examples():
    assert coordinate_median(vecs([1.0], [2.0], [3.0], [100.0])) == \
        pytest.approx([2.5])
    assert coordinate_median(vecs([1.0], [2.0], [100.0])) == \
        pytest.approx([2.0])
    v = np.array([4.0, 5.0])
    assert coordinate_median([v.copy()] * 3) == pytest.approx(v)


def test_trimmed_mean_examples():
    assert trimmed_mean(vecs([1.0], [2.0], [3.0], [100.0]), 1) == \
        pytest.approx([2.5])
    xs = vecs([1.0], [5.0], [9.0])
    assert trimmed_mean(xs, 0) == pytest.approx([5.0])
    assert trimmed_mean(vecs([-50.0], [0.0], [0.0], [0.0], [50.0]), 1) == \
        pytest.approx([0.0])


def test_trimmed_mean_over_trimming():
    with pytest.raises(ValueError):
        trimmed_mean(vecs([1.0], [2.0]), 1)


def test_trim_k_zero_equals_uniform_fedavg():
    rng = np.random.default_rng(3)
    updates = [rng.normal(size=5) for _ in range(6)]
    assert trimmed_mean(updates, 0) == pytest.approx(
        fedavg(updates, [1] * 6), abs=1e-12)


def test_default_trim_k():
    assert default_trim_k(10) == 2
    assert default_trim_k(4) == 0


def sort_oracle(updates, trim_k):
    X = np.array(updates)
    out = np.empty(X.shape[1])
    for j in range(X.shape[1]):
        col = sorted(X[:, j])
        kept = col[trim_k: len(col) - trim_k] if trim_k else col
        out[j] = sum(kept) / len(kept)
    return out


def median_oracle(updates):
    X = np.array(updates)
    out = np.empty(X.shape[1])
    for j in range(X.shape[1]):
        col = sorted(X[:, j])
        mid = len(col) // 2
        out[j] = col[mid] if len(col) % 2 else (col[mid - 1] + col[mid]) / 2
    return out


def test_median_and_trimmed_match_naive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 10))
        dim = int(rng.integers(1, 9))
        updates = [rng.normal(size=dim) for _ in range(n)]
        assert np.array_equal(coordinate_median(updates),
                              median_oracle(updates))
        trim_k = int(rng.integers(0, (n - 1) // 2 + 1))
        assert np.array_equal(trimmed_mean(updates, trim_k),
                              sort_oracle(updates, trim_k))


# -- fltrust --------------------------------------------------------------------

def test_fltrust_hand_example():
    server = np.array([1.0, 0.0])
    clients = vecs([2.0, 0.0], [0.0, 3.0], [-1.0, 0.0])
    out, scores = fltrust(clients, server)
    assert out == pytest.approx([1.0, 0.0])
    assert scores == pytest.approx([1, 0, 0])
    assert fltrust(clients, server)[1] == pytest.approx([1, 0, 0])


def test_fltrust_single_aligned_client():
    server = np.array([0.5, 0.5])
    assert fltrust([server.copy()], server)[0] == pytest.approx(server)


def test_fltrust_all_zero_trust_falls_back_to_server():
    server = np.array([1.0, 0.0])
    clients = vecs([0.0, 1.0], [-2.0, 0.0], [0.0, 0.0])
    out, scores = fltrust(clients, server)
    assert out == pytest.approx(server)
    assert np.all(scores == 0.0)


def test_fltrust_zero_server_falls_back_to_server():
    # no client aligns with a zero reference: the all-zero trust rule
    server = np.zeros(2)
    out, scores = fltrust(vecs([1.0, 0.0], [0.0, -2.0]), server)
    assert np.array_equal(out, server) and out is not server
    assert scores.tolist() == [0.0, 0.0]


def test_fltrust_output_norm_bounded():
    rng = np.random.default_rng(5)
    for _ in range(100):
        server = rng.normal(size=8)
        clients = [rng.normal(size=8) for _ in range(6)]
        out, _ = fltrust(clients, server)
        assert np.linalg.norm(out) <= np.linalg.norm(server) + 1e-9


# -- flame ----------------------------------------------------------------------

def test_flame_identical_updates_zero_noise():
    v = np.array([1.0, -1.0, 2.0])
    out, kept = flame([v.copy() for _ in range(5)], 0.0)
    assert out == pytest.approx(v, abs=1e-15)
    assert kept.tolist() == [0, 1, 2, 3, 4]


def test_flame_scaled_outlier_clipped_to_benign():
    benign = np.array([1.0, 2.0])
    updates = [benign.copy() for _ in range(9)] + [benign * 10.0]
    out, _ = flame(updates, 0.0)
    assert out == pytest.approx(benign, abs=1e-12)


def test_flame_directional_outlier_filtered():
    benign = np.array([1.0, 0.0])
    updates = [benign.copy() for _ in range(6)] + \
        [np.array([-1.0, 0.5]), np.array([-1.0, -0.5])]
    kept = flame_survivors(updates)
    assert set(kept) == set(range(6))
    out, flame_kept = flame(updates, 0.0)
    assert out == pytest.approx(benign, abs=1e-12)
    assert np.array_equal(flame_kept, kept)


def test_flame_zero_noise_deterministic_and_norm_bounded():
    rng = np.random.default_rng(8)
    updates = [rng.normal(size=6) for _ in range(9)]
    a, kept = flame(updates, 0.0)
    b, _ = flame(updates, 0.0)
    assert np.array_equal(a, b)
    assert np.array_equal(kept, flame_survivors(updates))
    med = np.median([np.linalg.norm(updates[i]) for i in kept])
    assert np.linalg.norm(a) <= med + 1e-9


def test_flame_noise_reproducible_by_stream():
    rng_updates = np.random.default_rng(9)
    updates = [rng_updates.normal(size=4) for _ in range(5)]
    a, _ = flame(updates, 0.01, stream(1, "flame", 0))
    b, _ = flame(updates, 0.01, stream(1, "flame", 0))
    c, _ = flame(updates, 0.01, stream(1, "flame", 1))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_flame_requires_three_clients():
    with pytest.raises(ValueError):
        flame(vecs([1.0], [2.0]), 0.0)


def test_flame_majority_cluster_size():
    rng = np.random.default_rng(10)
    for n in (3, 4, 7, 10):
        updates = [rng.normal(size=5) for _ in range(n)]
        kept = flame_survivors(updates)
        assert len(kept) >= n // 2 + 1


def threshold_majority_oracle(dist):
    """Brute-force cut: raise the height through the distinct pairwise
    distances until a component of the graph of edges <= height holds a
    majority; return its members."""
    n = len(dist)
    for height in np.unique(dist[np.triu_indices(n, k=1)]):
        upper = np.triu(dist <= height, k=1)
        adjacent = upper | upper.T
        seen = set()
        for start in range(n):
            if start in seen:
                continue
            component, frontier = {start}, [start]
            while frontier:
                for j in np.flatnonzero(adjacent[frontier.pop()]):
                    if int(j) not in component:
                        component.add(int(j))
                        frontier.append(int(j))
            seen |= component
            if len(component) >= n // 2 + 1:
                return sorted(component)
    raise AssertionError("no majority at the largest height")


def test_flame_survivors_match_threshold_oracle():
    # ties come from duplicates, sign flips, zero vectors and d = 1
    rng = np.random.default_rng(11)
    for _ in range(400):
        n = int(rng.integers(3, 12))
        X = rng.normal(size=(n, int(rng.integers(1, 4))))
        for i in range(n):
            roll = rng.random()
            if roll < 0.2:
                X[i] = X[rng.integers(n)]
            elif roll < 0.3:
                X[i] = -X[rng.integers(n)]
            elif roll < 0.4:
                X[i] = 0.0
        updates = list(X)
        assert flame_survivors(updates).tolist() == \
            threshold_majority_oracle(_cosine_distance_matrix(X))


# -- update sets ------------------------------------------------------------------

AGGREGATOR_CALLS = {
    "fedavg": lambda X: fedavg(X, list(range(1, 10))),
    "krum_select": lambda X: krum_select(X, 2),
    "median": coordinate_median,
    "trimmed_mean": lambda X: trimmed_mean(X, 2),
    "fltrust": lambda X: fltrust(X, np.linspace(-1.0, 1.0, 42)),
    "flame_survivors": flame_survivors,
    "flame": lambda X: flame(X, 0.01, stream(3, "flame", 0)),
}


@pytest.mark.parametrize("name", sorted(AGGREGATOR_CALLS))
def test_list_and_stacked_array_give_identical_results(name):
    rng = np.random.default_rng(21)
    updates = [rng.normal(size=42) for _ in range(9)]
    updates[4] = updates[4] * 10.0
    updates[7] = np.zeros(42)
    call = AGGREGATOR_CALLS[name]
    from_list, from_array = call(updates), call(np.stack(updates))
    if not isinstance(from_list, tuple):
        from_list, from_array = (from_list,), (from_array,)
    for a, b in zip(from_list, from_array, strict=True):
        assert np.array_equal(a, b)


# -- the whole-matrix baselines against their per-row loops ---------------------

def krum_reference(X, f):
    """Krum as a loop over rows: each row's distances without its own,
    sorted, the n - f - 2 smallest summed."""
    n = len(X)
    sq_norms = np.einsum("ij,ij->i", X, X)
    sq = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (X @ X.T)
    np.maximum(sq, 0.0, out=sq)
    scores = np.empty(n)
    for i in range(n):
        others = np.delete(sq[i], i)
        others.sort()
        scores[i] = others[:n - f - 2].sum()
    return int(np.argmin(scores))


def fltrust_reference(X, server):
    """FLTrust as a loop over the rows of nonzero norm."""
    server_norm = float(np.linalg.norm(server))
    if server_norm == 0.0:
        return server.copy(), np.zeros(len(X))
    norms = np.linalg.norm(X, axis=1)
    scores = np.zeros(len(X))
    normalized = np.zeros_like(X)
    for i in np.flatnonzero(norms > 0.0):
        cos = float(np.dot(X[i], server)) / (norms[i] * server_norm)
        scores[i] = max(0.0, cos)
        normalized[i] = X[i] * (server_norm / norms[i])
    total = scores.sum()
    if total == 0.0:
        return server.copy(), scores
    return weighted_sum(normalized, scores / total), scores


def flame_reference(X, noise_factor, rng):
    """FLAME's clip stage as a loop over the survivors."""
    keep = flame_survivors(X)
    clipped = X[keep]
    norms = np.linalg.norm(clipped, axis=1)
    median_norm = float(np.median(norms))
    for i in range(len(clipped)):
        if norms[i] > median_norm and norms[i] > 0:
            clipped[i] *= median_norm / norms[i]
    result = clipped.mean(axis=0)
    sigma = noise_factor * median_norm
    if sigma > 0:
        result = result + rng.normal(0.0, sigma, size=result.shape)
    return result, keep


def update_set(seed, d, kinds, server_kind):
    """Rows drawn by kind: Gaussian, zero, a copy of an earlier row (or
    zero), small integers (Krum score ties), a scaled Gaussian, or one so
    large that Krum's squared distances overflow; and a server update of
    its own kind."""
    rng = np.random.default_rng(seed)
    X = np.empty((len(kinds), d))
    for i, kind in enumerate(kinds):
        if kind == "zero":
            X[i] = 0.0
        elif kind == "copy":
            X[i] = X[rng.integers(i)] if i else 0.0
        elif kind == "int":
            X[i] = rng.integers(-2, 3, size=d)
        else:
            X[i] = rng.normal(size=d) * {"normal": 1.0, "big": 50.0,
                                         "huge": 1e160}[kind]
    client = X[rng.integers(len(X))]
    server = {"normal": rng.normal(size=d), "zero": np.zeros(d),
              "minus_client": -client, "client": client.copy()}[server_kind]
    return X, server


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 16), d=st.sampled_from([1, 2, 3, 7, 50]),
       kinds=st.lists(st.sampled_from(["normal", "zero", "copy", "int",
                                       "big", "huge"]),
                      min_size=3, max_size=25),
       server_kind=st.sampled_from(["normal", "zero", "minus_client",
                                    "client"]),
       f_frac=st.floats(0.0, 1.0), noise=st.sampled_from([0.0, 0.01]))
@example(seed=0, d=1, kinds=["int"] * 6, server_kind="minus_client",
         f_frac=0.0, noise=0.0)
@example(seed=1, d=3, kinds=["zero", "copy", "copy", "normal", "int"],
         server_kind="minus_client", f_frac=1.0, noise=0.01)
def test_baselines_match_their_row_loops_bitwise(seed, d, kinds, server_kind,
                                                 f_frac, noise):
    X, server = update_set(seed, d, kinds, server_kind)
    f = int(f_frac * (len(X) - 3))
    # huge rows overflow: the warnings are expected, the bits must agree
    with np.errstate(all="ignore"):
        assert krum_select(X, f) == krum_reference(X, f)
        fl = fltrust(X, server), fltrust_reference(X, server)
        fm = (flame(X, noise, stream(seed, "flame", 0)),
              flame_reference(X, noise, stream(seed, "flame", 0)))
    for got, want in (fl, fm):
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()
