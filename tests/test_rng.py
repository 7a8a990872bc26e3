import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtruth.rng import ClientStreams, StateWords, state_words, stream

from oracles import seed_sequence_state

M = 2 ** 32 - 1
# the key words' ends, and ints that the mod-2**32 masking folds onto them
EDGES = st.sampled_from([0, M, -1, -M, 2 ** 32, 2 ** 32 + 1, -2 ** 32 - 1,
                         2 ** 64 - 1, -2 ** 63])
INDEX = st.one_of(EDGES,
                  st.integers(-2 ** 70, 2 ** 70),
                  st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
                  st.integers(0, 2 ** 32 - 1).map(np.uint32))


def from_words(words):
    return np.random.Generator(np.random.PCG64(StateWords(words)))


@settings(max_examples=300, deadline=None)
@given(seed=st.one_of(EDGES, st.integers(-2 ** 70, 2 ** 70)),
       purpose=st.text(max_size=12),
       indices=st.lists(INDEX, max_size=3), t=INDEX, c=INDEX)
def test_stream_state_pinned_to_seed_sequence_of_key_words(seed, purpose,
                                                           indices, t, c):
    # 0-3 indices make keys of 2-5 words; 5 words take SeedSequence's
    # branch for more entropy than its pool of 4. state_words serves
    # only the 4-word (round, client) keys
    assert stream(seed, purpose, *indices).bit_generator.state == \
        seed_sequence_state(seed, purpose, indices)
    words = state_words(seed, purpose, [t], [c])
    assert words.shape == (1, 1, 4)
    assert from_words(words[0, 0]).bit_generator.state == \
        seed_sequence_state(seed, purpose, [t, c])


def test_batched_words_are_the_scalar_words_of_each_index():
    rounds = np.array([0, 1, 2 ** 31, M, -1])
    clients = np.array([0, 5, M])
    words = state_words(9, "train", rounds, clients)
    assert words.shape == (5, 3, 4)
    for i, t in enumerate(rounds):
        for j, c in enumerate(clients):
            assert np.array_equal(words[i, j],
                                  state_words(9, "train", [t], [c])[0, 0])
            assert from_words(words[i, j]).bit_generator.state == \
                stream(9, "train", t, c).bit_generator.state


def test_state_words_serves_only_pcg64s_request():
    words = state_words(1, "train", [2], [3])[0, 0]
    served = StateWords(words).generate_state(4, np.uint64)
    # PCG64 reads the array's raw memory
    assert served.dtype == np.uint64 and served.shape == (4,)
    assert served.flags.c_contiguous
    for n_words, dtype in [(4, np.uint32), (8, np.uint64), (2, np.uint64),
                           (4, np.int64), (1, np.uint64)]:
        with pytest.raises(ValueError):
            StateWords(words).generate_state(n_words, dtype)
    with pytest.raises(ValueError):
        StateWords(words).generate_state(4)


@pytest.mark.parametrize("n_clients, chunk_keys, chunk_rounds",
                         [(1, 3, 3), (7, 14, 2), (3000, 2 ** 11, 1)])
def test_client_streams_equal_stream_across_chunks(monkeypatch, n_clients,
                                                   chunk_keys, chunk_rounds):
    # whole rounds a chunk, at least one; rounds asked forwards, then
    # backwards
    monkeypatch.setattr("fedtruth.rng.CHUNK_KEYS", chunk_keys)
    streams = ClientStreams(4, "poison", n_clients)
    assert streams.chunk_rounds == chunk_rounds
    clients = sorted({0, n_clients // 2, n_clients - 1})
    for t in list(range(7)) + list(range(6, -1, -1)):
        for c in clients:
            assert streams(t, c).bit_generator.state == \
                stream(4, "poison", t, c).bit_generator.state
