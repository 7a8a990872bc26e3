import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtruth.rng import stream

M = 2 ** 32 - 1
INDEX = st.one_of(st.integers(-2 ** 70, 2 ** 70),
                  st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
                  st.integers(0, 2 ** 32 - 1).map(np.uint32))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(-2 ** 70, 2 ** 70), purpose=st.text(max_size=12),
       indices=st.lists(INDEX, max_size=3))
def test_stream_state_pinned_to_seed_sequence_of_key_words(seed, purpose,
                                                           indices):
    key = [seed & M, zlib.crc32(purpose.encode("utf-8"))]
    key += [int(i) & M for i in indices]
    want = np.random.default_rng(np.random.SeedSequence(key))
    assert stream(seed, purpose, *indices).bit_generator.state == \
        want.bit_generator.state
