"""`_common.substreams` against NumPy's own SeedSequence seeding.

Entry i of `substreams(seed, keys)` must be the stream of
`np.random.default_rng(np.random.SeedSequence(seed, spawn_key=keys[i]))`,
byte for byte: same bit-generator state, same draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genrec import _common, harness, theory
from genrec._common import substream, substreams


def reference(seed, key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def reference_substreams(seed, keys):
    return [reference(seed, key) for key in keys]


def assert_same_streams(seed, keys):
    got = substreams(seed, keys)
    assert len(got) == len(keys)
    for key, rng in zip(keys, got):
        want = reference(seed, key)
        assert rng.bit_generator.state == want.bit_generator.state, key
        assert rng.standard_normal(3).tobytes() == want.standard_normal(3).tobytes(), key
        assert rng.integers(2**63, size=2).tobytes() == want.integers(2**63, size=2).tobytes()


@st.composite
def keys_of_one_word_count(draw):
    """1-40 keys of 0-3 ints below 2**64. Position j of every key holds one
    32-bit word or two, the same for all keys, so the keys' word counts match."""
    wide = draw(st.lists(st.booleans(), max_size=3))
    ints = [st.integers(2**32, 2**64 - 1) if w else st.integers(0, 2**32 - 1) for w in wide]
    return draw(st.lists(st.tuples(*ints), min_size=1, max_size=40))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**128 - 1), keys=keys_of_one_word_count())
def test_streams_equal_seed_sequence_streams(seed, keys):
    assert_same_streams(seed, keys)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 3])
@pytest.mark.parametrize("keys", [[()], [(), ()], [(0,)], [(5, 0), (0, 7), (2**31, 3)],
                                  [(2**32,), (2**64 - 1,)], [(1, 2, 3, 4, 5)]],
                         ids=["empty", "empty-twice", "zero", "pairs", "two-word", "five"])
def test_edge_seeds_and_keys(seed, keys):
    assert_same_streams(seed, keys)


def test_numpy_integers_count_as_their_values():
    assert_same_streams(np.uint64(2**40), [(np.int64(3), np.uint8(0)), (7, 1)])


def test_single_stream_and_no_keys():
    assert substream(9, (4, 2)).bit_generator.state == reference(9, (4, 2)).bit_generator.state
    assert substreams(9, []) == []


@pytest.mark.parametrize("seed, keys", [
    (0, [(1,), (1, 2)]),          # ragged keys
    (0, [(1,), (2**32,)]),        # equal lengths, unequal word counts
    (0, [(), (0,)]),
    (0, [(-1,)]),                 # negative key int
    (0, [(3,), (4, -2)]),
    (-1, [(1,)]),                 # negative seed
])
def test_ragged_or_negative_raise(seed, keys):
    with pytest.raises(ValueError):
        substreams(seed, keys)


def default_suite(seed):
    return harness.ExperimentSpec.from_dict(
        {"name": "v", "sweep": {"axis": "rho_grid", "values": [0.02, 0.05, 0.1]},
         "seed": seed, "checks": None})


def test_per_seed_cache_carries_no_state_between_seeds():
    first = harness.run_verify(default_suite(3))["reports"]
    harness.run_verify(default_suite(4))
    assert harness.run_verify(default_suite(3))["reports"] == first


def test_default_suite_equals_seed_sequence_streams(monkeypatch):
    """The default verify suite, its streams from NumPy's SeedSequence."""
    spec = default_suite(0)
    got = harness.run_verify(spec)["reports"]
    for module in (_common, harness, theory):
        monkeypatch.setattr(module, "substreams", reference_substreams)
    assert harness.run_verify(spec)["reports"] == got
