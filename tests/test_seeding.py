"""Generator primitives: published vectors, determinism, range."""

from hypothesis import example, given
from hypothesis import strategies as st

from sealedbid.seeding import MASK64, hash_text, mix64, splitmix64

u64 = st.integers(min_value=0, max_value=MASK64)
# Words past 64 bits exercise the mask applied to each absorbed word.
wide = st.one_of(u64, st.sampled_from([MASK64, 2**64, 2**64 + 1, 2**70]),
                 st.integers(min_value=0, max_value=2**70))


def splitmix64_fold(seed, words):
    """The documented chain, one ``splitmix64`` call per step."""
    h = splitmix64(seed & MASK64)
    for w in words:
        h = splitmix64(h ^ (w & MASK64))
    return h


def test_splitmix64_reference_vectors():
    # first outputs of the reference generator for seeds 0 and 1; the
    # second call for seed 0 mixes the advanced state (one golden step)
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4
    assert splitmix64(1) == 0x910A2DEC89025CC1


@given(u64)
def test_splitmix64_stays_in_64_bits(x):
    assert 0 <= splitmix64(x) <= MASK64


def test_mix64_frozen_values():
    assert mix64(0) == 16294208416658607535
    assert mix64(0, 0) == 12035550249420947055
    assert mix64(0, 0, 0) == 2558736989570252433
    assert mix64(7, 3, 1) == 1173472824657711729


def test_mix64_word_count_matters():
    # absorbing an extra zero word must change the digest
    assert mix64(0) != mix64(0, 0)
    assert mix64(0, 0) != mix64(0, 0, 0)


@given(u64, u64, u64)
def test_mix64_argument_order_matters(seed, a, b):
    if a != b:
        assert mix64(seed, a, b) != mix64(seed, b, a)


@given(u64, st.lists(u64, max_size=3), u64)
def test_mix64_prefix_identity(seed, words, last):
    # the simulator hoists mix64(seed, round) out of its bidder loop
    assert mix64(seed, *words, last) == splitmix64(mix64(seed, *words) ^ last)


@given(wide, st.lists(wide, max_size=6))
def test_mix64_is_the_splitmix64_fold(seed, words):
    assert mix64(seed, *words) == splitmix64_fold(seed, words)


@given(u64, st.text())
@example(0, "")
@example(7, "3,5,4")
@example(2**64 - 1, "\u00e9\u4e2d\U0001f600")
def test_hash_text_is_the_fold_over_utf8_bytes(seed, text):
    assert hash_text(seed, text) == splitmix64_fold(seed, text.encode("utf-8"))


def test_hash_text_frozen_values():
    assert hash_text(0, "") == splitmix64(0)
    assert hash_text(0, "3,5,4") == 7461866123945178962
    assert hash_text(1, "3,5,4") == 8660742177928343913


def test_hash_text_distinguishes_profiles():
    assert hash_text(0, "3,5,4") != hash_text(0, "3,5,5")
    assert hash_text(0, "1,2") != hash_text(0, "12")
