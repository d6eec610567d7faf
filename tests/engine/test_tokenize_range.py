"""The array sweep's range kernel against the reference tokenizer.

``tokenize_range`` finds, lowercases and interns tokens from the UTF-8
bytes of a range's values, a token's id being its rank in the range's
alphabetical vocabulary; ``tokenization.distinct_profile_tokens`` is
the reference it must equal for every ``str``: non-ASCII characters whose
lowercase is ASCII (the Kelvin sign, dotted capital I), combining marks,
lone surrogates, NULs, empty values, tokens sharing prefixes and around
the 8-byte word boundaries, and repeats within and across values.
"""

from __future__ import annotations

import itertools
import tracemalloc

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.blocking.substrate import SubstrateSpec  # noqa: E402
from repro.core.profiles import EntityProfile, ERType, ProfileStore  # noqa: E402
from repro.core.tokenization import distinct_profile_tokens  # noqa: E402
from repro.datasets.synthetic import generate_synthetic  # noqa: E402
from repro.engine.fanout import Fanout  # noqa: E402
from repro.engine.storage import ArrayStore  # noqa: E402
from repro.engine.substrate import (  # noqa: E402
    ArraySubstrate,
    decode_names,
    tokenize_range,
)

#: Whole tokens: shared prefixes; an 8-byte token beside 9-, 16- and
#: 17-byte tokens with the same first word; 41 and 500 bytes (two that
#: differ in their last byte only); digit-only; mixed case.
TOKENS = [
    "Ab", "ab", "abc", "x", "Q7", "2024", "007", "8", "abcdefg", "abcdefgh",
    "abcdefghi", "ABCDEFGHI", "abcdefghijklmnop", "abcdefghijklmnopq",
    "0123456789abcdef", "0123456789ABCDEFg", "12345678", "123456789",
    "WordsWordsWordsWordsWordsWordsWordsWords42", "9" * 41,
    "abcdefgh" * 62 + "abcd", "abcdefgh" * 62 + "abcD",
]  # fmt: skip

#: Separators and characters the byte pass must treat as the regex does:
#: Kelvin sign and dotted capital I (their lowercase is ASCII), a
#: combining acute, Latin-1 letters, long s, dotless i, lone surrogates
#: and an astral character.
ODD = [
    " ", "-", "_", "\x00", "\t", "\u212a", "\u0130", "\u0301", "\xe9",
    "\xdf", "\u017f", "\u0131", "\ud800", "\udfff", "\U0001f600",
]  # fmt: skip

values = st.lists(
    st.one_of(
        st.sampled_from(TOKENS),
        st.sampled_from(ODD),
        st.text(alphabet=st.sampled_from("aZ9 ." + "".join(ODD)), max_size=6),
    ),
    max_size=8,
).map("".join)

stores = st.lists(st.lists(values, max_size=4), max_size=9).map(
    lambda rows: ProfileStore(
        [
            EntityProfile(pid, [(f"a{n}", value) for n, value in enumerate(row)])
            for pid, row in enumerate(rows)
        ],
        ERType.DIRTY,
    )
)


def reference(
    store: ProfileStore, lo: int, hi: int
) -> tuple[list[str], list[list[int]]]:
    """The reference's distinct tokens of profiles ``[lo, hi)``: the
    sorted vocabulary and each profile's sorted ids into it."""
    rows = [distinct_profile_tokens(store[profile_id]) for profile_id in range(lo, hi)]
    vocabulary = sorted(set(itertools.chain.from_iterable(rows)))
    ids = {token: token_id for token_id, token in enumerate(vocabulary)}
    return vocabulary, [sorted(ids[token] for token in row) for row in rows]


def kernel(store: ProfileStore, lo: int, hi: int) -> tuple[list[str], list[list[int]]]:
    """The kernel's output in the reference's terms, after checking
    its shape: lengths, dtypes, ids inside the vocabulary, sources."""
    (packed, lengths), ids, counts, sources = tokenize_range({"store": store}, (lo, hi))
    assert ids.dtype == counts.dtype == sources.dtype == np.int64
    names = decode_names(packed)
    assert lengths.tolist() == list(map(len, names))
    assert ids.size == 0 or 0 <= ids.min() <= ids.max() < len(names)
    assert sources.tolist() == [store[p].source for p in range(lo, hi)]
    rows = np.split(ids, np.cumsum(counts)[:-1]) if hi > lo else []
    return names, [row.tolist() for row in rows]


class Cut(Fanout):
    """The inline fan-out, cut into ranges of ``size`` profiles."""

    def __init__(self, size: int) -> None:
        self.size = size

    def ranges(self, n, masses=None, budget=None):
        return super().ranges(n, budget=self.size)


def sweep(substrate: ArraySubstrate) -> tuple[list[str], list[int], list[int]]:
    """Decoded vocabulary, ranked pair ids and pair profiles of a sweep."""
    substrate._sweep()
    counts = np.diff(substrate._pair_indptr)
    return (
        decode_names(substrate._vocabulary[0]),
        substrate._rank[np.asarray(substrate._pair_tokens)].tolist(),
        np.repeat(np.arange(len(counts)), counts).tolist(),
    )


@given(stores, st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_equals_the_reference_tokenizer(store, data):
    lo = data.draw(st.integers(0, len(store)))
    hi = data.draw(st.integers(lo, len(store)))
    assert kernel(store, lo, hi) == reference(store, lo, hi)


def test_an_empty_range_has_an_empty_vocabulary():
    store = ProfileStore.from_attribute_maps([{"a": "Carl White"}])
    for lo in (0, 1):
        assert kernel(store, lo, lo) == ([], [])


@given(stores)
@settings(max_examples=40, deadline=None)
def test_multi_range_sweeps_equal_the_one_range_sweep(store):
    spec = SubstrateSpec()
    whole = sweep(ArraySubstrate(store, spec))
    names, rows = reference(store, 0, len(store))
    assert whole == (
        names,
        list(itertools.chain.from_iterable(rows)),
        np.repeat(np.arange(len(store)), list(map(len, rows))).tolist(),
    )
    for size in (1, 2, 7):
        assert sweep(ArraySubstrate(store, spec, fanout=Cut(size))) == whole
        storage = ArrayStore()
        try:
            # Both stores cut the sweep at TOKENIZE_FLUSH_PROFILES.
            for substrate in (
                ArraySubstrate(store, spec),
                ArraySubstrate(store, spec, storage=storage),
            ):
                substrate.TOKENIZE_FLUSH_PROFILES = size
                assert sweep(substrate) == whole
        finally:
            storage.close()


def test_fixture_stores_sweep_like_the_reference(dirty_dataset, clean_clean_store):
    for store in (dirty_dataset.store, clean_clean_store):
        assert kernel(store, 0, len(store)) == reference(store, 0, len(store))


def test_the_sweep_holds_under_24_bytes_a_pair():
    """What a finished sweep keeps - each ``(profile, token)`` pair's
    slot, the per-profile ``_pair_indptr``, the vocabulary, ``rank`` and
    the sources - stays under 24 B a pair on a 40,000-profile synthetic
    store (~19.7 B): the slots are the one per-pair array it keeps."""
    import numpy.ma  # noqa: F401  (np.unique's first call imports it)

    data = generate_synthetic(n_profiles=40_000, seed=7)
    store = ProfileStore(list(data.store), data.store.er_type)
    substrate = ArraySubstrate(store, SubstrateSpec())
    tracemalloc.start()
    try:
        substrate._sweep()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / substrate._pair_tokens.size < 24
