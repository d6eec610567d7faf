"""The array sweep's range kernel against the reference tokenizer.

``tokenize_range`` finds, lowercases and interns tokens from the UTF-8
bytes of a range's values; ``Tokenizer.distinct_profile_tokens`` is the
reference it must equal for every ``str``: non-ASCII characters whose
lowercase is ASCII (the Kelvin sign, dotted capital I), combining marks,
lone surrogates, NULs, empty values, tokens around the 8-byte word
boundaries and repeats within and across values.
"""

from __future__ import annotations

import itertools

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.blocking.substrate import SubstrateSpec  # noqa: E402
from repro.core.profiles import EntityProfile, ERType, ProfileStore  # noqa: E402
from repro.core.tokenization import Tokenizer  # noqa: E402
from repro.engine.fanout import Fanout  # noqa: E402
from repro.engine.storage import ArrayStore  # noqa: E402
from repro.engine.substrate import ArraySubstrate, tokenize_range  # noqa: E402
from repro.errors import ConfigError  # noqa: E402

TOKENIZERS = [
    Tokenizer(min_length, lowercase, keep_numeric)
    for min_length, lowercase, keep_numeric in itertools.product(
        (1, 3), (True, False), (True, False)
    )
]

#: Whole tokens: 8, 9, 16, 17 and 40+ bytes, digit-only, mixed case.
TOKENS = [
    "Ab", "ab", "x", "Q7", "2024", "007", "8", "abcdefgh", "ABCDEFGHI",
    "0123456789abcdef", "0123456789ABCDEFg", "12345678", "123456789",
    "WordsWordsWordsWordsWordsWordsWordsWords42", "9" * 41,
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
    store: ProfileStore, tokenizer: Tokenizer, lo: int, hi: int
) -> tuple[list[str], list[int], list[int]]:
    """First-appearance interning of the reference's distinct tokens."""
    intern: dict[str, int] = {}
    ids: list[int] = []
    counts: list[int] = []
    for profile_id in range(lo, hi):
        tokens = tokenizer.distinct_profile_tokens(store[profile_id])
        counts.append(len(tokens))
        ids.extend(intern.setdefault(token, len(intern)) for token in tokens)
    return list(intern), ids, counts


class Cut(Fanout):
    """The inline fan-out, cut into ranges of ``size`` profiles."""

    def __init__(self, size: int) -> None:
        self.size = size

    def ranges(self, n, masses=None, budget=None):
        return super().ranges(n, budget=self.size)


def sweep(substrate: ArraySubstrate) -> tuple[list[str], list[int], list[int]]:
    names, tokens, profiles = substrate._tokenize()
    return names, np.asarray(tokens).tolist(), np.asarray(profiles).tolist()


@given(stores, st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_equals_the_reference_tokenizer(store, data):
    lo = data.draw(st.integers(0, len(store)))
    hi = data.draw(st.integers(lo, len(store)))
    for tokenizer in TOKENIZERS:
        names, ids, counts = tokenize_range(
            {"store": store, "tokenizer": tokenizer}, (lo, hi)
        )
        assert ids.dtype == counts.dtype == np.int64
        assert (names, ids.tolist(), counts.tolist()) == reference(
            store, tokenizer, lo, hi
        )


@given(stores)
@settings(max_examples=40, deadline=None)
def test_multi_range_sweeps_equal_the_one_range_sweep(store):
    for tokenizer in (Tokenizer(), Tokenizer(3, False, False)):
        spec = SubstrateSpec(tokenizer)
        whole = sweep(ArraySubstrate(store, spec))
        names, ids, counts = reference(store, tokenizer, 0, len(store))
        assert whole == (
            names,
            ids,
            np.repeat(np.arange(len(store)), counts).tolist(),
        )
        for size in (1, 2, 7):
            assert sweep(ArraySubstrate(store, spec, fanout=Cut(size))) == whole
            storage = ArrayStore()
            try:
                spilled = ArraySubstrate(store, spec, storage=storage)
                spilled.TOKENIZE_FLUSH_PROFILES = size
                assert sweep(spilled) == whole
            finally:
                storage.close()


def test_fixture_stores_sweep_like_the_reference(dirty_dataset, clean_clean_store):
    for store in (dirty_dataset.store, clean_clean_store):
        for tokenizer in TOKENIZERS:
            names, ids, counts = tokenize_range(
                {"store": store, "tokenizer": tokenizer}, (0, len(store))
            )
            assert (names, ids.tolist(), counts.tolist()) == reference(
                store, tokenizer, 0, len(store)
            )


def test_a_tokenizer_subclass_is_refused():
    """The sweep reads the three fields only: an overridden ``tokens``
    would be ignored, so the array backends refuse any subclass."""

    class Stemming(Tokenizer):
        def tokens(self, value: str) -> list[str]:
            return [token.rstrip("s") for token in super().tokens(value)]

    store = ProfileStore.from_attribute_maps([{"a": "cats dogs"}])
    with pytest.raises(ConfigError, match='backend="python"'):
        ArraySubstrate(store, SubstrateSpec(Stemming()))
    ArraySubstrate(store, SubstrateSpec(Tokenizer(min_length=2)))
