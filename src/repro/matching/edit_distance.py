"""Levenshtein edit distance - the paper's "expensive" match function.

Section 7.3 evaluates the progressive methods with two match functions;
edit distance is the expensive one.  The dynamic-programming table has
``s * t`` cells; :func:`levenshtein` computes the same exact distance a
whole table column at a time with the bit-vector recurrence of Myers
(1999) in Hyyro's (2003) formulation: a column is encoded by the +1 / -1
differences between vertically adjacent cells, one bit per character of
the *shorter* text, so a column costs a fixed handful of integer
operations whatever its height.  Python's ints are unbounded, so a
pattern longer than a machine word needs no special case - the addition
carries across words by itself.  Cost: ``O(ceil(m / w) * n)`` word
operations (``m`` the shorter text, ``n`` the longer, ``w`` the word
size) instead of ``O(m * n)`` interpreted cell updates, after stripping
the common prefix and suffix (edits can only occur in the middle).

``max_distance`` never changes a result at or under the bound; above it
the answer is ``max_distance + 1``, which lets the loop stop at the first
column from which the bound cannot be met any more.
"""

from __future__ import annotations


def levenshtein(a: str, b: str, max_distance: int | None = None) -> int:
    """Edit distance between ``a`` and ``b`` (insert/delete/substitute = 1).

    With ``max_distance`` set, any true distance above the bound is
    reported as ``max_distance + 1`` (sufficient for thresholded
    matching, and the loop may stop early).

    >>> levenshtein("kitten", "sitting")
    3
    >>> levenshtein("kitten", "sitting", max_distance=1)
    2
    """
    if max_distance is not None and max_distance < 0:
        raise ValueError("max_distance must be >= 0")
    if a == b:
        return 0
    # Strip common prefix and suffix - edits can only occur in the middle.
    start = 0
    end_a, end_b = len(a), len(b)
    while start < end_a and start < end_b and a[start] == b[start]:
        start += 1
    while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    a, b = a[start:end_a], b[start:end_b]
    if len(a) > len(b):
        a, b = b, a  # bit vectors over the shorter text, loop over the longer
    remaining = len(b)
    # No distance exceeds the longer length, so without a bound the
    # cutoffs below never fire.
    bound = remaining if max_distance is None else max_distance
    if remaining - len(a) > bound:
        return bound + 1
    if not a:
        return remaining

    # masks[ch]: bit r set where a[r] == ch.
    masks: dict[str, int] = {}
    bit = 1
    for ch in a:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    mask_of = masks.get
    ones = bit - 1
    last = bit >> 1
    # Column 0 of the table is 0..len(a): every vertical difference +1.
    # vp / vn: rows whose cell is one more / one less than the cell
    # above; hp / hn: the same against the cell to the left; diagonal:
    # rows whose cell equals its upper-left neighbour.  Bits at and
    # above len(a) are scratch - carries and shifts only move up, so
    # they never reach a row bit - and masking vp keeps them two wide.
    vp, vn = ones, 0
    score = len(a)  # bottom cell of the current column
    for ch in b:
        match = mask_of(ch, 0) | vn
        diagonal = (((match & vp) + vp) ^ vp) | match
        hp = vn | (ones ^ (diagonal | vp))
        hn = diagonal & vp
        if hp & last:
            score += 1
        elif hn & last:
            score -= 1
        remaining -= 1
        # The bottom row falls by at most one per remaining column.
        if score - remaining > bound:
            return bound + 1
        hp = (hp << 1) | 1  # row 0 of the table grows by one per column
        vp = ((hn << 1) | (ones ^ (diagonal | hp))) & ones
        vn = hp & diagonal
    return score


def edit_similarity(a: str, b: str) -> float:
    """Normalized edit similarity in [0, 1]: 1 - distance / max length."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / longest
