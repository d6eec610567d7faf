"""The two-row Levenshtein table: the oracle the bit-vector kernel in
``repro.matching.edit_distance`` is compared against.

This is the dynamic program ``src/`` shipped until the kernel replaced
it, kept as it was (prefix/suffix stripping, the ``max_distance``
cutoffs) so the differential tests and the stream-level test compare
against what every earlier run measured.
"""

from __future__ import annotations


def levenshtein_table(a: str, b: str, max_distance: int | None = None) -> int:
    """Edit distance by the classic O(s*t) two-row table."""
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
    if not a:
        distance = len(b)
        if max_distance is not None and distance > max_distance:
            return max_distance + 1
        return distance
    if not b:
        distance = len(a)
        if max_distance is not None and distance > max_distance:
            return max_distance + 1
        return distance
    if len(a) > len(b):
        a, b = b, a  # ensure the inner loop runs over the longer string
    if max_distance is not None and len(b) - len(a) > max_distance:
        return max_distance + 1

    previous = list(range(len(a) + 1))
    current = [0] * (len(a) + 1)
    for row, ch_b in enumerate(b, start=1):
        current[0] = row
        best_in_row = row
        for col, ch_a in enumerate(a, start=1):
            cost = 0 if ch_a == ch_b else 1
            current[col] = min(
                previous[col] + 1,  # deletion
                current[col - 1] + 1,  # insertion
                previous[col - 1] + cost,  # substitution
            )
            if current[col] < best_in_row:
                best_in_row = current[col]
        if max_distance is not None and best_in_row > max_distance:
            return max_distance + 1
        previous, current = current, previous
    distance = previous[len(a)]
    if max_distance is not None and distance > max_distance:
        return max_distance + 1
    return distance
