"""Growable columnar storage: chunk-wise ``extend`` and per-record interning.

``GrowableColumn.extend`` fills chunks slice by slice; it must be
indistinguishable from one ``append`` per value through every accessor,
whatever chunk boundaries the values cross and whether or not the column is
rooted on a read-only base.  ``GrowableContext.add_record`` hands a record's
columns over whole; the columns it produces are frozen here.
"""

from __future__ import annotations

from array import array

import pytest

from repro.core.growable import GrowableColumn, GrowableContext
from repro.datamodel.description import EntityDescription

# with chunk_size 4: empty input, inside one chunk, up to a boundary, across
# one boundary, across several, and a lone value after a full chunk
BATCHES = [[], [1], [2, 3, 4], [5, 6], [], list(range(10, 23)), [7], list(range(30, 38))]


def _read_only_base():
    # bytes are immutable, so the cast view is read-only -- like the
    # memory-mapped snapshot column a restored index is rooted on
    return memoryview(array("q", [100, 101, 102]).tobytes()).cast("q")


@pytest.mark.parametrize("make_base", [lambda: None, _read_only_base], ids=["fresh", "based"])
def test_extend_equals_repeated_append(make_base):
    extended = GrowableColumn(make_base(), chunk_size=4)
    appended = GrowableColumn(make_base(), chunk_size=4)
    for batch in BATCHES:
        extended.extend(batch)
        for value in batch:
            appended.append(value)
        size = len(appended)
        assert len(extended) == size
        assert list(extended) == list(appended)
        assert [extended[i] for i in range(size)] == [appended[i] for i in range(size)]
        assert [list(chunk) for chunk in extended.chunks()] == [
            list(chunk) for chunk in appended.chunks()
        ]
        for start in range(size + 1):
            for stop in range(start, size + 1):
                assert list(extended.view(start, stop)) == list(appended.view(start, stop))
    with pytest.raises(IndexError):
        extended[len(extended)]
    if extended._base is not None:
        assert list(extended._base) == [100, 101, 102]  # never copied, never written


def _columns(context):
    return {
        "token_ptr": list(context._token_ptr),
        "token_ids": list(context._token_ids_column),
    }


def test_add_record_columns_are_frozen():
    context = GrowableContext()
    first = context.add_record(
        EntityDescription(
            "r1",
            {
                # vocabulary in first-touch order: alan=0 turing=1 mathison=2
                # london=3 england=4
                "name": ["Alan Turing", "Alan Mathison Turing"],
                "city": ["London"],
                "note": ["Turing, London, England; London"],
            },
        )
    )
    second = context.add_record(
        EntityDescription("r2", {"city": ["England"], "alias": ["alan alan"], "empty": ["?!"]})
    )
    assert (first, second) == (0, 1)
    assert context._tokens == ["alan", "turing", "mathison", "london", "england"]
    assert _columns(context) == {
        "token_ptr": [0, 5, 7],
        "token_ids": [0, 1, 2, 3, 4, 0, 4],
    }
    assert list(context.token_ids_of(0)) == [0, 1, 2, 3, 4]
