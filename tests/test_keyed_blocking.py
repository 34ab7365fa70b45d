"""Seeded fixtures of the key-based builders: standard, q-grams, extended
q-grams and suffix-array blocking, frozen.

``tests/fixtures/blocking/keyed.json`` freezes what each key-based builder
produced, uncleaned and fully cleaned, on the seeded dirty and clean--clean
collections and the degenerate inputs of ``test_blocking_equivalence.py``,
with that module's serialisation (block count, the first blocks, a SHA-256
of the whole collection).  The cases include a standard blocking whose two
key functions emit the same key (a description joins the block once) and a
suffix array whose frequency bound drops blocks.  Every build must keep
reproducing the fixture whether or not a shared context owns its input.

Regenerating the fixture (only when a scheme's output changes on purpose)::

    PYTHONPATH=src python tests/test_keyed_blocking.py
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest
from test_blocking_equivalence import (
    CLEANING,
    FAMILY_CLEANING,
    degenerate_inputs,
    random_clean_clean_task,
    random_dirty_collection,
    record,
)

from repro.blocking import clean_blocks
from repro.blocking.standard import (
    ExtendedQGramsBlocking,
    QGramsBlocking,
    StandardBlocking,
    SuffixArrayBlocking,
    attribute_key,
    soundex_key,
)
from repro.core.context import PipelineContext
from repro.text.tokenize import normalize


def _first_words(description):
    return [normalize(value).split(" ")[0] for value in description.values() if normalize(value)]


KEYED_BUILDERS = {
    "standard": lambda: StandardBlocking([attribute_key(["name"], length=4)]),
    "standard-multi": lambda: StandardBlocking(
        [attribute_key(["name"], length=4), soundex_key("name"), attribute_key(["city"])]
    ),
    # two key functions that always emit the same key
    "standard-same-key": lambda: StandardBlocking(
        [attribute_key(["name"], length=3), attribute_key(["name"], length=3)]
    ),
    # the first word of every value: one description often emits a key twice
    "standard-first-words": lambda: StandardBlocking([_first_words]),
    "qgrams": lambda: QGramsBlocking(),
    "qgrams-attributes": lambda: QGramsBlocking(q=4, attributes=["name", "city"]),
    "extended_qgrams": lambda: ExtendedQGramsBlocking(),
    "extended_qgrams-loose": lambda: ExtendedQGramsBlocking(
        q=2, threshold=0.6, attributes=["name"], max_qgrams_per_value=6
    ),
    "suffix_array": lambda: SuffixArrayBlocking(),
    # the frequency bound drops every suffix shared by more than 3 descriptions
    "suffix_array-bounded": lambda: SuffixArrayBlocking(min_suffix_length=3, max_block_size=3),
}

FIXTURE = Path(__file__).parent / "fixtures" / "blocking" / "keyed.json"


def keyed_cases():
    """``(case name, input, builder factory, cleaning)`` of every fixture case."""
    for kind, make, seeds in (
        ("dirty", random_dirty_collection, (3, 42, 97)),
        ("clean_clean", random_clean_clean_task, (3, 42)),
    ):
        for seed in seeds:
            for name, factory in KEYED_BUILDERS.items():
                for cleaning in FAMILY_CLEANING:
                    yield f"keyed/{kind}/{seed}/{name}/{cleaning}", (
                        functools.partial(make, seed), factory, cleaning
                    )
    for label in degenerate_inputs():
        for name, factory in KEYED_BUILDERS.items():
            for cleaning in FAMILY_CLEANING:
                yield f"degenerate/{label}/{name}/{cleaning}", (
                    lambda label=label: degenerate_inputs()[label], factory, cleaning
                )


def _freeze_fixture() -> None:
    cases = {}
    for name, (make, factory, cleaning) in keyed_cases():
        cases[name] = record(clean_blocks(factory().build(make()), **CLEANING[cleaning]))
    compact = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    lines = [f" {json.dumps(name)}: {compact(case)}" for name, case in sorted(cases.items())]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"froze {len(cases)} cases to {FIXTURE}")


@functools.lru_cache(maxsize=None)
def fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "name, make, factory, cleaning",
    [pytest.param(name, *spec, id=name) for name, spec in keyed_cases()],
)
def test_keyed_cases_reproduce_the_fixture(name, make, factory, cleaning):
    for shared in (False, True):
        data = make()
        builder = factory()
        built = builder.build(data, PipelineContext(data)) if shared else builder.build(data)
        assert record(clean_blocks(built, **CLEANING[cleaning])) == fixture()[name], (name, shared)


def test_the_fixture_covers_every_case():
    assert set(fixture()) == {name for name, _ in keyed_cases()}


def test_the_fixture_holds_a_repeated_key_and_a_binding_frequency_bound():
    cases = fixture()
    # a key emitted twice by one description still makes one membership
    for builder in ("standard-same-key", "standard-first-words"):
        head = cases[f"keyed/dirty/3/{builder}/none"]["head"]
        assert head and all(len(set(block[1])) == len(block[1]) for block in head)
    # the bound drops blocks the unbounded suffix array keeps
    data = random_dirty_collection(3)
    bounded = SuffixArrayBlocking(min_suffix_length=3, max_block_size=3).build(data)
    unbounded = SuffixArrayBlocking(min_suffix_length=3, max_block_size=len(data)).build(data)
    assert 0 < len(bounded) < len(unbounded)
    assert cases["keyed/dirty/3/suffix_array-bounded/none"]["count"] == len(bounded)


if __name__ == "__main__":
    _freeze_fixture()
