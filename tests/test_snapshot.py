"""Tests for the versioned columnar snapshot format (:mod:`repro.core.snapshot`).

The format is a service interface: the pure-Python writer must emit bytes
that NumPy's own loader accepts, the reader (an ``np.load`` memmap) must see
the values written, and malformed files, version or inventory mismatches
must fail loudly with :class:`SnapshotError` instead of misreading state.
"""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys
import warnings
from array import array
from pathlib import Path

import numpy as np
import pytest

from repro.core.growable import GrowableColumn
from repro.core.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    SnapshotReader,
    SnapshotWriter,
    read_npy,
    write_npy,
)

def test_npy_round_trip(tmp_path):
    values = array("q", [0, 1, -1, 2**62, -(2**62), 42])
    path = tmp_path / "col.npy"
    write_npy(path, [values], len(values))
    loaded = read_npy(path)
    assert list(loaded) == list(values)
    assert loaded[2] == -1
    assert list(loaded[1:3]) == [1, -1]


def test_npy_streams_multiple_chunks(tmp_path):
    path = tmp_path / "col.npy"
    write_npy(path, [array("q", [1, 2]), array("q", []), array("q", [3])], 3)
    assert list(read_npy(path)) == [1, 2, 3]


def test_npy_count_mismatch_is_an_error(tmp_path):
    with pytest.raises(ValueError):
        write_npy(tmp_path / "col.npy", [array("q", [1, 2])], 3)


def test_npy_data_section_is_64_byte_aligned(tmp_path):
    # the mapped int64 values start on a 64-byte boundary
    path = tmp_path / "col.npy"
    write_npy(path, [array("q", [7])], 1)
    raw = path.read_bytes()
    header_size = len(raw) - 8  # one int64 of payload
    assert header_size % 64 == 0


def test_numpy_reads_pure_python_bytes(tmp_path):
    values = array("q", range(-5, 100))
    path = tmp_path / "col.npy"
    write_npy(path, [values], len(values))
    loaded = np.load(str(path))
    assert loaded.dtype == np.int64
    assert loaded.ndim == 1
    assert loaded.tolist() == list(values)


def test_reader_reads_numpy_bytes(tmp_path):
    path = tmp_path / "col.npy"
    np.save(str(path), np.arange(17, dtype=np.int64))
    assert list(read_npy(path)) == list(range(17))


def _int64_npy(count: int = 3) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.arange(count, dtype=np.int64))
    return buffer.getvalue()


MALFORMED_COLUMNS = {
    "empty-file": b"",
    "bad-magic": b"\x93NUMPX" + _int64_npy()[6:],
    "unparsable-header": _int64_npy().replace(b"{'descr'", b"{'descr", 1),
    "untokenisable-header": _int64_npy().replace(b"(3,), }", b"(3,,   ", 1),
    "two-dimensional": _int64_npy().replace(b"(3,)", b"(1, 3)", 1),
    "wrong-dtype": _int64_npy().replace(b"<i8", b"<f8", 1),
    "short-data": _int64_npy()[:-8],
    "big-endian": _int64_npy().replace(b"<i8", b">i8", 1),
    "zero-dimensional": _int64_npy().replace(b"(3,)", b"()  ", 1),
    "object-dtype": _int64_npy().replace(b"'<i8'", b"'|O' ", 1),
    "negative-length": _int64_npy().replace(b"(3,), }", b"(-3,),}", 1),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_COLUMNS))
def test_malformed_column_file_is_a_snapshot_error(tmp_path, case):
    path = tmp_path / "col.npy"
    path.write_bytes(MALFORMED_COLUMNS[case])
    with pytest.raises(SnapshotError):
        read_npy(path)
    # and through a reader, named after the column (no checksums: the
    # header is what is under test, not the CRC)
    target = tmp_path / "snap"
    target.mkdir()
    (target / "col.npy").write_bytes(MALFORMED_COLUMNS[case])
    manifest = {"format_version": SNAPSHOT_FORMAT_VERSION, "columns": {"col": 3}, "strings": {}}
    (target / "manifest.json").write_text(json.dumps(manifest))
    with pytest.warns(RuntimeWarning, match="integrity cannot be verified"):
        reader = SnapshotReader(target)
    with pytest.raises(SnapshotError, match="column 'col'"):
        reader.column("col")


def test_snapshot_directory_round_trip(tmp_path):
    writer = SnapshotWriter(tmp_path / "snap")
    writer.column("numbers", array("q", [3, 1, 4, 1, 5]))
    writer.column("empty", array("q"))
    writer.strings("names", ["alpha", "", "βήτα", "gamma"])
    writer.meta(kind="unit-test", threshold=0.5)
    writer.close()

    reader = SnapshotReader(tmp_path / "snap")
    assert list(reader.column("numbers")) == [3, 1, 4, 1, 5]
    assert list(reader.column("empty")) == []
    assert reader.strings("names") == ["alpha", "", "βήτα", "gamma"]
    assert reader.meta == {"kind": "unit-test", "threshold": 0.5}
    with pytest.raises(KeyError):
        reader.column("missing")
    with pytest.raises(KeyError):
        reader.strings("numbers")


def _growable(values):
    column = GrowableColumn(chunk_size=7)
    column.extend(values)
    return column


def _growable_over_a_snapshot(values, directory):
    # a restored column: the first half memory-mapped, the rest appended
    half = len(values) // 2
    path = directory / "base.npy"
    write_npy(path, [array("q", values[:half])], half)
    column = GrowableColumn(base=read_npy(path), chunk_size=7)
    column.extend(values[half:])
    return column


#: Every kind of column source the writer accepts, built from a list of ints.
COLUMN_SOURCES = {
    "array": lambda values, _directory: array("q", values),
    "list": lambda values, _directory: list(values),
    "generator": lambda values, _directory: (value for value in values),
    "int64-ndarray": lambda values, _directory: np.array(values, dtype=np.int64),
    "int32-ndarray": lambda values, _directory: np.array(values, dtype=np.int32),
    "strided-ndarray": lambda values, _directory: np.repeat(
        np.array(values, dtype=np.int64), 2
    )[::2],
    "growable": lambda values, _directory: _growable(values),
    "growable-over-snapshot": _growable_over_a_snapshot,
}


@pytest.mark.parametrize("length", (0, 1, 50))
@pytest.mark.parametrize("source", sorted(COLUMN_SOURCES))
def test_every_column_source_writes_the_same_bytes(tmp_path, source, length):
    values = [(-1) ** i * (i * 7919 % 100_003) for i in range(length)]
    reference = tmp_path / "reference"
    with SnapshotWriter(reference) as writer:
        writer.column("col", array("q", values))
    target = tmp_path / "snap"
    with SnapshotWriter(target) as writer:
        writer.column("col", COLUMN_SOURCES[source](values, tmp_path))
    column = SnapshotReader(target).column("col")
    assert column.dtype == np.int64
    assert column.tolist() == values
    assert (target / "col.npy").read_bytes() == (reference / "col.npy").read_bytes()


def test_snapshot_rejects_duplicate_columns(tmp_path):
    writer = SnapshotWriter(tmp_path / "snap")
    writer.column("col", array("q", [1]))
    with pytest.raises(ValueError):
        writer.column("col", array("q", [2]))
    with pytest.raises(ValueError):
        writer.strings("col", ["x"])


#: entry names that are not a plain file inside the snapshot directory
HOSTILE_NAMES = ["../x", "a/b", "", "x\x00y", "a\\b", ".", ".."]


@pytest.mark.parametrize("name", HOSTILE_NAMES)
def test_writer_rejects_names_outside_the_snapshot(tmp_path, name):
    with SnapshotWriter(tmp_path / "snap") as writer:
        with pytest.raises(ValueError, match="snapshot column name"):
            writer.column(name, array("q", [1]))
        with pytest.raises(ValueError, match="snapshot column name"):
            writer.strings(name, ["x"])
    assert [path.name for path in tmp_path.iterdir()] == ["snap"]
    assert sorted(path.name for path in (tmp_path / "snap").iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("key", ["columns", "strings", "checksums"])
@pytest.mark.parametrize("name", HOSTILE_NAMES)
def test_reader_rejects_manifest_names_outside_the_snapshot(tmp_path, monkeypatch, key, name):
    from repro.core import snapshot as snapshot_module

    def no_file_access(*_args):
        raise AssertionError("the reader opened a data file")

    monkeypatch.setattr(snapshot_module, "read_npy", no_file_access)
    monkeypatch.setattr(snapshot_module, "_file_crc32", no_file_access)
    (tmp_path / "x.npy").write_bytes(b"outside the snapshot")
    snapshot = tmp_path / "snap"
    snapshot.mkdir()
    manifest = _valid_manifest()
    manifest[key] = {**manifest[key], name: [0, 1] if key == "checksums" else 1}
    (snapshot / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match=f"{key} entry {re.escape(repr(name))}"):
        SnapshotReader(snapshot)


def test_snapshot_requires_manifest(tmp_path):
    (tmp_path / "snap").mkdir()
    with pytest.raises(FileNotFoundError):
        SnapshotReader(tmp_path / "snap")


def test_snapshot_rejects_unknown_format_version(tmp_path):
    writer = SnapshotWriter(tmp_path / "snap")
    writer.column("col", array("q", [1]))
    writer.close()
    manifest_path = tmp_path / "snap" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="format version"):
        SnapshotReader(tmp_path / "snap")


def _valid_manifest() -> dict:
    return {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "format_minor": 1,
        "checksums": {"a.npy": [0, 136]},
        "columns": {"a": 1},
        "strings": {"s": 2},
        "meta": {},
    }


MALFORMED_MANIFESTS = {
    "top-level-list": lambda manifest: [manifest],
    "empty-checksum-pair": lambda manifest: {**manifest, "checksums": {"a.npy": []}},
    "string-checksum": lambda manifest: {**manifest, "checksums": {"a.npy": "x"}},
    "checksum-triple": lambda manifest: {**manifest, "checksums": {"a.npy": [1, 2, 3]}},
    "checksums-list": lambda manifest: {**manifest, "checksums": [1]},
    "columns-int": lambda manifest: {**manifest, "columns": 5},
    "negative-column-length": lambda manifest: {**manifest, "columns": {"a": -1}},
    "float-column-length": lambda manifest: {**manifest, "columns": {"a": 1.5}},
    "bool-column-length": lambda manifest: {**manifest, "columns": {"a": True}},
    "null-string-count": lambda manifest: {**manifest, "strings": {"s": None}},
    "meta-list": lambda manifest: {**manifest, "meta": []},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_shape_is_a_snapshot_error(tmp_path, case):
    (tmp_path / "manifest.json").write_text(
        json.dumps(MALFORMED_MANIFESTS[case](_valid_manifest()))
    )
    with pytest.raises(SnapshotError):
        SnapshotReader(tmp_path)


def test_valid_manifest_shape_opens(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps(_valid_manifest()))
    assert SnapshotReader(tmp_path).meta == {}


def test_snapshot_validates_column_lengths(tmp_path):
    writer = SnapshotWriter(tmp_path / "snap")
    writer.column("col", array("q", [1, 2, 3]))
    writer.close()
    # truncate the column behind the manifest's back
    write_npy(tmp_path / "snap" / "col.npy", [array("q", [1, 2])], 2)
    with pytest.raises(ValueError, match="manifest declares"):
        SnapshotReader(tmp_path / "snap").column("col")


# ----------------------------------------------------------------------
# integrity: every corruption must fail loudly, never misread
# ----------------------------------------------------------------------
def _write_sample_snapshot(target) -> None:
    with SnapshotWriter(target) as writer:
        writer.column("numbers", array("q", [3, 1, 4, 1, 5, 9, 2, 6]))
        writer.strings("names", ["alpha", "beta", "gamma"])
        writer.meta(kind="integrity-test")


def test_flipped_byte_fails_crc(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    payload = bytearray((target / "numbers.npy").read_bytes())
    payload[-1] ^= 0xFF  # corrupt the last data byte; length is unchanged
    (target / "numbers.npy").write_bytes(payload)
    with pytest.raises(SnapshotError, match="CRC32"):
        SnapshotReader(target).column("numbers")


def test_truncated_blob_is_detected(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    blob = (target / "names.blob").read_bytes()
    (target / "names.blob").write_bytes(blob[:-3])
    with pytest.raises(SnapshotError, match="truncated or overwritten"):
        SnapshotReader(target).strings("names")


def test_wrong_recorded_checksum_is_detected(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    manifest_path = target / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["checksums"]["numbers.npy"][0] ^= 0xDEAD
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match="CRC32"):
        SnapshotReader(target).column("numbers")


def test_missing_checksum_entry_is_detected(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    manifest_path = target / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["checksums"]["numbers.npy"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match="no checksum"):
        SnapshotReader(target).column("numbers")


def test_garbage_manifest_is_a_snapshot_error(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    (target / "manifest.json").write_text("{not json")
    with pytest.raises(SnapshotError, match="not valid JSON"):
        SnapshotReader(target)


def test_missing_data_file_is_partial(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    (target / "numbers.npy").unlink()
    with pytest.raises(SnapshotError, match="partial"):
        SnapshotReader(target).column("numbers")


def test_legacy_manifest_loads_with_warning(tmp_path):
    # snapshots written before format 1.1 carry neither a minor version nor
    # checksums: they must still load, but say so
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    manifest_path = target / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["checksums"]
    del manifest["format_minor"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.warns(RuntimeWarning, match="integrity cannot be verified"):
        reader = SnapshotReader(target)
    assert list(reader.column("numbers")) == [3, 1, 4, 1, 5, 9, 2, 6]
    assert reader.strings("names") == ["alpha", "beta", "gamma"]


DAMAGED_VERSIONING = {
    "no-checksums": lambda manifest: manifest.pop("checksums"),
    "no-minor": lambda manifest: manifest.pop("format_minor"),
    "null-checksums": lambda manifest: manifest.update(checksums=None),
    "minor-zero": lambda manifest: manifest.update(format_minor=0),
    "string-minor": lambda manifest: manifest.update(format_minor="2"),
    "bool-minor": lambda manifest: manifest.update(format_minor=True),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_VERSIONING))
def test_deleting_one_versioning_key_is_a_snapshot_error(tmp_path, case):
    # format 1.1 introduced the minor version and the checksums together:
    # a manifest with only one of them (or a minor that is not an integer
    # >= 1) is damaged, and must not load as an unverified legacy snapshot
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    manifest_path = target / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    DAMAGED_VERSIONING[case](manifest)
    manifest_path.write_text(json.dumps(manifest))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SnapshotError, match="checksum"):
            SnapshotReader(target)


def _rewrite_column(path: Path, edit) -> None:
    values = read_npy(path).tolist()
    edit(values)
    write_npy(path, [array("q", values)], len(values))


def _bump_last(values) -> None:
    values[-1] += 5


#: corruptions of a saved index's context entries that only the checksums
#: used to catch: each must name the entry
CONTEXT_CORRUPTIONS = {
    "pointer-overrun": (
        "context.token_ptr",
        lambda target: _rewrite_column(target / "context.token_ptr.npy", _bump_last),
    ),
    "out-of-vocabulary-id": (
        "context.token_ids",
        lambda target: _rewrite_column(
            target / "context.token_ids.npy",
            lambda values: values.__setitem__(0, 10**6),
        ),
    ),
    "offsets-past-the-blob": (
        "context.tokens",
        lambda target: _rewrite_column(target / "context.tokens.off.npy", _bump_last),
    ),
    "blob-not-utf8": (
        "context.tokens",
        lambda target: (target / "context.tokens.blob").write_bytes(
            b"\xff" + (target / "context.tokens.blob").read_bytes()[1:]
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(CONTEXT_CORRUPTIONS))
def test_unverified_context_corruption_is_a_snapshot_error(tmp_path, case):
    # a pre-1.1 manifest records no checksums, so the loader's own checks
    # are all that stands between a damaged context and silently wrong state
    from repro.datamodel.description import EntityDescription
    from repro.iterative.index import IncrementalIndex
    from repro.matching import ProfileSimilarityMatcher

    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    for number, name in enumerate(["alan turing", "alan m turing", "grace hopper"]):
        index.add(EntityDescription(f"p{number}", {"name": name, "city": "london"}))
    target = tmp_path / "snap"
    index.save(target)
    manifest_path = target / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["checksums"]
    del manifest["format_minor"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.warns(RuntimeWarning, match="integrity cannot be verified"):
        IncrementalIndex.load(target)  # the legacy manifest alone still loads
    entry, corrupt = CONTEXT_CORRUPTIONS[case]
    corrupt(target)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SnapshotError, match=re.escape(repr(entry))):
            IncrementalIndex.load(target)


# ----------------------------------------------------------------------
# crash safety: the target is always the old snapshot or the new one
# ----------------------------------------------------------------------
def _snapshot_bytes(target) -> dict:
    return {entry.name: entry.read_bytes() for entry in sorted(Path(target).iterdir())}


def test_overwrite_is_atomic_and_leaves_no_leftovers(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    with SnapshotWriter(target) as writer:
        writer.column("numbers", array("q", [42]))
        writer.strings("names", ["delta"])
    reader = SnapshotReader(target)
    assert list(reader.column("numbers")) == [42]
    assert reader.strings("names") == ["delta"]
    # no staging or displaced directories survive the swap
    assert [entry.name for entry in tmp_path.iterdir()] == ["snap"]


def test_abort_leaves_previous_snapshot_intact(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    before = _snapshot_bytes(target)
    writer = SnapshotWriter(target)
    writer.column("numbers", array("q", [7, 7, 7]))
    writer.abort()
    assert _snapshot_bytes(target) == before
    assert [entry.name for entry in tmp_path.iterdir()] == ["snap"]


def test_writer_exception_aborts_not_publishes(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    before = _snapshot_bytes(target)
    with pytest.raises(RuntimeError, match="boom"):
        with SnapshotWriter(target) as writer:
            writer.column("numbers", array("q", [9]))
            raise RuntimeError("boom")
    assert _snapshot_bytes(target) == before
    assert [entry.name for entry in tmp_path.iterdir()] == ["snap"]


def test_unfinished_writer_never_touches_target(tmp_path):
    target = tmp_path / "snap"
    writer = SnapshotWriter(target)
    writer.column("numbers", array("q", [1, 2, 3]))
    # no close(): the target must not exist at all
    assert not target.exists()
    writer.abort()


def test_save_killed_mid_write_leaves_old_snapshot_loadable(tmp_path):
    """The satellite regression: SIGKILL during ``IncrementalIndex.save``
    over an existing snapshot must leave the old snapshot byte-identical
    and loadable -- the all-or-nothing overwrite contract."""
    from repro.datasets import DatasetConfig, generate_dirty_dataset
    from repro.iterative.index import IncrementalIndex
    from repro.matching import ProfileSimilarityMatcher

    dataset = generate_dirty_dataset(DatasetConfig(num_entities=15, seed=3))
    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    for description in dataset.collection:
        index.add(description)
    target = tmp_path / "snap"
    index.save(target)
    before = _snapshot_bytes(target)

    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    script = f"""
import os, signal, sys
sys.path.insert(0, {src_dir!r})
from repro.core import snapshot
from repro.datasets import DatasetConfig, generate_dirty_dataset
from repro.iterative.index import IncrementalIndex
from repro.matching import ProfileSimilarityMatcher

calls = [0]
original = snapshot.SnapshotWriter.column
def dying(self, name, values):
    calls[0] += 1
    if calls[0] > 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return original(self, name, values)
snapshot.SnapshotWriter.column = dying

dataset = generate_dirty_dataset(DatasetConfig(num_entities=25, seed=7))
index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
for description in dataset.collection:
    index.add(description)
index.save({str(target)!r})
"""
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == -9, completed.stderr  # died by SIGKILL mid-save
    # the target is byte-identical to the pre-crash snapshot and loads
    assert _snapshot_bytes(target) == before
    restored = IncrementalIndex.load(target)
    assert restored.clusters() == index.clusters()
    # the crashed child's staging directory is the only debris; the target
    # itself was never touched
    debris = [e.name for e in tmp_path.iterdir() if e.name != "snap"]
    assert all(name.startswith(".snap.tmp-") for name in debris)


def test_snapshot_bytes_are_deterministic(tmp_path):
    """Two saves of the same state write the same bytes, file for file."""
    from repro.datasets import DatasetConfig, generate_dirty_dataset
    from repro.iterative.index import IncrementalIndex
    from repro.matching import ProfileSimilarityMatcher

    dataset = generate_dirty_dataset(DatasetConfig(num_entities=15, seed=3))
    digests = []
    for attempt in range(2):
        index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
        for description in dataset.collection:
            index.add(description)
        target = tmp_path / f"snap-{attempt}"
        index.save(target)
        digests.append({entry.name: entry.read_bytes() for entry in sorted(target.iterdir())})
    assert digests[0] == digests[1]
