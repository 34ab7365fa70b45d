"""Versioned on-disk snapshots of flat columnar state.

The incremental-ER index (ROADMAP item 2) is an always-on service component:
its resolution state -- a growable vocabulary, merged distinct ids,
union--find parents, cluster postings -- must survive a restart without
re-interning the whole arrival history.  This module is the persistence primitive that makes
that possible: a snapshot is a **directory of ``.npy`` files plus a
``manifest.json``**, written with a pure-Python ``.npy`` v1.0 writer, so the
bytes on disk do not depend on the installed NumPy version.

Design rules:

* **One format, one reader.**  Columns are standard one-dimensional
  little-endian ``.npy`` arrays (``<i8``), opened with
  ``np.load(mmap_mode="r")``: a loaded column is a zero-copy view over the
  file.  A malformed column file raises :class:`SnapshotError`.
* **Strings as blob + offsets.**  A string column is a raw UTF-8
  concatenation (``<name>.blob``) plus an ``int64`` offset column of length
  ``n + 1`` -- the same CSR shape as every other column.
* **Versioned manifest.**  ``manifest.json`` records
  :data:`SNAPSHOT_FORMAT_VERSION`, the column/string inventory with lengths
  (validated on load) and a free-form ``meta`` mapping for the writer's own
  configuration.  Its shape is checked when a reader opens it: a manifest
  that is not an object, or an inventory or checksum table of the wrong
  shape, raises :class:`SnapshotError`.  So does an entry name that is not
  a plain file name (empty, ``.``, ``..``, or holding ``/``, ``\\`` or NUL),
  before any file is opened; the writer refuses such a name with
  :class:`ValueError`.  A reader refuses manifests whose major format version it
  does not know -- snapshots are a service interface, failing loudly beats
  misreading state.
* **Crash-safe writes** (format 1.1).  The writer stages every file in a
  hidden temporary directory next to the target and only on :meth:`close
  <SnapshotWriter.close>` -- after the manifest is on disk -- swaps it into
  place with directory renames.  A crash at *any* earlier point leaves the
  target untouched: either the previous snapshot in full, or nothing.
  Overwriting an existing snapshot is therefore all-or-nothing too, and on
  Linux readers holding memory-maps into the replaced snapshot keep reading
  consistent (old) bytes -- the mappings pin the unlinked files.
* **Tamper-evident loads** (format 1.1).  The manifest records a CRC32 and
  byte length for every data file; readers verify them on first access and
  reject truncated or corrupted files with a precise :class:`SnapshotError`.
  Manifests written before 1.1 (neither a ``format_minor`` nor a
  ``checksums`` key) still load, with a :class:`RuntimeWarning` that
  integrity cannot be verified; any other manifest must record an integer
  ``format_minor >= 1`` *and* its checksums, so deleting one key raises
  :class:`SnapshotError` instead of switching the checks off.

The module is deliberately generic: it knows nothing about entity resolution,
only about named int64 columns, named string columns and a metadata dict.
:class:`~repro.core.growable.GrowableContext` and
:class:`~repro.iterative.index.IncrementalIndex` layer their schemas on top.
"""

from __future__ import annotations

import json
import os
import secrets
import shutil
import struct
import tokenize
import warnings
import zlib
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as _np

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "SnapshotReader",
    "SnapshotWriter",
    "read_npy",
    "write_npy",
]

#: Version of the on-disk layout.  Bump on any incompatible change to the
#: column schema or encoding; readers require an exact match.
SNAPSHOT_FORMAT_VERSION = 1

#: Minor revision: 1 added per-file CRC32/length checksums and the atomic
#: temp-dir write; 2 dropped the growable context's columns nothing reads
#: (per-attribute slots, attribute names, merged counts).  Readers accept
#: any minor >= 1 under the same major, with its checksums: entries are
#: opened by name, so columns a reader does not ask for are never read.  A
#: manifest without a minor is format 1.0 and must carry no checksums either.
SNAPSHOT_FORMAT_MINOR = 2

_MAGIC = b"\x93NUMPY"
_INT64 = "<i8"
_MANIFEST = "manifest.json"


class SnapshotError(ValueError):
    """A snapshot is unreadable: truncated, corrupted, partial or mismatched.

    Subclasses :class:`ValueError` so pre-existing callers catching the old
    generic errors keep working; new code should catch :class:`SnapshotError`
    to distinguish integrity failures from ordinary bad arguments.
    """


def _is_entry_name(name: str) -> bool:
    """Whether ``name`` can only name a file directly inside the snapshot."""
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\x00")


def _file_crc32(path: Path) -> int:
    """CRC32 of a file's bytes, streamed in 1 MiB chunks."""
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


# ----------------------------------------------------------------------
# .npy primitives
# ----------------------------------------------------------------------
def _npy_header(count: int, descr: str) -> bytes:
    """A NumPy-format 1.0 header for a 1-D array, padded numpy-style.

    The header dict uses the exact literal layout ``np.lib.format`` emits and
    is padded with spaces so the data section starts on a 64-byte boundary,
    which keeps the memory-mapped int64 values aligned.
    """
    header = "{'descr': '%s', 'fortran_order': False, 'shape': (%d,), }" % (
        descr,
        count,
    )
    text = header.encode("latin1")
    unpadded = len(_MAGIC) + 2 + 2 + len(text) + 1  # magic, version, length, newline
    text += b" " * ((-unpadded) % 64) + b"\n"
    return _MAGIC + b"\x01\x00" + struct.pack("<H", len(text)) + text


def write_npy(path: Union[str, Path], chunks: Iterable[Any], count: int) -> None:
    """Write int64 buffers as one 1-D little-endian ``.npy`` file.

    ``chunks`` is any iterable of buffer-protocol objects (``array('q')``,
    ``memoryview`` views, NumPy arrays) whose element counts sum to
    ``count``; they are streamed straight to the file, so growable columns
    persist without a flat copy.
    """
    path = Path(path)
    written = 0
    with open(path, "wb") as handle:
        handle.write(_npy_header(count, _INT64))
        for chunk in chunks:
            view = memoryview(chunk)
            if view.format != "q" and view.format != "<q":
                view = view.cast("B").cast("q")
            written += len(view)
            handle.write(view)
    if written != count:
        raise ValueError(f"{path.name}: wrote {written} values, declared {count}")


def read_npy(path: Union[str, Path]) -> Sequence[int]:
    """Memory-map a 1-D int64 ``.npy`` file back as a zero-copy ``np.memmap`` view.

    A file that is not such a column -- empty, a bad magic string, an
    unparsable header, another shape or dtype, fewer bytes than its header
    declares -- raises :class:`SnapshotError`; a missing file raises
    :class:`OSError`.
    """
    path = Path(path)
    try:
        loaded = _np.load(str(path), mmap_mode="r")
    except (ValueError, EOFError, tokenize.TokenError) as error:
        raise SnapshotError(f"{path.name}: not a readable .npy column ({error})") from error
    if loaded.ndim != 1 or loaded.dtype != _np.int64:
        raise SnapshotError(
            f"{path.name}: expected a 1-D {_INT64} column, got shape "
            f"{loaded.shape} of {loaded.dtype.str}"
        )
    return loaded


# ----------------------------------------------------------------------
# snapshot directories
# ----------------------------------------------------------------------
def _chunks_of(values: Any) -> "tuple[List[Any], int]":
    """Buffer chunks + total element count of any supported column source."""
    chunks = getattr(values, "chunks", None)
    if callable(chunks):  # GrowableColumn-style
        return list(chunks()), len(values)
    if isinstance(values, array) and values.typecode == "q":
        return [values], len(values)
    if isinstance(values, _np.ndarray):
        return [_np.ascontiguousarray(values, dtype=_np.int64)], len(values)
    flat = array("q", values)
    return [flat], len(flat)


class SnapshotWriter:
    """Writes named columns, string tables and metadata into a directory.

    Crash-safe: every file is staged in a hidden sibling directory
    (``.<name>.tmp-<pid>-<token>``) and :meth:`close` swaps the staging
    directory into place only after the manifest -- checksums included -- is
    fully on disk.  Until that final rename the target path is untouched, so
    a writer killed mid-save (even between columns) leaves any previous
    snapshot at ``path`` loadable and never exposes a partial one.

    Use as a context manager for exception safety: ``__exit__`` calls
    :meth:`close` on success and :meth:`abort` (removing the staging
    directory) when the body raised.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        parent = self.path.parent
        parent.mkdir(parents=True, exist_ok=True)
        self._staging = parent / (
            f".{self.path.name}.tmp-{os.getpid()}-{secrets.token_hex(4)}"
        )
        self._staging.mkdir()
        self._columns: Dict[str, int] = {}
        self._strings: Dict[str, int] = {}
        self._meta: Dict[str, Any] = {}
        self._checksums: Dict[str, "tuple[int, int]"] = {}
        self._finished = False

    def _record(self, filename: str) -> None:
        path = self._staging / filename
        self._checksums[filename] = (_file_crc32(path), path.stat().st_size)

    def _claim(self, name: str) -> None:
        """Reject a duplicate ``name`` or one that is not a plain file name."""
        if not _is_entry_name(name):
            raise ValueError(
                f"snapshot column name {name!r} is empty, '.', '..' or holds "
                "'/', '\\' or NUL"
            )
        if name in self._columns or name in self._strings:
            raise ValueError(f"duplicate snapshot column {name!r}")

    def column(self, name: str, values: Any) -> None:
        """Persist an int64 column under ``name``."""
        self._claim(name)
        chunks, count = _chunks_of(values)
        write_npy(self._staging / f"{name}.npy", chunks, count)
        self._record(f"{name}.npy")
        self._columns[name] = count

    def strings(self, name: str, values: Sequence[str]) -> None:
        """Persist a string column as a UTF-8 blob plus int64 offsets."""
        self._claim(name)
        offsets = array("q", [0])
        pieces: List[bytes] = []
        total = 0
        for value in values:
            encoded = value.encode("utf-8")
            pieces.append(encoded)
            total += len(encoded)
            offsets.append(total)
        (self._staging / f"{name}.blob").write_bytes(b"".join(pieces))
        self._record(f"{name}.blob")
        write_npy(self._staging / f"{name}.off.npy", [offsets], len(offsets))
        self._record(f"{name}.off.npy")
        self._strings[name] = len(values)

    def meta(self, **entries: Any) -> None:
        """Merge JSON-serialisable entries into the manifest metadata."""
        self._meta.update(entries)

    def close(self) -> None:
        """Finalise the manifest and atomically publish the snapshot.

        The staging directory replaces ``path`` via renames: a pre-existing
        snapshot is renamed aside first and removed only after the new one is
        in place, so no observer ever sees a missing or half-written target.
        """
        if self._finished:
            return
        manifest = {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "format_minor": SNAPSHOT_FORMAT_MINOR,
            "checksums": {
                filename: list(entry) for filename, entry in self._checksums.items()
            },
            "columns": self._columns,
            "strings": self._strings,
            "meta": self._meta,
        }
        (self._staging / _MANIFEST).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        self._finished = True
        if self.path.exists():
            # the snapshot becomes visible in one rename; the displaced old
            # directory is only deleted afterwards (and live memory-maps of
            # its files survive the unlink on POSIX)
            displaced = self.path.parent / f"{self._staging.name}.old"
            os.rename(self.path, displaced)
            os.rename(self._staging, self.path)
            shutil.rmtree(displaced)
        else:
            os.rename(self._staging, self.path)

    def abort(self) -> None:
        """Discard the staging directory; the target path is untouched."""
        if self._finished:
            return
        self._finished = True
        shutil.rmtree(self._staging, ignore_errors=True)

    def __enter__(self) -> "SnapshotWriter":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()

    def __del__(self) -> None:  # pragma: no cover - safety net only
        try:
            self.abort()
        except Exception:
            pass


def _is_count(value: Any) -> bool:
    return type(value) is int and value >= 0


def _is_checksum(value: Any) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_count, value))


def _check_entries(
    manifest_path: Path, key: str, entries: Any, valid: Callable[[Any], bool], expected: str
) -> None:
    """Raise :class:`SnapshotError` unless ``entries`` maps plain file names
    (see :func:`_is_entry_name`) to valid values."""
    if not isinstance(entries, dict):
        raise SnapshotError(
            f"snapshot manifest at {manifest_path}: {key!r} is not a mapping; "
            "the snapshot is corrupted"
        )
    for name, value in entries.items():
        if not _is_entry_name(name):
            raise SnapshotError(
                f"snapshot manifest at {manifest_path}: {key} entry {name!r} is not "
                "a file name inside the snapshot; the snapshot is corrupted"
            )
        if not valid(value):
            raise SnapshotError(
                f"snapshot manifest at {manifest_path}: {key}[{name!r}] is {value!r}, "
                f"expected {expected}; the snapshot is corrupted"
            )


class SnapshotReader:
    """Opens a snapshot directory, validating version, inventory and integrity.

    Every data file is verified against the manifest's recorded byte length
    and CRC32 on first access (and cached as verified); a truncated or
    corrupted file raises a precise :class:`SnapshotError` instead of
    returning silently wrong state.  Snapshots written before format 1.1
    carry neither a minor version nor checksums: they load, with a
    :class:`RuntimeWarning` that integrity cannot be verified.  A manifest
    with only one of the two raises :class:`SnapshotError`.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        manifest_path = self.path / _MANIFEST
        if not manifest_path.is_file():
            raise FileNotFoundError(f"no snapshot manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise SnapshotError(
                f"snapshot manifest at {manifest_path} is not valid JSON "
                f"({error}); the snapshot is corrupted"
            ) from error
        if not isinstance(manifest, dict):
            raise SnapshotError(
                f"snapshot manifest at {manifest_path} is not a JSON object; "
                "the snapshot is corrupted"
            )
        version = manifest.get("format_version")
        if version != SNAPSHOT_FORMAT_VERSION:
            raise SnapshotError(
                f"snapshot format version {version!r} is not supported "
                f"(this build reads version {SNAPSHOT_FORMAT_VERSION})"
            )
        for key in ("columns", "strings"):
            if key not in manifest:
                raise SnapshotError(
                    f"snapshot manifest at {manifest_path} is missing its "
                    f"{key!r} inventory; the snapshot is corrupted or partial"
                )
            _check_entries(manifest_path, key, manifest[key], _is_count, "a count >= 0")
        self._columns: Dict[str, int] = manifest["columns"]
        self._strings: Dict[str, int] = manifest["strings"]
        self.meta: Dict[str, Any] = manifest.get("meta", {})
        if not isinstance(self.meta, dict):
            raise SnapshotError(
                f"snapshot manifest at {manifest_path}: 'meta' is not a mapping; "
                "the snapshot is corrupted"
            )
        # format 1.1 introduced both keys: a manifest with only one of them
        # is damaged, not legacy, and must not switch the checksums off
        self._checksums: Optional[Dict[str, Any]] = manifest.get("checksums")
        if "format_minor" in manifest or "checksums" in manifest:
            minor = manifest.get("format_minor")
            if not (type(minor) is int and minor >= 1 and "checksums" in manifest):
                found = f"format_minor {minor!r}" if "format_minor" in manifest else "no format_minor"
                raise SnapshotError(
                    f"snapshot manifest at {manifest_path} records {found} and "
                    f"{'a' if 'checksums' in manifest else 'no'} checksum table; a 1.1+ "
                    "manifest records an integer minor >= 1 and checksums, a 1.0 manifest "
                    "neither: the manifest is corrupted"
                )
            _check_entries(
                manifest_path,
                "checksums",
                self._checksums,
                _is_checksum,
                "a [CRC32, byte length] pair of integers",
            )
        self._verified: "set[str]" = set()
        if self._checksums is None:
            warnings.warn(
                f"snapshot at {self.path} predates format 1.1 and records no "
                "checksums; file integrity cannot be verified",
                RuntimeWarning,
                stacklevel=2,
            )

    def _verify(self, filename: str) -> None:
        """Check ``filename`` against its recorded length and CRC32 (cached)."""
        if self._checksums is None or filename in self._verified:
            return
        entry = self._checksums.get(filename)
        if entry is None:
            raise SnapshotError(
                f"snapshot manifest records no checksum for {filename!r}; "
                "the manifest is corrupted or partial"
            )
        expected_crc, expected_bytes = entry
        path = self.path / filename
        actual_bytes = path.stat().st_size
        if actual_bytes != expected_bytes:
            raise SnapshotError(
                f"snapshot file {filename!r} holds {actual_bytes} bytes but the "
                f"manifest records {expected_bytes}; the file is truncated or "
                "overwritten"
            )
        actual_crc = _file_crc32(path)
        if actual_crc != expected_crc:
            raise SnapshotError(
                f"snapshot file {filename!r} fails its CRC32 check "
                f"(recorded {expected_crc:#010x}, computed {actual_crc:#010x}); "
                "the file is corrupted"
            )
        self._verified.add(filename)

    def _open_npy(self, label: str, filename: str) -> Sequence[int]:
        path = self.path / filename
        if not path.is_file():
            raise SnapshotError(
                f"{label}: snapshot file {filename!r} is missing; "
                "the snapshot is partial"
            )
        try:
            return read_npy(path)
        except (ValueError, OSError) as error:
            raise SnapshotError(
                f"{label}: snapshot file {filename!r} is unreadable ({error}); "
                "the file is truncated or corrupted"
            ) from error

    def require(self, columns: Sequence[str] = (), strings: Sequence[str] = ()) -> None:
        """Raise :class:`SnapshotError` naming the first of a loader's
        required ``columns`` / ``strings`` the inventory lacks."""
        for kind, names, inventory in (
            ("column", columns, self._columns),
            ("string column", strings, self._strings),
        ):
            for name in names:
                if name not in inventory:
                    raise SnapshotError(
                        f"snapshot at {self.path} has no {kind} {name!r}; "
                        "the manifest is corrupted or partial"
                    )

    def column(self, name: str) -> Sequence[int]:
        """Memory-mapped view of the int64 column ``name``, integrity-checked."""
        if name not in self._columns:
            raise KeyError(f"snapshot has no column {name!r}")
        view = self._open_npy(f"column {name!r}", f"{name}.npy")
        # the element-count check runs first so a swapped-in shorter column
        # reports its length mismatch, not just a checksum failure
        if len(view) != self._columns[name]:
            raise SnapshotError(
                f"column {name!r}: manifest declares {self._columns[name]} "
                f"values, file holds {len(view)}"
            )
        self._verify(f"{name}.npy")
        return view

    def _corrupted(self, what: str) -> SnapshotError:
        return SnapshotError(f"snapshot at {self.path}: {what}; the snapshot is corrupted")

    def values(self, name: str, low: int, high: int) -> Sequence[int]:
        """The column ``name``; raises :class:`SnapshotError` naming it
        unless every value lies in ``[low, high)``."""
        view = self.column(name)
        if len(view) and (int(view.min()) < low or int(view.max()) >= high):
            raise self._corrupted(f"column {name!r} holds a value outside [{low}, {high})")
        return view

    def _check_offsets(self, label: str, offsets: Sequence[int], rows: int, end: int) -> None:
        """Raise :class:`SnapshotError` naming ``label`` unless ``offsets``
        are ``rows + 1`` non-decreasing values from 0 to ``end``."""
        if len(offsets) != rows + 1:
            problem = f"holds {len(offsets)} offsets for {rows} rows"
        elif offsets[0] != 0 or offsets[-1] != end:
            problem = f"runs from {offsets[0]} to {offsets[-1]}, not from 0 to {end}"
        elif (_np.diff(offsets) < 0).any():
            problem = "decreases"
        else:
            return
        raise self._corrupted(f"{label} {problem}")

    def csr(
        self, pointers: str, data: str, rows: int, low: int, high: int
    ) -> "tuple[Sequence[int], Sequence[int]]":
        """The CSR of ``rows`` rows stored as the columns ``pointers`` and ``data``.

        Raises :class:`SnapshotError` naming the column unless there are
        ``rows + 1`` non-decreasing pointers from 0 to the data length and
        every data value lies in ``[low, high)``.  Both views are returned
        as read.
        """
        pointer_view = self.column(pointers)
        data_view = self.column(data)
        self._check_offsets(f"column {pointers!r}", pointer_view, rows, len(data_view))
        return pointer_view, self.values(data, low, high)

    def strings(self, name: str) -> List[str]:
        """The string column ``name``, decoded eagerly and integrity-checked."""
        if name not in self._strings:
            raise KeyError(f"snapshot has no string column {name!r}")
        blob_path = self.path / f"{name}.blob"
        if not blob_path.is_file():
            raise SnapshotError(
                f"string column {name!r}: snapshot file {blob_path.name!r} is "
                "missing; the snapshot is partial"
            )
        self._verify(f"{name}.blob")
        blob = blob_path.read_bytes()
        offsets = self._open_npy(f"string column {name!r}", f"{name}.off.npy")
        self._verify(f"{name}.off.npy")
        self._check_offsets(f"string column {name!r}", offsets, self._strings[name], len(blob))
        bounds = offsets.tolist()
        try:
            return [blob[start:stop].decode("utf-8") for start, stop in zip(bounds, bounds[1:])]
        except UnicodeDecodeError as error:
            raise self._corrupted(f"string column {name!r} is not UTF-8 ({error})") from error
