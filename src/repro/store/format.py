"""Columnar on-disk entry format of the snapshot store.

One **entry** is one uncompressed ``.npz`` file holding one named numpy
array per column — the same one-array-per-field layout the shared-memory
publisher of :mod:`repro.parallel.shm` uses, persisted instead of mapped.
Alongside the data columns every entry carries a ``__meta__`` column: the
UTF-8 JSON header with the store format name/version, the entry ``kind``
(``"timer"``, ``"allpairs"``, ``"montecarlo"``, ``"extraction"``,
``"model"``, ...), the **revision key** ``(graph_id, revision)`` the
snapshot was taken at, the codec metadata, and the authoritative column
list (so a silently dropped member is detected instead of mis-parsed).

Entries are written atomically (temp file + ``os.replace``) and read
defensively: any unreadable file — truncated zip, garbage bytes, missing
``__meta__``, undeclared or absent columns, a column whose data runs past
its member, bad JSON — raises :class:`~repro.errors.StoreCorruptError`; a
kind mismatch raises :class:`~repro.errors.StoreKeyError`.

Layout.  Members are stored uncompressed (``ZIP_STORED``), so each column
is a plain ``.npy`` byte range at a fixed offset inside the file.
:func:`write_entry` streams every array's buffer straight into its member
(no ``tobytes`` copies) and starts every member's data on a 64-byte
boundary: a padding extra field in the member's local zip header aligns
the ``.npy`` header, which numpy already pads to 64 bytes, so the array
data is aligned too.  The file stays a plain ``.npz`` that ``np.load``
reads.

Mapped reads.  ``np.load(mmap_mode=...)`` silently ignores the request for
npz archives, so the store does the offset arithmetic itself: it parses
each member's local zip header and ``.npy`` header for the data offset,
checks the data's byte range against its member and the file, and hands
out views of **one** mapping of the whole file per entry (one open
descriptor, however many columns).  ``read_entry(..., mmap=True)``
returns read-only ``np.memmap`` views.  The session loaders of
:mod:`repro.store.snapshot` map the entry copy-on-write instead: their
views are writable and private, a session that patches one owns only the
pages it wrote, and the file never changes.  They copy a column that is
not 64-byte aligned (every entry written before the aligned layout), so
old entries load at the old cost and give the same bits.  Columns that
cannot be mapped (compressed, Fortran-ordered, zero-sized, object dtype)
are read into memory.

A mapping keeps the bytes of the file it was made from: the store only
ever replaces entries by rename (a save, a quarantine), which leaves a
live mapping intact.  Never truncate or rewrite an entry in place while a
session restored from it is alive: on POSIX systems its pages past the
new end raise ``SIGBUS`` when touched, and rewritten pages may show
through.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import StoreCorruptError, StoreKeyError

__all__ = [
    "META_COLUMN",
    "STORE_FORMAT_NAME",
    "STORE_FORMAT_VERSION",
    "StoreEntry",
    "quarantine_entry",
    "read_entry",
    "write_entry",
]

STORE_FORMAT_NAME = "repro-store"
STORE_FORMAT_VERSION = 1

#: Reserved column holding the entry's UTF-8 JSON header.
META_COLUMN = "__meta__"

#: Byte boundary every member's data starts on (numpy's ``.npy`` header
#: pads to the same boundary, so the array data lands on it too).
_ALIGN = 64

#: Header id of the zip extra field that pads a local header to
#: ``_ALIGN`` (the id Android's zipalign uses: a 2-byte alignment, then
#: zero bytes).
_ALIGN_EXTRA_ID = 0xD935


@dataclass(frozen=True)
class StoreEntry:
    """One decoded store entry: revision key, codec metadata and columns."""

    path: Path
    kind: str
    graph_id: str
    revision: int
    meta: Dict[str, Any]
    columns: Dict[str, np.ndarray]

    def nbytes_report(self) -> Dict[str, int]:
        """Byte accounting of the loaded columns plus the on-disk size."""
        report = {name: int(array.nbytes) for name, array in self.columns.items()}
        report["total"] = sum(report.values())
        report["file_bytes"] = int(self.path.stat().st_size) if self.path.exists() else 0
        return report


def write_entry(
    path: Union[str, Path],
    kind: str,
    graph_id: str,
    revision: int,
    columns: Mapping[str, np.ndarray],
    meta: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write one revision-keyed columnar entry atomically; returns the path."""
    path = Path(path)
    if not kind or not kind.replace("_", "").isalnum():
        raise ValueError("entry kind must be a non-empty identifier, got %r" % (kind,))
    arrays: Dict[str, np.ndarray] = {}
    for name, value in columns.items():
        if name == META_COLUMN:
            raise ValueError("column name %r is reserved for the header" % META_COLUMN)
        array = np.asarray(value)
        if array.dtype.hasobject:
            raise ValueError(
                "column %r has object dtype %r; the store holds plain "
                "numeric/boolean/string columns only" % (name, array.dtype)
            )
        arrays[name] = array

    header = {
        "format": STORE_FORMAT_NAME,
        "version": STORE_FORMAT_VERSION,
        "kind": kind,
        "graph_id": str(graph_id),
        "revision": int(revision),
        "meta": meta or {},
        "columns": sorted(arrays),
    }
    encoded = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )

    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            with zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED) as archive:
                _write_member(archive, handle, META_COLUMN, encoded)
                for name, array in arrays.items():
                    _write_member(archive, handle, name, array)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    # Chaos seam: an armed store plan (repro.faults) tears the entry we
    # just renamed into place — the deterministic stand-in for a torn
    # write or silent media corruption that the atomic rename cannot
    # guard against.  A no-op unless a plan is active.
    from repro.faults import store_fault_point

    store_fault_point(path)
    return path


def _write_member(archive: zipfile.ZipFile, handle, name: str, array: np.ndarray) -> None:
    """Stream one column into ``archive`` as ``<name>.npy``, data aligned.

    The ``.npy`` header is numpy's own; the array's buffer goes to the
    file as is, with no ``tobytes`` copy (only a non C-contiguous array is
    copied first).  Every member is written as zip64, as ``np.savez``
    writes them.  The padding extra field goes into the local header only:
    the central directory keeps the member's plain record.
    """
    if not array.flags.c_contiguous:
        array = np.ascontiguousarray(array)
    npy = io.BytesIO()
    header = np.lib.format.header_data_from_array_1_0(array)
    try:
        np.lib.format.write_array_header_1_0(npy, header)
    except ValueError:  # a header too long for version 1.0
        np.lib.format.write_array_header_2_0(npy, header)
    info = zipfile.ZipInfo(name + ".npy")
    info.file_size = npy.tell() + array.nbytes
    info.compress_size = info.CRC = 0  # as archive.open sets them
    gap = -(handle.tell() + len(info.FileHeader(zip64=True))) % _ALIGN
    if gap:
        # The field takes at least 6 bytes: its id, its length, the alignment.
        gap += _ALIGN if gap < 6 else 0
        info.extra = struct.pack("<HHH", _ALIGN_EXTRA_ID, gap - 4, _ALIGN) + bytes(gap - 6)
    with archive.open(info, "w", force_zip64=True) as member:
        member.write(npy.getvalue())
        if array.nbytes:
            member.write(array.reshape(-1).view(np.uint8))
    info.extra = b""


def quarantine_entry(path: Union[str, Path]) -> Path:
    """Move an unreadable entry aside as ``<name>.corrupt``; returns the new path.

    The rename keeps the evidence for post-mortems while freeing the
    entry's name so the next save can write a healthy replacement.  An
    occupied quarantine name falls through to ``.corrupt.1``,
    ``.corrupt.2``, ... — repeated corruption never overwrites earlier
    evidence.
    """
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    serial = 0
    while target.exists():
        serial += 1
        target = path.with_name("%s.corrupt.%d" % (path.name, serial))
    os.replace(path, target)
    return target


def _read_header(path: Path, archive: zipfile.ZipFile) -> Dict[str, Any]:
    members = set(archive.namelist())
    member = META_COLUMN + ".npy"
    if member not in members:
        raise StoreCorruptError(
            "store entry %s has no %r header column" % (path, META_COLUMN)
        )
    with archive.open(member) as handle:
        encoded = np.lib.format.read_array(handle, allow_pickle=False)
    header = json.loads(bytes(encoded.tobytes()).decode("utf-8"))
    if not isinstance(header, dict):
        raise StoreCorruptError("store entry %s header is not a JSON object" % path)
    if header.get("format") != STORE_FORMAT_NAME:
        raise StoreCorruptError(
            "store entry %s is not a %s entry (format=%r)"
            % (path, STORE_FORMAT_NAME, header.get("format"))
        )
    version = header.get("version")
    if not isinstance(version, int) or version != STORE_FORMAT_VERSION:
        raise StoreCorruptError(
            "store entry %s has unsupported format version %r (this build "
            "reads version %d)" % (path, version, STORE_FORMAT_VERSION)
        )
    for field, types in (
        ("kind", str), ("graph_id", str), ("revision", int),
        ("meta", dict), ("columns", list),
    ):
        if not isinstance(header.get(field), types):
            raise StoreCorruptError(
                "store entry %s header is missing a valid %r field" % (path, field)
            )
    if not all(isinstance(name, str) for name in header["columns"]):
        raise StoreCorruptError(
            "store entry %s header lists a column name that is not a string" % path
        )
    return header


def _column_layout(
    path: Path, handle, info: zipfile.ZipInfo, name: str, file_size: int
) -> Optional[Tuple[int, np.dtype, Tuple[int, ...]]]:
    """``(data offset, dtype, shape)`` of one stored column, or ``None``.

    Parses the member's *local* zip header (its name/extra lengths can
    differ from the central directory's) to find the raw ``.npy`` bytes,
    then the npy magic/array header to find the data offset.  Anything
    unusual — compression, Fortran order, an unknown npy version, an empty
    array — returns ``None`` so the caller reads the member instead.  Data
    that runs past its member or the file raises: a view of it would show
    the next member's bytes, or fault when touched.
    """
    if info.compress_type != zipfile.ZIP_STORED:
        return None
    handle.seek(info.header_offset)
    local = handle.read(30)
    if len(local) != 30 or local[:4] != b"PK\x03\x04":
        raise StoreCorruptError(
            "store entry %s member %r has a corrupt local header" % (path, name)
        )
    name_len = int.from_bytes(local[26:28], "little")
    extra_len = int.from_bytes(local[28:30], "little")
    member_start = info.header_offset + 30 + name_len + extra_len
    handle.seek(member_start)
    try:
        npy_version = np.lib.format.read_magic(handle)
    except ValueError:
        return None
    if npy_version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
    elif npy_version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
    else:
        return None
    count = math.prod(shape)
    if fortran or dtype.hasobject or count == 0:
        return None
    offset = handle.tell()
    limit = min(member_start + info.compress_size, file_size)
    if offset + count * dtype.itemsize > limit:
        raise StoreCorruptError(
            "store entry %s column %r declares %d data bytes but its member "
            "holds only %d" % (path, name, count * dtype.itemsize, limit - offset)
        )
    return offset, dtype, shape


def _read_columns(
    path: Path, handle, archive: zipfile.ZipFile, names, mode: Optional[str]
) -> Dict[str, np.ndarray]:
    """Every declared column, read or mapped as ``mode`` says.

    ``mode`` is ``None`` (read every column into memory), ``"r"``
    (read-only ``np.memmap`` views) or ``"c"`` (private copy-on-write
    ``np.ndarray`` views; a column not aligned to ``_ALIGN`` is read
    instead).  The views share one mapping of the whole file, made at the
    first mapped column.
    """
    members = set(archive.namelist())
    file_size = os.fstat(handle.fileno()).st_size
    mapping = None
    columns: Dict[str, np.ndarray] = {}
    for name in names:
        member = name + ".npy"
        if member not in members:
            raise StoreCorruptError(
                "store entry %s is missing declared column %r" % (path, name)
            )
        layout = None
        if mode is not None:
            layout = _column_layout(path, handle, archive.getinfo(member), name, file_size)
        if layout is None or (mode == "c" and layout[0] % _ALIGN):
            with archive.open(member) as stream:
                columns[name] = np.lib.format.read_array(stream, allow_pickle=False)
            continue
        offset, dtype, shape = layout
        if mapping is None:
            mapping = np.memmap(handle, dtype=np.uint8, mode=mode)
        view = mapping[offset : offset + math.prod(shape) * dtype.itemsize]
        view = view.view(dtype).reshape(shape)
        columns[name] = view if mode == "r" else view.view(np.ndarray)
    return columns


def _quarantined(
    path: Path, quarantine: bool, error: StoreCorruptError
) -> StoreCorruptError:
    """Optionally quarantine ``path`` and fold the evidence into ``error``."""
    if not quarantine or not path.exists():
        return error
    target = quarantine_entry(path)
    return StoreCorruptError(
        "%s (quarantined to %s)" % (error, target), quarantine_path=target
    )


def read_entry(
    path: Union[str, Path],
    kind: Optional[str] = None,
    mmap: bool = False,
    quarantine: bool = False,
) -> StoreEntry:
    """Read one store entry back; raises typed errors instead of mis-parsing.

    ``kind`` (when given) asserts what the caller expects to find —
    a mismatch raises :class:`~repro.errors.StoreKeyError`.  With
    ``mmap=True`` columns come back as read-only ``np.memmap`` views of one
    mapping of the file, where the member layout allows it.
    With ``quarantine=True`` an unreadable file is additionally moved
    aside via :func:`quarantine_entry` before the
    :class:`~repro.errors.StoreCorruptError` propagates — the raised error
    carries the evidence location as ``quarantine_path`` and its message
    names both files.
    """
    return _read_entry(path, kind, "r" if mmap else None, quarantine)


def _read_entry(
    path: Union[str, Path], kind: Optional[str], mode: Optional[str], quarantine: bool
) -> StoreEntry:
    """:func:`read_entry` with the mapping mode of :func:`_read_columns`.

    The session loaders read with ``mode="c"``: copy-on-write views they
    may patch, while the file never changes.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle, zipfile.ZipFile(handle) as archive:
            header = _read_header(path, archive)
            columns = _read_columns(path, handle, archive, header["columns"], mode)
    except StoreKeyError:
        raise
    except StoreCorruptError as exc:
        raise _quarantined(path, quarantine, exc) from exc
    except (
        zipfile.BadZipFile,
        OSError,
        ValueError,
        EOFError,
        KeyError,
        NotImplementedError,
    ) as exc:
        corrupt = StoreCorruptError("unreadable store entry %s: %s" % (path, exc))
        raise _quarantined(path, quarantine, corrupt) from exc
    if kind is not None and header["kind"] != kind:
        raise StoreKeyError(
            "store entry %s holds a %r snapshot, expected %r"
            % (path, header["kind"], kind)
        )
    return StoreEntry(
        path=path,
        kind=header["kind"],
        graph_id=header["graph_id"],
        revision=header["revision"],
        meta=header["meta"],
        columns=columns,
    )
