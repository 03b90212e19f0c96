"""Tests of the columnar on-disk entry format (write/read/mmap/corruption)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import StoreCorruptError, StoreKeyError
from repro.store import (
    META_COLUMN,
    STORE_FORMAT_NAME,
    STORE_FORMAT_VERSION,
    read_entry,
    write_entry,
)


def _columns():
    return {
        "floats": np.linspace(0.0, 1.0, 48).reshape(12, 4),
        "ints": np.arange(7, dtype=np.int64),
        "names": np.asarray(["alpha", "beta", "gamma"]),
        "flags": np.asarray([True, False, True]),
        "empty": np.empty((0, 3), dtype=float),
    }


def _write_raw(path, header, arrays):
    """Bypass ``write_entry`` to craft malformed entries for the reader."""
    encoded = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as handle:
        np.savez(handle, **{META_COLUMN: encoded}, **arrays)


def _valid_header(columns):
    return {
        "format": STORE_FORMAT_NAME,
        "version": STORE_FORMAT_VERSION,
        "kind": "timer",
        "graph_id": "g",
        "revision": 3,
        "meta": {},
        "columns": sorted(columns),
    }


class TestRoundTrip:
    def test_key_meta_and_columns_survive(self, tmp_path):
        path = tmp_path / "entry.npz"
        write_entry(path, "timer", "c17", 42, _columns(), meta={"note": "x"})
        entry = read_entry(path)
        assert entry.kind == "timer"
        assert entry.graph_id == "c17"
        assert entry.revision == 42
        assert entry.meta == {"note": "x"}
        for name, array in _columns().items():
            assert np.array_equal(entry.columns[name], array)
            assert entry.columns[name].dtype == array.dtype

    def test_kind_assertion(self, tmp_path):
        path = write_entry(tmp_path / "e.npz", "timer", "g", 0, _columns())
        assert read_entry(path, kind="timer").kind == "timer"
        with pytest.raises(StoreKeyError, match="expected 'montecarlo'"):
            read_entry(path, kind="montecarlo")

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path):
        path = write_entry(tmp_path / "e.npz", "timer", "g", 0, _columns())
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_overwrite_replaces_entry(self, tmp_path):
        path = tmp_path / "e.npz"
        write_entry(path, "timer", "g", 1, {"a": np.arange(3)})
        write_entry(path, "timer", "g", 2, {"a": np.arange(5)})
        entry = read_entry(path)
        assert entry.revision == 2
        assert entry.columns["a"].shape == (5,)

    def test_nbytes_report_accounts_for_every_column(self, tmp_path):
        path = write_entry(tmp_path / "e.npz", "timer", "g", 0, _columns())
        report = read_entry(path).nbytes_report()
        assert set(report) == set(_columns()) | {"total", "file_bytes"}
        assert report["total"] == sum(
            report[name] for name in _columns()
        )
        assert report["file_bytes"] >= report["total"] > 0


class TestMmap:
    def test_numeric_columns_come_back_as_readonly_views(self, tmp_path):
        path = write_entry(tmp_path / "e.npz", "timer", "g", 0, _columns())
        entry = read_entry(path, mmap=True)
        mapped = entry.columns["floats"]
        assert isinstance(mapped, np.memmap)
        assert np.array_equal(mapped, _columns()["floats"])
        with pytest.raises(ValueError):
            mapped[0, 0] = 99.0

    def test_empty_columns_fall_back_to_materialised_reads(self, tmp_path):
        path = write_entry(tmp_path / "e.npz", "timer", "g", 0, _columns())
        entry = read_entry(path, mmap=True)
        assert not isinstance(entry.columns["empty"], np.memmap)
        assert entry.columns["empty"].shape == (0, 3)


class TestWriteValidation:
    def test_reserved_meta_column_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            write_entry(
                tmp_path / "e.npz", "timer", "g", 0, {META_COLUMN: np.arange(3)}
            )

    def test_object_dtype_column_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="object dtype"):
            write_entry(
                tmp_path / "e.npz", "timer", "g", 0,
                {"bad": np.asarray([{"a": 1}], dtype=object)},
            )

    @pytest.mark.parametrize("kind", ["", "no spaces", "no/slash"])
    def test_bad_kind_rejected(self, tmp_path, kind):
        with pytest.raises(ValueError, match="kind"):
            write_entry(tmp_path / "e.npz", kind, "g", 0, {})


class TestCorruption:
    """Every unreadable file raises a typed error instead of mis-parsing."""

    def test_truncated_file(self, tmp_path):
        path = write_entry(tmp_path / "e.npz", "timer", "g", 0, _columns())
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StoreCorruptError):
            read_entry(path)

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "e.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(StoreCorruptError, match="unreadable"):
            read_entry(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StoreCorruptError):
            read_entry(tmp_path / "never_written.npz")

    def test_missing_meta_header(self, tmp_path):
        path = tmp_path / "e.npz"
        with open(path, "wb") as handle:
            np.savez(handle, a=np.arange(3))
        with pytest.raises(StoreCorruptError, match=META_COLUMN):
            read_entry(path)

    def test_foreign_format_tag(self, tmp_path):
        path = tmp_path / "e.npz"
        header = _valid_header([])
        header["format"] = "someone-elses-store"
        _write_raw(path, header, {})
        with pytest.raises(StoreCorruptError, match="format"):
            read_entry(path)

    def test_unsupported_format_version(self, tmp_path):
        path = tmp_path / "e.npz"
        header = _valid_header([])
        header["version"] = STORE_FORMAT_VERSION + 999
        _write_raw(path, header, {})
        with pytest.raises(StoreCorruptError, match="version"):
            read_entry(path)

    @pytest.mark.parametrize("field", ["kind", "graph_id", "revision", "columns"])
    def test_missing_header_field(self, tmp_path, field):
        path = tmp_path / "e.npz"
        header = _valid_header([])
        del header[field]
        _write_raw(path, header, {})
        with pytest.raises(StoreCorruptError, match=field):
            read_entry(path)

    def test_non_string_column_name(self, tmp_path):
        path = tmp_path / "e.npz"
        _write_raw(path, _valid_header([1]), {})
        with pytest.raises(StoreCorruptError, match="not a string"):
            read_entry(path)

    def test_missing_declared_column(self, tmp_path):
        # The header is authoritative: a member silently dropped from the
        # archive is corruption, not an absent optional.
        path = tmp_path / "e.npz"
        _write_raw(path, _valid_header(["a", "b"]), {"a": np.arange(3)})
        with pytest.raises(StoreCorruptError, match="'b'"):
            read_entry(path)
