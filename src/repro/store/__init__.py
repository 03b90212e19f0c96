"""Columnar snapshot store: revision-keyed persistence + warm starts.

The persistence layer of the incremental stack.  One :mod:`~repro.store.format`
entry is an uncompressed ``.npz`` of named numpy columns keyed by
``(graph_id, revision)``; :mod:`~repro.store.graphio` flattens the timing
graph itself into columns; :mod:`~repro.store.snapshot` persists every
session kind (:class:`IncrementalTimer`, :class:`AllPairsSession`,
:class:`MonteCarloSession`, :class:`ExtractionSession`) with
journal-replay warm starts; :mod:`~repro.store.design` bundles a whole
:class:`DesignTimer`; :mod:`~repro.store.models` is the versioned
model-exchange library.

A warm-started process is bit-identical to one that never restarted: the
loaders restore the exact arrays that were saved and replay any journal
window newer than the snapshot through the sessions' ordinary
``refresh()`` paths.  They map each entry once, copy-on-write, and the
sessions keep those private views, so a restore costs only the pages a
session touches and the entry file never changes (see
:mod:`~repro.store.format` for the aligned layout, the copied legacy
entries and why an entry must not be truncated in place while a session
restored from it is alive).  Every failure mode is typed —
:class:`~repro.errors.StoreCorruptError` for unreadable entries,
:class:`~repro.errors.StoreKeyError` for revision-key mismatches,
:class:`~repro.errors.StoreReplayError` when a journal window can no
longer replay (opt into a cold rebuild with ``on_overflow="rebuild"``,
recorded in ``store_fallback_reason`` — never silent).

Corruption is first-class: unreadable entries raise with quarantine
support (``read_entry(..., quarantine=True)`` moves the evidence to
``<name>.corrupt``), the loaders mirror the overflow contract with
``on_corrupt="rebuild"``, and :mod:`~repro.store.health` sweeps a whole
store directory into a per-entry :class:`StoreHealth` report.
"""

from repro.store.design import load_design_timer, save_design_timer
from repro.store.format import (
    META_COLUMN,
    STORE_FORMAT_NAME,
    STORE_FORMAT_VERSION,
    StoreEntry,
    quarantine_entry,
    read_entry,
    write_entry,
)
from repro.store.graphio import graph_columns, graph_from_columns, graph_meta
from repro.store.health import EntryHealth, Store, StoreHealth, verify_store
from repro.store.models import ModelStore
from repro.store.snapshot import (
    load_allpairs_session,
    load_extraction_session,
    load_incremental_timer,
    load_montecarlo_session,
    save_allpairs_session,
    save_extraction_session,
    save_incremental_timer,
    save_montecarlo_session,
)

__all__ = [
    "META_COLUMN",
    "STORE_FORMAT_NAME",
    "STORE_FORMAT_VERSION",
    "EntryHealth",
    "ModelStore",
    "Store",
    "StoreEntry",
    "StoreHealth",
    "graph_columns",
    "graph_from_columns",
    "graph_meta",
    "load_allpairs_session",
    "load_design_timer",
    "load_extraction_session",
    "load_incremental_timer",
    "load_montecarlo_session",
    "quarantine_entry",
    "read_entry",
    "save_allpairs_session",
    "save_design_timer",
    "save_extraction_session",
    "save_incremental_timer",
    "save_montecarlo_session",
    "verify_store",
    "write_entry",
]
