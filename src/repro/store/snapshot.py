"""Revision-keyed session snapshots with journal-replay warm starts.

Every session of the incremental stack — :class:`IncrementalTimer`,
:class:`AllPairsSession`, :class:`MonteCarloSession`,
:class:`ExtractionSession` — persists as **one** columnar store entry
(:mod:`repro.store.format`) holding three column families:

* ``graph.*`` — the timing graph itself (:mod:`repro.store.graphio`),
* ``arrays.*`` — the session's :class:`GraphArrays` view,
* the session's own state columns (``fwd.*``/``bwd.*``, ``ap.*``,
  ``mc.*``, ``crit.*``).

The revision key is ``(graph.name, graph.revision)`` at snapshot time,
with the session drained first (``snapshot_state`` refreshes), so the
entry describes one exact, fully synchronised point of the graph's
history.

Warm-start semantics (shared by every loader):

* ``graph=None`` — the graph is rebuilt from the stored columns, trivially
  sitting at the snapshot revision; the session attaches with zero
  propagation work.
* a live ``graph`` — its name must match the entry's ``graph_id`` and its
  revision must be **at or ahead of** the snapshot (anything else is a
  :class:`~repro.errors.StoreKeyError`: the entry belongs to a different
  graph lineage).  The journal window between the snapshot revision and
  the live revision then replays through the session's ordinary
  ``refresh()``/``update()`` paths at the first query, so a warm-started
  process is **bit-identical** to one that never restarted.
* a live graph whose journal no longer retains the window (overflow, or
  edits made before journaling was enabled) cannot replay.  The default
  ``on_overflow="error"`` raises :class:`~repro.errors.StoreReplayError`;
  ``on_overflow="rebuild"`` falls back to a cold session and records why
  in the session's ``store_fallback_reason`` — never a *silent* cold
  fallback.

Arrays are restored zero-copy-adjacent: entries are read with
``mmap=True`` and the session constructors copy only the arrays they
mutate in place, keeping read-only state (correlated draws, cached result
samples) as memmap views straight onto the file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import StoreCorruptError, StoreKeyError, StoreReplayError, TimingGraphError
from repro.store.format import StoreEntry, read_entry, write_entry
from repro.store.graphio import graph_columns, graph_from_columns, graph_meta
from repro.timing.arrays import GraphArrays
from repro.timing.graph import TimingGraph

__all__ = [
    "load_allpairs_session",
    "load_extraction_session",
    "load_incremental_timer",
    "load_montecarlo_session",
    "save_allpairs_session",
    "save_extraction_session",
    "save_incremental_timer",
    "save_montecarlo_session",
]

_OVERFLOW_MODES = ("error", "rebuild")
_CORRUPT_MODES = ("error", "rebuild")


def _entry_columns(graph: TimingGraph, arrays: GraphArrays) -> Dict[str, np.ndarray]:
    """The shared graph + arrays column families of one session entry."""
    columns = graph_columns(graph)
    columns.update(arrays.snapshot_columns())
    return columns


def _save_session(session, path, kind: str) -> Path:
    """Drain ``session``, snapshot it and write one revision-keyed entry."""
    columns, session_meta = session.snapshot_state()
    graph = session.graph
    arrays = session.arrays
    if arrays.revision != graph.revision:  # pragma: no cover - drained above
        raise StoreKeyError(
            "session arrays lag the graph (%d != %d) after draining"
            % (arrays.revision, graph.revision)
        )
    all_columns = _entry_columns(graph, arrays)
    all_columns.update(columns)
    meta = {"graph": graph_meta(graph), "session": session_meta}
    return write_entry(
        path, kind, graph.name, graph.revision, all_columns, meta=meta
    )


def _session_meta(entry: StoreEntry) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    graph_data = entry.meta.get("graph")
    session_data = entry.meta.get("session")
    if not isinstance(graph_data, dict) or not isinstance(session_data, dict):
        raise StoreCorruptError(
            "store entry %s is missing its graph/session metadata" % entry.path
        )
    return graph_data, session_data


def _attach_graph(
    entry: StoreEntry,
    graph: Optional[TimingGraph],
    on_overflow: str,
) -> Tuple[TimingGraph, Optional[str]]:
    """Resolve the graph to attach to and whether replay is possible.

    Returns ``(graph, fallback_reason)``.  ``fallback_reason`` is ``None``
    when the snapshot can attach warm (the live graph retains the journal
    window back to the snapshot revision, or the graph was rebuilt from
    the entry and trivially sits at it); a non-``None`` reason means the
    caller must build a cold session — and only ``on_overflow="rebuild"``
    reaches that point, ``"error"`` raises here.
    """
    if on_overflow not in _OVERFLOW_MODES:
        raise ValueError(
            "on_overflow must be one of %r, got %r" % (_OVERFLOW_MODES, on_overflow)
        )
    graph_data, _session_data = _session_meta(entry)
    if graph is None:
        return graph_from_columns(entry.columns, graph_data), None

    if graph.name != entry.graph_id:
        raise StoreKeyError(
            "store entry %s was saved from graph %r, not %r"
            % (entry.path, entry.graph_id, graph.name)
        )
    if graph.revision < entry.revision:
        raise StoreKeyError(
            "store entry %s snapshots revision %d but graph %r is only at "
            "revision %d — the entry belongs to a different (further-evolved) "
            "graph lineage" % (entry.path, entry.revision, graph.name, graph.revision)
        )
    graph.enable_journal()
    try:
        delta = graph.changes_since(entry.revision)
    except TimingGraphError as exc:  # pragma: no cover - guarded above
        raise StoreKeyError(str(exc)) from exc
    if delta is not None:
        return graph, None

    reason = (
        "journal of graph %r no longer retains revisions %d..%d; the "
        "snapshot window cannot replay"
        % (graph.name, entry.revision, graph.revision)
    )
    if on_overflow == "error":
        raise StoreReplayError(
            "%s (pass on_overflow='rebuild' to accept a cold rebuild)" % reason
        )
    return graph, reason


def _load_session(
    path: Union[str, Path],
    kind: str,
    graph: Optional[TimingGraph],
    on_overflow: str,
    warm: Callable[[TimingGraph, GraphArrays, StoreEntry], Any],
    cold: Callable[[TimingGraph, Dict[str, Any]], Any],
    on_corrupt: str = "error",
    default_cold: Optional[Callable[[TimingGraph], Any]] = None,
):
    """The shared loader: read, key-check, attach warm or fall back cold.

    ``on_corrupt`` mirrors ``on_overflow`` for *unreadable* entries: the
    default ``"error"`` propagates the typed
    :class:`~repro.errors.StoreCorruptError`; ``"rebuild"`` quarantines
    the broken file (``<name>.corrupt``, see
    :func:`~repro.store.format.quarantine_entry`), builds a cold session
    via ``default_cold`` from the caller's **live graph** (a corrupt entry
    cannot supply one, so ``graph=None`` still raises) and records the
    whole story — corruption, quarantine location, rebuild — in the
    session's ``store_fallback_reason``.  Never a silent cold fallback.
    """
    if on_corrupt not in _CORRUPT_MODES:
        raise ValueError(
            "on_corrupt must be one of %r, got %r" % (_CORRUPT_MODES, on_corrupt)
        )
    try:
        entry = read_entry(path, kind=kind, mmap=True, quarantine=on_corrupt == "rebuild")
        target, fallback_reason = _attach_graph(entry, graph, on_overflow)
        _graph_data, session_data = _session_meta(entry)
        if fallback_reason is None:
            arrays = GraphArrays.from_columns(target, entry.columns, entry.revision)
            try:
                session = warm(target, arrays, entry)
            except (KeyError, ValueError, TypeError) as exc:
                raise StoreCorruptError(
                    "store entry %s has inconsistent session state: %s" % (path, exc)
                ) from exc
            session.store_fallback_reason = None
            return session
        session = cold(target, session_data)
        session.store_fallback_reason = fallback_reason
        return session
    except StoreCorruptError as exc:
        if on_corrupt == "error":
            raise
        if graph is None or default_cold is None:
            raise StoreCorruptError(
                "%s; on_corrupt='rebuild' needs a live graph (and for "
                "'extraction' a variation model) to build a cold %r session"
                % (exc, kind),
                quarantine_path=exc.quarantine_path,
            ) from exc
        session = default_cold(graph)
        session.store_fallback_reason = str(exc)
        return session


# ----------------------------------------------------------------------
# IncrementalTimer
# ----------------------------------------------------------------------
def save_incremental_timer(timer, path: Union[str, Path]) -> Path:
    """Persist an :class:`IncrementalTimer` as one ``"timer"`` entry."""
    return _save_session(timer, path, "timer")


def load_incremental_timer(
    path: Union[str, Path],
    graph: Optional[TimingGraph] = None,
    on_overflow: str = "error",
    on_corrupt: str = "error",
):
    """Warm-start an :class:`IncrementalTimer` from a ``"timer"`` entry.

    With ``graph=None`` the design graph is rebuilt from the stored
    columns; with a live graph the journal window since the snapshot
    replays at the first query (see the module docstring for the
    key-mismatch and overflow semantics).  ``on_corrupt="rebuild"``
    quarantines an unreadable entry and rebuilds a default cold timer on
    the live graph instead of raising.
    """
    from repro.timing.incremental import IncrementalTimer, _form_from_list

    def warm(target, arrays, entry):
        _graph_data, session_data = _session_meta(entry)
        return IncrementalTimer.from_snapshot(
            target, arrays, entry.columns, session_data
        )

    def cold(target, session_data):
        return IncrementalTimer(
            target,
            input_arrivals={
                name: _form_from_list(values)
                for name, values in session_data["input_arrivals"].items()
            },
            required_time=_form_from_list(session_data["required_time"]),
            convergence_tolerance=float(session_data["tolerance"]),
        )

    return _load_session(
        path, "timer", graph, on_overflow, warm, cold,
        on_corrupt=on_corrupt, default_cold=IncrementalTimer,
    )


# ----------------------------------------------------------------------
# AllPairsSession
# ----------------------------------------------------------------------
def save_allpairs_session(session, path: Union[str, Path]) -> Path:
    """Persist an :class:`AllPairsSession` as one ``"allpairs"`` entry."""
    return _save_session(session, path, "allpairs")


def load_allpairs_session(
    path: Union[str, Path],
    graph: Optional[TimingGraph] = None,
    on_overflow: str = "error",
    on_corrupt: str = "error",
):
    """Warm-start an :class:`AllPairsSession` from an ``"allpairs"`` entry."""
    from repro.timing.allpairs import AllPairsSession

    def warm(target, arrays, entry):
        _graph_data, session_data = _session_meta(entry)
        return AllPairsSession.from_snapshot(
            target, arrays, entry.columns, session_data
        )

    def cold(target, _session_data):
        return AllPairsSession(target)

    return _load_session(
        path, "allpairs", graph, on_overflow, warm, cold,
        on_corrupt=on_corrupt, default_cold=AllPairsSession,
    )


# ----------------------------------------------------------------------
# MonteCarloSession
# ----------------------------------------------------------------------
def save_montecarlo_session(session, path: Union[str, Path]) -> Path:
    """Persist a :class:`MonteCarloSession` as one ``"montecarlo"`` entry."""
    return _save_session(session, path, "montecarlo")


def load_montecarlo_session(
    path: Union[str, Path],
    graph: Optional[TimingGraph] = None,
    on_overflow: str = "error",
    on_corrupt: str = "error",
):
    """Warm-start a :class:`MonteCarloSession` from a ``"montecarlo"`` entry.

    The restored sample matrices are identical (``np.array_equal``) to the
    saved ones — the counter-based streams guarantee any replayed retimes
    redraw exactly the rows a never-restarted session would redraw.
    """
    from repro.montecarlo.flat import MonteCarloSession

    def warm(target, arrays, entry):
        _graph_data, session_data = _session_meta(entry)
        return MonteCarloSession.from_snapshot(
            target, arrays, entry.columns, session_data
        )

    def cold(target, session_data):
        chunk_size = session_data.get("chunk_size")
        return MonteCarloSession(
            target,
            num_samples=int(session_data["num_samples"]),
            seed=int(session_data["seed"]),
            chunk_size=None if chunk_size is None else int(chunk_size),
            cache_arrivals=bool(session_data["cache_arrivals"]),
        )

    return _load_session(
        path, "montecarlo", graph, on_overflow, warm, cold,
        on_corrupt=on_corrupt, default_cold=MonteCarloSession,
    )


# ----------------------------------------------------------------------
# ExtractionSession
# ----------------------------------------------------------------------
def save_extraction_session(session, path: Union[str, Path]) -> Path:
    """Persist an :class:`ExtractionSession` as one ``"extraction"`` entry.

    The entry embeds the module graph, the all-pairs tensors, the cached
    criticality map (values plus the ``argmax_pairs`` bookkeeping that
    keeps the incremental updater exact) and the variation model, so a
    restored session re-extracts without recomputing anything.
    """
    from repro.model.serialization import variation_to_dict

    session.refresh()
    graph = session.graph
    allpairs = session.allpairs
    ap_columns, ap_meta = allpairs.snapshot_state()
    arrays = allpairs.arrays

    criticalities = session.criticalities
    edge_ids = np.fromiter(
        criticalities.max_criticality, np.int64, len(criticalities.max_criticality)
    )
    values = np.fromiter(
        criticalities.max_criticality.values(), float, edge_ids.shape[0]
    )
    columns = _entry_columns(graph, arrays)
    columns.update(ap_columns)
    columns["crit.edge_ids"] = edge_ids
    columns["crit.values"] = values
    has_argmax = criticalities.argmax_pairs is not None
    if has_argmax:
        columns["crit.argmax_pairs"] = np.asarray(
            [criticalities.argmax_pairs[int(edge_id)] for edge_id in edge_ids],
            dtype=np.int64,
        ).reshape(edge_ids.shape[0], 2)

    meta = {
        "graph": graph_meta(graph),
        "session": {
            "allpairs": ap_meta,
            "serial": int(session._serial),
            "name": session._name,
            "has_argmax": has_argmax,
            "variation": variation_to_dict(session.variation),
        },
    }
    return write_entry(
        path, "extraction", graph.name, graph.revision, columns, meta=meta
    )


def load_extraction_session(
    path: Union[str, Path],
    graph: Optional[TimingGraph] = None,
    on_overflow: str = "error",
    on_corrupt: str = "error",
    variation=None,
):
    """Warm-start an :class:`ExtractionSession` from an ``"extraction"`` entry.

    ``variation`` is only consulted by ``on_corrupt="rebuild"``: a corrupt
    entry cannot supply the stored variation model, so rebuilding a cold
    session needs the caller to pass the live one alongside ``graph``.
    """
    from repro.model.criticality import CriticalityResult
    from repro.model.extraction import ExtractionSession
    from repro.model.serialization import variation_from_dict
    from repro.timing.allpairs import AllPairsSession

    def warm(target, arrays, entry):
        _graph_data, session_data = _session_meta(entry)
        allpairs = AllPairsSession.from_snapshot(
            target, arrays, entry.columns, session_data["allpairs"]
        )
        edge_ids = entry.columns["crit.edge_ids"]
        values = entry.columns["crit.values"]
        argmax_pairs = None
        if session_data.get("has_argmax"):
            pairs = entry.columns["crit.argmax_pairs"]
            argmax_pairs = {
                int(edge_id): (int(pairs[row, 0]), int(pairs[row, 1]))
                for row, edge_id in enumerate(edge_ids)
            }
        criticalities = CriticalityResult(
            {
                int(edge_id): float(values[row])
                for row, edge_id in enumerate(edge_ids)
            },
            argmax_pairs,
        )
        return ExtractionSession.from_snapshot(
            target,
            variation_from_dict(session_data["variation"]),
            allpairs,
            criticalities,
            int(session_data["serial"]),
            name=session_data.get("name"),
        )

    def cold(target, session_data):
        return ExtractionSession(
            target,
            variation_from_dict(session_data["variation"]),
            name=session_data.get("name"),
        )

    def default_cold(target):
        return ExtractionSession(target, variation)

    return _load_session(
        path, "extraction", graph, on_overflow, warm, cold,
        on_corrupt=on_corrupt,
        default_cold=default_cold if variation is not None else None,
    )
