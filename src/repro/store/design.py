"""Directory bundles persisting a whole :class:`DesignTimer` warm.

A design-level session is more than one graph: the design timing graph
with its incremental timer state, the optional flattened Monte Carlo
session, and one extraction session per instance whose module source is
attached.  ``save_design_timer`` lays those out as a directory of
standard store entries::

    <bundle>/
        design.npz                 # kind "design": bundle manifest
        timer.npz                  # kind "timer": graph + timer state
        montecarlo.npz             # kind "montecarlo" (when attached)
        extraction/<instance>.npz  # kind "extraction" per attached module

The manifest carries everything not derivable from the entries: the
correlation mode, the per-instance membership bookkeeping (which design
edges/vertices belong to which instance — the state a model swap
splices) and the Monte Carlo cache key.  Design grids
and the design-level PCA are **recomputed** from the design on load (they
are deterministic functions of the placement and the shared correlation
profile), mirroring :func:`repro.model.serialization.timing_model_from_dict`.

``load_design_timer`` needs the :class:`HierarchicalDesign` object back
(models are live Python objects the store does not own); it verifies the
design's name and instance set against the manifest and then restores
every sub-session warm, so a reloaded timer answers ``circuit_delay`` /
``revalidate_monte_carlo`` bit-identically to the process that saved it —
including after further post-load edits, which flow through the ordinary
journaled paths.
"""

from __future__ import annotations

import urllib.parse
from pathlib import Path
from typing import Union

from repro.errors import StoreCorruptError, StoreKeyError
from repro.hier.analysis import (
    CorrelationMode,
    DesignTimer,
    _design_basis,
    _InstanceMembership,
)
from repro.store.format import read_entry, write_entry
from repro.store.snapshot import (
    load_extraction_session,
    load_incremental_timer,
    load_montecarlo_session,
    save_extraction_session,
    save_incremental_timer,
    save_montecarlo_session,
)

__all__ = ["load_design_timer", "save_design_timer"]

_MANIFEST = "design.npz"
_TIMER = "timer.npz"
_MONTECARLO = "montecarlo.npz"
_EXTRACTION_DIR = "extraction"


def _session_filename(instance_name: str) -> str:
    return urllib.parse.quote(instance_name, safe="") + ".npz"


def save_design_timer(timer: DesignTimer, path: Union[str, Path]) -> Path:
    """Persist a design session as a warm-start bundle; returns its path."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)

    save_incremental_timer(timer.timer, root / _TIMER)
    has_mc = timer.monte_carlo_session is not None
    if has_mc:
        save_montecarlo_session(timer.monte_carlo_session, root / _MONTECARLO)
    for instance_name, session in timer._module_sessions.items():
        save_extraction_session(
            session, root / _EXTRACTION_DIR / _session_filename(instance_name)
        )

    manifest = {
        "design_name": timer.design.name,
        "mode": timer.mode.value,
        "membership": {
            name: {
                "edge_ids": [int(edge_id) for edge_id in entry.edge_ids],
                "vertices": list(entry.vertices),
                "ports": sorted(entry.ports),
                "local_offset": int(entry.local_offset),
            }
            for name, entry in timer._membership.items()
        },
        "module_sessions": sorted(timer._module_sessions),
        "has_montecarlo": has_mc,
        "mc_key": list(timer._mc_key) if timer._mc_key is not None else None,
        "mc_design_revision": int(timer._mc_design_revision),
    }
    write_entry(
        root / _MANIFEST,
        "design",
        timer.design.name,
        timer.graph.revision,
        {},
        meta=manifest,
    )
    return root


def load_design_timer(
    path: Union[str, Path],
    design,
    library=None,
    on_overflow: str = "error",
) -> DesignTimer:
    """Restore a :class:`DesignTimer` bundle saved by :func:`save_design_timer`.

    ``design`` must be the hierarchical design the bundle was saved from
    (same name and instance set — verified against the manifest, mismatch
    raises :class:`~repro.errors.StoreKeyError`); ``library`` re-binds the
    Monte Carlo session's library cache key, so pass the same library
    object later ``revalidate_monte_carlo`` calls will use.
    """
    root = Path(path)
    manifest_entry = read_entry(root / _MANIFEST, kind="design")
    manifest = manifest_entry.meta
    if manifest_entry.graph_id != design.name or manifest.get("design_name") != design.name:
        raise StoreKeyError(
            "bundle %s was saved from design %r, not %r"
            % (root, manifest_entry.graph_id, design.name)
        )
    membership_data = manifest.get("membership")
    if not isinstance(membership_data, dict):
        raise StoreCorruptError("bundle %s manifest has no membership map" % root)
    live_instances = {instance.name for instance in design.instances}
    if set(membership_data) != live_instances:
        raise StoreKeyError(
            "bundle %s instance set %r does not match design %r instances %r"
            % (root, sorted(membership_data), design.name, sorted(live_instances))
        )
    try:
        mode = CorrelationMode(manifest["mode"])
    except (KeyError, ValueError) as exc:
        raise StoreCorruptError(
            "bundle %s manifest has an invalid correlation mode: %s" % (root, exc)
        ) from exc

    timer_session = load_incremental_timer(root / _TIMER, on_overflow=on_overflow)
    if timer_session.graph.name != design.name:
        raise StoreKeyError(
            "bundle %s timer graph %r does not belong to design %r"
            % (root, timer_session.graph.name, design.name)
        )

    self = DesignTimer.__new__(DesignTimer)
    self._design = design
    self._mode = mode
    self._grids, self._pca = _design_basis(design, mode)
    self._membership = {
        name: _InstanceMembership(
            [int(edge_id) for edge_id in data["edge_ids"]],
            [str(vertex) for vertex in data["vertices"]],
            {str(port) for port in data["ports"]},
            int(data["local_offset"]),
        )
        for name, data in membership_data.items()
    }
    self._timer = timer_session
    self._module_sessions = {
        str(name): load_extraction_session(
            root / _EXTRACTION_DIR / _session_filename(str(name)),
            on_overflow=on_overflow,
        )
        for name in manifest.get("module_sessions", [])
    }
    if manifest.get("has_montecarlo"):
        self._mc_session = load_montecarlo_session(
            root / _MONTECARLO, on_overflow=on_overflow
        )
        mc_key = manifest.get("mc_key")
        if mc_key is not None and len(mc_key) == 4:
            # Saved while the key still held the chunk size third:
            # [samples, seed, chunk, grid].  No chunk changed a sample.
            mc_key = mc_key[:2] + mc_key[3:]
        self._mc_key = tuple(mc_key) if mc_key is not None else None
        self._mc_design_revision = int(manifest.get("mc_design_revision", -1))
    else:
        self._mc_session = None
        self._mc_key = None
        self._mc_design_revision = -1
    self._mc_library = library
    return self
