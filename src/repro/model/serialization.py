"""Serialization of pre-characterized timing models.

The whole point of timing models (Section III) is that an IP vendor can ship
them *instead of* the module netlist.  This module defines a self-contained
JSON representation of a :class:`~repro.model.timing_model.TimingModel` —
the reduced timing graph with its canonical edge delays plus the variation
metadata (grid geometry, correlation profile, sigma budget) that the
design-level analysis needs for the independent-variable replacement — and
round-trip load/save helpers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.core.canonical import CanonicalForm
from repro.errors import ModelExtractionError
from repro.model.criticality import CriticalityResult
from repro.model.timing_model import ExtractionStats, TimingModel
from repro.timing.graph import TimingGraph
from repro.variation.grid import Die, GridCell, GridPartition
from repro.variation.model import VariationModel
from repro.variation.spatial import SpatialCorrelation

__all__ = [
    "timing_model_to_dict",
    "timing_model_from_dict",
    "save_timing_model",
    "load_timing_model",
    "variation_to_dict",
    "variation_from_dict",
    "criticality_to_dict",
    "criticality_from_dict",
    "save_criticality",
    "load_criticality",
]

FORMAT_NAME = "repro-timing-model"
FORMAT_VERSION = 1

CRITICALITY_FORMAT_NAME = "repro-criticality"
CRITICALITY_FORMAT_VERSION = 1


def _canonical_to_list(form: CanonicalForm) -> List[float]:
    """Flatten a canonical form to ``[nominal, global, random, locals...]``."""
    return (
        [form.nominal, form.global_coeff, form.random_coeff]
        + [float(value) for value in form.local_coeffs]
    )


def _canonical_from_list(values: List[float]) -> CanonicalForm:
    """Inverse of :func:`_canonical_to_list`.

    A length-3 list is a *zero-local* form (nominal, global and random
    coefficients only) — the intended encoding for models extracted with
    ``num_locals=0``, not a truncation.  Anything shorter is rejected.
    """
    if len(values) < 3:
        raise ModelExtractionError("canonical form needs at least three values")
    return CanonicalForm(values[0], values[1], values[3:], values[2])


def _require_payload(
    payload: Any, format_name: str, format_version: int
) -> Dict[str, Any]:
    """Validate the format/version envelope of a model-exchange payload.

    Every malformed envelope — a non-object payload, a missing or foreign
    ``format`` tag, a missing, non-integer or unsupported ``version`` —
    raises :class:`~repro.errors.ModelExtractionError` with a distinct
    message instead of leaking a bare ``ValueError``/``TypeError`` or
    silently mis-parsing the body.
    """
    if not isinstance(payload, dict):
        raise ModelExtractionError(
            "%s payload must be a JSON object, got %s"
            % (format_name, type(payload).__name__)
        )
    if "format" not in payload:
        raise ModelExtractionError(
            "payload has no 'format' tag; expected %r" % format_name
        )
    if payload["format"] != format_name:
        raise ModelExtractionError(
            "not a %s payload (format=%r)" % (format_name, payload["format"])
        )
    if "version" not in payload:
        raise ModelExtractionError(
            "%s payload has no 'version' field (this build reads version %d)"
            % (format_name, format_version)
        )
    version = payload["version"]
    if not isinstance(version, int) or isinstance(version, bool):
        raise ModelExtractionError(
            "%s payload version must be an integer, got %r"
            % (format_name, version)
        )
    if version != format_version:
        raise ModelExtractionError(
            "unsupported %s version %d (this build reads version %d)"
            % (format_name, version, format_version)
        )
    return payload


def variation_to_dict(variation: VariationModel) -> Dict[str, Any]:
    """Convert a variation model into a JSON-serializable dictionary.

    The grid geometry, spatial-correlation profile and sigma budget are
    everything the design-level analysis needs: the PCA decomposition is
    deterministic and recomputed on load.  Shared by the model-exchange
    payloads here and the snapshot-store headers of :mod:`repro.store`.
    """
    partition = variation.partition
    correlation = variation.correlation
    die = partition.die
    return {
        "sigma_fraction": variation.sigma_fraction,
        "random_variance_share": variation.random_variance_share,
        "correlation": {
            "neighbor_correlation": correlation.neighbor_correlation,
            "floor_correlation": correlation.floor_correlation,
            "cutoff_distance": correlation.cutoff_distance,
            "floor_tolerance": correlation.floor_tolerance,
        },
        "partition": {
            "grid_size": partition.grid_size,
            "die": {
                "width": die.width,
                "height": die.height,
                "origin_x": die.origin_x,
                "origin_y": die.origin_y,
            },
            "cells": [
                {
                    "index": cell.index,
                    "xmin": cell.xmin,
                    "ymin": cell.ymin,
                    "xmax": cell.xmax,
                    "ymax": cell.ymax,
                    "tag": cell.tag,
                }
                for cell in partition.cells
            ],
        },
    }


def variation_from_dict(variation_data: Dict[str, Any]) -> VariationModel:
    """Rebuild a variation model from :func:`variation_to_dict` output."""
    correlation_data = variation_data["correlation"]
    partition_data = variation_data["partition"]
    die_data = partition_data["die"]

    die = Die(
        die_data["width"], die_data["height"], die_data["origin_x"], die_data["origin_y"]
    )
    cells = [
        GridCell(
            cell["index"], cell["xmin"], cell["ymin"], cell["xmax"], cell["ymax"], cell["tag"]
        )
        for cell in partition_data["cells"]
    ]
    partition = GridPartition(die, cells, partition_data["grid_size"])
    correlation = SpatialCorrelation(
        correlation_data["neighbor_correlation"],
        correlation_data["floor_correlation"],
        correlation_data["cutoff_distance"],
        correlation_data["floor_tolerance"],
    )
    return VariationModel(
        partition,
        correlation,
        variation_data["sigma_fraction"],
        variation_data["random_variance_share"],
    )


def timing_model_to_dict(model: TimingModel) -> Dict[str, Any]:
    """Convert a timing model into a JSON-serializable dictionary."""
    graph = model.graph

    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "name": model.name,
        "graph": {
            "num_locals": graph.num_locals,
            "vertices": list(graph.vertices),
            "inputs": list(graph.inputs),
            "outputs": list(graph.outputs),
            "edges": [
                {
                    "source": edge.source,
                    "sink": edge.sink,
                    "delay": _canonical_to_list(edge.delay),
                }
                for edge in graph.edges
            ],
        },
        "variation": variation_to_dict(model.variation),
        # Wall-clock timings (extraction_seconds) are deliberately not
        # serialized: they are measurement noise, not model content, and
        # excluding them keeps saved payloads byte-stable across runs.
        "stats": {
            "original_edges": model.stats.original_edges,
            "original_vertices": model.stats.original_vertices,
            "model_edges": model.stats.model_edges,
            "model_vertices": model.stats.model_vertices,
            "removed_edges": model.stats.removed_edges,
            "threshold": model.stats.threshold,
        },
    }


def timing_model_from_dict(payload: Dict[str, Any]) -> TimingModel:
    """Rebuild a timing model from its dictionary representation.

    The PCA decomposition of the grid correlation matrix is recomputed from
    the stored geometry and correlation profile; it is deterministic, so the
    rebuilt model behaves identically in the hierarchical flow.
    """
    _require_payload(payload, FORMAT_NAME, FORMAT_VERSION)

    variation = variation_from_dict(payload["variation"])

    graph_data = payload["graph"]
    graph = TimingGraph(payload["name"], int(graph_data["num_locals"]))
    for vertex in graph_data["vertices"]:
        graph.add_vertex(vertex)
    for vertex in graph_data["inputs"]:
        graph.mark_input(vertex)
    for vertex in graph_data["outputs"]:
        graph.mark_output(vertex)
    for edge in graph_data["edges"]:
        delay = _canonical_from_list(edge["delay"])
        # Fewer locals than the graph declares is fine (the array view
        # pads row by row; a length-3 list is the zero-local encoding),
        # but an edge carrying *more* locals than the model's space has
        # dimensions is a corrupt payload, not a padding case.
        if len(delay.local_coeffs) > graph.num_locals:
            raise ModelExtractionError(
                "edge %s->%s carries %d local coefficients but the model "
                "declares num_locals=%d"
                % (edge["source"], edge["sink"],
                   len(delay.local_coeffs), graph.num_locals)
            )
        graph.add_edge(edge["source"], edge["sink"], delay)
    graph.validate()

    stats_data = payload["stats"]
    stats = ExtractionStats(
        original_edges=int(stats_data["original_edges"]),
        original_vertices=int(stats_data["original_vertices"]),
        model_edges=int(stats_data["model_edges"]),
        model_vertices=int(stats_data["model_vertices"]),
        removed_edges=int(stats_data["removed_edges"]),
        threshold=float(stats_data["threshold"]),
        # Older payloads carried the wall-clock timing; current ones omit
        # it (it is informational and excluded from equality anyway).
        extraction_seconds=float(stats_data.get("extraction_seconds", 0.0)),
    )
    return TimingModel(payload["name"], graph, variation, stats)


def save_timing_model(model: TimingModel, path: Union[str, Path]) -> Path:
    """Write a timing model to a JSON file; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(timing_model_to_dict(model), indent=1))
    return path


def load_timing_model(path: Union[str, Path]) -> TimingModel:
    """Read a timing model back from a JSON file."""
    payload = json.loads(Path(path).read_text())
    return timing_model_from_dict(payload)


# ----------------------------------------------------------------------
# Criticality results
# ----------------------------------------------------------------------
def criticality_to_dict(result: CriticalityResult) -> Dict[str, Any]:
    """Convert a criticality result into a JSON-serializable dictionary.

    The ``argmax_pairs`` bookkeeping (which input/output pair attains each
    edge's maximum) is persisted alongside the values when present.
    """
    payload: Dict[str, Any] = {
        "format": CRITICALITY_FORMAT_NAME,
        "version": CRITICALITY_FORMAT_VERSION,
        "max_criticality": {
            str(edge_id): value
            for edge_id, value in result.max_criticality.items()
        },
    }
    if result.argmax_pairs is not None:
        payload["argmax_pairs"] = {
            str(edge_id): [pair[0], pair[1]]
            for edge_id, pair in result.argmax_pairs.items()
        }
    return payload


def criticality_from_dict(payload: Dict[str, Any]) -> CriticalityResult:
    """Rebuild a criticality result from its dictionary representation.

    Tolerant of legacy payloads written before the ``argmax_pairs`` field
    existed: those load with ``argmax_pairs=None``.
    """
    _require_payload(payload, CRITICALITY_FORMAT_NAME, CRITICALITY_FORMAT_VERSION)
    max_criticality = {
        int(edge_id): float(value)
        for edge_id, value in payload["max_criticality"].items()
    }
    argmax_data = payload.get("argmax_pairs")
    argmax_pairs = None
    if argmax_data is not None:
        argmax_pairs = {
            int(edge_id): (int(pair[0]), int(pair[1]))
            for edge_id, pair in argmax_data.items()
        }
        if argmax_pairs.keys() != max_criticality.keys():
            raise ModelExtractionError(
                "argmax_pairs does not cover the same edges as max_criticality"
            )
    return CriticalityResult(max_criticality, argmax_pairs)


def save_criticality(result: CriticalityResult, path: Union[str, Path]) -> Path:
    """Write a criticality result to a JSON file; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(criticality_to_dict(result), indent=1))
    return path


def load_criticality(path: Union[str, Path]) -> CriticalityResult:
    """Read a criticality result back from a JSON file."""
    payload = json.loads(Path(path).read_text())
    return criticality_from_dict(payload)
