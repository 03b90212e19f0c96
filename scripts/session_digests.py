"""Print digests of the incremental sessions' state over seeded edits.

Runs seeded edits through the public API and prints, for every update,
the mode and cone sizes each session reports and the sha256 of every
session's ``snapshot_state()`` columns:

* retime rounds on a multiplier module, the loop of perfbench's ``eco``
  workload: each round scales three module edges, refreshes the module's
  extraction session (its ``AllPairsSession``), swaps the extracted model
  into a four-instance design through a ``DesignTimer`` (its
  ``IncrementalTimer``) and revalidates a ``MonteCarloSession`` on the
  module graph;
* a warm restart of that loop: the ``DesignTimer`` bundle and the
  ``MonteCarloSession`` are saved to a temporary directory and restored,
  and further seeded rounds run on the live and the restored sessions,
  each side's digests printed every round;
* mixed retime / remove / re-add / edge-split edits on c432, each
  followed by an ``IncrementalTimer`` update and an ``AllPairsSession``
  refresh;
* near-input retimes on a 64-bit ripple-carry adder, each followed by an
  ``IncrementalTimer`` update whose forward cone can run the length of
  the carry chain, through levels of one or two vertices.

The sessions are deterministic, so two source trees whose sweeps and
refreshes agree bit for bit print the same lines.  To check a change
against its parent, run the script over both ``src/`` trees with BLAS
pinned to one thread and diff the outputs::

    export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1
    rm -rf /tmp/parent && mkdir /tmp/parent
    git archive <base> | tar -x -C /tmp/parent
    PYTHONPATH=src python scripts/session_digests.py > /tmp/change.txt
    PYTHONPATH=/tmp/parent/src python scripts/session_digests.py > /tmp/parent.txt
    diff /tmp/parent.txt /tmp/change.txt

where ``<base>`` is the commit the change starts from.

The defaults are toy sizes (a few seconds); ``--bits 16 --rounds 12
--samples 2000`` runs the module and store parts at perfbench's sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import tempfile

import numpy as np

from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.figure7 import MultiplierModule, build_multiplier_design
from repro.hier.analysis import DesignTimer
from repro.liberty.library import standard_library
from repro.model.extraction import extract_timing_model
from repro.montecarlo.flat import MonteCarloSession
from repro.netlist.generators import ripple_carry_adder
from repro.netlist.iscas85 import iscas85_surrogate
from repro.netlist.multiplier import array_multiplier
from repro.placement.placer import place_netlist
from repro.timing.allpairs import AllPairsSession
from repro.timing.builder import build_timing_graph, default_variation_for
from repro.timing.incremental import IncrementalTimer
from repro.variation.grid import GridPartition
from repro.variation.model import VariationModel

CONFIG = DEFAULT_CONFIG

#: The design instance whose module the retime rounds edit.
INSTANCE = "m0_0"

#: Number of mixed edits on c432.
EDITS = 30

#: Width of the ripple-carry adder and number of its retimes.
ADDER_BITS = 64
ADDER_EDITS = 12

#: The adder's carry-in and the operand bits of its first three full
#: adders, whose fanout edges the adder part retimes.
ADDER_SOURCES = ["CIN", "A0", "B0", "A1", "B1", "A2", "B2"]

#: Seed of the edit choices in every part.
SEED = 1

#: Seeded rounds after the warm restart.
STORE_ROUNDS = 2


def state_digest(session) -> str:
    """sha256 over a session's snapshot columns: names, dtypes, shapes, bytes."""
    columns, _meta = session.snapshot_state()
    digest = hashlib.sha256()
    for name in sorted(columns):
        array = np.ascontiguousarray(columns[name])
        digest.update(("%s %s %s" % (name, array.dtype.str, array.shape)).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def placed_graph(netlist):
    """The timing graph of ``netlist``, placed with the standard library."""
    library = standard_library()
    placement = place_netlist(netlist, library)
    return build_timing_graph(
        netlist, library, placement, default_variation_for(netlist, placement)
    )


def cones(update) -> str:
    return "%s fwd=%d bwd=%d" % (
        update.mode, update.forward_recomputed, update.backward_recomputed
    )


def module_round(module, timer, extraction, montecarlo, edits):
    """One round of the module loop; returns its update-mode line."""
    graph = extraction.graph
    for index, factor in edits:
        edge = graph.edges[index]
        graph.replace_edge_delay(edge, edge.delay.scale(factor))
    update = extraction.refresh()
    model = extraction.extract(CONFIG.criticality_threshold)
    timer.swap_instance_model(
        INSTANCE, model, netlist=module.netlist, placement=module.placement
    )
    timer.circuit_delay()
    forward = timer.timer.last_update
    backward = timer.timer.update()
    montecarlo.revalidate()
    refresh = montecarlo.last_refresh
    return "allpairs %s | timer %s, then %s | montecarlo %s resampled=%d" % (
        cones(update), cones(forward), cones(backward),
        refresh.kind, refresh.resampled_rows,
    )


def digests(timer, extraction, montecarlo) -> str:
    return "allpairs %s timer %s montecarlo %s" % (
        state_digest(extraction.allpairs), state_digest(timer.timer),
        state_digest(montecarlo),
    )


def seeded_edits(rng, num_edges):
    """Three module edge indices and their scale factors."""
    chosen = rng.choice(num_edges, size=3, replace=False)
    factors = rng.uniform(0.9, 1.1, size=3)
    return [(int(index), float(factor)) for index, factor in zip(chosen, factors)]


def module_rounds(bits: int, rounds: int, samples: int) -> None:
    """Retime rounds through the extraction, design-timer and MC sessions,
    then a store warm restart with further rounds on both sides."""
    library = standard_library()
    netlist = array_multiplier(bits, name="mult%d" % bits)
    placement = place_netlist(netlist, library)
    partition = GridPartition.for_cell_count(
        placement.die, netlist.num_gates, CONFIG.max_cells_per_grid
    )
    variation = VariationModel(
        partition, CONFIG.correlation(), CONFIG.sigma_fraction(),
        CONFIG.random_variance_share,
    )
    graph = build_timing_graph(netlist, library, placement, variation, name=netlist.name)
    model = extract_timing_model(graph, variation, CONFIG.criticality_threshold)
    module = MultiplierModule(netlist, placement, variation, model, 0.0)
    design = build_multiplier_design(module)
    timer = DesignTimer(design)
    timer.circuit_delay()
    extraction = timer.attach_module_source(INSTANCE, graph, variation)
    montecarlo = MonteCarloSession(graph, num_samples=samples, seed=CONFIG.seed)
    montecarlo.revalidate()
    live = (timer, extraction, montecarlo)
    rng = np.random.default_rng(SEED)
    for round_index in range(rounds):
        edits = seeded_edits(rng, graph.num_edges)
        print("module %d: %s" % (round_index, module_round(module, *live, edits)))
        print("module %d: %s" % (round_index, digests(*live)))

    with tempfile.TemporaryDirectory(prefix="session-digests-") as folder:
        bundle = timer.save(os.path.join(folder, "design"))
        montecarlo.save(os.path.join(folder, "montecarlo.npz"))
        restored_timer = DesignTimer.load(bundle, design, library=library)
        restored_extraction = restored_timer.extraction_session(INSTANCE)
        restored = (
            restored_timer,
            restored_extraction,
            MonteCarloSession.load(
                os.path.join(folder, "montecarlo.npz"), graph=restored_extraction.graph
            ),
        )
        print("store: live %s" % digests(*live))
        print("store: restored %s" % digests(*restored))
        for round_index in range(STORE_ROUNDS):
            edits = seeded_edits(rng, graph.num_edges)
            for side, sessions in (("live", live), ("restored", restored)):
                print("store %d %s: %s"
                      % (round_index, side, module_round(module, *sessions, edits)))
                print("store %d %s: %s" % (round_index, side, digests(*sessions)))


def c432_edits() -> None:
    """Mixed edits on c432 through an incremental timer and all-pairs.

    Retimes, edge removals and re-additions of removed edges, plus splits
    of an edge through a new vertex and their undoing, so vertex rows move
    too.  Every edit keeps the graph acyclic: it stays a subgraph of the
    original with some edges subdivided.
    """
    graph = placed_graph(iscas85_surrogate("c432"))
    timer = IncrementalTimer(graph)
    timer.update()
    allpairs = AllPairsSession(graph)
    rng = random.Random(SEED)
    removed = []  # (source, sink, delay) of removed edges
    splits = []  # (vertex, (source, sink, delay) of the split edge)
    for step in range(EDITS):
        kind = rng.choice(["retime", "retime", "remove", "re-add", "split", "unsplit"])
        if (kind == "re-add" and not removed) or (kind == "unsplit" and not splits):
            kind = "retime"
        if kind == "retime":
            edge = rng.choice(graph.edges)
            graph.replace_edge_delay(edge, edge.delay.scale(rng.uniform(0.7, 1.3)))
        elif kind == "remove":
            edge = rng.choice(graph.edges)
            removed.append((edge.source, edge.sink, edge.delay))
            graph.remove_edge(edge)
        elif kind == "re-add":
            graph.add_edge(*removed.pop(rng.randrange(len(removed))))
        elif kind == "split":
            edge = rng.choice(graph.edges)
            vertex = "split%d" % step
            graph.remove_edge(edge)
            graph.add_edge(edge.source, vertex, edge.delay.scale(0.5))
            graph.add_edge(vertex, edge.sink, edge.delay.scale(0.5))
            splits.append((vertex, (edge.source, edge.sink, edge.delay)))
        else:
            vertex, original = splits.pop(rng.randrange(len(splits)))
            for edge in graph.fanin_edges(vertex) + graph.fanout_edges(vertex):
                graph.remove_edge(edge)
            graph.remove_vertex(vertex)
            removed = [entry for entry in removed if vertex not in entry[:2]]
            graph.add_edge(*original)
        print(
            "c432 %d %s: timer %s | allpairs %s"
            % (step, kind, cones(timer.update()), cones(allpairs.refresh()))
        )
        print(
            "c432 %d: timer %s allpairs %s"
            % (step, state_digest(timer), state_digest(allpairs))
        )


def adder_retimes() -> None:
    """Near-input retimes on a ripple-carry adder through an incremental timer.

    The deep, narrow cones here are what the other two parts do not
    reach: most of the adder's levels hold one or two vertices.
    """
    graph = placed_graph(ripple_carry_adder(ADDER_BITS))
    timer = IncrementalTimer(graph)
    timer.update()
    rng = random.Random(SEED)
    for step in range(ADDER_EDITS):
        edge = rng.choice(graph.fanout_edges(rng.choice(ADDER_SOURCES)))
        graph.replace_edge_delay(edge, edge.delay.scale(rng.uniform(0.7, 1.3)))
        print(
            "adder %d %s->%s: timer %s"
            % (step, edge.source, edge.sink, cones(timer.update()))
        )
        print("adder %d: timer %s" % (step, state_digest(timer)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bits", type=int, default=4, help="multiplier width")
    parser.add_argument("--rounds", type=int, default=3, help="module retime rounds")
    parser.add_argument("--samples", type=int, default=256, help="Monte Carlo samples")
    args = parser.parse_args()
    module_rounds(args.bits, args.rounds, args.samples)
    c432_edits()
    adder_retimes()


if __name__ == "__main__":
    main()
