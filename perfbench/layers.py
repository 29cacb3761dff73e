"""The layer table: which library calls a traced run wraps, and the
per-layer metrics computed from the spans.

Span names are ``<layer>.<step>``; the layers are the modules of
``src/repro`` named in README.md's layer -> metric -> workload map.
A workload that does not enter a layer reports that layer's metrics
as 0 (for example ``eval_scale`` never builds an automaton).
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Tuple

from spans import Target, Tracer

#: Imported before wrapping, so every module that binds a traced name
#: binds it before the tracer looks for it (see Tracer.install).
PRELOAD = (
    "repro", "repro.session", "repro.analysis", "repro.service.protocol",
    "repro.service.pool", "repro.workloads.scenarios",
)


def _ingested(tracer, args, kwargs, result, seconds):
    return {"ingest_facts": len(result)}


def _image_lookup(tracer, args, kwargs, result, seconds):
    return {"image_lookups": 1}


def _fixpoint(tracer, args, kwargs, result, seconds):
    rows, stages, _ = result
    return {"fixpoint_stages": stages,
            "result_rows": sum(len(r) for r in rows.values())}


def _evaluate(tracer, args, kwargs, result, seconds):
    # Evaluations made inside a decision are the engine probes of the
    # boundedness and equivalence procedures.
    if not tracer.inside("decide"):
        return {}
    database = args[2] if len(args) > 2 else kwargs["database"]
    return {"probe_evals": 1, "probe_eval_s": seconds,
            "probe_edb_facts": len(database)}


def _labels(tracer, args, kwargs, result, seconds):
    return {"labels_enumerated": len(result)}


def _transitions(tracer, args, kwargs, yielded, seconds):
    return {"cq_transitions": yielded}


TARGETS = (
    Target("repro.datalog.database:Database.from_facts", "database.ingest",
           _ingested),
    Target("repro.datalog.database:Database.from_atoms", "database.ingest",
           _ingested),
    Target("repro.datalog.columns:edb_image", "columns.image_lookup",
           _image_lookup),
    Target("repro.datalog.columns:EdbImage.__init__", "columns.image_build"),
    Target("repro.datalog.columns:columnar_seminaive", "columns.fixpoint",
           _fixpoint),
    Target("repro.datalog.columns:columnar_naive", "columns.fixpoint",
           _fixpoint),
    Target("repro.datalog.plan:PlanCache.plan", "plan.compile"),
    Target("repro.datalog.engine:Engine.evaluate", "engine.evaluate",
           _evaluate),
    Target("repro.session:rows_checksum", "session.digest"),
    Target("repro.datalog.unfold:expansion_union", "unfold.expand"),
    Target("repro.datalog.unfold:unfold_nonrecursive", "unfold.expand"),
    Target("repro.core.instances:InstanceEnumerator.labels_for",
           "instances.labels", _labels),
    Target("repro.core.cq_automaton:CQAutomaton.successors",
           "cq.successors", _transitions, generator=True),
    Target("repro.datalog.parser:parse_program", "parser.parse"),
    Target("repro.analysis.checks:analyze_program", "analysis.analyze"),
    Target("repro.service.protocol:decode_request", "protocol.decode"),
)

#: Every per-layer metric, in report order: name -> unit.  Metrics
#: marked "extra" are supplied by the workload, not by the spans.
PER_LAYER: Dict[str, str] = {
    "ingest_s": "s",
    "ingest_facts": "count",
    "image_build_s": "s",
    "image_cache_hit_rate": "share",
    "fixpoint_s": "s",
    "fixpoint_stages": "count",
    "result_rows": "count",
    "plan_compile_s": "s",
    "digest_s": "s",
    "eval_update_s": "s",                 # extra
    "eval_cold_facts_per_s": "1/s",       # extra
    "eval_warm_facts_per_s": "1/s",       # extra
    "probe_evals": "count",
    "probe_eval_s": "s",
    "probe_edb_facts_mean": "count",
    "unfold_s": "s",
    "label_enum_s": "s",
    "labels_enumerated": "count",
    "cq_transition_s": "s",
    "cq_transitions": "count",
    "automaton_cache_hit_rate": "share",  # extra
    "automaton_fill_s": "s",              # extra
    "search_self_s": "s",
    "pairs": "count",                     # extra
    "ptree_states": "count",              # extra
    "parse_s": "s",
    "analyze_s": "s",
    "decode_s": "s",
    "queue_ms_p50": "ms",                 # extra
    "service_ms_p50": "ms",               # extra
    "wire_ms_p50": "ms",                  # extra
    "result_cache_hit_rate": "share",     # extra
    "coalesced_share": "share",           # extra
    "admission_high_water": "count",      # extra
    "overload_rejected": "count",         # extra
    "pool_retries": "count",              # extra
    "pool_respawns": "count",             # extra
    "trace_overhead_share": "share",      # extra
}


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics the spans and counters give."""
    counters = tracer.counters
    lookups = counters.get("image_lookups", 0)
    builds = tracer.calls("columns.image_build")
    probes = counters.get("probe_evals", 0)
    return {
        "ingest_s": tracer.self_s("database.ingest"),
        "ingest_facts": counters.get("ingest_facts", 0),
        "image_build_s": tracer.self_s("columns.image_build"),
        "image_cache_hit_rate": (1 - builds / lookups) if lookups else 0.0,
        "fixpoint_s": tracer.self_s("columns.fixpoint"),
        "fixpoint_stages": counters.get("fixpoint_stages", 0),
        "result_rows": counters.get("result_rows", 0),
        "plan_compile_s": tracer.self_s("plan.compile"),
        "digest_s": tracer.self_s("session.digest"),
        "probe_evals": probes,
        "probe_eval_s": counters.get("probe_eval_s", 0.0),
        "probe_edb_facts_mean": (counters.get("probe_edb_facts", 0) / probes
                                 if probes else 0.0),
        "unfold_s": tracer.self_s("unfold.expand"),
        "label_enum_s": tracer.self_s("instances.labels"),
        "labels_enumerated": counters.get("labels_enumerated", 0),
        "cq_transition_s": tracer.self_s("cq.successors"),
        "cq_transitions": counters.get("cq_transitions", 0),
        "search_self_s": tracer.self_s("decide"),
        "parse_s": tracer.self_s("parser.parse"),
        "analyze_s": tracer.self_s("analysis.analyze"),
        "decode_s": tracer.self_s("protocol.decode"),
    }


def per_layer_report(tracer: Tracer,
                     extras: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric with its unit; metrics the workload did
    not reach are 0."""
    values = span_metrics(tracer)
    values.update(extras)
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics missing from PER_LAYER: {sorted(unknown)}")
    return {name: (values.get(name, 0), unit)
            for name, unit in PER_LAYER.items()}


def run_traced(work: Callable[[Tracer], object]) -> Tuple[Tracer, object]:
    """Call ``work(tracer)`` with every target wrapped; the originals
    are back in place when this returns or raises."""
    for module in PRELOAD:
        importlib.import_module(module)
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        return tracer, work(tracer)
    finally:
        tracer.uninstall()
