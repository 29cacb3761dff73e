"""Workload ``eval_scale``: bottom-up evaluation of three 10^5-fact
inputs, cold, warm and after an append.

The inputs are the shapes of the ``tag:scale`` scenarios: a two-hop
join over a 100k-edge chain (one wide join stage), single-source
reachability over a random graph (60k nodes, 120k edges) and over a
230x230 monotone grid (~459 rounds of tiny deltas).  The seed picks
node names, fact order, the random graph and the reach source; the
sizes never change, so runs with different seeds do the same work.

Per input, one pass times three operations on the public API:

* cold -- raw tuples -> ``Database.from_facts`` -> a fresh
  ``Engine().query`` -> ``rows_checksum``;
* warm -- the same question again on the same engine and database
  (``WARM_REPEATS`` times);
* update -- 100 new facts appended with ``Database.add`` (the version
  bump invalidates the cached EDB image), then the question again.

Each operation's time is the fastest of its passes (at least
``MIN_PASSES``), so a slowdown caused by other processes on the machine
moves the figures less.  The end-to-end latencies and rate are
geometric means over the three inputs, so each shape counts the same:
a 2x slowdown of any one of them moves them by 2^(1/3).

The passes run in a process of their own that holds only the input
tuples and the program's data, so its peak RSS is the program's.  It
returns, per answer, the program's ``rows_checksum`` digest, the row
count and an order-independent digest of the row *set* computed by the
benchmark (``common.set_digest``).  Outside the timed region the
calling process compares them with the structural oracles
(``two_hop_pairs`` / ``reachable_from``): the set digest and the count
with the oracle row set, and the program's digest with that of the
oracle rows.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from common import Tally, end_to_end, geomean, median, set_digest
from spans import NoTracer

SETUP = "import repro\nfrom repro.datalog.engine import Engine\nEngine()"

#: Facts appended before the update query (at full scale).
APPEND = 100
#: Passes a run makes at least; each operation reports its fastest
#: pass, which filters out slowdowns caused by other processes.
MIN_PASSES = 2
#: Warm queries per input and pass (they are short, so cheap to repeat).
WARM_REPEATS = 2
KINDS = ("cold", "warm", "update")


@dataclass
class EvalInput:
    shape: str
    program: object
    goal: str
    facts: List[Tuple[str, tuple]]
    append: List[Tuple[str, tuple]]
    #: The oracle's arguments: the edges before the append, the
    #: appended edges and the reach source (None for the two-hop join).
    edges: List[tuple]
    added: List[tuple]
    source: Optional[str] = None
    #: Set by :func:`reference`: "before" / "after" the append ->
    #: the expected row set.
    expected: Optional[Dict[str, Set[tuple]]] = None

    def oracle(self, edges) -> Set[tuple]:
        from repro.workloads import generators as gen

        if self.source is None:
            return gen.two_hop_pairs(edges)
        return {(node,) for node in gen.reachable_from(edges, self.source)}

    def describe(self) -> str:
        """A canonical text of the input (same seed, same text)."""
        expected = (None if self.expected is None else
                    {stage: sorted(rows)
                     for stage, rows in sorted(self.expected.items())})
        return repr((self.shape, str(self.program), self.goal, self.facts,
                     self.append, expected))


def _relabel(edges, prefix, rng):
    """Edges with every node renamed to a seeded, distinct name."""
    nodes = list(dict.fromkeys(node for edge in edges for node in edge))
    ids = rng.sample(range(10 * len(nodes)), len(nodes))
    names = {node: f"{prefix}{i}" for node, i in zip(nodes, ids)}
    return [(names[a], names[b]) for a, b in edges], names


def _chain(rng, scale):
    from repro.workloads import generators as gen

    length = max(20, round(100_000 * scale))
    extra = max(2, min(APPEND, length // 10))
    edges, _ = _relabel(gen.chain_edges(length + extra), "v", rng)
    base, added = edges[:length], edges[length:]
    rng.shuffle(base)
    return EvalInput(
        "chain_2hop", gen.two_hop_program(), "p",
        [("e", edge) for edge in base], [("e", edge) for edge in added],
        base, added)


def _reach_input(shape, edges, source, rng, extra):
    from repro.workloads import generators as gen

    # The appended edges leave reached nodes, so the answer grows.
    reached = sorted(gen.reachable_from(edges, source))
    tails = rng.sample(reached, min(extra, len(reached)))
    added = [(tail, f"x{index}") for index, tail in enumerate(tails)]
    facts = [("e", edge) for edge in edges] + [("src", (source,))]
    rng.shuffle(facts)
    return EvalInput(
        shape, gen.single_source_reach(), "r", facts,
        [("e", edge) for edge in added], edges, added, source)


def _random(rng, scale):
    from repro.workloads import generators as gen

    nodes = max(20, round(60_000 * scale))
    edges = gen.random_graph_edges(nodes, 2 * nodes,
                                   seed=rng.randrange(1 << 30))
    # A source inside the giant component, so every seed sweeps most
    # of the graph (a source in a small component would do no work).
    best = None
    for candidate in rng.sample(range(nodes), min(nodes, 20)):
        size = len(gen.reachable_from(edges, f"u{candidate}"))
        if best is None or size > best[0]:
            best = (size, f"u{candidate}")
        if size >= nodes // 2:
            break
    extra = max(2, min(APPEND, nodes // 10))
    return _reach_input("random_reach", edges, best[1], rng, extra)


def _grid(rng, scale):
    from repro.workloads import generators as gen

    side = max(4, round(230 * math.sqrt(scale)))
    edges, names = _relabel(gen.grid_edges(side, side), "g", rng)
    extra = max(2, min(APPEND, side))
    return _reach_input("grid_reach", edges, names["g0_0"], rng, extra)


def make_inputs(seed: int, scale: float = 1.0) -> List[EvalInput]:
    """The three inputs of one run, built before any timing."""
    rng = random.Random(seed)
    return [_chain(rng, scale), _random(rng, scale), _grid(rng, scale)]


def reference(seed: int, scale: float = 1.0) -> List[EvalInput]:
    """The inputs of one run with their oracle row sets, before and
    after the append."""
    inputs = make_inputs(seed, scale)
    for inp in inputs:
        inp.expected = {"before": inp.oracle(inp.edges),
                        "after": inp.oracle(inp.edges + inp.added)}
    return inputs


def _pass(inputs, tracer, samples: Dict[str, object]) -> None:
    """One cold / warm / update pass over every input."""
    from repro import session
    from repro.datalog.database import Database
    from repro.datalog.engine import Engine

    def answer(inp, stage, rows, digest):
        samples["answers"].append(
            [inp.shape, stage, digest, set_digest(rows), len(rows)])

    for inp in inputs:
        times = {}
        # Start every input from an empty collector, so the collections
        # its operations pay for depend on their own allocations only.
        gc.collect()
        with tracer.span("op.cold"):
            start = perf_counter()
            database = Database.from_facts(inp.facts)
            engine = Engine()
            rows = engine.query(inp.program, database, inp.goal)
            digest = session.rows_checksum(rows)
            times["cold"] = [perf_counter() - start]
        answer(inp, "before", rows, digest)

        for _ in range(WARM_REPEATS):
            with tracer.span("op.warm"):
                start = perf_counter()
                rows = engine.query(inp.program, database, inp.goal)
                digest = session.rows_checksum(rows)
                times.setdefault("warm", []).append(perf_counter() - start)
            answer(inp, "before", rows, digest)

        with tracer.span("op.update"):
            start = perf_counter()
            for predicate, row in inp.append:
                database.add(predicate, row)
            rows = engine.query(inp.program, database, inp.goal)
            digest = session.rows_checksum(rows)
            times["update"] = [perf_counter() - start]
        answer(inp, "after", rows, digest)
        del database, engine, rows
        for kind, seconds in times.items():
            samples[kind].setdefault(inp.shape, []).extend(seconds)
        samples["facts"][inp.shape] = len(inp.facts)


def measure(inputs, tracer=None, seconds: Optional[float] = None,
            passes: Optional[int] = None,
            like: Optional[dict] = None) -> Dict[str, object]:
    """Whole passes until *seconds* have passed and at least
    ``MIN_PASSES`` are done (or exactly *passes*, or as many as the
    earlier measurement *like* made)."""
    tracer = tracer or NoTracer()
    if like is not None:
        passes = like["passes"]
    samples: Dict[str, object] = {"cold": {}, "warm": {}, "update": {},
                                  "facts": {}, "answers": [], "passes": 0}
    start = perf_counter()
    while (samples["passes"] < passes if passes is not None
           else samples["passes"] < MIN_PASSES
           or perf_counter() - start < seconds):
        _pass(inputs, tracer, samples)
        samples["passes"] += 1
    return samples


def check(inputs: List[EvalInput], samples, tally: Tally) -> None:
    """Count every answer of *samples* against the oracles."""
    from repro.session import rows_checksum

    expect = {}
    for inp in inputs:
        for stage, rows in inp.expected.items():
            expect[inp.shape, stage] = (rows_checksum(rows),
                                        set_digest(rows), len(rows))
    for shape, stage, digest, rows_digest, count in samples["answers"]:
        tally.check(expect[shape, stage] == (digest, rows_digest, count),
                    f"{shape} answer {stage} the append: {count} rows, "
                    f"digest {digest}")


def best(samples, kind: str) -> List[float]:
    """Per input, the fastest of its passes (seconds)."""
    return [min(times) for times in samples[kind].values()]


def busy_s(samples) -> float:
    return sum(sum(best(samples, kind)) for kind in KINDS)


def summarize(samples, setup_s: float, rss_mb: float) -> Dict[str, tuple]:
    """Each input counts the same: the latencies are geometric means
    over the inputs (of each input's fastest pass, or of the p90 over
    its passes), and the rate is the geometric mean of the cold, warm
    and update rates of every input."""
    tails = [statistics.quantiles(times, n=10, method="inclusive")[8]
             for times in samples["cold"].values()]
    latencies = {"cold_p50_ms": geomean(best(samples, "cold")) * 1000,
                 "cold_p90_ms": geomean(tails) * 1000,
                 "warm_p50_ms": geomean(best(samples, "warm")) * 1000}
    rates = [1 / seconds for kind in KINDS for seconds in best(samples, kind)]
    return end_to_end(setup_s, rss_mb, geomean(rates), latencies)


def breakdown(samples) -> Dict[str, float]:
    """The eval-only per-layer extras (facts per second by phase)."""
    facts = sum(samples["facts"].values())
    return {
        "eval_update_s": median(best(samples, "update")),
        "eval_cold_facts_per_s": facts / sum(best(samples, "cold")),
        "eval_warm_facts_per_s": facts / sum(best(samples, "warm")),
    }


def warm_up(seed: int, scale: float) -> None:
    """Untimed: one pass on small inputs, so lazy imports and
    first-call set-up are not charged to the first timed operation."""
    measure(make_inputs(seed + 1, scale * 0.02), passes=1)
