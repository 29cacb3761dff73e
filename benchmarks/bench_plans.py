"""E-PLAN -- compiled join plans vs the interpretive evaluator.

Not a paper table: measures the compiled evaluation path -- join order
fixed at compile time, constants interned to ints, plans executed as
batch kernels over column stores.  It must (a) produce bit-identical
results to the interpretive oracle on every program in the library and
(b) beat it on the linear-pathway and chained-recursion workloads.
"""

import random
import time

import pytest

from repro.datalog.database import Database
from repro.datalog.engine import Engine, EngineConfig
from repro.programs import library as lib

COLUMNAR = Engine(EngineConfig(compiled=True))
INTERPRETIVE = Engine(EngineConfig(compiled=False))


def chain_database(length: int, predicates=("e",)) -> Database:
    db = Database()
    for i in range(length):
        for predicate in predicates:
            db.add(predicate, (f"v{i}", f"v{i+1}"))
    return db


def labeled_graph(nodes: int, edge_prob: float = 0.4, seed: int = 7) -> Database:
    rng = random.Random(seed)
    db = Database()
    names = [f"n{i}" for i in range(nodes)]
    for a in names:
        for b in names:
            if rng.random() < edge_prob:
                db.add("e", (a, b))
                db.add("e0", (a, b))
    db.add("e", (names[0], names[1]))
    db.add("e0", (names[0], names[1]))
    for i, name in enumerate(names):
        db.add("zero" if i % 2 == 0 else "one", (name,))
        db.add("flat", (name, names[(i + 1) % nodes]))
        db.add("up", (name, names[(i + 2) % nodes]))
        db.add("down", (name, names[(i + 3) % nodes]))
        for j in range(4):
            db.add(f"g{j}", (name, names[(i + 1) % nodes]))
    return db


# The two acceptance workloads: linear pathway (the paper's Example 2.5
# shape on a long chain) and chained recursion (guarded linear rule).
WORKLOADS = {
    "linear-pathway": (lib.transitive_closure(),
                       chain_database(64, ("e", "e0"))),
    "chained-recursion": (lib.chain_program(3),
                          chain_database(48, ("g0", "g1", "g2", "e0"))),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_columnar_engine(benchmark, workload):
    program, db = WORKLOADS[workload]
    result = benchmark(lambda: COLUMNAR.evaluate(program, db))
    assert result.fixpoint


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_interpretive_engine(benchmark, workload):
    program, db = WORKLOADS[workload]
    result = benchmark(lambda: INTERPRETIVE.evaluate(program, db))
    assert result.fixpoint


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_compiled_beats_interpretive(benchmark, workload):
    """The headline claim: the compiled columnar path wins on both
    workloads.

    Measured directly (best of 3) rather than via the benchmark
    fixture so the two paths run back to back on the same process
    state; the margin (interpretive is ~10x slower here) makes the
    assertion robust to timer noise.
    """
    program, db = WORKLOADS[workload]

    def best_of(engine, reps=3):
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            engine.evaluate(program, db)
            best = min(best, time.perf_counter() - start)
        return best

    def measure():
        return best_of(COLUMNAR), best_of(INTERPRETIVE)

    compiled_s, interpretive_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["compiled_s"] = compiled_s
    benchmark.extra_info["interpretive_s"] = interpretive_s
    benchmark.extra_info["speedup"] = interpretive_s / compiled_s
    assert compiled_s < interpretive_s * 0.7, (
        f"compiled path ({compiled_s:.4f}s) should beat the interpretive "
        f"path ({interpretive_s:.4f}s) on {workload}"
    )


def _library_cases():
    graph = labeled_graph(5)
    likes = Database.from_facts([
        ("likes", ("ann", "widget")), ("trendy", ("bob",)),
        ("knows", ("bob", "ann")), ("knows", ("cid", "bob")),
        ("part", ("w1", "w2")), ("part", ("w2", "w3")),
        ("direct", ("w1", "w2")), ("blanket", ("w1",)),
    ])
    return [
        ("buys_bounded", lib.buys_bounded(), likes),
        ("buys_bounded_rewriting", lib.buys_bounded_rewriting(), likes),
        ("buys_recursive", lib.buys_recursive(), likes),
        ("buys_recursive_rewriting", lib.buys_recursive_rewriting(), likes),
        ("transitive_closure", lib.transitive_closure(), graph),
        ("plain_transitive_closure", lib.plain_transitive_closure(), graph),
        ("dist_3", lib.dist(3), graph),
        ("dist_le_2", lib.dist_le(2), graph),
        ("equal_2", lib.equal(2), graph),
        ("word_3", lib.word(3), graph),
        ("chain_program_4", lib.chain_program(4), graph),
        ("nonlinear_reach", lib.nonlinear_reach(), graph),
        ("same_generation", lib.same_generation(), graph),
        ("widget_supply_chain", lib.widget_supply_chain(), likes),
        ("widget_certified", lib.widget_certified(), likes),
        ("widget_certified_rewriting", lib.widget_certified_rewriting(), likes),
    ]


def test_bit_identical_across_library(benchmark):
    """evaluate() agrees across both paths -- columnar batch kernels
    and the interpretive oracle: idb rows, stage count and fixpoint
    flag -- on every library program, for the unbounded fixpoint and a
    spread of stage bounds."""

    def check_all():
        checked = 0
        for name, program, db in _library_cases():
            for max_stages in (None, 0, 1, 2, 5):
                a = COLUMNAR.evaluate(program, db, max_stages=max_stages)
                b = INTERPRETIVE.evaluate(program, db, max_stages=max_stages)
                assert a.idb == b.idb, (name, max_stages)
                assert a.stages == b.stages, (name, max_stages)
                assert a.fixpoint == b.fixpoint, (name, max_stages)
                checked += 1
        return checked

    checked = benchmark.pedantic(check_all, rounds=1, iterations=1)
    assert checked == len(_library_cases()) * 5
