"""The compiled join-plan engine (repro.datalog.plan).

Differential coverage against the interpretive reference path on the
library programs (including unsafe / empty-body rules and the
stage-bounded semantics), plan-compiler unit checks, plan resolution
against the columnar store, and index maintenance of both stores
(the interpretive ``_Store.add_all`` and ``ColumnStore.add_keys``).
"""

from __future__ import annotations

import random

import pytest

from repro.datalog.columns import ColumnStore
from repro.datalog.database import Database
from repro.datalog.engine import (
    Engine,
    EngineConfig,
    _Store,
    evaluate,
    naive_evaluate,
    query,
    seminaive_evaluate,
)
from repro.datalog.errors import ValidationError
from repro.datalog.parser import parse_program
from repro.datalog.plan import (
    OP_BIND,
    OP_CHECK,
    OP_CONST,
    JoinPlan,
    PlanCache,
    compile_program,
)
from repro.datalog.terms import Constant
from repro.programs import library as lib

from .conftest import random_graph_database

COMPILED = Engine(EngineConfig(compiled=True))
INTERPRETIVE = Engine(EngineConfig(compiled=False))


def labeled_graph(seed: int = 3, nodes: int = 5) -> Database:
    rng = random.Random(seed)
    db = random_graph_database(rng, nodes=nodes)
    names = [f"n{i}" for i in range(nodes)]
    for name in names:
        db.add("e0", (name, names[(names.index(name) + 1) % nodes]))
        db.add("zero" if rng.random() < 0.5 else "one", (name,))
        db.add("flat", (name, names[0]))
        db.add("up", (name, names[-1]))
        db.add("down", (names[0], name))
        for j in range(4):
            db.add(f"g{j}", (name, names[(names.index(name) + 1) % nodes]))
    return db


LIBRARY_BUILDERS = [
    lib.buys_bounded, lib.buys_bounded_rewriting, lib.buys_recursive,
    lib.buys_recursive_rewriting, lib.transitive_closure,
    lib.plain_transitive_closure, lambda: lib.dist(3),
    lambda: lib.dist_le(2), lambda: lib.equal(2), lambda: lib.word(3),
    lambda: lib.chain_program(4), lib.nonlinear_reach, lib.same_generation,
    lib.widget_supply_chain, lib.widget_certified,
    lib.widget_certified_rewriting,
]


def database_for(program) -> Database:
    db = labeled_graph()
    # Give every EDB predicate of the program at least some rows over
    # the same constants so no join is trivially empty.
    names = [f"n{i}" for i in range(5)]
    for predicate in sorted(program.edb_predicates):
        if predicate not in db.predicates():
            arity = program.arity[predicate]
            for i in range(4):
                db.add(predicate,
                       tuple(names[(i + k) % len(names)] for k in range(arity)))
    return db


class TestDifferential:
    @pytest.mark.parametrize("builder", LIBRARY_BUILDERS,
                             ids=lambda b: getattr(b, "__name__", "param"))
    @pytest.mark.parametrize("max_stages", [None, 0, 1, 3])
    def test_bit_identical_on_library(self, builder, max_stages):
        program = builder()
        db = database_for(program)
        compiled = COMPILED.evaluate(program, db, max_stages=max_stages)
        interpretive = INTERPRETIVE.evaluate(program, db, max_stages=max_stages)
        assert compiled.idb == interpretive.idb
        assert compiled.stages == interpretive.stages
        assert compiled.fixpoint == interpretive.fixpoint

    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize("validate", [True, False])
    def test_config_ablations_agree(self, compiled, validate):
        # Every combination of the engine's boolean knobs computes the
        # same fixpoint (the validate gate accepts this safe program).
        program = lib.plain_transitive_closure()
        db = labeled_graph(seed=11)
        engine = Engine(EngineConfig(compiled=compiled, validate=validate))
        result = engine.evaluate(program, db)
        reference = INTERPRETIVE.evaluate(program, db)
        assert result.idb == reference.idb
        assert result.stages == reference.stages

    def test_unsafe_and_empty_body_rules(self):
        # dist_le carries the paper's empty-body rules dist0(X, X) :- .
        program = lib.dist_le(2)
        db = labeled_graph(seed=5)
        compiled = COMPILED.evaluate(program, db)
        interpretive = INTERPRETIVE.evaluate(program, db)
        assert compiled.idb == interpretive.idb
        # Unsafe head variables range over the whole active domain.
        assert compiled.facts("distlt0")

    def test_unsafe_rule_with_program_constant(self):
        program = parse_program(
            """
            marked(X, Y) :- tag(c, Y).
            tag(c, X) :- .
            """
        )
        db = Database.from_facts([("seen", ("a",)), ("seen", ("b",))])
        compiled = COMPILED.evaluate(program, db)
        interpretive = INTERPRETIVE.evaluate(program, db)
        assert compiled.idb == interpretive.idb
        # 'c' enters the active domain from the program itself.
        values = {c.value for row in compiled.facts("tag") for c in row}
        assert "c" in values

    def test_empty_database_unsafe_rule_derives_nothing(self):
        program = parse_program("p(X) :- .")
        result = COMPILED.evaluate(program, Database())
        assert result.facts("p") == frozenset()
        assert result.idb == INTERPRETIVE.evaluate(program, Database()).idb

    def test_repeated_variables_and_constants(self):
        program = parse_program(
            """
            loop(X) :- e(X, X).
            to_hub(X) :- e(X, hub).
            pair(X, X) :- e(X, Y), e(Y, X).
            """
        )
        db = Database.from_facts([
            ("e", ("a", "a")), ("e", ("a", "hub")), ("e", ("hub", "a")),
            ("e", ("b", "c")), ("e", ("c", "b")),
        ])
        compiled = COMPILED.evaluate(program, db)
        interpretive = INTERPRETIVE.evaluate(program, db)
        assert compiled.idb == interpretive.idb
        assert compiled.facts("loop") == frozenset({(Constant("a"),)})

    def test_module_level_evaluate_routes_compiled(self, tc_program):
        db = labeled_graph(seed=9)
        default = evaluate(tc_program, db)
        forced = evaluate(tc_program, db, engine=INTERPRETIVE)
        assert default.idb == forced.idb
        assert (query(tc_program, db, "p")
                == query(tc_program, db, "p", engine=INTERPRETIVE))


class TestPlanCompiler:
    def test_plan_compiles_once_per_rule_and_variant(self, tc_program):
        cache = PlanCache()
        rule = tc_program.rules[0]
        assert cache.plan(rule, None) is cache.plan(rule, None)
        assert cache.plan(rule, 1) is cache.plan(rule, 1)
        assert cache.plan(rule, None) is not cache.plan(rule, 1)

    def test_compile_program_covers_all_rules(self, tc_program):
        plans = compile_program(tc_program)
        assert set(plans) == set(tc_program.rules)

    def test_head_projection_and_registers(self):
        program = parse_program("p(Y, X, k) :- e(X, Y).")
        plan = JoinPlan(program.rules[0])
        assert plan.nregs == 2
        assert len(plan.head_ops) == 3
        is_regs = [is_reg for is_reg, _ in plan.head_ops]
        assert is_regs == [True, True, False]
        assert plan.unsafe_regs == ()

    def test_unsafe_head_variables_detected(self):
        program = parse_program("p(X, Y) :- e(X, X).")
        plan = JoinPlan(program.rules[0])
        assert len(plan.unsafe_regs) == 1

    def test_delta_variant_marks_delta_step(self, tc_program):
        recursive = tc_program.rules[0]  # p(X,Y) :- e(X,Z), p(Z,Y).
        plan = JoinPlan(recursive, delta_index=1)
        delta_flags = [use_delta for _, use_delta, _, _ in plan.steps]
        assert delta_flags.count(True) == 1
        predicate = [s[0] for s in plan.steps if s[1]][0]
        assert predicate == "p"

    def test_bound_prefix_gets_index_spec(self, tc_program):
        plan = JoinPlan(tc_program.rules[0])
        # The second step joins on a variable bound by the first, so it
        # must carry an index spec.
        assert plan.steps[1][2] is not None

    def test_engine_rejects_unknown_strategy(self):
        with pytest.raises(ValidationError):
            EngineConfig(strategy="bogus")


class TestStoreIndexMaintenance:
    def test_interpretive_store_add_all_maintains_indexes(self):
        db = Database.from_facts([("e", ("a", "b"))])
        store = _Store(db)
        a, b, c = Constant("a"), Constant("b"), Constant("c")
        # Force the lazy index into existence, then insert more rows.
        assert store.candidates("e", 0, a) == {(a, b)}
        fresh = store.add_all("e", {(a, c), (a, b)})
        assert fresh == {(a, c)}
        assert store.candidates("e", 0, a) == {(a, b), (a, c)}
        # Rows for other predicates never leak into the index.
        store.add_all("f", {(a, b)})
        assert store.candidates("e", 0, a) == {(a, b), (a, c)}

    def test_column_store_add_keys_maintains_indexes(self):
        db = Database.from_facts([("e", ("a", "b"))])
        store = ColumnStore(db, idb={"e"})
        a, b, c = (store.resolve(Constant(v)) for v in "abc")
        store.seal()
        base = store.base
        # Force the private index into existence, then insert more rows.
        index, unique = store.index("e", 0)
        assert not unique and index == {a: [0]}
        fresh = store.add_keys("e", [a * base + c, a * base + b], 2)
        assert fresh.n == 1 and fresh.cols == [[a], [c]]
        assert store.index("e", 0)[0] == {a: [0, 1]}
        assert store.cols("e") == [[a, a], [b, c]]

    def test_column_store_interning_round_trip(self):
        db = Database.from_facts([("e", ("a", 1)), ("e", ("b", 2))])
        store = ColumnStore(db, idb=())
        rows = store.unintern_rows("e")
        assert rows == frozenset({
            (Constant("a"), Constant(1)), (Constant("b"), Constant(2)),
        })
        # Interned values are small ints.
        assert all(isinstance(v, int) for col in store.cols("e") for v in col)

    def test_column_store_domain_tracks_inserts_and_constants(self):
        db = Database.from_facts([("e", ("a", "b"))])
        store = ColumnStore(db, idb={"e"})
        before = len(store.domain())
        store.resolve(Constant("k"))
        store.seal()
        store.add_keys("e", [0 * store.base + 1], 2)  # already-known values
        assert len(store.domain()) == before + 1

    def test_add_keys_returns_only_new_rows(self):
        db = Database.from_facts([("e", ("a", "b"))])
        store = ColumnStore(db, idb={"e"})
        store.seal()
        (key,) = store.keyset("e")
        assert store.add_keys("e", [key], 2) is None
        assert store.count("e") == 1


class TestPlanResolution:
    """``JoinPlan.resolve`` against the columnar store."""

    def test_constants_resolve_to_interned_ids(self):
        program = parse_program("p(X, k) :- e(X, c), f(X, c).")
        db = Database.from_facts([("e", ("a", "c")), ("f", ("a", "c"))])
        store = ColumnStore(db, idb=program.idb_predicates)
        plan = JoinPlan(program.rules[0])
        rplan = plan.resolve(store)
        c = store.resolve(Constant("c"))
        k = store.resolve(Constant("k"))
        # The first step probes its constant position: the index spec
        # carries the interned id.
        position, is_reg, payload = rplan.steps[0][2]
        assert (is_reg, payload) == (False, c)
        # Remaining constant ops and head constants are interned too.
        const_payloads = {payload for step in rplan.steps
                          for _, op, payload in step[3] if op == OP_CONST}
        assert const_payloads <= {c}
        assert rplan.head_ops[1] == (False, k)
        store.seal()
        assert store.base > max(c, k)

    def test_index_position_op_dropped(self, tc_program):
        plan = JoinPlan(tc_program.rules[0])  # p(X,Y) :- e(X,Z), p(Z,Y).
        store = ColumnStore(Database.from_facts([("e", ("a", "b"))]),
                            idb=tc_program.idb_predicates)
        rplan = plan.resolve(store)
        for (_, _, spec, ops), (_, _, _, symbolic_ops) in zip(rplan.steps,
                                                             plan.steps):
            if spec is None:
                assert ops == symbolic_ops
                continue
            # The probe step checked its join column against a register;
            # candidate rows satisfy it already, so the op is gone.
            position = spec[0]
            assert all(pos != position for pos, _, _ in ops)
            assert len(ops) == len(symbolic_ops) - 1
        probe_ops = rplan.steps[1][3]
        assert [op for _, op, _ in probe_ops] == [OP_BIND]
        assert any(op == OP_CHECK for _, op, _ in plan.steps[1][3])

    def test_unsafe_head_registers_survive_resolution(self):
        program = parse_program("p(X, Y) :- e(X, X).")
        db = Database.from_facts([("e", ("a", "a"))])
        plan = JoinPlan(program.rules[0])
        rplan = plan.resolve(ColumnStore(db, idb=program.idb_predicates))
        assert rplan.unsafe_regs == plan.unsafe_regs
        assert len(rplan.unsafe_regs) == 1
        # The unsafe register is projected by the head, never bound by
        # the body.
        bound = {payload for step in rplan.steps
                 for _, op, payload in step[3] if op == OP_BIND}
        assert rplan.unsafe_regs[0] not in bound
        assert (True, rplan.unsafe_regs[0]) in rplan.head_ops
