"""Seed-deterministic generators for structured workload families.

The paper's decision procedures are exercised in the test suite by
hand-picked programs (:mod:`repro.programs`); this module opens the
*scenario axis*: parameterized families of programs and EDB databases
whose ground-truth verdicts are known **by construction**, so a batch
of thousands of decisions can be checked end-to-end without trusting
the procedures being measured.

Two design rules hold throughout:

* **Determinism** -- every generator that uses randomness takes a
  ``seed`` and draws only from its own ``random.Random(seed)``; the
  same seed always yields the identical program / database / expected
  verdict (tested in ``tests/test_workloads.py``).  Nothing reads
  global RNG state.
* **Independent ground truth** -- expected answers are computed
  structurally (graph walks over the generated edge lists, closed-form
  counts), never by running the engine or the automata under test.

Program families
----------------

==============================  ========================================
family                          shape / known verdict
==============================  ========================================
:func:`guarded_chain`           linear recursion, *width* EDB guards
                                (re-export of
                                :func:`repro.programs.chain_program`);
                                contained in :func:`covering_union`
:func:`sirup`                   single recursive rule over a random
                                EDB chain; contained in its
                                :func:`sirup_covering_union`, unbounded
:func:`alternating_recursion`   two mutually recursive predicates
                                (proof trees alternate p/q labels)
:func:`bounded_program`         Example 1.1's guard pattern with a
                                random guard pool: bounded with
                                certificate depth 2, equivalent to
                                :func:`bounded_rewriting`
:func:`unbounded_program`       transitive closure over random
                                predicate names: no depth-k
                                certificate exists for any k
:func:`bounded_unbounded_pairs` labeled stream mixing the two above
==============================  ========================================

EDB families
------------

:func:`chain_edges`, :func:`tree_edges`, :func:`grid_edges`,
:func:`random_graph_edges`, :func:`star_edges`,
:func:`power_law_edges` (preferential attachment: hub-skewed degree
profiles), and :func:`road_network_edges` (two-way street grids with
closed roads and highway shortcuts) produce edge lists; :func:`edges_database` and :func:`tree_updown_database` turn
them into :class:`~repro.datalog.database.Database` values; the
structural oracles (:func:`reachable_pairs`, :func:`reachable_from`,
:func:`two_hop_pairs`, :func:`same_depth_pairs` and the ``*_count``
forms) supply evaluation ground truth without running the engine.
:func:`two_hop_program`, :func:`single_source_reach`, and
:func:`random_program` are the programs of the ``tag:scale`` tier and
the backend differential fuzz suite (``tests/test_columnar.py``).

Doctest smoke (same seed, same program)::

    >>> from repro.workloads.generators import sirup
    >>> str(sirup(2, seed=7)) == str(sirup(2, seed=7))
    True
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..datalog.database import Database
from ..datalog.parser import parse_atom, parse_program
from ..datalog.program import Program
from ..programs.library import chain_program as guarded_chain  # noqa: F401

Edge = Tuple[str, str]

# Deterministic predicate-name pools the random families draw from.
_EDB_POOL = ("edge", "link", "hop", "wire", "road", "pipe")
_GUARD_POOL = ("trendy", "blanket", "vip", "flag", "mark", "hot")


# ----------------------------------------------------------------------
# Program families.
# ----------------------------------------------------------------------

def sirup(body_length: int, seed: int = 0) -> Program:
    """A *single recursive rule program* (sirup) over a random chain.

    The recursive rule threads *body_length* EDB atoms (predicates
    drawn deterministically from a small pool) from the head variable
    to the recursive call; a single base rule reads ``base``::

        p(X, Y) :- edge(X, V1), hop(V1, V2), p(V2, Y).
        p(X, Y) :- base(X, Y).

    Every sirup of this family is unbounded (each unfolding adds a
    fresh EDB chain) and is contained in
    :func:`sirup_covering_union` by construction.
    """
    if body_length < 1:
        raise ValueError("body_length must be >= 1")
    rng = random.Random(seed)
    preds = [rng.choice(_EDB_POOL) for _ in range(body_length)]
    variables = ["X"] + [f"V{i}" for i in range(1, body_length)] + ["Z"]
    chain = ", ".join(
        f"{pred}({variables[i]}, {variables[i + 1]})"
        for i, pred in enumerate(preds)
    )
    return parse_program(
        f"""
        p(X, Y) :- {chain}, p(Z, Y).
        p(X, Y) :- base(X, Y).
        """
    )


def sirup_first_predicate(body_length: int, seed: int = 0) -> str:
    """The first EDB predicate of :func:`sirup`'s recursive rule (the
    same draw sequence, so it matches the generated program)."""
    rng = random.Random(seed)
    return rng.choice(_EDB_POOL)


def sirup_covering_union(body_length: int, seed: int = 0) -> UnionOfConjunctiveQueries:
    """A union that covers every expansion of ``sirup(body_length, seed)``.

    A depth-0 expansion is ``base(X, Y)``; every deeper expansion
    starts with the recursive rule's first EDB atom out of ``X``.  Both
    shapes appear as disjuncts, so containment holds by construction.
    """
    first = sirup_first_predicate(body_length, seed)
    return UnionOfConjunctiveQueries(
        [
            ConjunctiveQuery(parse_atom("p(X, Y)"), (parse_atom("base(X, Y)"),)),
            ConjunctiveQuery(parse_atom("p(X, Y)"), (parse_atom(f"{first}(X, Z)"),)),
        ]
    )


def covering_union() -> UnionOfConjunctiveQueries:
    """The union covering every :func:`guarded_chain` program:
    'some g0-edge out of X0' or 'a bare e0 edge' (the second disjunct
    is deliberately unsafe -- the head variable X1 does not occur in
    the body -- which the containment procedures must handle)."""
    return UnionOfConjunctiveQueries(
        [
            ConjunctiveQuery(parse_atom("p(X0, X1)"), (parse_atom("e0(X0, X1)"),)),
            ConjunctiveQuery(parse_atom("p(X0, X1)"), (parse_atom("g0(X0, Z)"),)),
        ]
    )


def alternating_recursion() -> Program:
    """Two mutually recursive predicates: proof trees alternate
    ``p``/``q`` nodes, exercising multi-predicate automata alphabets."""
    return parse_program(
        """
        p(X, Y) :- e(X, Z), q(Z, Y).
        q(X, Y) :- f(X, Z), p(Z, Y).
        p(X, Y) :- e0(X, Y).
        q(X, Y) :- f0(X, Y).
        """
    )


def bounded_program(guards: int, seed: int = 0) -> Program:
    """Example 1.1's bounded pattern with a random pool of *guards*.

    Each recursive rule guards on a nullary-ish test of the head
    variable and recurses on a fresh variable::

        p(X, Y) :- base(X, Y).
        p(X, Y) :- trendy(X), p(Z, Y).     # one rule per guard

    Ground truth by the paper's argument for Pi_1: every depth-d
    expansion ``g1(X), g2(Z1), ..., base(Zd, Y)`` admits a
    homomorphism from the depth-2 expansion ``g1(X), base(Z, Y)``, so
    the program is **bounded with certificate depth 2** (depth 1 --
    the base rule alone -- never suffices) and equivalent to
    :func:`bounded_rewriting`.
    """
    if guards < 1:
        raise ValueError("guards must be >= 1")
    rng = random.Random(seed)
    names = rng.sample(_GUARD_POOL, guards)
    rules = ["p(X, Y) :- base(X, Y)."]
    rules += [f"p(X, Y) :- {name}(X), p(Z, Y)." for name in names]
    return parse_program("\n".join(rules))


def bounded_rewriting(guards: int, seed: int = 0) -> Program:
    """The nonrecursive rewriting of :func:`bounded_program` (same
    draw sequence): each recursive rule's ``p(Z, Y)`` is replaced by
    ``base(Z, Y)``."""
    if guards < 1:
        raise ValueError("guards must be >= 1")
    rng = random.Random(seed)
    names = rng.sample(_GUARD_POOL, guards)
    rules = ["p(X, Y) :- base(X, Y)."]
    rules += [f"p(X, Y) :- {name}(X), base(Z, Y)." for name in names]
    return parse_program("\n".join(rules))


def unbounded_program(seed: int = 0) -> Program:
    """Transitive closure over randomly named predicates: unbounded
    (depth-d expansions have ever-longer EDB chains, so no truncation
    union ever contains the program)."""
    rng = random.Random(seed)
    edge = rng.choice(_EDB_POOL)
    return parse_program(
        f"""
        p(X, Y) :- {edge}(X, Z), p(Z, Y).
        p(X, Y) :- base(X, Y).
        """
    )


def two_hop_program() -> Program:
    """``p(X, Y) :- e(X, Z), e(Z, Y).`` -- the nonrecursive two-hop
    join, the scale tier's pure-join workload (output is linear on
    chain EDBs)."""
    return parse_program("p(X, Y) :- e(X, Z), e(Z, Y).")


def single_source_reach() -> Program:
    """Single-source reachability: ``r`` holds the nodes reachable from
    the ``src`` seed(s).  The scale tier's recursive workload -- the
    answer stays linear in the EDB while the semi-naive frontier sweeps
    the whole graph."""
    return parse_program(
        """
        r(X) :- src(X).
        r(Y) :- r(X), e(X, Y).
        """
    )


def random_program(seed: int = 0, max_rules: int = 4) -> Program:
    """A small random positive program for differential fuzzing.

    Draws 2..*max_rules* rules over tiny predicate/variable pools:
    linear-recursive, nonrecursive, constant-carrying, repeated-variable
    and (occasionally) unsafe rules all occur, so the three evaluation
    backends are exercised across the full op vocabulary of the plan
    compiler.  Deterministic in *seed*; always terminates (Datalog).
    """
    rng = random.Random(seed)
    edb = [rng.choice(_EDB_POOL) for _ in range(2)]
    variables = ["X", "Y", "Z", "W"]
    rules = [f"p(X, Y) :- {edb[0]}(X, Y)."]
    for _ in range(rng.randint(1, max_rules - 1)):
        shape = rng.randrange(5)
        if shape == 0:  # linear recursion
            rules.append(f"p(X, Y) :- {rng.choice(edb)}(X, Z), p(Z, Y).")
        elif shape == 1:  # join with repeated variable
            a, b = rng.sample(variables, 2)
            rules.append(f"q({a}) :- {edb[0]}({a}, {b}), {edb[1]}({b}, {b}).")
        elif shape == 2:  # constant in the body
            rules.append(f"p(X, Y) :- {edb[1]}(X, Y), {edb[0]}(v0, X).")
        elif shape == 3:  # unsafe head variable (active-domain semantics)
            rules.append(f"s(X, Y) :- {rng.choice(edb)}(X, X).")
        else:  # nonlinear recursion
            rules.append("p(X, Y) :- p(X, Z), p(Z, Y).")
    return parse_program("\n".join(rules))


def bounded_unbounded_pairs(count: int, seed: int = 0) -> List[Tuple[Program, str, bool]]:
    """A labeled stream of ``(program, goal, is_bounded)`` triples.

    Roughly half the programs are :func:`bounded_program` instances
    (label ``True``: certificate exists at depth 2) and half
    :func:`unbounded_program` instances (label ``False``: no depth-k
    certificate for any k).  The mix and sub-seeds derive from *seed*
    only.
    """
    rng = random.Random(seed)
    out: List[Tuple[Program, str, bool]] = []
    for _ in range(count):
        sub = rng.randrange(1 << 30)
        if rng.random() < 0.5:
            out.append((bounded_program(1 + sub % 3, seed=sub), "p", True))
        else:
            out.append((unbounded_program(seed=sub), "p", False))
    return out


# ----------------------------------------------------------------------
# EDB families (edge lists + Database builders).
# ----------------------------------------------------------------------

def chain_edges(length: int) -> List[Edge]:
    """``v0 -> v1 -> ... -> v<length>``."""
    return [(f"v{i}", f"v{i+1}") for i in range(length)]


def tree_edges(depth: int, branching: int) -> List[Edge]:
    """Parent->child edges of the complete *branching*-ary tree with
    *depth* levels below the root ``n``."""
    edges: List[Edge] = []
    frontier = ["n"]
    for _ in range(depth):
        nxt: List[str] = []
        for node in frontier:
            for child in range(branching):
                name = f"{node}{child}"
                edges.append((node, name))
                nxt.append(name)
        frontier = nxt
    return edges


def grid_edges(rows: int, cols: int) -> List[Edge]:
    """Right/down edges of a *rows* x *cols* grid (monotone paths)."""
    edges: List[Edge] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((f"g{r}_{c}", f"g{r}_{c+1}"))
            if r + 1 < rows:
                edges.append((f"g{r}_{c}", f"g{r+1}_{c}"))
    return edges


def random_graph_edges(nodes: int, edges: int, seed: int = 0) -> List[Edge]:
    """*edges* distinct directed edges (no self-loops) over *nodes*
    vertices, drawn deterministically from ``Random(seed)``."""
    rng = random.Random(seed)
    names = [f"u{i}" for i in range(nodes)]
    seen: Set[Edge] = set()
    out: List[Edge] = []
    limit = nodes * (nodes - 1)
    target = min(edges, limit)
    while len(out) < target:
        a, b = rng.choice(names), rng.choice(names)
        if a != b and (a, b) not in seen:
            seen.add((a, b))
            out.append((a, b))
    return out


def star_edges(rays: int, length: int) -> List[Edge]:
    """Disjoint chains ``r<k>_0 -> ... -> r<k>_<length>`` (only one is
    relevant to a bound-first query -- the magic-sets sweet spot)."""
    return [
        (f"r{ray}_{i}", f"r{ray}_{i+1}")
        for ray in range(rays)
        for i in range(length)
    ]


def power_law_edges(nodes: int, edges: int, seed: int = 0) -> List[Edge]:
    """*edges* distinct directed edges over *nodes* vertices with a
    power-law degree profile (preferential attachment: targets are
    drawn from a degree-weighted urn, so a few hubs collect most of
    the in/out-degree).  Deterministic in *seed*; the skewed join
    cardinalities are what the differential fuzz sweep uses to stress
    the batch join kernels against the interpretive oracle."""
    if nodes < 2:
        raise ValueError("nodes must be >= 2")
    rng = random.Random(seed)
    names = [f"h{i}" for i in range(nodes)]
    urn: List[int] = [0, 1]  # seed hubs; grows with every endpoint drawn
    seen: Set[Edge] = set()
    out: List[Edge] = []
    target = min(edges, nodes * (nodes - 1))
    attempts = 0
    while len(out) < target and attempts < 50 * target + 100:
        attempts += 1
        a = urn[rng.randrange(len(urn))] if rng.random() < 0.5 else rng.randrange(nodes)
        b = urn[rng.randrange(len(urn))] if rng.random() < 0.8 else rng.randrange(nodes)
        if a == b or (names[a], names[b]) in seen:
            continue
        seen.add((names[a], names[b]))
        out.append((names[a], names[b]))
        urn.extend((a, b))
    return out


def road_network_edges(rows: int, cols: int, seed: int = 0) -> List[Edge]:
    """A road-network-like graph: a *rows* x *cols* grid of two-way
    streets with a deterministic 10% of segments missing (closed
    roads) plus a handful of one-way long-range highways.  Unlike the
    monotone :func:`grid_edges`, the two-way streets create cycles, so
    reachability closures exercise the semi-naive frontier's
    revisiting behaviour."""
    rng = random.Random(seed)
    edges: List[Edge] = []
    for r in range(rows):
        for c in range(cols):
            here = f"rd{r}_{c}"
            if c + 1 < cols and rng.random() < 0.9:
                edges.append((here, f"rd{r}_{c+1}"))
                edges.append((f"rd{r}_{c+1}", here))
            if r + 1 < rows and rng.random() < 0.9:
                edges.append((here, f"rd{r+1}_{c}"))
                edges.append((f"rd{r+1}_{c}", here))
    for _ in range(max(1, (rows * cols) // 8)):
        a = f"rd{rng.randrange(rows)}_{rng.randrange(cols)}"
        b = f"rd{rng.randrange(rows)}_{rng.randrange(cols)}"
        if a != b:
            edges.append((a, b))
    seen: Set[Edge] = set()
    out: List[Edge] = []
    for edge in edges:
        if edge not in seen:
            seen.add(edge)
            out.append(edge)
    return out


def edges_database(edges: Iterable[Edge],
                   predicates: Sequence[str] = ("e",)) -> Database:
    """A database holding *edges* under each predicate name in
    *predicates* (e.g. ``("e", "e0")`` for the paper's transitive
    closure, which reads both)."""
    db = Database()
    for a, b in edges:
        for predicate in predicates:
            db.add(predicate, (a, b))
    return db


def tree_updown_database(depth: int, branching: int) -> Database:
    """The same-generation EDB over :func:`tree_edges`: ``up`` edges
    child->parent, ``down`` edges parent->child, and ``flat`` as the
    identity on every node (so ``sg`` relates exactly the equal-depth
    node pairs; see :func:`same_depth_pair_count`)."""
    db = Database()
    nodes = {"n"}
    for parent, child in tree_edges(depth, branching):
        db.add("up", (child, parent))
        db.add("down", (parent, child))
        nodes.add(parent)
        nodes.add(child)
    for node in sorted(nodes):
        db.add("flat", (node, node))
    return db


# ----------------------------------------------------------------------
# Structural ground truth (never runs the engine under test).
# ----------------------------------------------------------------------

def reachable_pairs(edges: Sequence[Edge]) -> Set[Edge]:
    """``{(a, b) : a -> b in one or more steps}`` by BFS from every
    node -- the expected rows of a transitive-closure relation."""
    adjacency: Dict[str, List[str]] = {}
    nodes: Set[str] = set()
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
        nodes.add(a)
        nodes.add(b)
    pairs: Set[Edge] = set()
    for source in nodes:
        seen: Set[str] = set()
        queue = deque(adjacency.get(source, ()))
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            queue.extend(adjacency.get(node, ()))
        pairs.update((source, target) for target in seen)
    return pairs


def reachable_pair_count(edges: Sequence[Edge]) -> int:
    """``len(reachable_pairs(edges))`` (convenience)."""
    return len(reachable_pairs(edges))


def reachable_from(edges: Sequence[Edge], source: str) -> Set[str]:
    """The nodes reachable from *source* (including *source* itself) by
    a single BFS -- linear in the edge list, so it scales to the
    10^5--10^6-fact EDBs of the ``tag:scale`` tier, unlike the
    all-pairs :func:`reachable_pairs` walk.  Expected rows of
    :func:`single_source_reach` when ``src`` holds exactly *source*."""
    adjacency: Dict[str, List[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    seen: Set[str] = {source}
    queue = deque((source,))
    while queue:
        node = queue.popleft()
        for target in adjacency.get(node, ()):
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return seen


def two_hop_pairs(edges: Sequence[Edge]) -> Set[Edge]:
    """``{(a, c) : a -> b -> c}`` -- expected rows of
    :func:`two_hop_program`; linear on chains (each node has one
    successor)."""
    adjacency: Dict[str, List[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    return {
        (a, c)
        for a, b in edges
        for c in adjacency.get(b, ())
    }


def same_depth_pairs(depth: int, branching: int) -> Set[Edge]:
    """Expected ``sg`` rows over :func:`tree_updown_database`: with
    ``flat`` the identity, ``sg`` holds exactly for node pairs at equal
    depth (walk up k levels, cross ``flat``, walk down k), giving
    ``sum_d (branching^d)^2`` rows for d = 0..depth."""
    pairs: Set[Edge] = set()
    frontier = ["n"]
    for _ in range(depth + 1):
        pairs.update((a, b) for a in frontier for b in frontier)
        frontier = [f"{node}{child}" for node in frontier
                    for child in range(branching)]
    return pairs


def same_depth_pair_count(depth: int, branching: int) -> int:
    """``len(same_depth_pairs(depth, branching))`` (convenience)."""
    return sum((branching ** d) ** 2 for d in range(depth + 1))
