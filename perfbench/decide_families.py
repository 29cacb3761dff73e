"""Workload ``decide_families``: labelled decision questions, each asked
cold on a fresh ``Session()`` and then warm on the same session, once
per pass (see ``measure``).

A run draws ``ROUNDS`` rounds of 13 questions, the same families in
the same order for every seed; the seed (and the round number) only
draws the generator parameters:

* ``sirup(k)`` contained in ``sirup_covering_union(k)`` for k = 1, 2
  (true), and the same with the base disjunct dropped (false);
* ``bounded_program(g)`` equivalent to ``bounded_rewriting(g)``, g
  cycling through 1..3 (true);
* two bounded (guard counts cycling through 1..3) and two unbounded
  programs from ``bounded_unbounded_pairs``, checked against their
  labels;
* transitive closure contained in its depth-d truncation, d cycling
  through 1..3 (false);
* the paper's fixed cases: Example 1.1's Pi_1 and Pi_2 against their
  nonrecursive rewritings and Example 6.1's ``dist(2)`` against
  ``dist(1)``.

The ``tag:stress`` lower-bound instances are left out: unbudgeted they
exhaust memory.  The passes run in a process of their own (its peak RSS
is the program's); every verdict it returns is compared with the label
known by construction, outside the timed region.
"""

from __future__ import annotations

import gc
import random
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional

from common import Tally, end_to_end, pooled_latencies
from spans import NoTracer

SETUP = "import repro\nfrom repro import Session\nSession()"

#: Depth bound of the boundedness questions (bounded ones certify at 2).
MAX_DEPTH = 3
#: Rounds of questions per run (a multiple of 3, so the cycling
#: parameters appear equally often).
ROUNDS = 3
#: Passes a run makes at least over its questions (one ask of each
#: question per pass).
MIN_PASSES = 3

EQUIVALENT = {"equivalent": True, "forward": True, "backward": True}


@dataclass
class Question:
    family: str
    ask: Callable[[object], object]
    expected: Dict[str, object]
    text: str

    def describe(self) -> str:
        return repr((self.family, self.text, sorted(self.expected.items())))


def _containment(family, program, union, contained):
    return Question(family,
                    lambda session: session.contains(program, "p", union),
                    {"contained": contained}, f"{program}\n|= {union}")


def _equivalence(family, program, nonrecursive, goal, expected,
                 nonrecursive_goal=None):
    return Question(
        family,
        lambda session: session.equivalent_to_nonrecursive(
            program, nonrecursive, goal, nonrecursive_goal),
        expected, f"{program}\n== {nonrecursive}")


def _boundedness(program, label):
    expected = ({"bounded": True, "depth": 2} if label
                else {"bounded": None, "depth": None})
    return Question(
        "bounded_label" if label else "unbounded_label",
        lambda session: session.bounded(program, "p", max_depth=MAX_DEPTH),
        expected, str(program))


def round_questions(seed: int, index: int) -> List[Question]:
    """The questions of round *index* (programs built here, untimed)."""
    from repro.cq.query import UnionOfConjunctiveQueries
    from repro.datalog.unfold import expansion_union
    from repro.programs import library
    from repro.workloads import generators as gen

    rng = random.Random(seed * 1_000_003 + index)
    questions: List[Question] = []
    for body in (1, 2):
        sub = rng.randrange(1 << 30)
        program = gen.sirup(body, seed=sub)
        cover = gen.sirup_covering_union(body, seed=sub)
        questions.append(_containment(f"sirup{body}_covered", program,
                                      cover, True))
        questions.append(_containment(
            f"sirup{body}_uncovered", program,
            UnionOfConjunctiveQueries(list(cover)[1:]), False))
    guards, sub = 1 + index % 3, rng.randrange(1 << 30)
    questions.append(_equivalence(
        "bounded_rewriting", gen.bounded_program(guards, seed=sub),
        gen.bounded_rewriting(guards, seed=sub), "p", EQUIVALENT))
    # Two labelled bounded programs (guard counts cycling through 1..3,
    # so every run has the same mix of costs) and two unbounded ones.
    pairs = gen.bounded_unbounded_pairs(64, seed=rng.randrange(1 << 30))
    bounded = [program for program, _, label in pairs if label]
    for guards in (1 + (2 * index) % 3, 1 + (2 * index + 1) % 3):
        questions.append(_boundedness(next(
            (program for program in bounded
             if len(program.rules) == guards + 1), bounded[0]), True))
    unbounded = [program for program, _, label in pairs if not label]
    questions.extend(_boundedness(program, False)
                     for program in unbounded[:2])
    tc = library.transitive_closure()
    questions.append(_containment(
        "tc_truncation", tc, expansion_union(tc, "p", 1 + index % 3), False))
    questions.append(_equivalence(
        "example_1_1_pi1", library.buys_bounded(),
        library.buys_bounded_rewriting(), "buys", EQUIVALENT))
    questions.append(_equivalence(
        "example_1_1_pi2", library.buys_recursive(),
        library.buys_recursive_rewriting(), "buys",
        {"equivalent": False, "forward": False, "backward": True}))
    questions.append(_equivalence(
        "example_6_1_dist", library.dist(2), library.dist(1), "dist2",
        {"equivalent": False, "forward": False, "backward": False},
        nonrecursive_goal="dist1"))
    return questions


def make_inputs(seed: int, scale: float = 1.0) -> List[Question]:
    """The questions of one run, labelled: ``ROUNDS`` rounds (fewer when
    *scale* is below 1), built untimed."""
    rounds = max(1, round(ROUNDS * scale))
    return [question for index in range(rounds)
            for question in round_questions(seed, index)]


#: The questions carry their labels, so they are their own reference.
reference = make_inputs


def _answer(decision, question: Question) -> list:
    """What the check needs of a decision: its error and the verdict
    entries the label names."""
    return [decision.error is not None and str(decision.error),
            {key: decision.verdict.get(key) for key in question.expected}]


def _ask(question, session, tracer):
    with tracer.span("decide"):
        start = perf_counter()
        decision = question.ask(session)
        return decision, perf_counter() - start


def _automaton_lookups(session):
    hits = misses = 0
    for table, counts in session.cache_stats()["scope"].items():
        if table.startswith("core."):
            hits += counts["hits"]
            misses += counts["misses"]
    return hits, misses


def measure(questions: List[Question], tracer=None,
            seconds: Optional[float] = None, passes: Optional[int] = None,
            like: Optional[dict] = None) -> Dict[str, object]:
    """Passes over every question until *seconds* have passed and at
    least ``MIN_PASSES`` are done (or exactly *passes*, or as many as
    the earlier measurement *like* made).

    A pass asks each question cold on a fresh session, then warm on
    that session.  A question's cold and warm times are the means over
    the passes.  The machine this was tuned on switches between a fast
    state and one about 1.5x slower every second or so, for a share of
    the time that drifts over minutes.  A minimum over a question's few
    passes depends on whether one of them caught a fast moment; a mean
    over passes spread across the run averages the two states, as one
    long operation does."""
    from repro import Session

    tracer = tracer or NoTracer()
    if like is not None:
        passes = like["passes"]
    colds = [[] for _ in questions]
    warms = [[] for _ in questions]
    samples = {"pairs": 0, "ptree_states": 0, "hits": 0, "lookups": 0,
               "answers": [], "passes": 0}
    start = perf_counter()
    while (samples["passes"] < passes if passes is not None
           else samples["passes"] < MIN_PASSES
           or perf_counter() - start < seconds):
        for index, question in enumerate(questions):
            # Start every question from an empty collector, so the
            # collections it pays for depend on its own allocations only.
            gc.collect()
            session = Session()
            cold, cold_s = _ask(question, session, tracer)
            warm, warm_s = _ask(question, session, tracer)
            colds[index].append(cold_s)
            warms[index].append(warm_s)
            samples["answers"].append([index, "cold",
                                       *_answer(cold, question)])
            samples["answers"].append([index, "warm",
                                       *_answer(warm, question)])
            samples["pairs"] += cold.stats.get("pairs", 0)
            samples["ptree_states"] += cold.stats.get("ptree_states", 0)
            hits, misses = _automaton_lookups(session)
            samples["hits"] += hits
            samples["lookups"] += hits + misses
        samples["passes"] += 1
    samples["cold"] = [statistics.fmean(times) for times in colds]
    samples["warm"] = [statistics.fmean(times) for times in warms]
    return samples


def check(questions: List[Question], samples, tally: Tally) -> None:
    """Count every answer of *samples* against the labels."""
    for index, kind, error, verdict in samples["answers"]:
        question = questions[index]
        tally.check(not error and verdict == question.expected,
                    f"{question.family} {kind} verdict {verdict} "
                    f"{error or ''}".rstrip())


def busy_s(samples) -> float:
    return sum(samples["cold"]) + sum(samples["warm"])


def summarize(samples, setup_s: float, rss_mb: float) -> Dict[str, tuple]:
    ops = len(samples["cold"]) + len(samples["warm"])
    return end_to_end(setup_s, rss_mb, ops / busy_s(samples),
                      pooled_latencies([s * 1000 for s in samples["cold"]],
                                       [s * 1000 for s in samples["warm"]]))


def breakdown(samples) -> Dict[str, float]:
    lookups = samples["lookups"]
    return {
        "automaton_cache_hit_rate": samples["hits"] / lookups if lookups
        else 0.0,
        "automaton_fill_s": (sum(samples["cold"]) - sum(samples["warm"]))
        / len(samples["cold"]),
        "pairs": samples["pairs"],
        "ptree_states": samples["ptree_states"],
    }


def warm_up(seed: int, scale: float) -> None:
    """Untimed: one round, so lazy imports and process-wide first-call
    set-up are not charged to the first timed decision."""
    measure(round_questions(seed + 1, 0), passes=1)
