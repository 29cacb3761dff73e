"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests).

Tiny-size runs of every workload through the command line, seed
determinism of inputs and verdicts, restoration of every traced
function, and the counting of a planted wrong label.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import decide_families
import eval_scale
import layers
import served_traffic
from common import Tally, result_line
from spans import wrapper_bindings

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
#: Checked eval answers in one pass: cold, warm repeats and update of
#: each of the three inputs.
ANSWERS_PER_PASS = 3 * (2 + eval_scale.WARM_REPEATS)


def run_cli(*args, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(workload, trace):
    done = run_cli("--workload", workload, "--seed", "3", "--seconds",
                   "0.5", "--trace", trace, "--scale", "0.02")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in expected}
    if trace == "0":
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval_scale",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def _served_text(seed, requests=200):
    traffic = served_traffic.Traffic(seed)
    for _ in range(requests):
        traffic.draw()
    return traffic.describe()


def test_same_seed_same_inputs():
    def texts(seed):
        return ([inp.describe() for inp in eval_scale.reference(seed, 0.01)],
                [q.describe() for q in decide_families.make_inputs(seed)],
                _served_text(seed))

    assert texts(7) == texts(7)
    assert texts(7) != texts(8)


def test_served_stream_does_not_depend_on_its_length():
    assert _served_text(4, 300).startswith(
        _served_text(4, 100).rsplit("\n", 1)[0])


def test_hot_requests_stay_cached_between_repeats():
    assert served_traffic.HOT < served_traffic.CACHE
    assert served_traffic.keys_between_repeats() < served_traffic.CACHE


def test_same_seed_same_verdicts():
    from repro import Session

    def verdicts(seed):
        return [json.dumps(question.ask(Session()).verdict, sort_keys=True)
                for question in decide_families.make_inputs(seed, 0.1)]

    assert verdicts(5) == verdicts(5)
    for _ in range(2):
        tally = Tally()
        samples = eval_scale.measure(eval_scale.make_inputs(5, 0.01),
                                     passes=1)
        eval_scale.check(eval_scale.reference(5, 0.01), samples, tally)
        assert tally.attempted == ANSWERS_PER_PASS and tally.failed == 0


def _bound_originals():
    from repro.datalog import columns, database, parser
    from repro.service import pool

    return {
        "parse_program": parser.parse_program,
        "pool.parse_program": pool.parse_program,
        "edb_image": columns.edb_image,
        "from_facts": database.Database.__dict__["from_facts"],
        "EdbImage.__init__": columns.EdbImage.__dict__["__init__"],
    }


class Stop(Exception):
    pass


def test_tracer_restores_every_original():
    for module in layers.PRELOAD:
        __import__(module)
    before = _bound_originals()
    tally = Tally()
    tracers = []

    def work(tracer):
        tracers.append(tracer)
        during = _bound_originals()
        assert during["parse_program"] is not before["parse_program"]
        assert during["pool.parse_program"] is not before["pool.parse_program"]
        assert during["from_facts"] is not before["from_facts"]
        assert wrapper_bindings()
        with pytest.raises(RuntimeError):
            tracer.install(layers.TARGETS)
        questions = decide_families.round_questions(1, 0)[:2]
        decide_families.check(questions, decide_families.measure(
            questions, tracer, passes=1), tally)
        raise Stop  # the originals come back when the work raises, too

    with pytest.raises(Stop):
        layers.run_traced(work)
    assert _bound_originals() == before
    assert wrapper_bindings() == []
    assert tally.failed == 0
    tracer = tracers[0]
    assert tracer.counters["cq_transitions"] > 0
    assert tracer.self_s("cq.successors") > 0
    # A span's self time never exceeds its duration.
    for calls, total, own in tracer.totals.values():
        assert 0 <= own <= total + 1e-9


def test_planted_wrong_label_is_a_failure():
    questions = decide_families.round_questions(2, 0)[:1]
    samples = decide_families.measure(questions, passes=1)
    questions[0].expected = {"contained": not questions[0].expected["contained"]}
    tally = Tally()
    decide_families.check(questions, samples, tally)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert result_line(tally, {})["correct"] is False

    samples = eval_scale.measure(eval_scale.make_inputs(2, 0.01), passes=1)
    reference = eval_scale.reference(2, 0.01)
    # A wrong oracle row set: the cold and warm answers no longer match.
    reference[1].expected["before"].pop()
    tally = Tally()
    eval_scale.check(reference, samples, tally)
    assert (tally.attempted, tally.failed) == (ANSWERS_PER_PASS,
                                               1 + eval_scale.WARM_REPEATS)

    traffic = served_traffic.Traffic(2)
    request = traffic.hot[0]
    record = {"verdict": dict(request.expected), "timings": {}}
    answered = [(("hot", 0), 0.01, {"type": "decision", "cached": False,
                                    "decision": record}, request.line)]
    tally = Tally()
    served_traffic.check(traffic, answered, tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    wrong = {"verdict": {key: not value
                         for key, value in request.expected.items()},
             "timings": {}}
    answered.append((("hot", 0), 0.01, {"type": "decision", "cached": True,
                                        "decision": wrong}, request.line))
    answered.append((("hot", 0), 0.01, {"type": "overload"}, request.line))
    tally = Tally()
    served_traffic.check(traffic, answered, tally)
    assert (tally.attempted, tally.failed) == (3, 2)
