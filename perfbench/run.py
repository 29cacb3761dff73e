#!/usr/bin/env python3
"""The repository benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload eval_scale --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the workload untraced for half the time, then again
with the library calls of ``layers.TARGETS`` wrapped, and reports the
per-layer metrics plus the tracing overhead.  The last line of stdout
is the JSON result; the lines before it name the code measured and any
failed checks.  See README.md in this directory.

The serial workloads (``eval_scale``, ``decide_families``) are measured
in a child process (this script with ``--measure``) that holds only
the inputs and the program's data, and returns its timings, answers
and peak RSS as one JSON line; this process times set-up and checks the
answers.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from typing import Dict

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("eval_scale", "decide_families", "served_traffic")


def measure_here(name: str, seed: int, seconds: float, trace: bool,
                 scale: float) -> Dict[str, object]:
    """The child's part of a serial workload: warm up, time the passes
    (untraced, or untraced then traced) and report."""
    module = importlib.import_module(name)
    inputs = module.make_inputs(seed, scale)
    module.warm_up(seed, scale)
    if not trace:
        samples = module.measure(inputs, seconds=seconds)
        return {"runs": [samples], "peak_rss_mb": common.peak_rss_mb()}

    import layers

    plain = module.measure(inputs, seconds=seconds / 2)
    tracer, traced = layers.run_traced(lambda tracer: module.measure(
        inputs, tracer, like=plain))
    extras = module.breakdown(traced)
    extras["trace_overhead_share"] = (module.busy_s(traced)
                                      / module.busy_s(plain) - 1)
    common.OUT.mkdir(exist_ok=True)
    tracer.write(common.OUT / f"spans-{name}-{seed}.jsonl")
    return {"runs": [plain, traced],
            "per_layer": layers.per_layer_report(tracer, extras)}


def run_serial(name: str, seed: int, seconds: float, trace: bool,
               scale: float):
    """eval_scale and decide_families: set-up probes before and after
    the measuring child, then every answer checked here."""
    module = importlib.import_module(name)
    half = common.SETUP_PROBES // 2
    setup = [] if trace else common.setup_samples(module.SETUP, half)
    report = common.run_child(
        [__file__, "--measure", "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace)),
         "--scale", str(scale)], timeout=170)
    if not trace:
        setup += common.setup_samples(module.SETUP, half)
    tally = common.Tally()
    reference = module.reference(seed, scale)
    for samples in report["runs"]:
        module.check(reference, samples, tally)
    if trace:
        return tally, {metric: tuple(value) for metric, value
                       in report["per_layer"].items()}
    return tally, module.summarize(report["runs"][0], min(setup),
                                   report["peak_rss_mb"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size factor of eval_scale and "
                             "decide_families (1.0 = the benchmark; "
                             "smaller values are for smoke tests)")
    parser.add_argument("--measure", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not common.program_present():
        print(f"error: the program is not here ({common.SRC / 'repro'} "
              "is missing)", file=sys.stderr)
        return 2
    sys.path.insert(1, str(common.SRC))
    if args.measure:
        print(json.dumps(measure_here(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.scale)))
        return 0
    stamp = common.code_stamp()
    if args.workload == "served_traffic":
        import served_traffic

        tally, metrics = served_traffic.run(args.seed, args.seconds,
                                            bool(args.trace))
    else:
        tally, metrics = run_serial(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.scale)
    print("# code " + json.dumps(stamp, sort_keys=True))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"failed_share={tally.failed / max(tally.attempted, 1):.6f}")
    for note in tally.notes:
        print(f"# FAILED {note}")
    print(json.dumps(common.result_line(tally, metrics)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
