"""Shared helpers: where the program is, the code stamp, statistics,
the set-up probe, the measuring child process and peak memory."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of a run (span files, the daemon socket); ignored by git.
OUT = Path(__file__).resolve().parent / ".out"

#: Fresh interpreters started to time set-up, before and again after
#: the measurement (the minimum of all of them is reported).
SETUP_PROBES = 8


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def program_env() -> Dict[str, str]:
    """The environment of a child process running the program."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def code_stamp() -> Dict[str, object]:
    """What code a result measured: a digest of every file under
    ``src/`` (present in any checkout) plus, inside a git work tree,
    the commit and whether the tree differs from it.  The commit alone
    would name the parent when the measured change is not committed
    yet, so ``dirty`` says whether the digest is that commit's code."""
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    stamp: Dict[str, object] = {"src_sha1": digest.hexdigest()[:16],
                                "commit": None, "dirty": None}
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True)
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain",
                 "--untracked-files=no"],
                capture_output=True, text=True, timeout=10, check=True)
        except (OSError, subprocess.SubprocessError):
            return stamp
        stamp["commit"] = commit.stdout.strip()
        stamp["dirty"] = bool(status.stdout.strip())
    return stamp


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def geomean(values: Sequence[float]) -> float:
    """The geometric mean: every value counts with the same weight
    whatever its magnitude (a 2x change of any one of n values moves
    it by 2^(1/n))."""
    return math.exp(sum(math.log(value) for value in values) / len(values))


def percentile(values: Sequence[float], pct: int, width: int) -> float:
    """A smoothed *pct*-th percentile: the mean of the percentiles from
    ``pct - width`` to ``pct + width`` (inclusive interpolation).

    The operations of a run fall into clusters of similar cost (the
    question families), so a single order statistic jumps between
    clusters when one operation crosses a gap; the window average
    moves by a fraction of the gap instead."""
    if len(values) < 2:
        return values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    window = cuts[pct - width - 1:pct + width]
    return sum(window) / len(window)


def pooled_latencies(cold_ms: List[float],
                     warm_ms: List[float]) -> Dict[str, float]:
    """``cold_p50_ms``, ``cold_p90_ms`` and ``warm_p50_ms`` over many
    operations of a run (smoothed percentiles)."""
    return {"cold_p50_ms": percentile(cold_ms, 50, 10),
            "cold_p90_ms": percentile(cold_ms, 90, 5),
            "warm_p50_ms": percentile(warm_ms, 50, 10)}


def set_digest(rows) -> str:
    """An order-independent digest of a set of rows, computed by the
    benchmark rather than the program: the sum, modulo 2^128, of a
    BLAKE2 hash of each row's plain values.  Engine rows (tuples of
    ``Constant``) and oracle rows (tuples of str) of the same set give
    the same digest, and no sorted copy of the set is made."""
    total = 0
    for row in rows:
        plain = repr(tuple(getattr(value, "value", value) for value in row))
        total += int.from_bytes(hashlib.blake2b(
            plain.encode(), digest_size=16).digest(), "big")
    return f"{total % (1 << 128):032x}"


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_samples(snippet: str, probes: int) -> List[float]:
    """Seconds from starting a fresh interpreter until it has run
    *snippet* (imports and ready objects) and said so, *probes* times."""
    code = snippet + "\nprint('ready', flush=True)\n"
    samples: List[float] = []
    for _ in range(probes):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                                env=program_env(), stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            samples.append(perf_counter() - start)
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return samples


def run_child(argv: List[str], timeout: float) -> Dict[str, object]:
    """Run ``python3 <argv>`` from the checkout root and return the JSON
    object it prints as its last line (its stderr passes through)."""
    done = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          env=program_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"measuring process failed "
                           f"(exit {done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


def result_line(tally: Tally, metrics: Dict[str, tuple]) -> Dict[str, object]:
    """The benchmark's last output line; a run that checked nothing is
    not correct."""
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def end_to_end(setup_s: float, rss_mb: float, ops_per_s: float,
               latencies: Dict[str, float]) -> Dict[str, tuple]:
    """The end-to-end metrics every workload reports."""
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ops_per_s": (ops_per_s, "1/s"),
        "cold_p50_ms": (latencies["cold_p50_ms"], "ms"),
        "cold_p90_ms": (latencies["cold_p90_ms"], "ms"),
        "warm_p50_ms": (latencies["warm_p50_ms"], "ms"),
    }
