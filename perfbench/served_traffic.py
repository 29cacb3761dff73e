"""Workload ``served_traffic``: the decision daemon in its own process,
driven closed-loop by this process over one connection per core.

The daemon is ``python -m repro serve`` with the default process
executor, one worker per core and a result cache of ``CACHE`` entries.
Each connection keeps exactly one request in flight and sends the next
when the answer arrives.  A request is a ``decide`` (program text) or
an ``eval`` (100-800 facts of text) drawn from the generator families:

* with probability ``REPEAT`` a repeat, zipf-drawn from a hot set of
  ``HOT`` requests (smaller than the cache, so repeats are mostly
  cache hits);
* otherwise the next fresh request of a seeded tail that never repeats
  (predicates carry a unique suffix), so every fresh request is
  computed by a worker and the tail keeps evicting cache entries.

The request stream is drawn from the seeded generator one request at a
time while the traffic runs, so it is as long as the run needs on any
machine; the same seed gives the same stream.

Where the traffic parameters come from: ``CACHE`` and the zipf weights
are those of the repository's ``benchmarks/bench_service.py`` zipf
phase (``--result-cache 64``, rank k weighted 1/(k+1)), which recorded
a 65-95% cache hit rate (``service_zipf_cache`` in BENCH_service.json).
No trace of real traffic exists, so ``REPEAT`` and ``HOT`` are
assumptions, chosen against two measurable criteria: the daemon's hit
rate (``result_cache_hit_rate`` of the traced run, about 0.7) falls in
that 65-95% band, and a hot request stays cached between two of its
repeats (:func:`keys_between_repeats` is below ``CACHE``; checked by
the benchmark's tests).

Fresh requests are "cold" operations and cache replays "warm" ones.
Every answer is checked after the traffic stops: verdicts against the
labels known by construction, eval answers against the structural
oracles, and every repeat of a request must carry the same decision
record (bit-identical for cache replays, identical but for the
wall-clock ``timings`` for recomputations).
"""

from __future__ import annotations

import json
import os
import random
import re
import selectors
import signal
import socket
import subprocess
import sys
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from common import (
    OUT,
    ROOT,
    Tally,
    end_to_end,
    median,
    nproc,
    peak_rss_mb,
    pooled_latencies,
    program_env,
)

#: Result-cache capacity of the daemon (bench_service's default).
CACHE = 64
#: Distinct requests that repeat (zipf-ranked); smaller than CACHE.
#: An assumption, checked by keys_between_repeats (module docstring).
HOT = 24
#: Share of requests drawn from the hot set.  An assumption, checked
#: against bench_service's measured hit rates (module docstring).
REPEAT = 0.75
#: Daemon launches that time set-up besides the serving one, half
#: before the traffic and half after (the minimum is reported).
SETUP_PROBES = 6


def zipf_weights() -> List[float]:
    """Hot rank k weighs 1/(k+1), as in bench_service's zipf_schedule."""
    return [1.0 / (rank + 1) for rank in range(HOT)]


def keys_between_repeats() -> float:
    """The expected number of distinct requests made between two
    repeats of the coldest hot request: the fresh ones plus, at most,
    every other hot one.  Below ``CACHE``, an LRU cache still holds a
    hot entry when it is asked again."""
    weights = zipf_weights()
    coldest = REPEAT * weights[-1] / sum(weights)
    return (1 - REPEAT) / coldest + HOT - 1


EQUIVALENT = {"equivalent": True, "forward": True, "backward": True}


@dataclass
class Request:
    fields: Dict[str, object]
    #: The verdict entries a ``decide`` answer must carry.
    expected: Optional[Dict[str, object]] = None
    #: For ``eval``: the structural oracle's rows, computed when checked.
    oracle: Optional[Callable[[], set]] = None

    @property
    def line(self) -> str:
        return json.dumps(self.fields, sort_keys=True, separators=(",", ":"))

    @cached_property
    def answer(self) -> Tuple[Dict[str, object], Optional[str]]:
        """The expected verdict entries and, for ``eval``, checksum."""
        if self.oracle is None:
            return self.expected, None
        from repro.session import rows_checksum

        rows = self.oracle()
        return {"count": len(rows)}, rows_checksum(rows)


def _rename(text: str, tag: str) -> str:
    """Suffix every predicate name: an isomorphic, distinct program."""
    return re.sub(r"\b([a-z][A-Za-z0-9_]*)\(",
                  lambda match: f"{match.group(1)}_{tag}(", text)


def _decide(kind: str, program, goal: str, tag: str, expected, **extra):
    fields = {"op": "decide", "kind": kind,
              "program": _rename(str(program), tag),
              "goal": f"{goal}_{tag}"}
    for key, value in extra.items():
        fields[key] = (_rename(str(value), tag) if key == "nonrecursive"
                       else value)
    return Request(fields, expected)


def _eval(program, goal: str, facts, oracle):
    db = " ".join(f"{predicate}({', '.join(row)})." for predicate, row in facts)
    return Request({"op": "eval", "program": str(program), "db": db,
                    "goal": goal}, oracle=oracle)


def _family_request(family: int, rng: random.Random, tag: str) -> Request:
    """Request number *family* (mod 7) of the mix, parameters from *rng*."""
    from repro.programs import library
    from repro.workloads import generators as gen

    sub = rng.randrange(1 << 30)
    family %= 7
    if family == 0:
        guards = 1 + sub % 3
        return _decide("containment", gen.bounded_program(guards, seed=sub),
                       "p", tag, {"contained": True}, union_depth=2)
    if family == 1:
        return _decide("containment", gen.sirup(1, seed=sub), "p", tag,
                       {"contained": False}, union_depth=2)
    if family == 2:
        guards = 1 + sub % 2
        return _decide("equivalence", gen.bounded_program(guards, seed=sub),
                       "p", tag, EQUIVALENT,
                       nonrecursive=gen.bounded_rewriting(guards, seed=sub))
    if family == 3:
        program, goal, bounded = gen.bounded_unbounded_pairs(1, seed=sub)[0]
        expected = ({"bounded": True, "depth": 2} if bounded
                    else {"bounded": None, "depth": None})
        return _decide("boundedness", program, goal, tag, expected,
                       max_depth=3)
    if family == 4:
        return _decide("containment", library.transitive_closure(), "p", tag,
                       {"contained": False}, union_depth=1 + sub % 3)
    nodes = 150 + sub % 250
    edges = gen.random_graph_edges(nodes, 2 * nodes if family == 5 else nodes,
                                   seed=sub)
    if family == 5:
        source = edges[0][0]
        facts = [("e", edge) for edge in edges] + [("src", (source,))]
        return _eval(gen.single_source_reach(), "r", facts,
                     lambda: {(node,) for node
                              in gen.reachable_from(edges, source)})
    return _eval(gen.two_hop_program(), "p", [("e", e) for e in edges],
                 lambda: gen.two_hop_pairs(edges))


class Traffic:
    """The requests of one run: the hot set, then hot repeats and fresh
    requests drawn one at a time from the seeded generator."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.hot = [_family_request(index, self.rng, f"h{index}")
                    for index in range(HOT)]
        self.weights = zipf_weights()
        self.tail: List[Request] = []
        #: Per request drawn: ("hot", rank) or ("tail", index).
        self.schedule: List[Tuple[str, int]] = []

    def draw(self) -> Tuple[str, int]:
        """The next request of the stream."""
        if self.rng.random() < REPEAT:
            slot = ("hot", self.rng.choices(range(HOT), self.weights)[0])
        else:
            slot = ("tail", len(self.tail))
            self.tail.append(_family_request(len(self.tail), self.rng,
                                             f"t{len(self.tail)}"))
        self.schedule.append(slot)
        return slot

    def request(self, slot: Tuple[str, int]) -> Request:
        kind, index = slot
        return self.hot[index] if kind == "hot" else self.tail[index]

    def describe(self) -> str:
        """The requests drawn so far, as text."""
        return "\n".join([r.line for r in self.hot] + [r.line for r in self.tail]
                         + [repr(self.schedule)])


# ----------------------------------------------------------------------
# The daemon.
# ----------------------------------------------------------------------

class Daemon:
    """One ``repro serve`` process (and its process group)."""

    def __init__(self, tag: str):
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{tag}-{os.getpid()}.sock"
        # AF_UNIX paths are short: fall back to a path relative to the
        # working directory of each side.
        if len(str(path)) < 100:
            self.server_path = self.client_path = str(path)
        else:
            self.server_path = os.path.relpath(path, ROOT)
            self.client_path = os.path.relpath(path)
        self.path = path
        self.log = open(OUT / f"{tag}-{os.getpid()}.log", "w")
        self.proc: Optional[subprocess.Popen] = None

    def start(self, workers: int) -> float:
        """Launch; return seconds until ready and answering ``status``."""
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket",
             self.server_path, "--workers", str(workers),
             "--result-cache", str(CACHE)],
            cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
            stderr=self.log, text=True, start_new_session=True)
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        if not selector.select(timeout=60):
            raise RuntimeError("daemon did not become ready in 60 s")
        selector.close()
        line = self.proc.stdout.readline()
        if "ready" not in line:
            raise RuntimeError(f"daemon failed to start: {line!r}")
        self.request({"op": "status"})
        return perf_counter() - start

    def request(self, fields) -> Dict[str, object]:
        """One untimed control request (``status``, ``shutdown``)."""
        from repro.service.client import ServiceClient

        with ServiceClient(socket_path=self.client_path) as client:
            return client.request(fields)

    def stop(self) -> None:
        """Ask for shutdown, wait; escalate to signals on the group."""
        try:
            if self.proc is not None and self.proc.poll() is None:
                try:
                    self.request({"op": "shutdown"})
                    self.proc.wait(timeout=30)
                except (OSError, ValueError, subprocess.TimeoutExpired):
                    pass  # escalate to signals below
                for sig in (signal.SIGTERM, signal.SIGKILL):
                    if self.proc.poll() is not None:
                        break
                    try:
                        os.killpg(self.proc.pid, sig)
                        self.proc.wait(timeout=10)
                    except (ProcessLookupError, subprocess.TimeoutExpired):
                        pass
        finally:
            if self.proc is not None:
                self.proc.stdout.close()
                self.proc.wait()
            self.log.close()
            if self.proc is None or self.proc.returncode == 0:
                os.unlink(self.log.name)
            try:
                self.path.unlink()
            except FileNotFoundError:
                pass


# ----------------------------------------------------------------------
# The closed-loop client.
# ----------------------------------------------------------------------

def drive(daemon: Daemon, traffic: Traffic, connections: int,
          seconds: float) -> Tuple[List[tuple], float]:
    """Send requests drawn from *traffic* over *connections*, one in
    flight on each, until *seconds* pass; return ``(slot, latency_s,
    response, line)`` per answered request and the measured window in
    seconds."""
    selector = selectors.DefaultSelector()
    socks = []
    answered: List[tuple] = []
    inflight: Dict[socket.socket, list] = {}

    def send(sock) -> None:
        slot = traffic.draw()
        request = traffic.request(slot)
        fields = dict(request.fields, id=len(traffic.schedule))
        inflight[sock] = [slot, request.line, perf_counter(), b""]
        sock.sendall(json.dumps(fields, sort_keys=True,
                                separators=(",", ":")).encode() + b"\n")

    try:
        for _ in range(connections):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(daemon.client_path)
            socks.append(sock)
            selector.register(sock, selectors.EVENT_READ)
        start = perf_counter()
        for sock in socks:
            send(sock)
        stop_at, give_up = start + seconds, start + seconds + 120
        while inflight:
            if perf_counter() > give_up:
                raise RuntimeError("daemon stopped answering")
            for key, _ in selector.select(timeout=1.0):
                sock = key.fileobj
                state = inflight[sock]
                chunk = sock.recv(1 << 20)
                if not chunk:
                    raise RuntimeError("daemon closed a connection")
                state[3] += chunk
                if not state[3].endswith(b"\n"):
                    continue
                done = perf_counter()
                del inflight[sock]
                answered.append((state[0], done - state[2],
                                 json.loads(state[3]), state[1]))
                if done < stop_at:
                    send(sock)
        window = perf_counter() - start
    finally:
        selector.close()
        for sock in socks:
            sock.close()
    return answered, window


# ----------------------------------------------------------------------
# Checks and metrics.
# ----------------------------------------------------------------------

def check(traffic: Traffic, answered, tally: Tally) -> None:
    computed: Dict[str, List[dict]] = {}
    for slot, _, response, line in answered:
        if response.get("type") == "decision" and not response["cached"]:
            computed.setdefault(line, []).append(response["decision"])
    for slot, _, response, line in answered:
        request = traffic.request(slot)
        name = f"{request.fields['op']} {slot}"
        if response.get("type") != "decision":
            tally.check(False, f"{name}: {response.get('error')} "
                               f"{response.get('message', '')}"[:200])
            continue
        record = response["decision"]
        expected, checksum = request.answer
        ok = all(record["verdict"].get(key) == value
                 for key, value in expected.items())
        if checksum is not None:
            ok = ok and record.get("checksum") == checksum
        if response["cached"]:
            # A replay must be one of the records computed this run.
            ok = ok and record in computed.get(line, [])
        else:
            first = computed[line][0]
            ok = ok and _untimed(record) == _untimed(first)
        tally.check(ok, f"{name}: verdict {record['verdict']} "
                        f"expected {expected}")


def _untimed(record: dict) -> dict:
    return {key: value for key, value in record.items() if key != "timings"}


def service_extras(answered, status) -> Dict[str, float]:
    queue, service, wire = [], [], []
    for _, latency, response, _ in answered:
        if response.get("type") == "decision" and not response["cached"]:
            queue.append(response["queue_ms"])
            service.append(response["service_ms"])
            wire.append(latency * 1000 - response["queue_ms"]
                        - response["service_ms"])
    served = status["served"] or 1
    return {
        "queue_ms_p50": median(queue),
        "service_ms_p50": median(service),
        "wire_ms_p50": median(wire),
        "result_cache_hit_rate": status["result_cache"]["hit_rate"],
        "coalesced_share": status["coalescer"]["joined"] / served,
        "admission_high_water": status["admission"]["high_water"],
        "overload_rejected": status["admission"]["rejected"],
        "pool_retries": status["pool"]["retries"],
        "pool_respawns": status["pool"]["respawns"],
    }


def replay(lines: List[str], tracer=None) -> float:
    """Decode every request line as the daemon does (parse and static
    analysis included); return the seconds it took."""
    from repro.service import protocol

    start = perf_counter()
    for line in lines:
        if tracer is None:
            protocol.decode_request(line)
        else:
            with tracer.span("replay"):
                protocol.decode_request(line)
    return perf_counter() - start


def _probe_launches(count: int, workers: int) -> List[float]:
    samples = []
    for launch in range(count):
        probe = Daemon(f"setup{launch}")
        try:
            samples.append(probe.start(workers))
        finally:
            probe.stop()
    return samples


def run(seed: int, seconds: float, trace: bool):
    tally = Tally()
    traffic = Traffic(seed)
    workers = nproc()
    half = SETUP_PROBES // 2
    setup = [] if trace else _probe_launches(half, workers)
    daemon = Daemon("serve")
    try:
        setup.append(daemon.start(workers))
        answered, window = drive(daemon, traffic, workers, seconds)
        status = daemon.request({"op": "status"})["status"]
    finally:
        daemon.stop()
    check(traffic, answered, tally)
    if not trace:
        setup += _probe_launches(half, workers)
        cold = [latency * 1000 for _, latency, response, _ in answered
                if not response.get("cached")]
        warm = [latency * 1000 for _, latency, response, _ in answered
                if response.get("cached")]
        return tally, end_to_end(min(setup), peak_rss_mb(children=True),
                                 len(answered) / window,
                                 pooled_latencies(cold, warm))

    import layers

    lines = [line for _, _, _, line in answered]
    replay(lines)  # untimed: first-call set-up
    plain_s = replay(lines)
    tracer, traced_s = layers.run_traced(lambda tracer: replay(lines, tracer))
    extras = service_extras(answered, status)
    extras["trace_overhead_share"] = traced_s / plain_s - 1
    tracer.write(OUT / f"spans-served_traffic-{seed}.jsonl")
    return tally, layers.per_layer_report(tracer, extras)
