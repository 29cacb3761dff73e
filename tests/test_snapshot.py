"""Persistent warm-state snapshots (:mod:`repro.snapshot`).

The lifecycle contract: a snapshot is keyed by the producing session's
config fingerprint and restoring it is *never* load-bearing --
fingerprint mismatch, truncation, corruption, and concurrent writers
all degrade to a cold start (with a warning only when something on
disk is actually broken), while a clean restore turns a fresh
session's first decision into pure cache hits (the miss-counter
deltas asserted here are the same mechanism the service-worker
respawn test uses).
"""

import pickle
import threading
import time

import pytest

from repro.datalog.engine import EngineConfig
from repro.session import Session
from repro.snapshot import (
    SNAPSHOT_FORMAT,
    SnapshotWarning,
    load_snapshot,
    restore_session,
    save_snapshot,
    snapshot_path,
)

#: One decision scenario (automaton caches) and one evaluation
#: scenario (compiled plans + a columnar EDB image) -- together they
#: exercise every snapshot section.
WARM_SCENARIOS = ("bounded_buys", "eval_tc_chain_120")


@pytest.fixture()
def warm_dir(tmp_path):
    """A snapshot directory holding the warm state of a default-config
    session that ran ``WARM_SCENARIOS``."""
    writer = Session(name="snapshot-writer")
    for name in WARM_SCENARIOS:
        assert writer.run_scenario(name).ok
    path = save_snapshot(writer, tmp_path)
    assert path is not None and path.is_file()
    return tmp_path


def test_save_and_restore_roundtrip(warm_dir):
    session = Session(name="restored")
    assert restore_session(session, warm_dir)
    assert session.engine.plan_cache_size() > 0
    assert "eval_tc_chain_120" in session._snapshot_images


def test_restored_session_runs_on_pure_hits(warm_dir):
    """The acceptance mechanism: a restored session's first run of a
    snapshotted scenario must show zero misses on the caches the
    snapshot carries -- automata for the decision scenario, the EDB
    image for the evaluation scenario."""
    cold = Session(name="cold")
    restored = Session(name="restored")
    assert restore_session(restored, warm_dir)
    for name in WARM_SCENARIOS:
        cold_decision = cold.run_scenario(name)
        warm_decision = restored.run_scenario(name)
        # Bit-identical verdicts: the snapshot must never change what
        # is decided, only how fast.
        assert warm_decision.verdict == cold_decision.verdict
        assert warm_decision.checksum == cold_decision.checksum
    cold_stats = cold.cache_stats()["scope"]
    warm_stats = restored.cache_stats()["scope"]
    for table in ("core.cq_automaton", "core.ptree_automaton"):
        assert cold_stats[table]["misses"] > 0, table
        assert warm_stats[table]["misses"] == 0, (table, warm_stats)
        assert warm_stats[table]["hits"] > 0, (table, warm_stats)
    # The EDB image table cannot be a flat zero: the boundedness
    # procedure evaluates internally-constructed canonical databases
    # whose images are (correctly) built fresh in every session.  The
    # snapshot's claim is only about the *scenario payload* image: the
    # restored session skips exactly that build, so its miss count is
    # strictly below cold's and the adopted image registers as hits.
    images = "datalog.edb_images"
    assert warm_stats[images]["misses"] < cold_stats[images]["misses"], (
        warm_stats[images], cold_stats[images])
    assert warm_stats[images]["hits"] > 0, warm_stats[images]


def test_warm_accepts_snapshot_directory(warm_dir):
    session = Session(name="warmed")
    session.warm(scenario="eval_tc_chain_120", snapshot=warm_dir)
    stats = session.cache_stats()["scope"]
    assert stats["datalog.edb_images"]["misses"] == 0
    assert stats["datalog.edb_images"]["hits"] > 0


def test_fingerprint_mismatch_is_silent_cold_start(warm_dir, recwarn):
    other = Session(engine=EngineConfig(compiled=False), name="other")
    assert not restore_session(other, warm_dir)
    assert other.engine.plan_cache_size() == 0
    assert not [w for w in recwarn.list
                if issubclass(w.category, SnapshotWarning)]
    # A renamed file must not smuggle a foreign config's state in:
    # the payload's own fingerprint is checked, not just the name.
    donor = snapshot_path(warm_dir, Session(name="donor").fingerprint)
    renamed = snapshot_path(warm_dir, other.fingerprint)
    renamed.write_bytes(donor.read_bytes())
    assert load_snapshot(warm_dir, other.fingerprint) is None


def test_corrupt_snapshot_warns_and_cold_starts(warm_dir):
    session = Session(name="victim")
    path = snapshot_path(warm_dir, session.fingerprint)
    path.write_bytes(b"\x80\x04garbage")
    with pytest.warns(SnapshotWarning, match="corrupt"):
        assert not restore_session(session, warm_dir)
    assert session.engine.plan_cache_size() == 0


def test_truncated_snapshot_warns_and_cold_starts(warm_dir):
    session = Session(name="victim")
    path = snapshot_path(warm_dir, session.fingerprint)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.warns(SnapshotWarning):
        assert not restore_session(session, warm_dir)


def test_wrong_payload_shape_is_rejected(tmp_path):
    session = Session(name="victim")
    path = snapshot_path(tmp_path, session.fingerprint)
    path.write_bytes(pickle.dumps(["not", "a", "dict"]))
    with pytest.warns(SnapshotWarning, match="malformed"):
        assert load_snapshot(tmp_path, session.fingerprint) is None
    path.write_bytes(pickle.dumps({
        "format": SNAPSHOT_FORMAT + 1,
        "fingerprint": session.fingerprint,
    }))
    assert load_snapshot(tmp_path, session.fingerprint) is None  # silent


def test_missing_directory_and_unconfigured_are_noops(tmp_path,
                                                      monkeypatch):
    monkeypatch.delenv("REPRO_SNAPSHOT_DIR", raising=False)
    session = Session(name="nowhere")
    assert not restore_session(session)            # nothing configured
    assert save_snapshot(session) is None
    assert not restore_session(session, tmp_path / "absent")


def test_concurrent_writers_last_writer_wins(tmp_path):
    """Two sessions snapshotting the same key race safely: every read
    during the race sees a *complete* snapshot (or none), and the
    final state is one writer's payload, never a torn mix."""
    writers = []
    for index in range(2):
        session = Session(name=f"racer-{index}")
        assert session.run_scenario("eval_tc_chain_120").ok
        writers.append(session)
    fingerprint = writers[0].fingerprint
    assert writers[1].fingerprint == fingerprint  # same key by design

    stop = threading.Event()
    errors = []

    def hammer(session):
        while not stop.is_set():
            try:
                save_snapshot(session, tmp_path)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return

    threads = [threading.Thread(target=hammer, args=(session,))
               for session in writers]
    for thread in threads:
        thread.start()
    complete_reads = 0
    try:
        # Read until the race has demonstrably produced observable
        # snapshots (a fixed iteration count can finish before either
        # writer lands its first file).
        deadline = time.monotonic() + 10.0
        while complete_reads < 20 and time.monotonic() < deadline:
            payload = load_snapshot(tmp_path, fingerprint)
            if payload is not None:
                assert payload["fingerprint"] == fingerprint
                assert "plans" in payload and "tables" in payload
                complete_reads += 1
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert not errors
    assert complete_reads > 0
    # The survivor restores cleanly (whichever writer won).
    final = Session(name="survivor")
    assert restore_session(final, tmp_path)


def test_adopt_image_rejects_shape_mismatch(warm_dir):
    """A banked image whose relation shapes disagree with the payload
    database is dropped, not trusted."""
    from repro.datalog.columns import adopt_image, edb_image
    from repro.datalog.database import Database
    from repro.workloads.scenarios import get_scenario

    payload = get_scenario("eval_tc_chain_120").build()
    session = Session(name="shapes")
    with session.activated():
        image = edb_image(payload["database"])
        other = Database.from_atoms([])
        other.add("e", ("a", "b"))
        assert not adopt_image(other, image)        # count mismatch
        good = get_scenario("eval_tc_chain_120").build()["database"]
        assert adopt_image(good, image)             # deterministic twin
