"""Tests for the sweep service (repro.service).

Covers: a coordinator + two workers producing store records whose
``result`` (and spec/hash/label) fields are byte-identical to a local
``run_jobs`` run; a SIGKILLed worker's in-flight job requeued via lease
expiry and finished elsewhere with its retry budget uncharged; a
SIGKILLed coordinator restarted over its store, its client recovering
by resubmitting; a completion the store cannot save, run again; 429
backpressure on a full queue; stale completions rejected; ``/complete``
handing out the next lease; keep-alive connections that a silent peer
cannot park and a worker leaves none of behind; the ``/api/progress``
and dashboard endpoints; the shared :class:`LeaseQueue` budget rules
both executors ride; and the coordinator's lease protocol checked step
by step against a model of those rules.
"""

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.faults import soak as soak_mod
from repro.runner import lease as lease_mod
from repro.runner.jobspec import BadSpec, JobSpec, cell
from repro.runner.lease import LeaseQueue
from repro.runner.pool import run_jobs
from repro.runner.serialize import from_jsonable, to_jsonable
from repro.runner.store import ResultStore
from repro.service import worker as worker_mod
from repro.service.cli import main as service_main
from repro.service.coordinator import (
    CoordinatorHandler,
    SweepCoordinator,
    serve,
)
from repro.service.protocol import (
    Backpressure,
    Connection,
    ServiceError,
    request_json,
)
from repro.service.worker import run_worker

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --- job functions (registered cells: workers look them up by module:name) --

@cell
def job_ok(value=0):
    return {"value": value, "pair": ("a", 1), "by_id": {7: 1.5}}


@cell
def job_raise():
    raise RuntimeError("injected failure")


@cell
def job_nap(duration=0.0):
    time.sleep(duration)
    return "rested"


@cell
def job_hang_once(marker):
    """Hang on the first execution, return instantly on the next.

    The first attempt leaves a marker file and sleeps forever (its
    worker gets SIGKILLed); the retry sees the marker and succeeds.
    """
    if os.path.exists(marker):
        return 42
    with open(marker, "w") as fh:
        fh.write("started")
    time.sleep(120)


# --- harness ----------------------------------------------------------------

@pytest.fixture
def coordinator_factory(tmp_path_factory):
    """Start in-process coordinators/workers; tear all of them down.
    A coordinator started with ``store=None`` gets a fresh store of its
    own in a temporary directory."""
    servers, stops, threads = [], [], []

    def start(store=None, **kwargs):
        if store is None:
            store = ResultStore(str(tmp_path_factory.mktemp("coordinator")))
        coordinator, server = serve(store, port=0, **kwargs)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        threads.append(thread)
        return coordinator, f"http://127.0.0.1:{server.server_port}"

    def start_workers(url, n, **kwargs):
        stop = threading.Event()
        stops.append(stop)
        kwargs.setdefault("poll_s", 0.02)
        kwargs.setdefault("max_idle_s", None)
        for i in range(n):
            thread = threading.Thread(
                target=run_worker, args=(url,),
                kwargs=dict(name=f"w{i}", stop=stop, **kwargs),
                daemon=True)
            thread.start()
            threads.append(thread)
        return stop

    yield start, start_workers

    for stop in stops:
        stop.set()
    for server in servers:
        server.shutdown()
        server.server_close()
    for thread in threads:
        thread.join(timeout=5)


def _record_essence(record):
    """The location-independent part of a store record, canonicalized."""
    return json.dumps(
        {k: record[k] for k in ("hash", "label", "spec", "result")},
        sort_keys=True)


# --- end to end: service results byte-identical to local ---------------------

def test_service_sweep_matches_local_run(tmp_path, coordinator_factory):
    start, start_workers = coordinator_factory
    specs = [JobSpec.make(job_ok, label=f"j{i}", value=i) for i in range(6)]

    svc_store = ResultStore(str(tmp_path / "svc"))
    _, url = start(svc_store)
    start_workers(url, 2)
    outcomes = run_jobs(specs, service=url)
    assert [o.status for o in outcomes] == ["ok"] * 6
    # exact decoded round-trip, tuples and int keys included
    assert outcomes[3].result == {"value": 3, "pair": ("a", 1),
                                  "by_id": {7: 1.5}}
    assert all(o.attempts == 1 for o in outcomes)

    local_store = ResultStore(str(tmp_path / "local"))
    local = run_jobs(specs, jobs=1, store=local_store)
    assert [o.result for o in local] == [o.result for o in outcomes]

    svc_records = {r["hash"]: _record_essence(r)
                   for r in svc_store.records()}
    local_records = {r["hash"]: _record_essence(r)
                     for r in local_store.records()}
    assert svc_records == local_records
    assert len(svc_records) == 6


def test_service_resubmit_serves_cache_without_reexecuting(
        tmp_path, coordinator_factory):
    start, start_workers = coordinator_factory
    specs = [JobSpec.make(job_ok, label=f"j{i}", value=i) for i in range(3)]
    store = ResultStore(str(tmp_path / "svc"))
    coordinator, url = start(store)
    start_workers(url, 1)
    first = run_jobs(specs, service=url)
    assert all(o.status == "ok" for o in first)
    executed = coordinator.counters["jobs_completed"].value

    second = run_jobs(specs, service=url)
    assert [o.result for o in second] == [o.result for o in first]
    assert coordinator.counters["jobs_completed"].value == executed
    assert coordinator.counters["jobs_deduped"].value == 3

    # a *restarted* coordinator over the same store serves from disk:
    # the resume-after-kill path in the quickstart
    revived, url2 = start(ResultStore(str(tmp_path / "svc")))
    third = run_jobs(specs, service=url2)
    assert [o.result for o in third] == [o.result for o in first]
    assert revived.counters["store_hits"].value == 3
    assert revived.counters["jobs_completed"].value == 0


def test_a_finished_job_whose_record_vanished_runs_again(
        tmp_path, coordinator_factory):
    """The store is the one record of a finished job: once a done job's
    record is gone, ``/results`` forgets the job and answers
    ``unknown``, and the client's resubmit runs it again instead of
    being served a result the store no longer holds."""
    start, start_workers = coordinator_factory
    store = ResultStore(str(tmp_path / "svc"))
    coordinator, url = start(store)
    start_workers(url, 1)
    specs = [JobSpec.make(job_ok, label=f"j{i}", value=i) for i in range(2)]
    assert all(o.ok for o in run_jobs(specs, service=url))
    assert store.invalidate(specs[0])
    _, res = request_json(url, "/results", {"ids": [specs[0].hash]})
    assert res["jobs"][specs[0].hash] == {"status": "unknown"}

    outcomes = run_jobs(specs, service=url)
    assert [o.result for o in outcomes] == [job_ok(0), job_ok(1)]
    assert coordinator.counters["jobs_completed"].value == 3
    assert from_jsonable(store.load_record(specs[0])["result"]) == job_ok(0)


def test_service_local_store_also_caches_client_side(
        tmp_path, coordinator_factory):
    start, start_workers = coordinator_factory
    specs = [JobSpec.make(job_ok, label="j", value=5)]
    _, url = start(ResultStore(str(tmp_path / "svc")))
    start_workers(url, 1)
    client_store = ResultStore(str(tmp_path / "client"))
    run_jobs(specs, store=client_store, service=url)
    assert len(client_store) == 1
    # second run never reaches the coordinator: local cache hit
    outcomes = run_jobs(specs, store=client_store,
                        service="http://127.0.0.1:1")
    assert outcomes[0].status == "cached"


def test_service_job_failure_charges_retry_budget(coordinator_factory):
    start, start_workers = coordinator_factory
    coordinator, url = start(None, retries=1)
    start_workers(url, 1)
    outcomes = run_jobs([JobSpec.make(job_raise, label="boom")],
                        service=url)
    assert outcomes[0].status == "failed"
    assert outcomes[0].attempts == 2  # first try + one charged retry
    assert "injected failure" in outcomes[0].error
    assert coordinator.counters["jobs_failed"].value == 1


def test_serial_pool_and_service_outcomes_agree(coordinator_factory):
    """All three executors run :func:`execute_leased` and settle its
    reply through one rule: the same specs end with the same status,
    attempt count, error text and result whichever ran them."""
    start, start_workers = coordinator_factory
    _, url = start(None, retries=1)
    start_workers(url, 1)
    specs = [JobSpec.make(job_raise, label="boom"),
             JobSpec.make(job_ok, label="fine", value=3)]

    def essence(outcomes):
        return [(o.status, o.attempts, o.error, o.result) for o in outcomes]

    serial = essence(run_jobs(specs, jobs=1, retries=1))
    assert serial == [
        ("failed", 2, "RuntimeError: injected failure", None),
        ("ok", 1, None, job_ok(3))]
    assert essence(run_jobs(specs, jobs=2, retries=1)) == serial
    assert essence(run_jobs(specs, service=url)) == serial


# --- lease expiry: executor death never charges the job ----------------------

def test_lease_expiry_requeues_without_charging(tmp_path,
                                                coordinator_factory):
    start, start_workers = coordinator_factory
    store = ResultStore(str(tmp_path / "svc"))
    coordinator, url = start(store, lease_ttl_s=0.3)
    spec = JobSpec.make(job_ok, label="j", value=1)
    _, body = request_json(url, "/submit",
                           {"specs": [to_jsonable(spec)]})
    job_id = body["jobs"][0]["id"]

    # a "worker" that claims and then silently dies (never heartbeats)
    _, claimed = request_json(url, "/claim", {"worker": "doomed"})
    assert claimed["job"]["id"] == job_id
    time.sleep(0.4)  # let the lease lapse

    start_workers(url, 1)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        _, res = request_json(url, "/results", {"ids": [job_id]})
        if res["jobs"][job_id]["status"] == "done":
            break
        time.sleep(0.05)
    info = res["jobs"][job_id]
    assert info["status"] == "done"
    assert info["attempts"] == 1  # the doomed claim was not charged
    assert coordinator.counters["leases_expired"].value >= 1
    record = store.load_record(spec)
    assert record["attempts"] == 1


def test_lease_expiry_of_a_lease_whose_claim_reply_was_lost(
        tmp_path, coordinator_factory):
    """A worker's ``/complete {"claim": true}`` is processed but its
    reply, carrying the next lease, is lost, so the worker resends it.
    The resend is stale and finds nothing queued; the lease nobody
    holds expires as an uncharged release that counts toward
    ``DEFAULT_MAX_RELEASES``, and its job still ends done exactly
    once."""
    start, start_workers = coordinator_factory
    store = ResultStore(str(tmp_path / "svc"))
    coordinator, url = start(store, lease_ttl_s=0.3)
    first, second = (JobSpec.make(job_ok, label=f"j{i}", value=i)
                     for i in range(2))
    _submit(url, [first, second])
    _, claimed = request_json(url, "/claim", {"worker": "w"})
    lost = _complete(url, claimed["job"]["lease"], claim=True)["job"]
    assert lost["id"] == second.hash
    resent = _complete(url, claimed["job"]["lease"], claim=True)
    assert resent == {"accepted": False, "job": None}
    time.sleep(0.4)  # let the lost lease lapse

    progress = coordinator.progress()
    assert progress["by_status"]["queued"] == 1
    assert coordinator.counters["leases_expired"].value == 1
    (queued,) = (job for job in progress["jobs"] if job["id"] == second.hash)
    assert (queued["attempts"], queued["releases"]) == (0, 1)
    start_workers(url, 1)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        _, res = request_json(url, "/results", {"ids": [second.hash]})
        if res["jobs"][second.hash]["status"] == "done":
            break
        time.sleep(0.05)
    assert res["jobs"][second.hash]["status"] == "done"
    assert res["jobs"][second.hash]["attempts"] == 1  # uncharged
    assert res["jobs"][second.hash]["releases"] == 1
    assert store.load_record(second)["attempts"] == 1
    assert coordinator.counters["jobs_completed"].value == 2
    assert coordinator.counters["stale_completions"].value == 1


def test_expired_lease_reports_charged_attempts_and_the_release(
        coordinator_factory):
    """A requeued job reports the attempts its queue entry is charged
    (none: the expired lease was not one) and one uncharged release,
    on ``/results`` and ``/api/progress`` alike."""
    start, _ = coordinator_factory
    coordinator, url = start(None, lease_ttl_s=0.1)
    spec = JobSpec.make(job_ok, label="j", value=1)
    _submit(url, [spec])
    _, claimed = request_json(url, "/claim", {"worker": "doomed"})
    assert claimed["job"]["attempts"] == 1
    time.sleep(0.2)  # let the lease lapse

    _, res = request_json(url, "/results", {"ids": [spec.hash]})
    info = res["jobs"][spec.hash]
    assert (info["status"], info["attempts"], info["releases"]) == (
        "queued", 0, 1)
    _, progress = request_json(url, "/api/progress")
    (job,) = progress["jobs"]
    assert (job["status"], job["attempts"], job["releases"]) == (
        "queued", 0, 1)
    # the next claim is the first charged attempt
    _, claimed = request_json(url, "/claim", {"worker": "w"})
    assert claimed["job"]["attempts"] == 1


def test_stale_cached_result_is_a_miss_over_the_service(
        tmp_path, coordinator_factory):
    """A stored record whose result names a repro dataclass that no
    longer exists is re-run through the coordinator, as it is locally,
    and overwritten in the coordinator's store and the client's — not
    served as ``cached`` for the client to choke on."""
    start, start_workers = coordinator_factory
    store, client_store = (ResultStore(str(tmp_path / name))
                           for name in ("svc", "client"))
    spec = JobSpec.make(job_ok, label="j", value=4)
    stale = {"__dataclass__": "repro.experiments.fabric_sweep:GoneResult",
             "fields": {}}
    for held in (store, client_store):
        held.save(spec, stale, 0.0)

    coordinator, url = start(store)
    start_workers(url, 1)
    (outcome,) = run_jobs([spec], store=client_store, service=url)
    assert (outcome.status, outcome.result) == ("ok", job_ok(4))
    assert coordinator.counters["store_hits"].value == 0
    assert coordinator.counters["jobs_completed"].value == 1
    for held in (store, client_store):
        assert from_jsonable(held.load_record(spec)["result"]) == job_ok(4)
    with pytest.raises(ValueError, match="not a repro dataclass"):
        from_jsonable(stale)


def test_sigkilled_worker_job_finishes_elsewhere(tmp_path,
                                                 coordinator_factory):
    start, start_workers = coordinator_factory
    store = ResultStore(str(tmp_path / "svc"))
    coordinator, url = start(store, lease_ttl_s=0.5)
    marker = str(tmp_path / "marker")
    spec = JobSpec.make(job_hang_once, label="hang-once", marker=marker)
    request_json(url, "/submit", {"specs": [to_jsonable(spec)]})

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src"), os.path.dirname(__file__)])
    # a worker runs registered cells only: it imports this module's
    proc = subprocess.Popen(
        [sys.executable, "-c",
         f"import sys, {__name__}; from repro.service.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "worker", url, "--name", "victim", "--poll", "0.05"],
        env=env, cwd=REPO,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not os.path.exists(marker):
            assert time.monotonic() < deadline, "worker never started job"
            assert proc.poll() is None, "worker died before claiming"
            time.sleep(0.05)
        proc.kill()  # SIGKILL mid-job: no heartbeat, no /complete
        proc.wait(timeout=10)

        start_workers(url, 1)
        job_id = spec.hash
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            _, res = request_json(url, "/results", {"ids": [job_id]})
            if res["jobs"][job_id]["status"] == "done":
                break
            time.sleep(0.05)
        info = res["jobs"][job_id]
        assert info["status"] == "done"
        assert info["result"] == 42
        assert info["attempts"] == 1  # the killed attempt was uncharged
        assert coordinator.counters["leases_expired"].value >= 1
        assert store.load_record(spec)["attempts"] == 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _start_coordinator_process(port, results_dir):
    """``python -m repro.service coordinator`` on ``port``, once healthy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "coordinator",
         "--port", str(port), "--results-dir", results_dir, "--quiet"],
        env=env, cwd=REPO,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    url = f"http://127.0.0.1:{port}"
    deadline = time.monotonic() + 30
    while True:
        assert proc.poll() is None, "coordinator exited"
        try:
            if request_json(url, "/healthz") == (200, {"ok": True}):
                return proc, url
        except ServiceError:
            assert time.monotonic() < deadline, "coordinator never healthy"
            time.sleep(0.05)


def test_sigkilled_coordinator_restarts_and_its_client_finishes(
        tmp_path, coordinator_factory, monkeypatch):
    """``kill -9`` the coordinator with 4 of 12 jobs done and 8 queued,
    restart it on the same port and store: the client, still polling,
    is answered ``unknown`` and resubmits; the store serves the 4 and
    the workers run only the 8.  The coordinator runs as its own
    process, so it admits registered ``repro`` cells only.  The
    client's first poll waits for the restart, so that it has seen
    none of the 4 finish."""
    import repro.service.client as client_mod
    from repro.experiments.tournament import tournament_specs
    from repro.units import msec

    restarted = threading.Event()

    class Gated(Connection):
        def request(self, path, *args, **kwargs):
            if path == "/results":
                restarted.wait()
            return super().request(path, *args, **kwargs)

    monkeypatch.setattr(client_mod, "Connection", Gated)
    _, start_workers = coordinator_factory
    specs = tournament_specs(topologies=("clos:spines=2,leaves=2,hosts=2",),
                             duration_ns=msec(1))[:12]
    port, svc_dir = _free_port(), str(tmp_path / "svc")
    procs = []
    got = {}

    def client():
        try:
            got["outcomes"] = run_jobs(specs, service=url)
        except Exception as exc:  # noqa: BLE001 — reported below
            got["error"] = exc

    try:
        proc, url = _start_coordinator_process(port, svc_dir)
        procs.append(proc)
        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        assert run_worker(url, name="first", max_jobs=4, poll_s=0.02,
                          max_idle_s=30) == 4
        proc.kill()  # SIGKILL: the queue of 8 dies with it
        proc.wait(timeout=10)

        proc, url = _start_coordinator_process(port, svc_dir)
        procs.append(proc)
        restarted.set()
        start_workers(url, 2)
        thread.join(timeout=60)
        assert not thread.is_alive(), "the client never finished"
        assert "error" not in got, got
        assert [o.status for o in got["outcomes"]] == ["ok"] * 12
        _, progress = request_json(url, "/api/progress")
        assert progress["counters"]["store_hits"] == 4
        assert progress["counters"]["jobs_completed"] == 8
    finally:
        restarted.set()
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    local_store = ResultStore(str(tmp_path / "local"))
    assert all(o.ok for o in run_jobs(specs, jobs=1, store=local_store))
    essence = {r["hash"]: _record_essence(r)
               for r in ResultStore(svc_dir).records()}
    assert essence == {r["hash"]: _record_essence(r)
                       for r in local_store.records()}
    assert len(essence) == 12


class _SaveFailsOnce(ResultStore):
    """A store whose first ``save`` raises, as on a full disk."""

    failures = 0

    def save(self, *args, **kwargs):
        if not self.failures:
            self.failures += 1
            raise OSError("injected: no space left on device")
        return super().save(*args, **kwargs)


def test_a_completion_the_store_cannot_save_runs_again(
        tmp_path, coordinator_factory):
    """The record is saved before the lease completes: when the save
    raises, the job is not done — its lease lapses, requeues uncharged
    and the next attempt's result is stored."""
    start, start_workers = coordinator_factory
    store = _SaveFailsOnce(str(tmp_path / "svc"))
    coordinator, url = start(store, lease_ttl_s=0.3)
    start_workers(url, 1)
    specs = [JobSpec.make(job_ok, label=f"j{i}", value=i) for i in range(3)]
    outcomes = run_jobs(specs, service=url)
    assert [(o.status, o.attempts) for o in outcomes] == [("ok", 1)] * 3
    assert store.failures == 1
    assert all(store.load_record(spec) is not None for spec in specs)
    assert coordinator.counters["leases_expired"].value == 1
    assert coordinator.counters["jobs_completed"].value == 3


def test_stale_completion_rejected(coordinator_factory):
    start, _ = coordinator_factory
    coordinator, url = start(None, lease_ttl_s=0.2)
    spec = JobSpec.make(job_ok, label="j")
    request_json(url, "/submit", {"specs": [to_jsonable(spec)]})
    _, claimed = request_json(url, "/claim", {"worker": "slow"})
    lease = claimed["job"]["lease"]
    time.sleep(0.3)  # expire without heartbeating
    _, reply = request_json(url, "/complete", {
        "lease": lease, "worker": "slow", "ok": True, "result": 1,
        "elapsed_s": 0.3})
    assert reply["accepted"] is False
    assert coordinator.counters["stale_completions"].value == 1
    # the requeued job is claimable again and completes normally
    _, claimed2 = request_json(url, "/claim", {"worker": "fresh"})
    assert claimed2["job"]["attempts"] == 1
    _, reply2 = request_json(url, "/complete", {
        "lease": claimed2["job"]["lease"], "worker": "fresh",
        "ok": True, "result": 2, "elapsed_s": 0.1})
    assert reply2["accepted"] is True


def test_heartbeat_keeps_short_ttl_lease_alive(coordinator_factory):
    start, start_workers = coordinator_factory
    coordinator, url = start(None, lease_ttl_s=0.4)
    # job runs ~3x the TTL; only heartbeats keep it from expiring
    spec = JobSpec.make(job_nap, label="nap", duration=1.2)
    request_json(url, "/submit", {"specs": [to_jsonable(spec)]})
    start_workers(url, 1)
    deadline = time.monotonic() + 15
    status = None
    while time.monotonic() < deadline:
        _, res = request_json(url, "/results", {"ids": [spec.hash]})
        status = res["jobs"][spec.hash]["status"]
        if status == "done":
            break
        time.sleep(0.05)
    assert status == "done"
    assert coordinator.counters["leases_expired"].value == 0
    assert coordinator.counters["leases_renewed"].value >= 1
    assert res["jobs"][spec.hash]["attempts"] == 1


# --- /complete hands out the next lease --------------------------------------

def _submit(url, specs):
    request_json(url, "/submit", {"specs": [to_jsonable(s) for s in specs]})


def _complete(url, lease, **extra):
    return request_json(url, "/complete", {
        "lease": lease, "worker": "w", "ok": True, "result": 1,
        "elapsed_s": 0.1, **extra})[1]


def test_complete_with_claim_carries_the_next_lease(coordinator_factory):
    start, _ = coordinator_factory
    coordinator, url = start(None)
    specs = [JobSpec.make(job_ok, label=f"j{i}", value=i) for i in range(2)]
    _submit(url, specs)
    _, first = request_json(url, "/claim", {"worker": "w"})
    reply = _complete(url, first["job"]["lease"], claim=True)
    assert reply["accepted"] is True
    assert set(reply["job"]) == set(first["job"])  # exactly /claim's shape
    assert reply["job"]["id"] == specs[1].hash
    assert reply["job"]["attempts"] == 1
    # an empty queue answers a null lease
    assert _complete(url, reply["job"]["lease"], claim=True) == {
        "accepted": True, "job": None}
    assert coordinator.counters["leases_granted"].value == 2
    assert coordinator.counters["jobs_completed"].value == 2


def test_complete_without_claim_is_answered_accepted_only(
        coordinator_factory):
    start, _ = coordinator_factory
    coordinator, url = start(None)
    _submit(url, [JobSpec.make(job_ok, label=f"j{i}", value=i)
                  for i in range(2)])
    _, first = request_json(url, "/claim", {"worker": "w"})
    assert _complete(url, first["job"]["lease"]) == {"accepted": True}
    assert coordinator.counters["leases_granted"].value == 1
    assert coordinator.progress()["queue"]["pending"] == 1


def test_stale_completion_with_claim_still_gets_a_lease(coordinator_factory):
    start, _ = coordinator_factory
    coordinator, url = start(None, lease_ttl_s=0.2)
    spec = JobSpec.make(job_ok, label="j")
    _submit(url, [spec])
    _, claimed = request_json(url, "/claim", {"worker": "slow"})
    time.sleep(0.3)  # expire without heartbeating
    reply = _complete(url, claimed["job"]["lease"], claim=True)
    assert reply["accepted"] is False
    # the expired job, requeued uncharged, is the lease handed back
    assert reply["job"]["id"] == spec.hash
    assert reply["job"]["attempts"] == 1
    assert coordinator.counters["stale_completions"].value == 1


def test_non_holder_lease_is_stale(tmp_path):
    """A lease presented by a worker other than its holder is stale: B
    can neither complete nor renew A's lease, is credited nothing, and
    leaves A's current job alone; A's own completion is accepted."""
    coordinator = SweepCoordinator(ResultStore(str(tmp_path)))
    coordinator.submit([to_jsonable(JobSpec.make(job_ok, label="j"))])
    lease = coordinator.claim("A")["lease"]

    def workers():
        return {w["name"]: (w["current_job"], w["jobs_done"])
                for w in coordinator.progress()["workers"]}

    assert coordinator.complete(lease, "B", ok=True, result=1) is False
    assert coordinator.heartbeat("B", [lease]) == {
        "renewed": [], "stale": [lease]}
    assert workers() == {"A": ("j", 0), "B": (None, 0)}
    assert coordinator.counters["stale_completions"].value == 1
    assert coordinator.complete(lease, "A", ok=True, result=1) is True
    assert workers() == {"A": (None, 1), "B": (None, 0)}


def test_nameless_client_holds_the_lease_it_claimed(coordinator_factory):
    """A request without a worker name speaks for the client's address
    on ``/claim``, ``/heartbeat`` and ``/complete`` alike, so a nameless
    client's own lease is never stale to it."""
    start, _ = coordinator_factory
    coordinator, url = start(None)
    _submit(url, [JobSpec.make(job_ok, label="j")])
    _, claimed = request_json(url, "/claim", {})
    lease = claimed["job"]["lease"]
    _, renewed = request_json(url, "/heartbeat", {"leases": [lease]})
    assert renewed == {"renewed": [lease], "stale": []}
    _, reply = request_json(url, "/complete", {
        "lease": lease, "ok": True, "result": 1, "elapsed_s": 0.1})
    assert reply == {"accepted": True}
    (worker,) = coordinator.progress()["workers"]
    assert (worker["name"], worker["jobs_done"]) == ("127.0.0.1", 1)


def _record_worker_connections(monkeypatch):
    """The connections ``run_worker`` opens and the paths it requests."""
    opened, paths = [], []

    class Recorded(Connection):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

        def request(self, path, *args, **kwargs):
            paths.append(path)
            return super().request(path, *args, **kwargs)

    monkeypatch.setattr(worker_mod, "Connection", Recorded)
    return opened, paths


def test_worker_max_jobs_is_granted_exactly_that_many_leases(
        coordinator_factory, monkeypatch):
    start, _ = coordinator_factory
    coordinator, url = start(None)
    _submit(url, [JobSpec.make(job_ok, label=f"j{i}", value=i)
                  for i in range(5)])
    _, paths = _record_worker_connections(monkeypatch)
    assert run_worker(url, name="w", max_jobs=3, poll_s=0.02,
                      max_idle_s=None) == 3
    # one round trip per job: each /complete brought the next lease
    assert paths == ["/claim", "/complete", "/complete", "/complete"]
    counters = {k: c.value for k, c in coordinator.counters.items()}
    assert counters["leases_granted"] == 3
    assert counters["jobs_completed"] == 3
    assert counters["leases_expired"] == 0
    assert coordinator.progress()["queue"] == {
        "pending": 2, "in_flight": 0, "depth": 2, "max_queue": 1024}


def test_worker_stopped_mid_job_requests_no_further_lease(
        coordinator_factory):
    start, _ = coordinator_factory
    coordinator, url = start(None)
    _submit(url, [JobSpec.make(job_nap, label="nap", duration=0.5),
                  JobSpec.make(job_ok, label="next")])
    stop = threading.Event()
    timer = threading.Timer(0.2, stop.set)
    timer.start()
    try:
        assert run_worker(url, name="w", stop=stop, poll_s=0.02,
                          max_idle_s=None) == 1
    finally:
        timer.cancel()
    assert coordinator.counters["leases_granted"].value == 1
    assert coordinator.counters["jobs_completed"].value == 1
    assert coordinator.progress()["queue"]["pending"] == 1


def test_heartbeat_stress_many_workers_short_leases(coordinator_factory):
    """More worker threads than cores, each beating short leases while
    the interpreter switches threads as often as it can: every job runs
    once, and no beat marks a lease other than its own stale."""
    start, start_workers = coordinator_factory
    coordinator, url = start(None, lease_ttl_s=0.6)
    specs = [JobSpec.make(job_nap, label=f"nap{i}", duration=0.01 * i)
             for i in range(24)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        start_workers(url, 4)
        outcomes = run_jobs(specs, service=url)
    finally:
        sys.setswitchinterval(interval)
    assert [(o.status, o.attempts) for o in outcomes] == [("ok", 1)] * 24
    counters = {k: c.value for k, c in coordinator.counters.items()}
    assert counters["leases_granted"] == counters["jobs_completed"] == 24
    assert counters["stale_completions"] == 0
    assert counters["leases_renewed"] >= 1


def _threads_left(baseline, timeout_s=10.0):
    """Threads not in ``baseline`` still alive once up to ``timeout_s``
    has passed: a closed connection's handler thread exits on EOF."""
    deadline = time.monotonic() + timeout_s
    while True:
        extra = [t for t in threading.enumerate() if t not in baseline]
        if not extra or time.monotonic() > deadline:
            return extra
        time.sleep(0.02)


@pytest.mark.parametrize("exit_by", ["max_jobs", "idle", "stop", "exception"])
def test_worker_teardown_leaves_nothing_running(
        coordinator_factory, monkeypatch, exit_by):
    """Whichever way ``run_worker`` returns, its heartbeat thread has
    exited and both its connections are closed: no coordinator handler
    thread stays parked on one."""
    start, _ = coordinator_factory
    # beats every 0.2 s, so the heartbeat's own connection is open too
    coordinator, url = start(None, lease_ttl_s=0.6)
    opened, _ = _record_worker_connections(monkeypatch)
    _submit(url, [JobSpec.make(job_nap, label="nap", duration=0.5)])
    stop = threading.Event()
    kwargs = dict(name="w", poll_s=0.02, max_idle_s=None, stop=stop)
    baseline = set(threading.enumerate())
    if exit_by == "max_jobs":
        kwargs["max_jobs"] = 1
    elif exit_by == "idle":
        kwargs["max_idle_s"] = 0.2
    elif exit_by == "stop":
        threading.Timer(0.2, stop.set).start()
    else:
        def crash(payload):
            time.sleep(0.5)
            raise KeyboardInterrupt

        monkeypatch.setattr(worker_mod, "execute_leased", crash)
    if exit_by == "exception":
        with pytest.raises(KeyboardInterrupt):
            run_worker(url, **kwargs)
    else:
        assert run_worker(url, **kwargs) == 1
    assert coordinator.counters["leases_renewed"].value >= 1
    assert len(opened) == 2  # the worker's and its heartbeat's
    assert all(conn._http.sock is None for conn in opened)
    assert _threads_left(baseline) == []


# --- backpressure ------------------------------------------------------------

def test_submit_backpressure_429(coordinator_factory):
    start, _ = coordinator_factory
    _, url = start(None, max_queue=2)
    specs = [to_jsonable(JobSpec.make(job_ok, label=f"j{i}", value=i))
             for i in range(3)]
    with pytest.raises(Backpressure) as exc:
        request_json(url, "/submit", {"specs": specs})
    assert exc.value.retry_after_s > 0
    # the rejection was atomic: nothing from the batch was admitted
    _, progress = request_json(url, "/api/progress")
    assert progress["total"] == 0
    # a batch that fits is accepted
    _, body = request_json(url, "/submit", {"specs": specs[:2]})
    assert [j["status"] for j in body["jobs"]] == ["queued", "queued"]


def test_client_waits_out_backpressure(coordinator_factory):
    start, start_workers = coordinator_factory
    import repro.service.client as client_mod

    _, url = start(None, max_queue=4)
    start_workers(url, 2)
    specs = [JobSpec.make(job_ok, label=f"j{i}", value=i) for i in range(9)]
    original = client_mod.SUBMIT_CHUNK
    client_mod.SUBMIT_CHUNK = 3  # several chunks against a tiny queue
    try:
        notes = []
        outcomes = run_jobs(specs, service=url, log=notes.append)
    finally:
        client_mod.SUBMIT_CHUNK = original
    assert all(o.status == "ok" for o in outcomes)
    assert [o.result["value"] for o in outcomes] == list(range(9))


# --- dashboard and progress --------------------------------------------------

def test_progress_and_dashboard_endpoints(tmp_path, coordinator_factory):
    start, start_workers = coordinator_factory
    store = ResultStore(str(tmp_path / "svc"))
    _, url = start(store)
    start_workers(url, 1)
    specs = [JobSpec.make(job_ok, label=f"j{i}", value=i) for i in range(2)]
    run_jobs(specs, service=url)

    _, progress = request_json(url, "/api/progress")
    assert progress["total"] == 2 and progress["finished"] == 2
    assert progress["by_status"]["done"] == 2
    assert progress["queue"]["pending"] == 0
    assert len(progress["workers"]) == 1
    assert progress["workers"][0]["jobs_done"] == 2
    assert sum(progress["throughput"]["buckets"]) == 2
    assert progress["store"]["records"] == 2
    statuses = {j["label"]: j["status"] for j in progress["jobs"]}
    assert statuses == {"j0": "done", "j1": "done"}

    html = urllib.request.urlopen(url + "/").read().decode()
    assert "repro sweep coordinator" in html
    assert "/api/progress" in html  # the page polls the JSON API
    _, health = request_json(url, "/healthz")
    assert health == {"ok": True}
    status, body = request_json(url, "/nope", {})
    assert status == 404


def test_bad_requests_do_not_kill_the_server(coordinator_factory):
    start, _ = coordinator_factory
    _, url = start(None)
    status, body = request_json(url, "/submit", {"specs": []})
    assert status == 400
    _, health = request_json(url, "/healthz")
    assert health == {"ok": True}


def _raw_post(url, path, body, content_length=None):
    """POST ``body`` (bytes) over a bare socket, with whatever
    ``Content-Length`` the case wants to lie about; the status code."""
    host, port = url.rsplit("/", 1)[1].split(":")
    if content_length is None:
        content_length = str(len(body))
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode() + body)
        status_line = sock.makefile("rb").readline()
    return int(status_line.split()[1])


@pytest.mark.parametrize("path, body, content_length, expected", [
    # rfile.read(-1) would park the handler until the peer hangs up
    ("/claim", b"{}", "-1", 400),
    ("/claim", b"{}", "two", 400),
    # would raise MemoryError out of the handler, no reply
    ("/claim", b"{}", "999999999999", 413),
    ("/claim", b"[1, 2]", None, 400),
    ("/claim", b"{not json", None, 400),
    ("/submit", json.dumps({"specs": [{"bogus": 1}]}).encode(), None, 400),
    ("/submit", json.dumps({"specs": [
        {"__dataclass__": "no.such.module:Spec", "fields": {}}]}).encode(),
     None, 400),
    # decoding calls the tagged class: only repro dataclasses qualify
    ("/submit", json.dumps({"specs": [
        {"__dataclass__": "subprocess:run",
         "fields": {"args": ["touch", "TMP/pwned"]}}]}).encode(), None, 400),
    ("/submit", json.dumps({"specs": [
        {"__dataclass__": "repro.runner.store:ResultStore",
         "fields": {"root": "TMP/store"}}]}).encode(), None, 400),
    # a spec may name only a registered cell, inside repro too
    ("/submit", json.dumps({"specs": [to_jsonable(JobSpec(
        fn="repro.service.cli:main",
        kwargs={"argv": ["coordinator", "--results-dir", "TMP/pwned"]}))]}
    ).encode(), None, 400),
], ids=["negative-length", "non-integer-length", "huge-length", "array-body",
        "not-json", "spec-not-a-jobspec", "spec-undecodable",
        "spec-names-a-stdlib-callable", "spec-names-a-repro-non-dataclass",
        "spec-names-an-unregistered-repro-function"])
def test_hostile_bodies_are_refused_and_the_server_still_serves(
        coordinator_factory, tmp_path, path, body, content_length, expected):
    start, _ = coordinator_factory
    _, url = start(None)
    body = body.replace(b"TMP", str(tmp_path).encode())
    assert _raw_post(url, path, body, content_length) == expected
    assert not (tmp_path / "pwned").exists()
    status, reply = request_json(url, "/claim", {"worker": "w"})
    assert (status, reply) == (200, {"job": None})


def test_hostile_unregistered_repro_function_is_never_called(
        tmp_path, monkeypatch):
    """A spec naming a ``repro`` function that is not a registered cell
    is a cache miss in the store and :class:`BadSpec` when executed; the
    function is not called."""
    calls = []
    monkeypatch.setattr(soak_mod, "run_soak",
                        lambda **kwargs: calls.append(kwargs))
    spec = JobSpec(fn="repro.faults.soak:run_soak", kwargs={"n_cases": 1})
    store = ResultStore(str(tmp_path / "store"))
    store.save(spec, 1, 0.0)
    assert store.load_record(spec) is None
    with pytest.raises(BadSpec, match="not a registered cell"):
        spec.execute()
    assert calls == []


# --- keep-alive connections --------------------------------------------------

def _address(url):
    host, port = url.rsplit("/", 1)[1].split(":")
    return host, int(port)


def _read_to_eof(sock):
    """Everything the server sends until it closes the connection."""
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            break  # closed with our unread bytes still in its buffer
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize("sent", [b"", b"POST /cla"],
                         ids=["nothing", "half-a-request-line"])
def test_hostile_silent_connection_is_closed(
        coordinator_factory, monkeypatch, sent):
    monkeypatch.setattr(CoordinatorHandler, "timeout", 0.5)
    start, _ = coordinator_factory
    _, url = start(None)
    with socket.create_connection(_address(url), timeout=10) as sock:
        sock.sendall(sent)
        # the parked peer holds one handler thread, not the server
        assert request_json(url, "/healthz") == (200, {"ok": True})
        t0 = time.monotonic()
        assert _read_to_eof(sock) == b""
        assert time.monotonic() - t0 < 5
    assert request_json(url, "/healthz") == (200, {"ok": True})


@pytest.mark.parametrize("content_length, expected", [
    ("-1", 400), ("999999999999", 413)], ids=["bad-length", "huge-length"])
def test_hostile_refusal_before_the_body_closes_the_connection(
        coordinator_factory, content_length, expected):
    """The unread body must not be parsed as the next request: here it
    is one, pipelined on the same socket, and it goes unanswered."""
    start, _ = coordinator_factory
    _, url = start(None)
    host, port = _address(url)
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(
            f"POST /claim HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode()
            + f"GET /healthz HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
        reply = _read_to_eof(sock)
    assert int(reply.split()[1]) == expected
    assert b"\r\nconnection: close\r\n" in reply.lower()
    assert reply.count(b"HTTP/1.1 ") == 1


def test_hostile_429_keeps_a_reused_connection_usable(coordinator_factory):
    start, _ = coordinator_factory
    _, url = start(None, max_queue=2)
    specs = [to_jsonable(JobSpec.make(job_ok, label=f"j{i}", value=i))
             for i in range(3)]
    with Connection(url) as conn:
        assert conn.request("/healthz") == (200, {"ok": True})
        sock = conn._http.sock
        with pytest.raises(Backpressure):
            conn.request("/submit", {"specs": specs})
        status, body = conn.request("/submit", {"specs": specs[:2]})
        assert status == 200
        assert [j["status"] for j in body["jobs"]] == ["queued", "queued"]
        assert conn._http.sock is sock  # one connection throughout


def test_reused_connection_the_server_closed_is_resent_once(
        coordinator_factory, monkeypatch):
    monkeypatch.setattr(CoordinatorHandler, "timeout", 0.3)
    start, _ = coordinator_factory
    coordinator, url = start(None)
    _submit(url, [JobSpec.make(job_ok, label="j")])
    with Connection(url) as conn:
        assert conn.request("/healthz") == (200, {"ok": True})
        time.sleep(0.6)  # the server closes the idle connection
        status, body = conn.request("/claim", {"worker": "w"})
    assert status == 200 and body["job"]["attempts"] == 1
    assert coordinator.counters["leases_granted"].value == 1
    # a fresh connection that fails is an error, not a resend
    with pytest.raises(ServiceError, match="unreachable"):
        Connection("http://127.0.0.1:1").request("/healthz")
    with pytest.raises(ServiceError, match="not an http"):
        Connection("127.0.0.1:8642")


# --- service CLI -------------------------------------------------------------

def test_cli_submit_and_status(tmp_path, capsys, coordinator_factory):
    start, _ = coordinator_factory
    _, url = start(ResultStore(str(tmp_path / "svc")))
    assert service_main(["submit", url, "scalability",
                         "--schemes", "presto", "--points", "2",
                         "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "submitted 1 spec(s)" in out and "queued" in out
    assert service_main(["status", url]) == 0
    out = capsys.readouterr().out
    assert "0/1 finished" in out
    assert service_main(["status", url, "--json"]) == 0
    progress = json.loads(capsys.readouterr().out)
    assert progress["queue"]["pending"] == 1
    # --force is the one execution flag /submit carries; the others used
    # to parse and be dropped, now they are usage errors
    for dropped in (["--jobs", "2"], ["--timeout", "5"], ["--retries", "3"],
                    ["--service", url], ["--results-dir", str(tmp_path)],
                    ["--no-store"], ["--quiet"]):
        with pytest.raises(SystemExit) as exc:
            service_main(["submit", url, "scalability", *dropped])
        assert exc.value.code == 2
        assert dropped[0] in capsys.readouterr().err
    assert service_main(["submit", url, "scalability", "--schemes", "presto",
                         "--points", "2", "--seeds", "1", "--force"]) == 0
    assert "submitted 1 spec(s)" in capsys.readouterr().out


def test_cli_rejects_unknown_sweep_and_dead_coordinator(capsys):
    assert service_main(["submit", "http://127.0.0.1:1", "nope"]) == 2
    assert "unknown sweep" in capsys.readouterr().err
    assert service_main(["status", "http://127.0.0.1:1"]) == 1
    assert "unreachable" in capsys.readouterr().err


def test_collect_sweep_specs_matches_direct_construction(
        capsys, coordinator_factory):
    """`submit` takes its flags from the sweep's own declaration and
    enqueues exactly the sweep's ``specs()`` — including parameters the
    old hard-copied flag list could not pass (--topology)."""
    from repro.experiments.fabric_sweep import FABRIC
    from repro.units import msec

    start, _ = coordinator_factory
    coordinator, url = start()
    assert service_main([
        "submit", url, "fabric", "--topology", "fat-tree:k=4",
        "--workloads", "websearch", "--seeds", "1,2",
        "--duration-ms", "1"]) == 0
    assert "submitted 4 spec(s)" in capsys.readouterr().out
    direct = FABRIC.specs(("fat-tree:k=4",), ("websearch",), seeds=(1, 2),
                          duration_ns=msec(1))
    queued = {job["id"]: job["label"] for job in coordinator.progress()["jobs"]}
    assert queued == {spec.hash: spec.label for spec in direct}


def test_submit_refuses_a_sweep_without_a_static_grid(
        capsys, coordinator_factory):
    """`submit search` used to run the whole search in-process and then
    report "submitted 0 spec(s)"; it must refuse before doing anything."""
    start, _ = coordinator_factory
    coordinator, url = start()
    assert service_main(["submit", url, "search", "--preset", "smoke"]) == 2
    captured = capsys.readouterr()
    assert "no static grid" in captured.err
    assert f"runner run search --service {url}" in captured.err
    assert captured.out == ""
    assert coordinator.progress()["total"] == 0


# --- the shared lease queue --------------------------------------------------

def test_lease_queue_fail_charges_release_does_not():
    q = LeaseQueue(retries=1)
    q.add(0, "spec")
    lease = q.claim(worker="a", ttl_s=None)
    assert lease.attempts == 1
    status, _ = q.release(lease.lease_id)  # executor died: uncharged
    assert status == "requeued"
    lease = q.claim(worker="b")
    assert lease.attempts == 1  # still the first real attempt
    status, _ = q.fail(lease.lease_id)  # the job itself failed: charged
    assert status == "retry"
    lease = q.claim(worker="c")
    assert lease.attempts == 2
    status, _ = q.fail(lease.lease_id)
    assert status == "failed"  # budget (1 retry) spent
    assert q.idle


def test_lease_queue_release_cap_declares_cursed_job_failed(monkeypatch):
    monkeypatch.setattr(lease_mod, "DEFAULT_MAX_RELEASES", 3)
    q = LeaseQueue(retries=1)
    q.add(0, "spec")
    for n in range(2):
        lease = q.claim()
        assert q.release(lease.lease_id)[0] == "requeued", n
    lease = q.claim()
    status, last = q.release(lease.lease_id)
    assert status == "failed"
    assert last.attempts == 1  # reports the true attempt count
    assert q.idle


def test_lease_queue_release_requeues_at_the_front_a_retry_at_the_back():
    q = LeaseQueue(retries=1)
    for index in "abc":
        q.add(index, "spec")
    lost, failed = q.claim(), q.claim()
    assert q.release(lost.lease_id)[0] == "requeued"  # ahead of c
    assert q.fail(failed.lease_id)[0] == "retry"  # behind c
    assert [q.claim().index for _ in range(3)] == ["a", "c", "b"]


def test_lease_queue_expiry_and_renewal():
    now = [100.0]
    q = LeaseQueue(clock=lambda: now[0])
    q.add(0, "spec")
    lease = q.claim(ttl_s=5.0)
    assert q.expired(now[0]) == []
    now[0] += 6.0
    assert [l.lease_id for l in q.expired(now[0])] == [lease.lease_id]
    assert q.renew(lease.lease_id, 5.0)
    assert q.expired(now[0]) == []


# --- the lease protocol, model-checked ---------------------------------------

#: a lease held by one of these workers is stale to the other
WORKERS = ("A", "B")
MACHINE_TTL_S = 10.0
MACHINE_RETRIES = 1


class _CheckedStore(ResultStore):
    """A store that refuses to overwrite a record with different
    content; after ``invalidate`` a record may be written afresh."""

    def save(self, spec, result_jsonable, elapsed_s, attempts=1):
        old = self.load_record(spec)
        assert old is None or (old["result"], old["attempts"]) == (
            result_jsonable, attempts), f"{spec.display} rewritten"
        return super().save(spec, result_jsonable, elapsed_s, attempts)


class LeaseProtocol(RuleBasedStateMachine):
    """An in-process :class:`SweepCoordinator` on a fake clock, against
    a model that keeps, per admission of a spec, how each of its leases
    ended: ``live``, ``done``, ``failed`` (charged), ``expired``
    (uncharged) or ``capped`` (expired, and failed the job at the
    release cap).  A job's ``attempts`` are its leases that completed or
    failed, the live one included; its ``releases`` are those that
    expired.  A restart swaps in a fresh coordinator over the same
    store: the model keeps only what is stored."""

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="lease-protocol-")
        self.store = _CheckedStore(self.root)
        self.now = 0.0
        self.specs = [JobSpec.make(job_ok, label=f"j{i}", value=i)
                      for i in range(3)]
        # the last spec's result is stored already: its first submit
        # is served from the store
        cached = self.specs[-1]
        self.store.save(cached, {"lease": None}, 0.0, 1)
        #: spec hash -> the store record's (result, attempts)
        self.stored = {cached.hash: ({"lease": None}, 1)}
        self._start()

    def _start(self):
        """A coordinator over ``self.store`` that knows no job yet, and
        a model of it."""
        self.coordinator = SweepCoordinator(
            self.store, retries=MACHINE_RETRIES, lease_ttl_s=MACHINE_TTL_S)
        self.coordinator._queue = LeaseQueue(
            retries=MACHINE_RETRIES, clock=lambda: self.now)
        #: spec hash -> the model of its latest admission
        self.jobs = {}
        #: lease id -> {"job", "slot", "holder", "deadline"} while live
        self.leases = {}
        #: every lease granted, in order, and its holder
        self.holders = {}
        self.ends = Counter()
        self.stale = 0
        self.expired = 0

    def teardown(self):
        try:
            # every admitted job ends: let the live leases lapse, then
            # run what is queued to completion
            self.advance(MACHINE_TTL_S + 1)
            while self._claimed("A", self.coordinator.claim("A")):
                (lease_id,) = self.leases
                self._complete(lease_id, "A", ok=True)
            assert all(job["status"] in ("done", "failed", "cached")
                       for job in self.jobs.values())
            self.coordinator_agrees_with_the_model()
            for spec in self.specs:
                assert (self.store.load_record(spec) is not None
                        or self.jobs[spec.hash]["status"] == "failed"), spec
        finally:
            shutil.rmtree(self.root, ignore_errors=True)

    # --- the model ---

    @staticmethod
    def _attempts(job):
        if job["status"] == "cached":
            return job["attempts"]
        return sum(end != "expired" for end in job["leases"])

    @staticmethod
    def _releases(job):
        return sum(end in ("expired", "capped") for end in job["leases"])

    def _end_job(self, job, status):
        assert job["status"] in ("queued", "running"), job
        job["status"] = status
        self.ends[status] += 1

    def _claimed(self, worker, got):
        """Check one ``/claim`` answer; True when it granted a lease."""
        if got is None:
            assert all(job["status"] != "queued"
                       for job in self.jobs.values())
            return False
        job = self.jobs[got["id"]]
        assert job["status"] == "queued"
        job["status"] = "running"
        job["leases"].append("live")
        self.leases[got["lease"]] = {
            "job": job, "slot": len(job["leases"]) - 1, "holder": worker,
            "deadline": self.now + MACHINE_TTL_S}
        self.holders[got["lease"]] = worker
        assert got["attempts"] == self._attempts(job)
        return True

    def _complete(self, lease_id, worker, ok):
        result = {"lease": lease_id}
        lease = self.leases.pop(lease_id, None)
        accepted = self.coordinator.complete(
            lease_id, worker, ok, result=result,
            error=None if ok else "injected", elapsed_s=0.5)
        assert accepted is (lease is not None)
        if lease is None:
            self.stale += 1
            return
        job = lease["job"]
        job["leases"][lease["slot"]] = "done" if ok else "failed"
        if ok:
            job["result"] = result
            self.stored[job["hash"]] = (result, self._attempts(job))
            self._end_job(job, "done")
        elif self._attempts(job) <= MACHINE_RETRIES:
            job["status"] = "queued"
        else:
            self._end_job(job, "failed")

    # --- rules ---

    @initialize()
    def submit_all(self):
        got = self.coordinator.submit([to_jsonable(s) for s in self.specs])
        assert [job["status"] for job in got] == [
            self._admit(spec, False) for spec in self.specs]

    @rule(i=st.integers(0, 2), force=st.booleans(), twice=st.booleans())
    def submit(self, i, force, twice):
        spec = self.specs[i]
        payloads = [to_jsonable(spec)] * (2 if twice else 1)
        got = self.coordinator.submit(payloads, force=force)
        assert [job["status"] for job in got] == [
            self._admit(spec, force) for _ in payloads]

    def _admit(self, spec, force):
        job = self.jobs.get(spec.hash)
        if job is not None and (
                job["status"] in ("queued", "running") or
                (job["status"] in ("done", "cached") and not force)):
            return job["status"]
        if force:
            self.stored.pop(spec.hash, None)
        job = self.jobs[spec.hash] = {
            "hash": spec.hash, "label": spec.label, "status": "queued",
            "leases": []}
        if spec.hash in self.stored:
            job["result"], job["attempts"] = self.stored[spec.hash]
            job["status"] = "cached"
        return job["status"]

    @rule()
    def restart(self):
        """The coordinator dies and a fresh one starts over the same
        store.  Every lease that was live is stale to it, and the
        client's resubmit of every spec is served from the store where
        a record exists and queued where none does."""
        live = {lease_id: lease["holder"]
                for lease_id, lease in self.leases.items()}
        self._start()
        for lease_id, holder in live.items():
            assert self.coordinator.heartbeat(holder, [lease_id]) == {
                "renewed": [], "stale": [lease_id]}
            self._complete(lease_id, holder, ok=True)
        got = self.coordinator.submit([to_jsonable(s) for s in self.specs])
        assert [job["status"] for job in got] == [
            "cached" if spec.hash in self.stored else "queued"
            for spec in self.specs]
        for spec in self.specs:
            self._admit(spec, False)

    @rule(worker=st.sampled_from(WORKERS))
    def claim(self, worker):
        self._claimed(worker, self.coordinator.claim(worker))

    @precondition(lambda self: self.holders)
    @rule(data=st.data())
    def heartbeat(self, data):
        lease_id = data.draw(st.sampled_from(list(self.holders)))
        got = self.coordinator.heartbeat(self.holders[lease_id], [lease_id])
        if lease_id in self.leases:
            assert got == {"renewed": [lease_id], "stale": []}
            self.leases[lease_id]["deadline"] = self.now + MACHINE_TTL_S
        else:
            assert got == {"renewed": [], "stale": [lease_id]}

    @rule(dt=st.sampled_from([MACHINE_TTL_S / 2, MACHINE_TTL_S + 1]))
    def advance(self, dt):
        self.now += dt
        for lease_id, lease in list(self.leases.items()):
            if self.now <= lease["deadline"]:
                continue
            del self.leases[lease_id]
            self.expired += 1
            job = lease["job"]
            if self._releases(job) + 1 < lease_mod.DEFAULT_MAX_RELEASES:
                job["leases"][lease["slot"]] = "expired"
                job["status"] = "queued"
            else:
                job["leases"][lease["slot"]] = "capped"
                self._end_job(job, "failed")

    @precondition(lambda self: self.holders)
    @rule(data=st.data(), ok=st.booleans(), claim=st.booleans(),
          twice=st.booleans())
    def complete(self, data, ok, claim, twice):
        """The holder of a live lease reports — of a lapsed one when
        none is live; ``twice`` delivers the report again (a resend whose
        first reply was lost), ``claim`` asks for the next lease in the
        same round trip, as ``/complete`` does."""
        lease_id = data.draw(st.sampled_from(
            list(self.leases) or list(self.holders)))
        holder = self.holders[lease_id]
        for _ in range(2 if twice else 1):
            self._complete(lease_id, holder, ok)
            if claim:
                self._claimed(holder, self.coordinator.claim(holder))

    @precondition(lambda self: self.leases)
    @rule(data=st.data(), ok=st.booleans())
    def complete_as_non_holder(self, data, ok):
        lease_id = data.draw(st.sampled_from(list(self.leases)))
        (other,) = set(WORKERS) - {self.leases[lease_id]["holder"]}
        assert self.coordinator.heartbeat(other, [lease_id]) == {
            "renewed": [], "stale": [lease_id]}
        assert self.coordinator.complete(
            lease_id, other, ok, result={"lease": lease_id},
            elapsed_s=0.5) is False
        self.stale += 1

    # --- invariants ---

    @invariant()
    def coordinator_agrees_with_the_model(self):
        coordinator = self.coordinator
        results = coordinator.results(list(self.jobs))
        for job_id, job in self.jobs.items():
            info = results[job_id]
            assert (info["status"], info["attempts"], info["releases"]) == (
                job["status"], self._attempts(job), self._releases(job)), job
            if job["status"] in ("done", "cached"):
                assert info["result"] == job["result"]
        progress = coordinator.progress()
        assert progress["by_status"] == {
            status: sum(info["status"] == status
                        for info in results.values())
            for status in progress["by_status"]}
        assert {job["id"]: (job["status"], job["attempts"], job["releases"])
                for job in progress["jobs"]} == {
            job_id: (info["status"], info["attempts"], info["releases"])
            for job_id, info in results.items()}
        holding = {worker: {lease["job"]["label"]
                            for lease in self.leases.values()
                            if lease["holder"] == worker}
                   for worker in WORKERS}
        for worker in progress["workers"]:
            current = worker["current_job"]
            assert current is None or current in holding[worker["name"]]
            assert holding[worker["name"]] or current is None

        counters = {name: c.value for name, c in coordinator.counters.items()}
        assert counters["jobs_completed"] == self.ends["done"]
        assert counters["jobs_failed"] == self.ends["failed"]
        assert counters["stale_completions"] == self.stale
        assert counters["leases_granted"] == len(self.holders)
        assert counters["leases_expired"] == self.expired
        for spec in self.specs:
            record = self.store.load_record(spec)
            if spec.hash in self.stored:
                assert (record["result"], record["attempts"]) == \
                    self.stored[spec.hash]
            else:
                assert record is None


def test_lease_protocol_state_machine(monkeypatch):
    """Submit (twice in a batch, forced), claim, heartbeat, let leases
    lapse, complete ok or failed (with and without the next claim, and
    delivered twice), complete as a non-holder and restart the
    coordinator over its store, in any order: every job ends done or
    failed exactly once, ``attempts`` counts its leases that completed
    or failed, ``releases`` those that expired, no store record is
    rewritten with different content, ``/api/progress`` agrees with
    ``/results``, and after the drain every spec has a record or ended
    failed."""
    monkeypatch.setattr(lease_mod, "DEFAULT_MAX_RELEASES", 3)
    run_state_machine_as_test(LeaseProtocol, settings=settings(
        derandomize=True, max_examples=100, stateful_step_count=30,
        deadline=None))
