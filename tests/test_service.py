"""Tests for the sweep service (repro.service).

Covers the ISSUE-mandated behaviors: a coordinator + two workers
producing store records whose ``result`` (and spec/hash/label) fields
are byte-identical to a local ``run_jobs`` run; a SIGKILLed worker's
in-flight job requeued via lease expiry and finished elsewhere with
its retry budget uncharged; 429 backpressure on a full queue; stale
completions rejected; the ``/api/progress`` and dashboard endpoints;
and the shared :class:`LeaseQueue` budget rules both executors ride.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.runner import JobSpec, ResultStore, run_jobs, to_jsonable
from repro.runner.lease import LeaseQueue
from repro.service.cli import main as service_main
from repro.service.coordinator import SweepCoordinator, serve
from repro.service.protocol import Backpressure, request_json
from repro.service.worker import run_worker

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --- picklable job functions (workers resolve these by module:name) ---------

def job_ok(value=0):
    return {"value": value, "pair": ("a", 1), "by_id": {7: 1.5}}


def job_raise():
    raise RuntimeError("injected failure")


def job_nap(duration=0.0):
    time.sleep(duration)
    return "rested"


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
def coordinator_factory():
    """Start in-process coordinators/workers; tear all of them down."""
    servers, stops, threads = [], [], []

    def start(store=None, **kwargs):
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
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "worker", url,
         "--name", "victim", "--poll", "0.05"],
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
], ids=["negative-length", "non-integer-length", "huge-length", "array-body",
        "not-json", "spec-not-a-jobspec", "spec-undecodable",
        "spec-names-a-stdlib-callable", "spec-names-a-repro-non-dataclass"])
def test_hostile_bodies_are_refused_and_the_server_still_serves(
        coordinator_factory, tmp_path, path, body, content_length, expected):
    start, _ = coordinator_factory
    _, url = start(None)
    body = body.replace(b"TMP", str(tmp_path).encode())
    assert _raw_post(url, path, body, content_length) == expected
    assert not (tmp_path / "pwned").exists()
    status, reply = request_json(url, "/claim", {"worker": "w"})
    assert (status, reply) == (200, {"job": None})


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
    from repro.experiments.fabric_sweep import fabric_specs
    from repro.units import msec

    start, _ = coordinator_factory
    coordinator, url = start()
    assert service_main([
        "submit", url, "fabric", "--topology", "fat-tree:k=4",
        "--workloads", "websearch", "--seeds", "1,2",
        "--duration-ms", "1"]) == 0
    assert "submitted 4 spec(s)" in capsys.readouterr().out
    direct = fabric_specs(("fat-tree:k=4",), ("websearch",), seeds=(1, 2),
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


def test_lease_queue_release_cap_declares_cursed_job_failed():
    q = LeaseQueue(retries=1, max_releases=3)
    q.add(0, "spec")
    for n in range(2):
        lease = q.claim()
        assert q.release(lease.lease_id)[0] == "requeued", n
    lease = q.claim()
    status, last = q.release(lease.lease_id)
    assert status == "failed"
    assert last.attempts == 1  # reports the true attempt count
    assert q.idle


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
