"""Tests for the parallel sweep runner (repro.runner).

Covers the ISSUE-mandated behaviors: parallel results byte-identical
to serial for a small scalability grid; the result store skipping
completed jobs on resume; injected worker crashes retried then
reported failed without killing the sweep; timeouts killing hung jobs;
plus serialization round-trips, spec hashing and the CLI.
"""

import dataclasses
import gc
import json
import multiprocessing
import os
import pickle
import time
import weakref

import pytest

from repro.experiments.harness import Testbed, TestbedConfig
from repro.experiments.scalability import SCALABILITY
from repro.runner.jobspec import JobSpec, cell
from repro.runner.pool import collect_results, run_jobs
from repro.runner.serialize import canonical_json, from_jsonable, to_jsonable
from repro.runner.store import ResultStore
from repro.runner.cli import main as cli_main
from repro.units import MB, msec

TINY = dict(warm_ns=msec(2), measure_ns=msec(3))


# --- job functions (registered cells: workers look them up by module:name) --

@cell
def job_ok(value=0):
    return {"value": value, "pair": ("a", 1), "by_id": {7: 1.5}}


@cell
def job_marker(path, value=0):
    with open(path, "a") as fh:
        fh.write("x")
    return value


@cell
def job_raise():
    raise RuntimeError("injected failure")


@cell
def job_exit():
    os._exit(7)


@cell
def job_hang():
    time.sleep(60)


def _wait_for(path):
    deadline = time.monotonic() + 30
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.01)


@cell
def job_exit_beside(started, crashing):
    """Die — but only once the bystander is running beside us."""
    _wait_for(started)
    open(crashing, "w").close()
    os._exit(7)


@cell
def job_slow_bystander(started, crashing, runs):
    """Still in flight when the crasher goes: outlive it by a margin."""
    with open(runs, "a") as fh:
        fh.write("x")
    open(started, "w").close()
    _wait_for(crashing)
    time.sleep(0.5)
    return "survived"


@cell
def job_nap(duration, runs=None):
    if runs is not None:
        with open(runs, "a") as fh:
            fh.write("x")
    time.sleep(duration)
    return "rested"


@cell
def job_big(n):
    return "x" * n


@cell
def job_logged(log, name, fail=False):
    """Append ``name`` to the file ``log`` (run order), then maybe
    raise; returns when it ran."""
    with open(log, "a") as fh:
        fh.write(name + "\n")
    if fail:
        raise RuntimeError(f"injected failure in {name}")
    return time.monotonic()


@cell
def job_pid():
    return os.getpid()


#: a weak reference to the testbed of this process's last job_tiny_cell
_LAST_TESTBED = []


@cell
def job_tiny_cell(seed):
    """Build, run and drop a tiny flow-fidelity testbed.  Returns
    whether the previous one this process built was still in memory
    when this cell started."""
    lingering = bool(_LAST_TESTBED) and _LAST_TESTBED[0]() is not None
    tb = Testbed(TestbedConfig(scheme="presto", seed=seed, fidelity="flow"))
    tb.add_elephant(0, 15, size_bytes=MB)
    tb.run(msec(1))
    _LAST_TESTBED[:] = [weakref.ref(tb)]
    return lingering


# --- serialization ----------------------------------------------------------

def test_serialize_roundtrip_structures():
    obj = {
        "cfg": TestbedConfig(scheme="ecmp", seed=3),
        "rates": {1: 2.5, 9: 0.125},
        "pairs": [(0, 2), (1, 3)],
        "mixed": (1, [2.0, "three"], None, True),
    }
    back = from_jsonable(json.loads(json.dumps(to_jsonable(obj))))
    assert back == obj
    assert isinstance(back["cfg"], TestbedConfig)
    assert list(back["rates"]) == [1, 9]  # int keys survive
    assert back["pairs"][0] == (0, 2) and isinstance(back["pairs"][0], tuple)


def test_serialize_rejects_unknown_types():
    with pytest.raises(TypeError):
        to_jsonable(object())


# --- job specs --------------------------------------------------------------

def test_jobspec_hash_stable_and_sensitive():
    spec = JobSpec.make(job_ok, cfg=TestbedConfig(seed=1), value=2)
    same = JobSpec.make(job_ok, cfg=TestbedConfig(seed=1), value=2,
                        label="display-only")
    other_kwargs = JobSpec.make(job_ok, cfg=TestbedConfig(seed=1), value=3)
    other_cfg = JobSpec.make(job_ok, cfg=TestbedConfig(seed=2), value=2)
    assert spec.hash == same.hash  # label excluded from the cache key
    assert spec.hash != other_kwargs.hash
    assert spec.hash != other_cfg.hash
    assert len(spec.hash) == 16


def test_jobspec_hash_is_cached_per_instance_only():
    """``hash`` is computed once per (frozen) spec: a ``replace``d spec
    gets a fresh one, the cache is no part of equality, of the
    serialized form or of what a pickled spec hashes to."""
    spec = JobSpec.make(job_ok, cfg=TestbedConfig(seed=1), value=2)
    cold = JobSpec.make(job_ok, cfg=TestbedConfig(seed=1), value=2)
    first = spec.hash
    assert spec == cold and cold == spec  # one side hashed, one not
    assert to_jsonable(spec) == to_jsonable(cold)
    assert cold.hash == first and spec == cold
    other = dataclasses.replace(spec, kwargs={"value": 3})
    assert other.hash != first
    assert other.hash == JobSpec.make(
        job_ok, cfg=TestbedConfig(seed=1), value=3).hash
    assert dataclasses.replace(spec, label="renamed").hash == first
    assert pickle.loads(pickle.dumps(spec)).hash == first


def test_jobspec_executes_resolved_function():
    spec = JobSpec.make(job_ok, value=41)
    assert spec.execute() == {"value": 41, "pair": ("a", 1), "by_id": {7: 1.5}}


# --- parallel == serial -----------------------------------------------------

def test_parallel_matches_serial_scalability():
    kw = dict(schemes=("presto", "ecmp"), path_counts=(2,), seeds=(1, 2), **TINY)
    serial = SCALABILITY.run(**kw, jobs=1)
    parallel = SCALABILITY.run(**kw, jobs=2)
    assert canonical_json(parallel) == canonical_json(serial)


# --- result store / resume --------------------------------------------------

def test_store_resume_skips_completed(tmp_path):
    marker = tmp_path / "runs"
    specs = [JobSpec.make(job_marker, path=str(marker), value=i) for i in range(3)]
    store = ResultStore(str(tmp_path / "results"))

    first = run_jobs(specs, jobs=1, store=store)
    assert [o.status for o in first] == ["ok"] * 3
    assert marker.read_text() == "xxx"
    assert len(store) == 3

    second = run_jobs(specs, jobs=1, store=store)
    assert [o.status for o in second] == ["cached"] * 3
    assert marker.read_text() == "xxx"  # nothing re-ran
    assert collect_results(second) == [0, 1, 2]

    forced = run_jobs(specs, jobs=1, store=store, force=True)
    assert [o.status for o in forced] == ["ok"] * 3
    assert marker.read_text() == "xxxxxx"


def test_store_resume_from_pool_run(tmp_path):
    specs = SCALABILITY.specs(("presto",), (2,), (1,), **TINY)
    store = ResultStore(str(tmp_path))
    fresh = run_jobs(specs, jobs=2, store=store)
    cached = run_jobs(specs, jobs=2, store=store)
    assert [o.status for o in fresh] == ["ok"]
    assert [o.status for o in cached] == ["cached"]
    assert canonical_json(fresh[0].result) == canonical_json(cached[0].result)


def test_store_records_are_atomic_json(tmp_path):
    store = ResultStore(str(tmp_path))
    spec = JobSpec.make(job_ok, value=5)
    store.save(spec, to_jsonable(spec.execute()), elapsed_s=0.1)
    (record,) = list(store.records())
    assert record["hash"] == spec.hash
    assert from_jsonable(record["result"])["value"] == 5
    assert not [f for f in os.listdir(store.store_dir) if f.endswith(".tmp")]


# --- failure containment ----------------------------------------------------

def test_worker_crash_retried_then_failed_without_killing_sweep():
    specs = [
        JobSpec.make(job_ok, value=1, label="ok-1"),
        JobSpec.make(job_exit, label="crasher"),
        JobSpec.make(job_ok, value=2, label="ok-2"),
    ]
    out = run_jobs(specs, jobs=2, retries=1)
    assert out[0].ok and out[2].ok
    assert out[1].status == "failed"
    assert out[1].attempts == 2  # initial try + one retry
    assert "died" in out[1].error
    with pytest.raises(RuntimeError, match="crasher"):
        collect_results(out)


def test_worker_death_is_charged_only_to_a_job_alone_in_flight(tmp_path):
    """A worker's death is EOF on that worker's own pipe, so it names
    its job.  With no retry to spare, a bystander guaranteed to be in
    flight beside the crasher neither pays for it nor notices: it keeps
    running on its first attempt while the crasher alone is charged."""
    started, crashing, runs = (
        str(tmp_path / n) for n in ("started", "crashing", "runs"))
    out = run_jobs(
        [JobSpec.make(job_slow_bystander, started=started,
                      crashing=crashing, runs=runs, label="bystander"),
         JobSpec.make(job_exit_beside, started=started, crashing=crashing,
                      label="crasher"),
         JobSpec.make(job_ok, value=9, label="later")],
        jobs=2, retries=0)
    assert out[0].status == "ok" and out[0].result == "survived"
    assert out[0].attempts == 1
    assert out[1].status == "failed" and out[1].attempts == 1
    assert "died" in out[1].error
    assert out[2].ok
    with open(runs) as fh:
        assert fh.read() == "x"  # the bystander's body ran exactly once


def test_hang_beside_a_bystander_kills_only_the_hanger(tmp_path):
    """One shared deadline, staggered claims: the hanger and a
    half-deadline sleeper go first, so the bystander is claimed half a
    deadline later, is mid-run when the hanger is killed and is still
    inside its own deadline.  Only the hanger's process is touched."""
    runs = str(tmp_path / "runs")
    deadline = 2.0
    out = run_jobs(
        [JobSpec.make(job_hang, label="hanger"),
         JobSpec.make(job_nap, duration=deadline / 2, label="sleeper"),
         JobSpec.make(job_nap, duration=deadline * 0.6, runs=runs,
                      label="bystander")],
        jobs=2, retries=0, timeout_s=deadline)
    assert out[0].status == "failed" and out[0].attempts == 1
    assert "timed out" in out[0].error
    assert out[1].ok
    assert out[2].status == "ok" and out[2].attempts == 1
    with open(runs) as fh:
        assert fh.read() == "x"  # never torn down, never re-run


def test_exception_retried_then_failed_serial():
    logs = []
    out = run_jobs(
        [JobSpec.make(job_raise, label="raiser"), JobSpec.make(job_ok, value=3)],
        jobs=1, retries=2, log=logs.append,
    )
    assert out[0].status == "failed"
    assert out[0].attempts == 3
    assert "injected failure" in out[0].error
    assert out[1].ok
    assert any("retrying" in line for line in logs)


def test_timeout_kills_hung_job():
    specs = [
        JobSpec.make(job_hang, label="hanger"),
        JobSpec.make(job_ok, value=4, label="quick"),
    ]
    t0 = time.monotonic()
    out = run_jobs(specs, jobs=2, retries=0, timeout_s=1.0)
    assert time.monotonic() - t0 < 30  # nowhere near job_hang's 60 s sleep
    assert out[0].status == "failed"
    assert "timed out" in out[0].error
    assert out[1].ok


def test_timeout_is_enforced_with_one_job():
    """``jobs=1`` with a timeout runs the lease in one owned worker, so
    the deadline can be enforced instead of noted and ignored."""
    logs = []
    t0 = time.monotonic()
    out = run_jobs(
        [JobSpec.make(job_hang, label="hanger"),
         JobSpec.make(job_pid, label="quick")],
        jobs=1, retries=0, timeout_s=1.0, log=logs.append)
    assert time.monotonic() - t0 < 30
    assert out[0].status == "failed" and "timed out" in out[0].error
    assert out[1].ok and out[1].result != os.getpid()
    assert not any("not enforced" in line for line in logs)


def test_without_fork_leases_run_in_process_and_say_so(monkeypatch):
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    logs = []
    out = run_jobs([JobSpec.make(job_pid), JobSpec.make(job_raise)],
                   jobs=2, retries=1, timeout_s=5.0, log=logs.append)
    assert out[0].ok and out[0].result == os.getpid()
    assert out[1].status == "failed" and out[1].attempts == 2
    assert any("fork start method unavailable" in line for line in logs)
    assert any("timeouts are not enforced" in line for line in logs)


def test_idle_workers_shut_down_promptly():
    """A worker forked later inherits the parent's ends of its older
    siblings' pipes, so closing a pipe never reads as EOF in the child:
    idle workers are told to exit.  Four of them gone in well under the
    join timeout a single missed EOF would cost."""
    specs = [JobSpec.make(job_pid, label=f"j{i}") for i in range(4)]
    t0 = time.monotonic()
    out = run_jobs(specs, jobs=4)
    assert time.monotonic() - t0 < 1.0
    assert len({o.result for o in out}) == 4  # four workers, all forked
    assert multiprocessing.active_children() == []


def test_large_reply_does_not_deadlock_the_loop():
    """A reply bigger than the pipe buffer blocks the worker's send
    until the parent reads; the loop must be reading, not joining."""
    n = 1 << 20
    out = run_jobs([JobSpec.make(job_big, n=n, label=f"big{i}")
                    for i in range(3)], jobs=2, retries=0, timeout_s=30.0)
    assert [o.status for o in out] == ["ok"] * 3
    assert all(o.result == "x" * n for o in out)


def test_pool_hands_out_the_next_lease_before_settling(tmp_path, monkeypatch):
    """A worker that replied starts its next job while the parent is
    still writing the reply's store record."""
    saved = {}
    real_save = ResultStore.save

    def slow_save(self, spec, *args):
        time.sleep(0.3)
        real_save(self, spec, *args)
        saved[spec.label] = time.monotonic()

    monkeypatch.setattr(ResultStore, "save", slow_save)
    log = str(tmp_path / "order")
    specs = [JobSpec.make(job_logged, label=f"j{i}", log=log, name=f"j{i}")
             for i in range(2)]
    out = run_jobs(specs, jobs=1, timeout_s=30.0,
                   store=ResultStore(str(tmp_path / "store")))
    assert [o.status for o in out] == ["ok", "ok"]
    assert out[1].result < saved["j0"]  # j1 ran while j0's record was saved


def test_pool_charged_retry_goes_to_the_back_of_the_queue(tmp_path):
    log = str(tmp_path / "order")
    specs = [JobSpec.make(job_logged, log=log, name="boom", fail=True),
             JobSpec.make(job_logged, log=log, name="a"),
             JobSpec.make(job_logged, log=log, name="b")]
    out = run_jobs(specs, jobs=1, retries=1, timeout_s=30.0)
    assert open(log).read().split() == ["boom", "a", "b", "boom"]
    assert [(o.status, o.attempts) for o in out] == [
        ("failed", 2), ("ok", 1), ("ok", 1)]


def test_run_jobs_rejects_bad_jobs_count():
    with pytest.raises(ValueError):
        run_jobs([], jobs=0)


# --- CLI --------------------------------------------------------------------

def test_cli_help_and_list(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--help"])
    assert exc.value.code == 0
    assert cli_main([]) == 0  # bare invocation prints help
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "scalability" in out and "oversub" in out and "synthetic" in out


def test_cli_run_then_resume(tmp_path, capsys):
    argv = [
        "run", "scalability",
        "--schemes", "presto", "--points", "2", "--seeds", "1",
        "--warm-ms", "2", "--measure-ms", "3",
        "--jobs", "2",
        "--results-dir", str(tmp_path),
    ]
    assert cli_main(argv) == 0
    first = capsys.readouterr()
    assert "ok scalability/presto/paths2/seed1" in first.err
    assert os.path.exists(tmp_path / "runner_scalability.txt")
    with open(tmp_path / "runner_scalability.json") as fh:
        payload = json.load(fh)
    grid = from_jsonable(payload["data"])
    assert list(grid) == [("presto", 2)]

    assert cli_main(argv) == 0
    second = capsys.readouterr()
    assert "cached scalability/presto/paths2/seed1" in second.err

    assert cli_main(["summary", "--results-dir", str(tmp_path)]) == 0
    summary = capsys.readouterr().out
    assert "scalability/presto/paths2/seed1" in summary


def test_cli_rejects_unknown_sweep(capsys):
    assert cli_main(["run", "nope"]) == 2
    assert "unknown sweep" in capsys.readouterr().err


def test_cli_validates_grid_options(capsys):
    assert cli_main(["run", "scalability", "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert cli_main(["run", "scalability", "--points", "abc"]) == 2
    assert "integers" in capsys.readouterr().err
    assert cli_main(["run", "scalability", "--seeds", ""]) == 2
    assert "at least one seed" in capsys.readouterr().err
    assert cli_main(["run", "scalability", "--schemes", "zigzag"]) == 2
    assert "unknown scheme" in capsys.readouterr().err


# --- store corruption = cache miss ------------------------------------------

@pytest.mark.parametrize("garbage", [
    "",                                  # empty file
    '{"hash": "abc", "result',           # truncated mid-write
    "not json at all \x00",              # binary noise
    "[1, 2, 3]",                         # valid JSON, wrong shape
    '{"hash": "abc"}',                   # dict missing the result field
    # a hostile record: decoding it must not call subprocess.run
    '{"hash": "abc", "result": {"__dataclass__": "subprocess:run", '
    '"fields": {"args": ["touch", "TMP/pwned"]}}}',
])
def test_corrupt_store_entry_is_cache_miss_and_reruns(tmp_path, garbage):
    marker = tmp_path / "runs"
    spec = JobSpec.make(job_marker, path=str(marker), value=9)
    store = ResultStore(str(tmp_path / "results"))
    run_jobs([spec], jobs=1, store=store)
    assert marker.read_text() == "x"

    (record_path,) = [
        os.path.join(store.store_dir, f)
        for f in os.listdir(store.store_dir) if f.endswith(".json")
    ]
    with open(record_path, "w") as fh:
        fh.write(garbage.replace("TMP", str(tmp_path)))

    out = run_jobs([spec], jobs=1, store=store)
    assert [o.status for o in out] == ["ok"]  # re-ran, not "cached"
    assert not (tmp_path / "pwned").exists()
    assert marker.read_text() == "xx"
    assert collect_results(out) == [9]
    # and the re-run repaired the record
    again = run_jobs([spec], jobs=1, store=store)
    assert [o.status for o in again] == ["cached"]


# --- store hygiene -----------------------------------------------------------

def _seed_store_with_debris(tmp_path):
    """A store holding 2 good records, 1 corrupt record, 1 orphan tmp."""
    store = ResultStore(str(tmp_path / "results"))
    specs = [JobSpec.make(job_ok, value=i, label=f"g{i}") for i in range(2)]
    run_jobs(specs, jobs=1, store=store)
    with open(os.path.join(store.store_dir, "deadbeef.json"), "w") as fh:
        fh.write('{"hash": "deadbeef"}')  # parses, lost its result
    with open(os.path.join(store.store_dir, "orphan.tmp"), "w") as fh:
        fh.write('{"half": "writ')  # writer died before os.replace
    return store


def test_store_len_is_file_count_and_records_skip_corrupt(tmp_path):
    store = _seed_store_with_debris(tmp_path)
    assert len(store) == 3  # counts .json files without parsing
    assert len(list(store.records())) == 2  # corrupt one filtered out
    assert len(ResultStore(str(tmp_path / "nowhere"))) == 0


def test_store_gc_removes_tmp_and_corrupt_keeps_good(tmp_path):
    store = _seed_store_with_debris(tmp_path)
    stats = store.gc()
    assert stats == {"tmp_removed": 1, "corrupt_removed": 1, "kept": 2}
    assert len(store) == 2
    names = os.listdir(store.store_dir)
    assert not [n for n in names if n.endswith(".tmp")]
    assert len(list(store.records())) == 2
    # idempotent on a clean store
    assert store.gc() == {"tmp_removed": 0, "corrupt_removed": 0, "kept": 2}
    assert ResultStore(str(tmp_path / "nowhere")).gc() == {
        "tmp_removed": 0, "corrupt_removed": 0, "kept": 0}


def test_cli_store_gc(tmp_path, capsys):
    store = _seed_store_with_debris(tmp_path)
    assert cli_main(["store", "gc", "--results-dir",
                     str(tmp_path / "results")]) == 0
    out = capsys.readouterr().out
    assert "1 orphaned tmp file(s)" in out
    assert "1 corrupt record(s)" in out
    assert "2 record(s) kept" in out
    assert len(store) == 2


# --- retries knob on the CLI -------------------------------------------------

def test_cli_rejects_negative_retries(capsys):
    assert cli_main(["run", "scalability", "--retries", "-1"]) == 2
    assert "--retries" in capsys.readouterr().err


def test_cli_service_refuses_the_flags_the_coordinator_decides(
        tmp_path, capsys):
    """`run --service` used to drop --jobs, --timeout and --retries
    without a word; each is now refused, naming where its setting lives,
    before anything reaches the coordinator."""
    import threading

    from repro.service.coordinator import serve
    from repro.service.worker import run_worker

    coordinator, server = serve(ResultStore(str(tmp_path / "svc")), port=0)
    url = f"http://127.0.0.1:{server.server_port}"
    stop = threading.Event()
    threads = [
        threading.Thread(target=server.serve_forever, daemon=True),
        threading.Thread(target=run_worker, args=(url,), daemon=True,
                         kwargs=dict(name="w", poll_s=0.02, max_idle_s=None,
                                     stop=stop))]
    for thread in threads:
        thread.start()
    argv = ["run", "scalability", "--schemes", "presto", "--points", "2",
            "--seeds", "1", "--warm-ms", "1", "--measure-ms", "1",
            "--service", url, "--results-dir", str(tmp_path / "client"),
            "--quiet"]
    try:
        for flags, where in ((["--jobs", "2"], "number of workers"),
                             (["--timeout", "5"], "--lease-ttl"),
                             (["--retries", "3"], "coordinator's --retries")):
            assert cli_main(argv + flags) == 2, flags
            err = capsys.readouterr().err
            assert f"{flags[0]} cannot be used with --service" in err
            assert where in err
        assert coordinator.progress()["total"] == 0
    finally:
        stop.set()
        server.shutdown()
        server.server_close()
        for thread in threads:
            thread.join(timeout=5)


def test_run_jobs_retries_zero_fails_fast():
    out = run_jobs([JobSpec.make(job_raise, label="raiser")],
                   jobs=1, retries=0)
    assert out[0].status == "failed"
    assert out[0].attempts == 1  # no budget: a single attempt


# --- jobs/timeout validation ------------------------------------------------

@pytest.mark.parametrize("timeout_s", [0, -1, -0.5])
def test_run_jobs_rejects_nonpositive_timeout(timeout_s):
    with pytest.raises(ValueError, match="timeout"):
        run_jobs([JobSpec.make(job_ok)], jobs=1, timeout_s=timeout_s)


def test_cli_rejects_nonpositive_timeout(capsys):
    assert cli_main(["run", "scalability", "--timeout", "0"]) == 2
    assert "--timeout" in capsys.readouterr().err
    assert cli_main(["run", "scalability", "--timeout", "-3"]) == 2
    assert "--timeout" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_runner_frees_each_cells_cycles(jobs):
    """A testbed is reference cycles all through (port and link, bound
    callbacks, pipes and their legs), so it outlives its cell until a
    collection finds it.  The runner collects as each cell ends: with
    automatic collection off, no cell — in-process or in a forked
    worker — starts beside the last one's testbed."""
    gc.collect()
    gc.disable()
    try:
        _LAST_TESTBED.clear()
        job_tiny_cell(1)
        assert _LAST_TESTBED[0]() is not None   # outside the runner
        gc.collect()
        specs = [JobSpec.make(job_tiny_cell, seed=seed) for seed in range(4)]
        assert collect_results(run_jobs(specs, jobs=jobs)) == [False] * 4
    finally:
        gc.enable()
