#!/usr/bin/env python
"""CI smoke test for the sweep service (repro.service).

Spawns a real coordinator as a subprocess on localhost and starts a
tiny scalability sweep through
``python -m repro.runner run ... --service URL``.  One worker runs
``FIRST_JOBS`` of its jobs; then the coordinator is SIGKILLed with the
rest still queued and restarted on the same port and ``--results-dir``.
The client, still polling, is answered ``unknown`` and resubmits; the
store serves what was finished and two fresh workers run the rest.
The same sweep then runs locally, and the two result stores must hold
the same records — same hashes, specs, labels and byte-identical
``result`` payloads (timestamps/elapsed are execution metadata and
legitimately differ).  The workers hold keep-alive connections and
take each next lease from their ``/complete`` reply; the restarted
coordinator must report the finished jobs as store hits, no expired
lease and no stale completion.

Usage::

    python tools/service_smoke.py [--workdir DIR]

Exits non-zero (with a diagnostic) on any mismatch.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SWEEP_ARGS = [
    "run", "scalability", "--schemes", "presto,ecmp", "--points", "2,4",
    "--seeds", "1,2", "--warm-ms", "1", "--measure-ms", "2",
]
#: jobs the first worker finishes before the coordinator is killed
FIRST_JOBS = 3
PORT = 8673  # fixed localhost port; nothing else in CI uses it


def env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO, "src"),
                    env.get("PYTHONPATH", "")) if p)
    return env


def wait_for(url, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=2) as r:
                if r.status == 200:
                    return
        except OSError:
            time.sleep(0.2)
    raise RuntimeError(f"coordinator at {url} never became healthy")


def progress(url):
    with urllib.request.urlopen(url + "/api/progress", timeout=5) as r:
        return json.load(r)


def start_coordinator(url, svc_dir, env):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "coordinator",
         "--port", str(PORT), "--results-dir", svc_dir],
        env=env, cwd=REPO)
    wait_for(url)
    return proc


def store_essence(results_dir):
    """hash -> canonicalized location-independent record fields."""
    out = {}
    store_dir = os.path.join(results_dir, "store")
    for name in sorted(os.listdir(store_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(store_dir, name)) as fh:
            record = json.load(fh)
        out[record["hash"]] = json.dumps(
            {k: record[k] for k in ("hash", "label", "spec", "result")},
            sort_keys=True)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workdir", default=None,
                        help="scratch dir (default: a fresh tempdir)")
    ns = parser.parse_args()
    workdir = ns.workdir or tempfile.mkdtemp(prefix="service-smoke-")
    os.makedirs(workdir, exist_ok=True)
    svc_dir = os.path.join(workdir, "svc")
    local_dir = os.path.join(workdir, "local")
    url = f"http://127.0.0.1:{PORT}"
    env = env_with_src()
    procs = []
    try:
        coordinator = start_coordinator(url, svc_dir, env)
        procs.append(coordinator)

        print(f"+ sweep via coordinator at {url}", flush=True)
        client = subprocess.Popen(
            [sys.executable, "-m", "repro.runner", *SWEEP_ARGS,
             "--service", url, "--results-dir",
             os.path.join(workdir, "client")],
            env=env, cwd=REPO)
        procs.append(client)
        deadline = time.monotonic() + 60
        while progress(url)["total"] == 0:
            assert time.monotonic() < deadline, "the client never submitted"
            assert client.poll() is None, "the client exited early"
            time.sleep(0.1)
        total = progress(url)["total"]
        subprocess.run(
            [sys.executable, "-m", "repro.service", "worker", url,
             "--name", "smoke-first", "--poll", "0.1",
             "--max-jobs", str(FIRST_JOBS)],
            env=env, cwd=REPO, check=True, timeout=600)
        before = progress(url)
        assert before["by_status"]["done"] == FIRST_JOBS, before["by_status"]

        print(f"+ SIGKILL the coordinator with {total - FIRST_JOBS} "
              "job(s) queued; restart it on the same store", flush=True)
        coordinator.kill()
        coordinator.wait(timeout=10)
        coordinator = start_coordinator(url, svc_dir, env)
        procs.append(coordinator)
        for i in range(2):
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro.service", "worker", url,
                 "--name", f"smoke-w{i}", "--poll", "0.1"],
                env=env, cwd=REPO))
        if client.wait(timeout=600) != 0:
            print(f"the client exited {client.returncode}", file=sys.stderr)
            return 1

        print("+ same sweep locally", flush=True)
        subprocess.run(
            [sys.executable, "-m", "repro.runner", *SWEEP_ARGS,
             "--jobs", "2", "--results-dir", local_dir],
            env=env, cwd=REPO, check=True, timeout=600)

        # the client resubmitted every job it had not yet seen finish:
        # the queued ones run, the finished ones are store hits
        after = progress(url)
        assert after["finished"] == after["total"], after
        assert len(after["workers"]) == 2, after["workers"]
        counters = after["counters"]
        assert counters["jobs_completed"] == total - FIRST_JOBS, counters
        assert counters["store_hits"] == after["total"] - (
            total - FIRST_JOBS), counters
        assert counters["leases_expired"] == 0, counters
        assert counters["stale_completions"] == 0, counters

        svc = store_essence(svc_dir)
        local = store_essence(local_dir)
        if svc != local:
            only_svc = set(svc) - set(local)
            only_local = set(local) - set(svc)
            differing = [h for h in set(svc) & set(local)
                         if svc[h] != local[h]]
            print(f"STORE MISMATCH: only-service={sorted(only_svc)} "
                  f"only-local={sorted(only_local)} "
                  f"differing={sorted(differing)}", file=sys.stderr)
            return 1
        print(f"service smoke OK: {len(svc)} record(s) identical across "
              "service and local runs; "
              f"{FIRST_JOBS} job(s) before the coordinator's SIGKILL, "
              f"{counters['jobs_completed']} after its restart on "
              f"{len(after['workers'])} workers, "
              f"{counters['store_hits']} store hit(s)")
        return 0
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        if ns.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
