"""Sweep-as-a-service: coordinator/worker execution for paper sweeps.

The process pool in :mod:`repro.runner.pool` parallelizes a sweep
across one machine's cores; this package stretches the same job model
across machines with nothing but the standard library (``http.server``
+ ``http.client``, one kept-alive connection per worker):

* **coordinator** — owns the :class:`~repro.runner.lease.LeaseQueue`
  (the exact class the pool uses), the
  :class:`~repro.runner.store.ResultStore` and the dashboard;
* **workers** — poll ``/claim`` for leases, run them through the same
  :func:`~repro.runner.pool.execute_leased` the pool's workers call,
  heartbeat while running, and ``POST /complete`` its reply, which
  hands back the next lease;
* **clients** — any ``run_jobs(..., service=URL)`` caller, including
  every sweep/validate/faults CLI via ``--service``.  The parameter
  search (``python -m repro.runner run search --service URL``) is the
  heaviest client: each GA rung fans its fitness cells through the
  coordinator, and because promoted candidates resubmit their
  earlier-seed jobs, the coordinator's store-hit path (not the
  workers) absorbs the halving ladder's structural re-submissions.

A worker that dies mid-job simply stops heartbeating; its lease
expires and the job requeues *without* charging its retry budget: over
a network a silent worker may be dead, hung or merely partitioned, and
only the local pool — which owns its workers' processes — can tell.
Results land in the coordinator's store byte-identical (modulo
timestamps) to a local ``run_jobs`` run of the same specs.

Start with ``python -m repro.service coordinator`` and see
EXPERIMENTS.md "Sweep-as-a-service" for the full workflow.
"""
