"""Yield-as-a-service: queue workloads, serve cached results.

The ROADMAP's north star is a production-scale system serving many
users; this package is the serving layer over the workload abstraction
(:mod:`repro.workload`) and the content-addressed result cache
(:mod:`repro.cache`):

* :mod:`~repro.service.queue` -- an in-process :class:`JobQueue`:
  submit/status/result/cancel over a worker-thread pool, cache-first
  execution (hits are served on the submitting thread), per-job
  checkpointing, cooperative cancellation at checkpoint boundaries;
* :mod:`~repro.service.requests` -- plain-JSON request -> live workload
  (``estimate`` and ``lint`` kinds), so identical requests from
  different users fingerprint identically and share one cached result;
* :mod:`~repro.service.daemon` -- a file-spool daemon over a service
  root directory (``repro serve``), with ``repro submit`` /
  ``repro jobs`` as clients: requests are dropped into ``queue/``,
  statuses appear in ``jobs/``, cancellation is a marker file, shutdown
  is a ``stop`` sentinel.

See ``docs/service.md`` for the job lifecycle and operational knobs.
"""

from .daemon import (job_statuses, read_status, request_cancel, request_stats,
                     request_stop, serve, submit_request)
from .queue import JOB_STATES, Job, JobQueue
from .requests import REQUEST_KINDS, workload_from_request

__all__ = [
    "Job", "JobQueue", "JOB_STATES",
    "workload_from_request", "REQUEST_KINDS",
    "serve", "submit_request", "job_statuses", "read_status",
    "request_cancel", "request_stats", "request_stop",
]
