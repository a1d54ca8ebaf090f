"""Worker-side job execution: spec documents in, result documents out.

The worker pool ships work to workers as JSON-safe :class:`RunSpec`
documents (they are environment-free and hashable) and receives back
the same records/rank-digest documents the JSONL job store persists —
never live Python objects.  That one discipline is what makes thread
and process workers interchangeable: :func:`run_spec_job` is the single
execution body for both kinds, so a ``worker_kind="process"`` service
produces byte-for-byte the result documents a thread-pooled one does.

:data:`WORKER_OPS` is the op table process workers serve through the
shared runtime in :mod:`repro.core.procpool`: one ``run-spec`` op over
that same body, with :data:`WORKER_WARM` imported before the worker
answers its start-up ping.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING, Dict, Optional

from repro.api.spec import RunSpec

if TYPE_CHECKING:
    from repro.api.runner import RunOutcome


def outcome_payload(outcome: RunOutcome) -> Dict[str, object]:
    """JSON-safe result document for one executed spec.

    Carries the per-kernel records, the bit-exact rank digest
    (:func:`repro.api.runner.rank_sha256`), per-repeat wall times, and
    — when the spec asked for it — the eigenvector validation verdicts.
    This is exactly the payload the job store's ``succeeded`` event
    persists, which is what lets replay restore a finished job without
    re-running it.
    """
    from repro.core.results import _json_safe

    doc: Dict[str, object] = {
        "records": [asdict(r) for r in outcome.records],
        "rank_sha256": outcome.rank_digest,
    }
    rank = outcome.rank
    if rank is not None:
        doc["rank_summary"] = {
            "size": int(rank.size),
            "sum": float(rank.sum()),
            "argmax": int(rank.argmax()) if rank.size else -1,
        }
    doc["wall_seconds"] = [r.wall_seconds for r in outcome.results]
    validations = [
        _json_safe(r.validation)
        for r in outcome.results
        if r.validation is not None
    ]
    if validations:
        doc["validation"] = validations
    last = outcome.result
    if last.trace is not None:
        doc["trace"] = _json_safe(last.trace)
    doc["observability"] = _observability_summary(outcome)
    return doc


def _observability_summary(outcome: RunOutcome) -> Dict[str, object]:
    """Counters the service's ``/metrics`` endpoint accumulates per job:
    artifact-cache behaviour and shared-memory savings, summed over all
    repeats (per-kernel seconds ride in ``records`` already)."""
    cache_hits = 0
    cache_misses = 0
    shm_bytes_saved = 0
    for result in outcome.results:
        for kernel in result.kernels:
            probe = kernel.details.get("artifact_cache")
            if probe == "hit":
                cache_hits += 1
            elif probe == "miss":
                cache_misses += 1
            shm_bytes_saved += int(kernel.details.get("shm_bytes_saved", 0))
    return {
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "shm_bytes_saved": shm_bytes_saved,
    }


def run_spec_job(
    spec_doc: Dict[str, object], cache_dir: Optional[str]
) -> Dict[str, object]:
    """Execute one spec document and return its result document.

    The shared worker body: thread workers call it in-process (and keep
    the live :class:`RunOutcome` alongside), process workers call it in
    the child and ship only the returned document back over the pipe.
    """
    payload, _outcome = run_spec_job_with_outcome(spec_doc, cache_dir)
    return payload


def run_spec_job_with_outcome(
    spec_doc: Dict[str, object], cache_dir: Optional[str]
):
    """As :func:`run_spec_job`, also returning the live outcome."""
    from pathlib import Path

    from repro.api.runner import execute_spec

    spec = RunSpec.from_dict(spec_doc)
    outcome = execute_spec(
        spec, cache_dir=Path(cache_dir) if cache_dir else None
    )
    return outcome_payload(outcome), outcome


def _op_run_spec(payload) -> Dict[str, object]:
    """``(spec_doc, cache_dir)`` in, result document out."""
    return run_spec_job(*payload)


#: The op table of a service process worker.
WORKER_OPS = {"run-spec": _op_run_spec}

#: What a process worker imports before its start-up ping: the execution
#: body and the built-in backends a job's first backend lookup loads
#: (with them repro.grb and repro.frame), so that no job pays for
#: imports.  This module itself imports neither, so the serving process
#: can hand :data:`WORKER_OPS` to a pool without loading numpy.
WORKER_WARM = (
    "repro.api.runner",
    "repro.backends.python_backend",
    "repro.backends.numpy_backend",
    "repro.backends.scipy_backend",
    "repro.backends.dataframe_backend",
    "repro.backends.graphblas_backend",
)
