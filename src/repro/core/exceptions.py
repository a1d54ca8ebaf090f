"""Pipeline-level exceptions."""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for pipeline failures."""


class KernelContractError(PipelineError):
    """A kernel produced output violating the benchmark specification
    (e.g. Kernel 1 output not sorted, Kernel 2 matrix entries not
    summing to M, rank vector containing non-finite values)."""


class ExecutorCapabilityError(PipelineError, ValueError):
    """The selected execution strategy needs a capability the backend
    does not declare (e.g. ``--execution streaming`` with a backend that
    cannot adopt an externally built CSR matrix).

    Also a ``ValueError`` so the CLI reports it as a usage error instead
    of a traceback.
    """
