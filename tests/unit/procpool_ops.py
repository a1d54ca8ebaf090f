"""A tiny op table for ``test_procpool.py``.

A module of its own (not the test module) so ``forkserver``/``spawn``
workers can import the functions by name without importing pytest.
"""

from __future__ import annotations

import os

from repro.core import trace


def _echo(payload):
    return payload


def _pid(_payload):
    return os.getpid()


def _boom(payload):
    raise FileNotFoundError(payload)


def _die(_payload):
    os._exit(1)  # the worker vanishes mid-op, no reply, no cleanup


def _traced(payload):
    with trace.span("inner", cat="test"):
        return payload


TEST_OPS = {
    "echo": _echo, "pid": _pid, "boom": _boom, "die": _die,
    "traced": _traced,
}
