"""A tiny op table for the process-runtime tests, and /proc readers.

A module of its own (not the test module) so a worker unpickles the
table by reference without importing pytest.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro
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


def _tracker_inherited(_payload):
    from repro.core.shmplane import _tracker_is_inherited

    return _tracker_is_inherited()


TEST_OPS = {
    "echo": _echo, "pid": _pid, "boom": _boom, "die": _die,
    "traced": _traced, "tracker-inherited": _tracker_inherited,
}

#: Whether this host exposes processes under /proc (Linux).
HAS_PROC = Path("/proc/self/stat").exists()


def _stat(pid: int):
    """``(state, ppid)`` of a live or zombie process, else ``None``."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    fields = text.rsplit(")", 1)[1].split()
    return fields[0], int(fields[1])


def gone(pid: int) -> bool:
    """The process has exited (a zombie nobody reaped counts as gone)."""
    stat = _stat(pid)
    return stat is None or stat[0] in ("Z", "X")


def children(pid: int) -> set:
    """Pids of the live processes whose parent is ``pid``."""
    found = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = _stat(int(entry.name))
            if stat is not None and stat[1] == pid and stat[0] != "Z":
                found.add(int(entry.name))
    return found


def host(args, **kwargs) -> subprocess.Popen:
    """Start a fresh interpreter on ``args`` that imports this ``repro``
    and this module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(repro.__file__).resolve().parents[1]),
        str(Path(__file__).resolve().parent),
        env.get("PYTHONPATH"),
    ]))
    return subprocess.Popen([sys.executable, *args], env=env, text=True,
                            **kwargs)
