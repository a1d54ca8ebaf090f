"""Import layers: the spec surface and the service front end load no
numerical stack.

Building, hashing and lowering specs, parsing the command line and
serving jobs to process workers need neither numpy nor scipy; only the
code that runs a kernel does.  ``sys.modules`` is per process and every
test here would see what earlier tests imported, so each check runs in
a fresh interpreter that imports the same ``repro`` this runner did —
the source tree or the installed package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.api import RunSpec, execute_spec

#: Prints the numerical-stack modules this interpreter has loaded.
STACK = """
import json, sys
print(json.dumps(sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("numpy", "scipy"))))
"""

#: Every package whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = (
    "repro", "repro.api", "repro.core", "repro._util", "repro.backends",
    "repro.edgeio", "repro.generators", "repro.harness", "repro.service",
    "repro.cli",
)


def _run(args, timeout: float = 300):
    """Run a fresh interpreter on ``args``; its last stdout line is JSON."""
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def _child(body: str, tail: str = ""):
    return _run(["-c", textwrap.dedent(body) + tail])


def test_spec_surface_and_cli_parser_load_no_numerical_stack():
    loaded = _child("""
        import contextlib, io
        import repro
        import repro.api
        from repro.api import RunSpec, SweepSpec, sweep_cells

        spec = RunSpec(scale=8, backend="numpy", seed=3)
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec
        assert len(spec.spec_hash()) == 24
        sweep = SweepSpec(base=spec.with_overrides(execution="streaming"),
                          scales=(6, 8), backends=("python", "scipy"))
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep
        assert len(sweep.spec_hash()) == 24
        cells = sweep_cells(sweep)
        assert [cell[2] is None for cell in cells] == [True, True, False, False]
        assert repro.get_scenario("smoke").scale > 0

        from repro.cli.main import build_parser, main
        build_parser().parse_args(["run", "--scale", "6"])
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                main(["--help"])
            except SystemExit as exit:
                assert exit.code == 0
    """, STACK)
    assert loaded == []


def test_cli_parser_loads_no_process_runtime():
    # The parser's worker-kind choices live in core.config, beside the
    # other enum fields: reading them starts no process machinery.
    loaded = _child("""
        import json, sys
        import repro.cli.main
        print(json.dumps(sorted(
            name for name in ("multiprocessing", "repro.core.procpool")
            if name in sys.modules)))
    """)
    assert loaded == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_name_resolves(package):
    loaded_on_import, missing = _child(f"""
        import importlib, json, sys
        package = importlib.import_module({package!r})
        stack = sorted(name for name in sys.modules
                       if name.split(".")[0] in ("numpy", "scipy"))
        missing = []
        for name in package.__all__:
            try:
                getattr(package, name)
            except AttributeError:
                missing.append(name)
        print(json.dumps([stack, missing]))
    """)
    assert missing == []
    assert loaded_on_import == []


def test_from_import_statements_resolve_lazy_names():
    resolved = _child("""
        import json
        from repro import execute_spec, run_pipeline, PipelineResult
        from repro.api import BenchmarkService, RunOutcome, rank_sha256
        from repro.core import ArtifactCache, TaskGraph, get_executor
        from repro.core.artifacts import ArtifactCache as Defined
        from repro.api.runner import sweep_cells
        from repro.api.spec import sweep_cells as lowered
        from repro.generators import kronecker_edges, get_generator
        from repro.edgeio import EdgeDataset, DatasetLayoutError
        from repro.backends import Backend, get_backend
        from repro.harness import save_records, build_report
        from repro._util import resolve_rng, check_positive_int
        print(json.dumps([ArtifactCache is Defined, sweep_cells is lowered,
                          callable(execute_spec)]))
    """)
    assert resolved == [True, True, True]


SERVICE_SCRIPT = """
import json, sys, tempfile
from pathlib import Path


def main():
    from repro.api import RunSpec, SweepSpec
    from repro.service import BenchmarkService

    specs = [RunSpec(scale=6, seed=seed) for seed in (1, 2)]
    sweep = SweepSpec(base=RunSpec(scale=6, seed=3), scales=(6,),
                      backends=("numpy",))
    with tempfile.TemporaryDirectory() as tmp, BenchmarkService(
            worker_kind="process", workers=1,
            cache_dir=Path(tmp) / "cache") as service:
        jobs = [service.submit(spec) for spec in specs]
        runs = [service.result(job, timeout=240)["rank_sha256"]
                for job in jobs]
        doc = service.result(service.submit_sweep(sweep), timeout=240)
        cells = [cell["rank_sha256"] for cell in doc["cells"]]
    stack = sorted(name for name in sys.modules
                   if name.split(".")[0] in ("numpy", "scipy"))
    print(json.dumps({"runs": runs, "cells": cells, "stack": stack}))


if __name__ == "__main__":
    main()
"""


def test_process_service_front_end_loads_no_numerical_stack(tmp_path):
    # The serving process loads no numerical stack; only its workers do.
    script = tmp_path / "serve_jobs.py"
    script.write_text(SERVICE_SCRIPT, encoding="utf-8")
    result = _run([str(script)])
    assert result["stack"] == []
    assert result["runs"] == [
        execute_spec(RunSpec(scale=6, seed=seed)).rank_digest
        for seed in (1, 2)]
    assert result["cells"] == [
        execute_spec(RunSpec(scale=6, seed=3, backend="numpy")).rank_digest]


def test_warm_process_worker_imports_nothing_inside_its_first_job():
    # What ProcessWorkerPool's workers import before their start-up
    # ping, then the job a worker runs: nothing is left to import.
    added = _child("""
        import importlib, json, sys
        from repro.api import RunSpec
        from repro.service.pool import ProcessWorkerPool
        from repro.service.worker import run_spec_job

        ops, warm = ProcessWorkerPool(1)._spawn_args
        for module in warm:
            importlib.import_module(module)
        before = set(sys.modules)
        run_spec_job(RunSpec(scale=6).to_dict(), None)
        print(json.dumps(sorted(set(sys.modules) - before)))
    """)
    assert added == []
