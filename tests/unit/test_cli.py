"""Unit tests for the repro-pipeline CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import RunSpec
from repro.cli.commands import rank_cells, run_spec_from_args, \
    sweep_spec_from_args
from repro.cli.main import build_parser, main
from repro.core.config import FIELD_CHOICES
from repro.harness.records import load_records
from repro.harness.report import build_report


def _run_spec(*argv):
    return run_spec_from_args(build_parser().parse_args(["run", *argv]))


def _table_rows(text):
    """Rows of the markdown tables in ``text``, as header -> cell dicts."""
    lines = [[cell.strip() for cell in line.strip("|").split("|")]
             for line in text.splitlines() if line.startswith("|")]
    header = lines[0]
    return [dict(zip(header, row)) for row in lines[2:]]


def _section(document, heading):
    """The part of a report from ``heading`` to the next ``## `` heading."""
    start = document.index(heading)
    end = document.find("\n## ", start + 1)
    return document[start:] if end < 0 else document[start:end]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults_are_runspec_defaults(self):
        # The parser stores no default for a spec-shaping flag, so the
        # only copy of each default is the RunSpec dataclass.
        args = build_parser().parse_args(["run"])
        assert not set(vars(args)) & set(RunSpec.__dataclass_fields__)
        assert _run_spec() == RunSpec(scale=12)

    def test_every_run_flag_lands_on_its_spec_field(self):
        spec = _run_spec(
            "--scale", "7", "--edge-factor", "8", "--backend", "numpy",
            "--generator", "ring", "--seed", "3", "--num-files", "2",
            "--iterations", "5", "--damping", "0.5",
            "--file-format", "npy", "--formula", "paper-body",
            "--data-dir", "/tmp/d", "--execution", "parallel",
            "--ranks", "3", "--parallel-executor", "mp",
            "--batch-edges", "1024", "--async-lanes", "process",
            "--shard-plane", "shm", "--repeats", "2",
            "--validation", "full", "--trace", "/tmp/t.json",
        )
        assert spec == RunSpec(
            scale=7, edge_factor=8, backend="numpy", generator="ring",
            seed=3, num_files=2, iterations=5, damping=0.5,
            file_format="npy",
            formula="paper-body", data_dir="/tmp/d", execution="parallel",
            parallel_ranks=3, parallel_executor="mp",
            streaming_batch_edges=1024, async_lanes="process",
            shard_plane="shm", repeats=2, validation="full", trace=True,
        )

    @pytest.mark.parametrize("field", FIELD_CHOICES)
    def test_enum_flags_accept_exactly_the_config_tables_values(
            self, field):
        flag = "--" + field.replace("_", "-")
        for choice in FIELD_CHOICES[field]:
            args = build_parser().parse_args(["run", flag, choice])
            assert getattr(args, field) == choice
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", flag, "bogus"])

    def test_report_csv_parsing(self):
        args = build_parser().parse_args(
            ["report", "--scales", "6,8", "--backends", "scipy,numpy",
             "--ranks", "4,2"]
        )
        assert args.scales == [6, 8]
        assert args.backends == ["scipy", "numpy"]
        assert args.ranks == [4, 2]

    def test_bad_scales_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--scales", "a,b"])

    @pytest.mark.parametrize("flag", ["--scales", "--ranks"])
    @pytest.mark.parametrize("value", ["", ","])
    def test_empty_int_list_is_usage_error(self, flag, value, capsys):
        # No scale is no grid and no rank count is no ranks table: a
        # usage error naming the flag, not a crash or a silent default.
        with pytest.raises(SystemExit) as exit_info:
            main(["report", flag, value, "--backends", "numpy"])
        assert exit_info.value.code == 2
        assert (f"argument {flag}: expected at least one int"
                in capsys.readouterr().err)

    def test_python_m_entry_point_runs_once_and_quietly(self):
        # The package must not import its own __main__ module first:
        # runpy would warn on stderr and the module would run twice.
        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli.main", "--help"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "report" in proc.stdout

    def test_run_execution_choices(self):
        args = build_parser().parse_args(["run", "--execution", "streaming"])
        assert args.execution == "streaming"
        args = build_parser().parse_args(["run", "--execution", "async"])
        assert args.execution == "async"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--execution", "turbo"])

    def test_cache_subcommand_parsing(self):
        args = build_parser().parse_args(
            ["cache", "prune", "--cache-dir", "c", "--max-bytes", "500M"]
        )
        assert args.max_bytes == 500 * (1 << 20)
        args = build_parser().parse_args(
            ["cache", "prune", "--cache-dir", "c", "--max-bytes", "2g"]
        )
        assert args.max_bytes == 2 << 30
        args = build_parser().parse_args(
            ["cache", "rm", "abc123", "--cache-dir", "c", "--kind", "k2"]
        )
        assert args.key == "abc123" and args.kind == "k2"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cache", "prune", "--cache-dir", "c", "--max-bytes", "lots"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "ls"])  # --cache-dir required

    def test_removed_sort_flag_is_a_usage_error(self, capsys):
        # Kernel 1 has one in-memory sort; the flag that chose among
        # three is gone and argparse refuses it (exit 2).
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--sort-algorithm", "radix"])
        assert exit_info.value.code == 2
        assert "--sort-algorithm" in capsys.readouterr().err

    def test_validation_is_one_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        help_text = capsys.readouterr().out
        assert "--validation" in help_text
        for flag in ("--validate", "--no-validate", "--no-verify"):
            assert flag not in help_text
            with pytest.raises(SystemExit) as exit_info:
                main(["run", flag])
            assert exit_info.value.code == 2

    def test_num_files_above_m_is_a_usage_error(self, capsys, tmp_path):
        # M = 256 at scale 4: refused before anything is written.
        assert main(["run", "--scale", "4", "--num-files", "257",
                     "--data-dir", str(tmp_path / "out")]) == 2
        assert "num_files must be at most M = 256" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_worker_artifact_sync_flag_is_gone(self, capsys):
        # Cache entries no longer travel between hosts; the switch that
        # turned their sync off is refused before anything dials.
        with pytest.raises(SystemExit) as exit_info:
            main(["worker", "--connect", "127.0.0.1:1",
                  "--max-reconnects", "0", "--no-artifact-sync"])
        assert exit_info.value.code == 2
        assert "--no-artifact-sync" in capsys.readouterr().err

    def test_validate_command_is_gone(self):
        # `repro run --validation full` is the eigenvector check.
        with pytest.raises(SystemExit) as exit_info:
            main(["validate", "--scale", "6"])
        assert exit_info.value.code == 2


    def test_predict_command_is_gone(self):
        # The Section V hardware model was deleted, command and all.
        with pytest.raises(SystemExit) as exit_info:
            main(["predict", "--calibration-scale", "6", "--scales", "6"])
        assert exit_info.value.code == 2

class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "backends:" in out and "kronecker" in out
        assert "experiments:" not in out

    def test_run_small(self, capsys):
        assert main(["run", "--scale", "6", "--backend", "numpy"]) == 0
        out = capsys.readouterr().out
        assert "k3-pagerank" in out

    def test_run_json_output(self, capsys):
        assert main(["run", "--scale", "6", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["scale"] == 6
        assert len(doc["kernels"]) == 4

    def test_run_with_validation(self, capsys):
        code = main(["run", "--scale", "6", "--validation", "full"])
        out = capsys.readouterr().out
        assert code == 0
        assert "validation: PASS" in out
        assert "eigenvalue=" in out and "tolerance=" in out

    def test_validation_contracts_skips_only_the_eigenvector_check(
            self, capsys):
        # Contracts still run (and pass); the eigenvector check is off.
        code = main(["run", "--scale", "6", "--validation", "contracts",
                     "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "validation" not in doc
        assert doc["config"]["validation"] == "contracts"
        assert all("contract_seconds" in k["details"] for k in doc["kernels"])

    def test_validation_off_runs_no_check(self, capsys):
        code = main(["run", "--scale", "6", "--validation", "off", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "validation" not in doc
        assert not any("contract_seconds" in k["details"]
                       for k in doc["kernels"])

    @pytest.mark.parametrize("argv", [
        ["--external-sort"], ["--validation", "validate-only"]])
    def test_removed_run_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", *argv])
        assert excinfo.value.code == 2

    def test_run_streaming_execution(self, capsys):
        assert main(["run", "--scale", "6", "--execution", "streaming",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        k1, k2 = [k for k in doc["kernels"]
                  if k["kernel"] in ("k1-sort", "k2-filter")]
        assert k1["details"]["algorithm"] == "external"
        assert k2["details"]["execution"] == "streaming"

    def test_run_parallel_execution(self, capsys):
        assert main(["run", "--scale", "6", "--execution", "parallel",
                     "--ranks", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        k3 = [k for k in doc["kernels"] if k["kernel"] == "k3-pagerank"][0]
        assert k3["details"]["traffic"]["total_bytes"] > 0

    def test_run_streaming_rejected_for_python_backend(self, capsys):
        code = main(["run", "--scale", "6", "--backend", "python",
                     "--execution", "streaming"])
        assert code == 2
        assert "streaming" in capsys.readouterr().err

    def test_run_async_execution(self, capsys):
        assert main(["run", "--scale", "6", "--execution", "async",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        k3 = next(k for k in doc["kernels"] if k["kernel"] == "k3-pagerank")
        assert k3["details"]["execution"] == "async"
        assert "overlap_saved_s" in k3["details"]
        assert doc["wall_seconds"] > 0.0

    def test_run_async_report_mentions_overlap(self, capsys):
        assert main(["run", "--scale", "6", "--execution", "async"]) == 0
        out = capsys.readouterr().out
        assert "async overlap:" in out
        assert "overlap saved" in out

    def test_run_async_process_lanes(self, capsys):
        assert main(["run", "--scale", "6", "--execution", "async",
                     "--async-lanes", "process", "--num-files", "2",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["async_lanes"] == "process"
        k3 = next(k for k in doc["kernels"] if k["kernel"] == "k3-pagerank")
        assert k3["details"]["codec_lane"] == "process"
        assert k3["details"]["lane_busy_seconds"]["process"] > 0.0

    def test_run_async_lanes_flag_overrides_scenario(self, capsys):
        assert main(["run", "--scenario", "async-overlap-proc",
                     "--scale", "6", "--async-lanes", "thread",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["async_lanes"] == "thread"

    def test_cache_ls_rm_prune_round_trip(self, tmp_path, capsys):
        cache = str(tmp_path / "c")
        assert main(["run", "--scale", "6", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "k0" in out and "k1" in out and "k2" in out
        assert "3 entries" in out
        key = next(line.split("|")[2].strip() for line in out.splitlines()
                   if "| k2 " in line)
        assert main(["cache", "rm", key, "--cache-dir", cache,
                     "--kind", "k2"]) == 0
        assert "removed k2/" in capsys.readouterr().out
        assert main(["cache", "rm", "nonexistent", "--cache-dir", cache]) == 1
        capsys.readouterr()
        assert main(["cache", "prune", "--cache-dir", cache,
                     "--max-bytes", "0"]) == 0
        assert "evicted 2 entries" in capsys.readouterr().out
        assert main(["cache", "ls", "--cache-dir", cache]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_run_cache_dir_round_trip(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["run", "--scale", "6", "--cache-dir", str(cache),
                     "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["run", "--scale", "6", "--cache-dir", str(cache),
                     "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        by_kernel = {k["kernel"]: k for k in second["kernels"]}
        assert by_kernel["k0-generate"]["details"]["artifact_cache"] == "hit"
        assert by_kernel["k1-sort"]["details"]["artifact_cache"] == "hit"
        # JSON consumers get an explicit gap, not cache-read "throughput".
        assert by_kernel["k0-generate"]["cached"] is True
        assert by_kernel["k0-generate"]["edges_per_second"] is None
        # The filtered matrix is also cached now (keyed on the K1
        # dataset), so repeats skip the K2 rebuild too.
        assert by_kernel["k2-filter"]["cached"] is True
        assert by_kernel["k2-filter"]["edges_per_second"] is None
        assert by_kernel["k3-pagerank"]["cached"] is False
        assert (first["rank_summary"]["argmax"]
                == second["rank_summary"]["argmax"])

    def test_run_report_marks_cache_hits(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["run", "--scale", "6", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert main(["run", "--scale", "6", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        # Cache reads are labelled and their speed is not presented as
        # generate/sort throughput.
        assert "k0-generate (cache hit)" in out
        assert "k1-sort (cache hit)" in out
        assert "k2-filter (cache hit)" in out
        assert "k3-pagerank (cache hit)" not in out

    def test_report_default_backends_with_streaming(self, capsys):
        # The default backend list includes serial-only backends; the
        # grid must skip them rather than abort.
        assert main(["report", "--scales", "6",
                     "--execution", "streaming"]) == 0
        out = capsys.readouterr().out
        grid = next(line for line in out.splitlines()
                    if line.startswith("Grid:"))
        assert "'scipy'" in grid and "'numpy'" in grid
        assert "'python'" not in grid

    def test_report_figures_leave_out_cache_hits(self, tmp_path, capsys):
        # Warm cache: K0-K2 of the second grid are cache reads, so
        # Figures 4-6 plot nothing for them — the same rule `run`
        # applies to its edges/s column — and the total is marked.
        argv = ["report", "--scales", "6", "--backends", "scipy",
                "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        for heading in ("## Figure 4", "## Figure 5", "## Figure 6"):
            assert "legend: o=scipy" in _section(cold, heading)
            assert "(no data)" in _section(warm, heading)
        assert "legend: o=scipy" in _section(warm, "## Figure 7")
        totals = _table_rows(_section(warm, "## Officially timed totals"))
        assert totals[0]["total seconds"].endswith(" *")
        assert "served from the artifact cache" in warm

    def test_run_keeps_files_in_data_dir(self, tmp_path, capsys):
        assert main(["run", "--scale", "6", "--data-dir", str(tmp_path)]) == 0
        assert (tmp_path / "k0" / "manifest.json").exists()
        assert (tmp_path / "k1" / "manifest.json").exists()

    @pytest.mark.parametrize("executor", ["sim", "mp"])
    def test_run_parallel_prints_traffic(self, executor, capsys):
        assert main(["run", "--scale", "7", "--execution", "parallel",
                     "--ranks", "2", "--iterations", "3",
                     "--parallel-executor", executor]) == 0
        out = capsys.readouterr().out
        assert "traffic:" in out and "allreduce" in out
        assert "per-rank nnz" in out

    def test_removed_subcommands_are_usage_errors(self, capsys):
        # `report` is the one results command.
        for argv in (["parallel"], ["scaling"],
                     ["sweep", "--scales", "6"],
                     ["figures", "--id", "fig7"],
                     ["tables", "--id", "table2"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_report_ranks_section_on_process_ranks(self, capsys):
        assert main(["report", "--scales", "6", "--backends", "numpy",
                     "--ranks", "2", "--parallel-executor", "mp"]) == 0
        section = _section(capsys.readouterr().out, "## Section IV.D")
        assert "executor=mp" in section and "allreduce bytes" in section

    def test_report_ranks_zero_is_usage_error(self, capsys):
        assert main(["report", "--scales", "6", "--backends", "numpy",
                     "--ranks", "0"]) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert "... backend" not in captured.err  # refused before any run

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_report_records_render_the_same_report(
            self, suffix, capsys, tmp_path):
        path = tmp_path / f"records{suffix}"
        assert main(["report", "--scales", "6", "--backends", "numpy",
                     "--records", str(path)]) == 0
        captured = capsys.readouterr()
        assert f"records written to {path}" in captured.err
        records = load_records(path)
        assert len(records) == 4
        assert captured.out == build_report(records) + "\n"

    def test_unknown_backend_exits_2(self, capsys):
        assert main(["run", "--scale", "6", "--backend", "fortran"]) == 2
        assert "error" in capsys.readouterr().err

    def test_golden_save_and_check(self, tmp_path, capsys):
        golden_file = tmp_path / "golden.json"
        assert main(["golden", "--scale", "6", "--save", str(golden_file)]) == 0
        assert golden_file.exists()
        assert main(["golden", "--scale", "6", "--check", str(golden_file)]) == 0
        assert "matches" in capsys.readouterr().out

    def test_golden_check_detects_mismatch(self, tmp_path, capsys):
        golden_file = tmp_path / "golden.json"
        assert main(["golden", "--scale", "6", "--seed", "1",
                     "--save", str(golden_file)]) == 0
        code = main(["golden", "--scale", "6", "--seed", "2",
                     "--check", str(golden_file)])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_golden_prints_json_by_default(self, capsys):
        assert main(["golden", "--scale", "6"]) == 0
        out = capsys.readouterr().out
        assert '"k1_num_edges"' in out

    def test_report_command(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        code = main(["report", "--scales", "6", "--backends", "scipy",
                     "--output", str(out_file)])
        assert code == 0
        document = out_file.read_text()
        for heading in ("Figure 4", "Figure 5", "Figure 6", "Figure 7"):
            assert heading in document
        assert "graphblas" in _section(document, "## Table I ")
        assert "65K" in _section(document, "## Table II")
        assert "Section IV.D" not in document  # no --ranks, no ranks table


class TestScenarioAndSpecSurface:
    def test_run_scenario(self, capsys):
        assert main(["run", "--scenario", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "backend=numpy" in out
        assert "k3-pagerank" in out

    def test_run_scenario_with_explicit_override(self, capsys):
        assert main(["run", "--scenario", "smoke", "--seed", "9",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["seed"] == 9
        assert doc["config"]["backend"] == "numpy"  # scenario's choice

    def test_run_unknown_scenario_is_usage_error(self, capsys):
        assert main(["run", "--scenario", "warp-speed"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_info_lists_scenarios(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "scenarios:" in out and "paper-s18" in out

    def test_run_parallel_executor_mp_flag(self, capsys):
        assert main(["run", "--scale", "6", "--execution", "parallel",
                     "--ranks", "2", "--parallel-executor", "mp",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        k2 = next(k for k in doc["kernels"] if k["kernel"] == "k2-filter")
        assert k2["details"]["parallel_executor"] == "mp"
        k3 = next(k for k in doc["kernels"] if k["kernel"] == "k3-pagerank")
        assert k3["details"]["traffic"]["total_bytes"] > 0

    def test_run_repeats_flag(self, tmp_path, capsys):
        assert main(["run", "--scale", "6", "--repeats", "2",
                     "--cache-dir", str(tmp_path / "c"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # The reported result is the last repeat: warm from the cache.
        by_kernel = {k["kernel"]: k for k in doc["kernels"]}
        assert by_kernel["k0-generate"]["details"]["artifact_cache"] == "hit"

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.port == 0 and args.workers == 2


class TestExitCodeDiscipline:
    def test_json_goes_to_stdout_even_on_validation_failure(self, capsys):
        # paper-body formula at tiny scale diverges from the principal
        # eigenvector, so full validation fails — the JSON payload must
        # still land on stdout with the diagnostic on stderr.
        code = main(["run", "--scale", "6", "--seed", "1",
                     "--iterations", "2", "--damping", "0.99",
                     "--formula", "paper-body", "--validation", "full",
                     "--json"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # stdout is pure JSON
        if doc["validation"]["passed"]:
            pytest.skip("validation unexpectedly passed at this config")
        assert code == 1
        assert "validation failed" in captured.err

    def test_validation_failure_without_json_exits_1(self, capsys):
        code = main(["run", "--scale", "6", "--iterations", "2",
                     "--damping", "0.99", "--formula", "paper-body",
                     "--validation", "full"])
        captured = capsys.readouterr()
        if "validation: FAIL" not in captured.out:
            pytest.skip("validation unexpectedly passed at this config")
        assert code == 1

    def test_scenario_override_equal_to_spec_default_still_wins(self):
        # cache-warm sets repeats=3; an explicit `--repeats 1` must
        # override even though 1 equals the RunSpec default (presence on
        # the command line is what counts, not value inequality).
        assert _run_spec("--scenario", "cache-warm",
                         "--repeats", "1").repeats == 1
        # Omitted flags keep the scenario's values.
        spec = _run_spec("--scenario", "cache-warm")
        assert spec.repeats == 3 and spec.scale == 10

    @pytest.mark.parametrize("argv,field,value", [
        # Ints and choices, each typed with a value equal to what used to
        # be the parser default, in the two spellings a scan of argv for
        # the literal flag token missed.
        (["--scenario", "smoke", "--scal", "12"], "scale", 12),
        (["--scenario", "smoke", "--sca=12"], "scale", 12),
        (["--scenario", "async-overlap-proc", "--async-lane", "thread"],
         "async_lanes", "thread"),
        (["--scenario", "async-overlap-proc", "--async-lanes=thread"],
         "async_lanes", "thread"),
        (["--scenario", "parallel-mp", "--rank", "4"], "parallel_ranks", 4),
        (["--scenario", "streaming-bounded", "--executio", "serial"],
         "execution", "serial"),
    ])
    def test_abbreviated_and_joined_flags_override_scenario(
            self, argv, field, value):
        assert getattr(_run_spec(*argv), field) == value

    def test_abbreviated_scale_reaches_the_run(self, capsys):
        assert main(["run", "--scenario", "smoke", "--scal", "7",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["scale"] == 7

    def test_scenario_cache_warm_without_cache_dir_warns(self, capsys):
        assert main(["run", "--scenario", "cache-warm", "--scale", "6"]) == 0
        err = capsys.readouterr().err
        assert "no --cache-dir" in err

    def test_validation_overlays_a_scenario(self):
        # Like any spec flag: typed, it replaces the scenario's mode;
        # omitted, the scenario's own mode stands.
        assert _run_spec("--scenario", "validated",
                         "--validation", "off").validation == "off"
        assert _run_spec("--scenario", "validated").validation == "full"

    def test_cache_rm_distinguishes_busy_from_absent(self, tmp_path, capsys):
        from repro.core.artifacts import ArtifactCache

        cache_dir = tmp_path / "c"
        assert main(["run", "--scale", "6", "--cache-dir",
                     str(cache_dir)]) == 0
        capsys.readouterr()
        cache = ArtifactCache(cache_dir)
        entry = next(e for e in cache.entries() if e.kind == "k0")
        lock = cache.entry_lock("k0", entry.key)
        lock.acquire(shared=True)
        try:
            assert main(["cache", "rm", entry.key, "--cache-dir",
                         str(cache_dir), "--kind", "k0"]) == 1
            assert "in use" in capsys.readouterr().err
        finally:
            lock.release()
        assert main(["cache", "rm", entry.key, "--cache-dir",
                     str(cache_dir), "--kind", "k0"]) == 0

    def test_capability_mismatch_stays_usage_error(self, capsys):
        assert main(["run", "--scale", "6", "--backend", "python",
                     "--execution", "streaming"]) == 2

    def test_report_progress_lines_go_to_stderr(self, capsys):
        assert main(["report", "--scales", "6", "--backends", "numpy",
                     "--ranks", "2"]) == 0
        captured = capsys.readouterr()
        assert "... backend=numpy scale=6 repeat=0" in captured.err
        assert "... backend=numpy scale=6 ranks=2" in captured.err
        assert "... backend" not in captured.out
        assert "Figure 7" in captured.out  # the report is the payload


class TestTraceFlag:
    def test_run_trace_writes_a_valid_chrome_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["run", "--scale", "6", "--backend", "numpy",
                     "--execution", "async", "--trace",
                     str(trace_path)]) == 0
        err = capsys.readouterr().err
        assert "trace written to" in err
        doc = json.loads(trace_path.read_text())
        names = {e["name"] for e in doc["traceEvents"]
                 if e.get("ph") == "X"}
        for required in ("pipeline", "schedule", "stage:k3-pagerank"):
            assert required in names

    def test_trace_flag_validates_via_check_trace_cli(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        trace_path = tmp_path / "trace.json"
        assert main(["run", "--scale", "6", "--backend", "numpy",
                     "--execution", "async", "--trace",
                     str(trace_path)]) == 0
        repo = Path(__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, str(repo / "tools" / "check_trace.py"),
             str(trace_path), "--require",
             "pipeline,stage:k0-generate,stage:k3-pagerank,schedule"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ok" in proc.stdout

    def test_trace_flag_composes_with_scenario(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["run", "--scenario", "smoke", "--trace",
                     str(trace_path)]) == 0
        assert trace_path.exists()

    def test_untraced_run_writes_nothing(self, tmp_path, capsys):
        assert main(["run", "--scale", "6", "--backend", "numpy"]) == 0
        assert "trace written" not in capsys.readouterr().err


class TestReportRanksSection:
    """The Section IV.D K2+K3 strong-scaling table ``report --ranks``
    appends."""

    ARGV = ["report", "--scales", "7", "--backends", "python,numpy",
            "--ranks", "4,2"]

    @pytest.fixture(scope="class")
    def rows(self, tmp_path_factory):
        # 1 is missing on purpose; the serial-only python backend is
        # skipped, not an error.
        path = tmp_path_factory.mktemp("ranks") / "report.md"
        assert main([*self.ARGV, "--output", str(path)]) == 0
        section = _section(path.read_text(), "## Section IV.D")
        assert "backend=numpy" in section
        assert "python" not in section
        return _table_rows(section)

    def test_adds_one_rank_baseline(self, rows):
        assert [row["ranks"] for row in rows] == ["1", "2", "4"]

    def test_one_rank_speedup_is_one(self, rows):
        assert rows[0]["speedup"] == "1.00"
        assert rows[0]["efficiency"] == "1.00"

    def test_nnz_sum_independent_of_ranks(self, rows):
        sums = {sum(int(n) for n in row["local nnz"].strip("[]").split(","))
                for row in rows}
        assert len(sums) == 1

    def test_allreduce_matches_closed_form(self, rows):
        for row in rows:
            assert row["allreduce bytes"] == row["closed form"]

    def test_one_parallel_run_per_rank_count(self, rows):
        # Each row is one run's K2 and K3 records.
        for row in rows:
            assert float(row["K2 s"]) >= 0 and float(row["K3 s"]) >= 0
        args = build_parser().parse_args(self.ARGV)
        [specs] = rank_cells(sweep_spec_from_args(args), args.ranks,
                             args.parallel_executor)
        assert [spec.parallel_ranks for spec in specs] == [1, 2, 4]
        assert {(spec.backend, spec.execution) for spec in specs} == \
            {("numpy", "parallel")}
