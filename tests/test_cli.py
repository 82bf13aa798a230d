"""The ``python -m repro`` command-line driver."""

import json

import pytest

from repro.__main__ import main

SOURCE = """
program demo;
var a: array[64] of float;
begin
  for i := 0 to 39 do
    a[i] := a[i] + 1.0;
end.
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "demo.w2"
    path.write_text(SOURCE)
    return str(path)


class TestCli:
    def test_compile(self, source_file, capsys):
        assert main(["compile", source_file]) == 0
        out = capsys.readouterr().out
        assert "pipelined ii=" in out

    def test_run_validates(self, source_file, capsys):
        assert main(["run", source_file]) == 0
        out = capsys.readouterr().out
        assert "MFLOPS" in out
        assert "validated" in out

    def test_disasm(self, source_file, capsys):
        assert main(["disasm", source_file]) == 0
        out = capsys.readouterr().out
        assert "kernel (steady state):" in out

    def test_ir(self, source_file, capsys):
        assert main(["ir", source_file]) == 0
        out = capsys.readouterr().out
        assert "program demo:" in out
        assert "load a[" in out

    def test_no_pipeline_flag(self, source_file, capsys):
        assert main(["compile", source_file, "--no-pipeline"]) == 0
        out = capsys.readouterr().out
        assert "unpipelined" in out

    def test_simple_machine(self, source_file, capsys):
        assert main(["run", source_file, "--machine", "simple"]) == 0
        assert "validated" in capsys.readouterr().out

    def test_binary_search_flag(self, source_file, capsys):
        assert main(["compile", source_file, "--search", "binary"]) == 0
        assert "pipelined" in capsys.readouterr().out

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(SOURCE))
        assert main(["compile", "-"]) == 0
        assert "pipelined" in capsys.readouterr().out

    def test_cached_rerun_prints_the_same_loops(
        self, tmp_path, capsys, monkeypatch
    ):
        import io

        loops = []
        for _ in range(2):
            monkeypatch.setattr("sys.stdin", io.StringIO(SOURCE))
            assert main(["compile", "-", "--cache-dir", str(tmp_path),
                         "--stats"]) == 0
            out = capsys.readouterr().out
            loops.append(json.loads(out[out.index("\n{") + 1:])["loops"])
        assert "(served from the schedule cache)" in out
        assert loops[0] == loops[1]
        (record,) = loops[0]
        assert record["pipelined"] and record["ii"] == record["mii"]

    def test_bad_command_rejected(self, source_file):
        with pytest.raises(SystemExit):
            main(["optimize", source_file])


class TestSchedulerBackendFlag:
    def test_compile_with_exact_backend(self, source_file, capsys):
        assert main(["compile", source_file,
                     "--scheduler-backend", "exact", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "pipelined ii=" in out
        assert '"backend": "exact"' in out
        # The heuristic schedules this loop at MII: no interval is left
        # below it for the SAT search to probe.
        assert '"loops_at_mii": 1' in out
        assert '"exact_sat_calls"' not in out

    def test_run_with_exact_backend_validates(self, source_file, capsys):
        assert main(["run", source_file,
                     "--scheduler-backend", "exact"]) == 0
        assert "validated" in capsys.readouterr().out

    def test_exact_node_cap_flag_is_gone(self, source_file):
        with pytest.raises(SystemExit):
            main(["compile", source_file, "--scheduler-backend", "exact",
                  "--exact-max-nodes", "1"])

    def test_exact_conflict_budget_must_be_positive(self, source_file,
                                                     capsys):
        with pytest.raises(SystemExit):
            main(["compile", source_file, "--scheduler-backend", "exact",
                  "--exact-max-conflicts", "0"])
        assert "exact_max_conflicts must be positive" in (
            capsys.readouterr().err
        )

    def test_exact_conflict_budget_flag_accepted(self, source_file, capsys):
        assert main(["compile", source_file, "--scheduler-backend",
                     "exact", "--exact-max-conflicts", "50"]) == 0
        assert "pipelined ii=" in capsys.readouterr().out

    def test_unknown_backend_rejected(self, source_file):
        with pytest.raises(SystemExit):
            main(["compile", source_file, "--scheduler-backend", "ilp"])

    def test_suite_with_exact_backend(self, capsys):
        assert main(["suite", "--count", "2",
                     "--scheduler-backend", "exact"]) == 0
        assert "2/2 programs compiled" in capsys.readouterr().out

    def test_fuzz_graph_cases_with_exact_backend(self, capsys):
        assert main(["fuzz", "--count", "0", "--graphs", "2",
                     "--scheduler-backend", "exact"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_fuzz_optimality_summary(self, capsys):
        assert main(["fuzz", "--count", "0", "--graphs", "3",
                     "--optimality"]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out
        assert "3 optimality checks" in out


class TestBatchSubcommands:
    def test_suite_on_threads(self, capsys):
        assert main(["suite", "--count", "4", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "4/4 programs compiled" in out and "jobs=2" in out

    def test_fuzz_process_backend(self, capsys):
        # --jobs above 1 runs the campaign's cases on processes.
        assert main(["fuzz", "--count", "3", "--graphs", "1",
                     "--jobs", "2"]) == 0
        assert "0 violations" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["suite", "--backend", "thread"],
        ["fuzz", "--backend", "process"],
        ["serve", "--backend", "process"],
    ], ids=["suite", "fuzz", "serve"])
    def test_removed_backend_choices_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_serve_keeps_its_thread_backend_flag(self):
        from repro.__main__ import _build_parser

        args = _build_parser().parse_args(["serve", "--backend", "thread"])
        assert args.backend == "thread"

    def test_bench_quick_writes_and_compares(self, tmp_path, capsys):
        out = tmp_path / "BENCH_scheduler.json"
        assert main(["bench", "--quick", "--jobs", "2",
                     "--out", str(out)]) == 0
        assert "closure" in capsys.readouterr().out
        # Baselines without per-unit times: --compare then gates only the
        # exact call count, which the host's load cannot move.
        report = json.loads(out.read_text())
        for entry in report["benchmarks"].values():
            entry.pop("per_unit_seconds", None)
        passing = tmp_path / "passing.json"
        passing.write_text(json.dumps(report))
        report["benchmarks"]["suite"]["kcalls_per_program"] /= 2
        failing = tmp_path / "failing.json"
        failing.write_text(json.dumps(report))
        compare = ["bench", "--quick", "--only", "suite", "--compare"]
        assert main(compare + [str(passing)]) == 0
        assert "regression" not in capsys.readouterr().err
        assert main(compare + [str(failing)]) == 1
        assert "kcalls/program vs baseline" in capsys.readouterr().err
