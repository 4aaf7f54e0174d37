"""Smoke tests for the benchmark harness (fast, reduced run counts)."""

import pytest

from repro.bench import figures, memory_report
from repro.bench.ablations import run_ablation_code_blocks
from repro.bench.cli import main
from repro.bench.reporting import Table, mean, median, write_artifact


class TestReporting:
    def test_table_render_and_columns(self):
        table = Table("tst", "demo", ["a", "b"])
        table.add_row(1, 2.5)
        table.add_row("x", 100.0)
        table.add_note("a note")
        text = table.render()
        assert "tst: demo" in text
        assert "2.500" in text
        assert "note: a note" in text
        assert table.column("a") == [1, "x"]
        with pytest.raises(ValueError):
            table.column("missing")

    def test_table_save(self, tmp_path):
        table = Table("tst", "demo", ["a"])
        table.add_row(1)
        path = table.save(str(tmp_path))
        with open(path) as handle:
            assert handle.read().startswith("== tst")

    def test_write_artifact(self, tmp_path):
        import json

        table = Table("tst", "demo", ["a"])
        rows = [{"case": "x", "events_per_s": 1}]
        write_artifact(table, None, rows, seed=0)
        assert table.notes == [] and list(tmp_path.iterdir()) == []
        path = tmp_path / "nested" / "out" / "BENCH_tst.json"
        write_artifact(table, str(path), rows, seed=3, duration_s=2.0)
        payload = json.loads(path.read_text())
        assert list(payload) == ["experiment", "seed", "duration_s", "rows"]
        assert payload["experiment"] == "tst" and payload["rows"] == rows
        assert table.notes == [f"raw data saved to {path}"]

    def test_median_and_mean(self):
        assert median([]) == 0.0
        assert median([3.0]) == 3.0
        assert median([1.0, 9.0]) == 5.0
        assert median([1.0, 2.0, 9.0]) == 2.0
        assert mean([2.0, 4.0]) == 3.0
        assert mean([]) == 0.0


class TestStaticHarnesses:
    def test_fig5_structure(self):
        table = figures.run_fig5()
        types = table.column("type")
        assert types == ["state", "code", "heap", "stack", "reaction", "commit"]

    def test_fig7_covers_paper_rows(self):
        table = figures.run_fig7()
        assert len(table.rows) == len(figures.PAPER_OPCODES)

    def test_memory_report_totals(self):
        table = memory_report.run_memory()
        totals = {row[0]: row for row in table.rows}
        assert totals["TOTAL"][1] == memory_report.PAPER_DATA_BYTES

    def test_code_block_ablation_table(self):
        table = run_ablation_code_blocks()
        assert 22 in table.column("block B")


class TestDynamicHarnessesSmoke:
    def test_fig12_small(self):
        table = figures.run_fig12(repetitions=1, seed=9)
        measured = dict(zip(table.column("opcode"), table.column("measured")))
        assert measured["loc"] < measured["out"]

    def test_fig11_single_sample(self):
        table = figures.run_fig11(samples=2, seed=9)
        assert len(table.rows) == 7

    def test_migration_point_single_run(self):
        data = figures.run_migration_vs_remote(runs=2, seed=9, hops=(1,))
        assert 0.0 <= data["smove"][1]["reliability"] <= 1.0
        assert 0.0 <= data["rout"][1]["reliability"] <= 1.0


class TestCli:
    def test_cli_static_experiment(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out

    def test_cli_saves_results(self, tmp_path, capsys):
        assert main(["memory", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "memory.txt").exists()

    def test_cli_rejects_unknown(self):
        # perfbench times the simulator: there is no timing subcommand.
        for name in ("fig99", "scale", "scenario", "kernel", "compare", "trend"):
            with pytest.raises(SystemExit) as exit_info:
                main([name])
            assert exit_info.value.code == 2, name

    def test_cli_runs_flag(self, capsys):
        assert main(["fig11", "--runs", "2", "--seed", "3"]) == 0
        assert "fig11" in capsys.readouterr().out


def assert_retired(argv, artifact, capsys):
    """A retired timing subcommand, called as it used to be, is a usage error
    that leaves no artifact behind; tests/test_goldens.py pins its rows."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not artifact.exists()


class TestScaleSweep:
    def test_cli_scale_writes_json(self, tmp_path, capsys):
        argv = ["scale", "--topologies", "grid,random", "--out", str(tmp_path)]
        assert_retired(argv, tmp_path / "BENCH_scale.json", capsys)


class TestKernelBench:
    def test_cli_kernel_subcommand(self, tmp_path, capsys):
        assert_retired(["kernel", "--out", str(tmp_path)], tmp_path / "BENCH_kernel.json", capsys)


class TestProfileSubcommand:
    def test_profile_writes_top_n_table(self, tmp_path, capsys):
        import json

        spec = {
            "name": "mini-profile",
            "topology": {"kind": "grid", "width": 4, "height": 4},
            "workload": {"kind": "flood"},
            "duration_s": 2.0,
            "spacing_m": 60.0,
        }
        spec_path = tmp_path / "mini.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["profile", str(spec_path), "--top", "5", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "mini-profile" in out
        assert "cumulative" in out  # pstats table made it out
        report = (tmp_path / "profile_mini-profile.txt").read_text()
        assert "events_per_s" in report
        assert "handle_reuses" in report  # kernel stats ride along
        # The one-line summary row: top-3 cumulative functions, greppable in
        # PR diffs of the committed profile artifacts.
        top_line = [line for line in report.splitlines() if line.startswith("top3: ")]
        assert len(top_line) == 1
        assert top_line[0].count(":") >= 3  # "top3:" plus module:function entries
