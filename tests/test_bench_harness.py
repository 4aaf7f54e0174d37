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
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_cli_runs_flag(self, capsys):
        assert main(["fig11", "--runs", "2", "--seed", "3"]) == 0
        assert "fig11" in capsys.readouterr().out


class TestScaleSweep:
    def test_run_one_measures_a_deployment(self):
        from repro.bench.scale import run_one

        result = run_one("grid", 25, seed=1, duration_s=5.0)
        assert result["nodes"] == 25
        assert result["frames"] > 0
        assert result["events"] > 0

    def test_cli_scale_writes_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert (
            main(
                [
                    "scale",
                    "--nodes",
                    "9",
                    "--topologies",
                    "grid,random",
                    "--duration",
                    "3",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert "scale" in capsys.readouterr().out
        import json

        payload = json.loads((tmp_path / "BENCH_scale.json").read_text())
        assert {row["topology"] for row in payload["rows"]} == {"grid", "random"}
        import sys

        # peak_rss_kb degrades to 0 only where getrusage is missing (Windows).
        floor = 0 if sys.platform == "win32" else 1
        assert all(row["peak_rss_kb"] >= floor for row in payload["rows"])


class TestKernelBench:
    def test_kernel_bench_exercises_reuse_and_compaction(self, tmp_path):
        import json

        from repro.bench.perf import run_kernel_bench

        json_path = str(tmp_path / "BENCH_kernel.json")
        table = run_kernel_bench(json_path=json_path)
        with open(json_path) as handle:
            rows = {row["case"]: row for row in json.load(handle)["rows"]}
        assert rows["periodic-chains"]["handle_reuses"] > 0
        assert rows["timer-churn"]["compactions"] > 0
        assert rows["cancel-heavy"]["compactions"] > 0
        assert all(row["events_per_s"] > 0 for row in rows.values())
        assert table.column("case") == list(rows)

    def test_cli_kernel_subcommand(self, tmp_path, capsys):
        assert main(["kernel", "--out", str(tmp_path)]) == 0
        assert "kernel" in capsys.readouterr().out
        assert (tmp_path / "BENCH_kernel.json").exists()


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


class TestCompareGate:
    def _write(self, path, rows, experiment="scale"):
        import json

        path.write_text(json.dumps({"experiment": experiment, "rows": rows}))
        return str(path)

    def test_within_budget_passes(self, tmp_path, capsys):
        old = self._write(
            tmp_path / "old.json",
            [{"topology": "grid", "nodes": 25, "events_per_s": 1000, "peak_rss_kb": 90}],
        )
        new = self._write(
            tmp_path / "new.json",
            [{"topology": "grid", "nodes": 25, "events_per_s": 900, "peak_rss_kb": 95}],
        )
        assert main(["compare", old, new]) == 0
        out = capsys.readouterr().out
        assert "grid/25" in out
        assert "-10.0%" in out
        assert "no throughput regressions" in out

    def test_regression_beyond_budget_fails(self, tmp_path, capsys):
        old = self._write(
            tmp_path / "old.json",
            [{"topology": "grid", "nodes": 25, "events_per_s": 1000}],
        )
        new = self._write(
            tmp_path / "new.json",
            [{"topology": "grid", "nodes": 25, "events_per_s": 500}],
        )
        assert main(["compare", old, new]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_max_drop_flag_widens_the_budget(self, tmp_path, capsys):
        old = self._write(
            tmp_path / "old.json",
            [{"scenario": "mobile-tracker", "events_per_s": 1000}],
        )
        new = self._write(
            tmp_path / "new.json",
            [{"scenario": "mobile-tracker", "events_per_s": 500}],
        )
        assert main(["compare", old, new, "--max-drop", "60"]) == 0
        capsys.readouterr()

    def test_new_and_missing_rows_are_reported_not_fatal(self, tmp_path, capsys):
        old = self._write(
            tmp_path / "old.json",
            [
                {"scenario": "a", "events_per_s": 1000},
                {"scenario": "gone", "events_per_s": 1000},
            ],
        )
        new = self._write(
            tmp_path / "new.json",
            [
                {"scenario": "a", "events_per_s": 1100},
                {"scenario": "fresh", "events_per_s": 10},
            ],
        )
        assert main(["compare", old, new]) == 0
        out = capsys.readouterr().out
        assert "missing from NEW" in out
        assert "fresh" in out

    def test_memory_column_degrades_when_absent_from_old(self, tmp_path, capsys):
        old = self._write(
            tmp_path / "old.json", [{"case": "periodic-chains", "events_per_s": 10}]
        )
        new = self._write(
            tmp_path / "new.json",
            [{"case": "periodic-chains", "events_per_s": 11, "peak_rss_kb": 77}],
        )
        assert main(["compare", old, new]) == 0
        out = capsys.readouterr().out
        assert "77" in out

    def test_malformed_artifact_rejected(self, tmp_path):
        import json

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nope": []}))
        good = self._write(tmp_path / "good.json", [{"case": "x", "events_per_s": 1}])
        with pytest.raises(ValueError):
            main(["compare", str(bad), good])


class TestTrendTable:
    def _write(self, path, rows):
        import json

        path.write_text(json.dumps({"experiment": "scale", "rows": rows}))
        return str(path)

    def test_sparkline_scales_and_marks_gaps(self):
        from repro.bench.trend import sparkline

        assert sparkline([1.0, 2.0, 3.0]) == "▁▄█"
        assert sparkline([5.0, None, 5.0]) == "▄·▄"  # flat series, one gap
        assert sparkline([None, None]) == "··"

    def test_trend_lines_up_runs_and_reports_latest_delta(self, tmp_path, capsys):
        week1 = self._write(
            tmp_path / "w1.json",
            [{"topology": "grid", "nodes": 25, "events_per_s": 1000}],
        )
        week2 = self._write(
            tmp_path / "w2.json",
            [
                {"topology": "grid", "nodes": 25, "events_per_s": 1500},
                {"topology": "grid", "nodes": 400, "events_per_s": 800},
            ],
        )
        week3 = self._write(
            tmp_path / "w3.json",
            [
                {"topology": "grid", "nodes": 25, "events_per_s": 1200},
                {"topology": "grid", "nodes": 400, "events_per_s": 880},
            ],
        )
        assert main(["trend", week1, week2, week3]) == 0
        out = capsys.readouterr().out
        assert "over 3 runs" in out
        grid25 = next(line for line in out.splitlines() if line.startswith("grid/25"))
        assert "1000" in grid25 and "1500" in grid25 and "1200" in grid25
        assert "-20.0%" in grid25  # latest step: 1500 -> 1200
        assert "▁█" in grid25.replace(" ", "")[-5:]  # the sparkline rides along
        grid400 = next(line for line in out.splitlines() if line.startswith("grid/400"))
        assert "+10.0%" in grid400
        assert "·" in grid400  # absent from week 1: a gap, not an error

    def test_trend_rejects_mixed_artifact_kinds(self, tmp_path):
        scale = self._write(
            tmp_path / "s.json", [{"topology": "grid", "nodes": 25, "events_per_s": 1}]
        )
        kernel = tmp_path / "k.json"
        import json

        kernel.write_text(
            json.dumps(
                {"experiment": "kernel", "rows": [{"case": "x", "events_per_s": 1}]}
            )
        )
        with pytest.raises(ValueError):
            main(["trend", scale, str(kernel)])
