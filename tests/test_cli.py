import csv
import io
import json

import pytest

from paulitree import NoiseParams, Thresholds, build_basic_program, cli, run_analytical
from paulitree.cli import COLUMNS, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


FAST = ["--event-th", "1e-4", "--merge-th", "1e-8"]


class TestRun:
    def test_analytical_row(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--mode", "analytical", *FAST)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert list(row) == COLUMNS
        assert row["engine"] == "analytical"
        assert row["program"] == "basic"
        assert row["merge_mode"] == "preservation"
        assert 0.0 <= float(row["crash"]) <= 1.0
        assert float(row["survival"]) + float(row["crash"]) == pytest.approx(
            1.0, abs=1e-6
        )
        assert int(row["peak_map_entries"]) >= 1
        assert len(row["program_hash"]) == 64
        assert row["mc_iterations"] == ""  # not an MC row

    def test_both_engines_share_the_program_hash(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--mode", "both", "--mc-iterations", "500",
            "--seed", "3", *FAST,
        )
        assert code == 0
        a, m = parse_csv(out)
        assert a["engine"] == "analytical"
        assert m["engine"] == "montecarlo"
        assert a["program_hash"] == m["program_hash"]
        assert m["mc_iterations"] == "500"
        assert m["seed"] == "3"
        assert m["shards"] == "1"
        assert int(m["threads"]) >= 1
        assert float(m["mc_ci95_low"]) <= float(m["crash"]) <= float(m["mc_ci95_high"])
        assert float(m["speedup"]) == pytest.approx(
            float(m["wall_time_ms"]) / float(a["wall_time_ms"])
        )

    def test_branch_calls_on_the_analytical_row_only(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--mode", "both", "--mc-iterations", "200",
                               *FAST)
        assert code == 0
        a, m = parse_csv(out)
        rep = run_analytical(build_basic_program(NoiseParams()), Thresholds(1e-4, 1e-8))
        # every event step, fused, makes far fewer calls than there are events
        assert int(a["branch_calls"]) == rep.branch_calls < 26944 / 10
        assert m["branch_calls"] == ""

    def test_scaling_program_and_scale_knob(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--program", "scaling", "--n", "2",
            "--scale", "100", "--mode", "montecarlo",
            "--mc-iterations", "300", "--shards", "2",
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert row["program"] == "scaling"
        assert row["n"] == "2"
        # at 100x noise a few hundred iterations see crashes
        assert float(row["crash"]) > 0.0

    def test_json_mirrors_csv_fields(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--format", "json", *FAST)
        assert code == 0
        data = json.loads(out)
        assert isinstance(data, list) and len(data) == 1
        assert set(data[0]) == set(COLUMNS)
        assert data[0]["engine"] == "analytical"
        assert data[0]["mc_iterations"] is None

    def test_output_file_and_env_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PAULITREE_OUTPUT_DIR", str(tmp_path))
        code, out, _ = run_cli(capsys, "run", "--output", "report.csv", *FAST)
        assert code == 0 and out == ""
        rows = parse_csv((tmp_path / "report.csv").read_text())
        assert rows[0]["engine"] == "analytical"
        # explicit paths are not redirected
        explicit = tmp_path / "sub.csv"
        code, _, _ = run_cli(capsys, "run", "--output", str(explicit), *FAST)
        assert code == 0 and explicit.exists()

    def test_params_file(self, tmp_path, capsys):
        cfg = tmp_path / "noise.cfg"
        cfg.write_text("two_qubit_op_error = 0\none_qubit_op_error = 0\n"
                       "measurement_error = 0\nreset_error = 0\n"
                       "memory_decay_s = 1e30\noperation_decay_s = 1e30\n")
        code, out, _ = run_cli(capsys, "run", "--params", str(cfg),
                               "--mode", "montecarlo", "--mc-iterations", "50")
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["crash"]) == 0.0

    def test_bad_params_file_is_a_clean_error(self, tmp_path, capsys):
        cfg = tmp_path / "noise.cfg"
        cfg.write_text("frobnication = 1\n")
        code, _, err = run_cli(capsys, "run", "--params", str(cfg))
        assert code == 2
        assert "frobnication" in err
        code, _, err = run_cli(capsys, "run", "--params", str(tmp_path / "nope"))
        assert code == 2


class TestSweep:
    def test_grid_rows_and_inaccuracy_baseline(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep",
            "--event-th", "1e-4,1e-5",
            "--merge-th", "1e-8",
            "--merge-mode", "preservation",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        by_event = {row["event_threshold"]: row for row in rows}
        assert float(by_event["1e-05"]["inaccuracy"]) == 0.0  # its own baseline
        assert float(by_event["0.0001"]["inaccuracy"]) >= 0.0

    def test_modes_multiply_the_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--event-th", "1e-4", "--merge-th", "1e-8",
            "--merge-mode", "preservation,lossy",
        )
        assert code == 0
        rows = parse_csv(out)
        assert sorted(r["merge_mode"] for r in rows) == ["lossy", "preservation"]

    def test_empty_grid_rejected(self):
        with pytest.raises(SystemExit, match="empty threshold grid"):
            main(["sweep", "--event-th", ""])

    def test_jobs_capped_at_the_grid_size(self, capsys, monkeypatch):
        sizes = []

        class RecordingPool:
            """Records the pool size and maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        grid = ["--merge-th", "1e-8", "--merge-mode", "preservation"]
        code, out, _ = run_cli(capsys, "sweep", "--jobs", "64", "--event-th", "1e-4,1e-5", *grid)
        assert code == 0
        assert sizes == [2]
        assert [r["event_threshold"] for r in parse_csv(out)] == ["0.0001", "1e-05"]
        # a one-point grid runs in this process
        code, _, _ = run_cli(capsys, "sweep", "--jobs", "64", "--event-th", "1e-4", *grid)
        assert code == 0 and sizes == [2]


class TestCompare:
    def test_speedup_on_the_mc_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--mc-iterations", "400", *FAST,
        )
        assert code == 0
        a, m = parse_csv(out)
        assert a["speedup"] == ""
        assert float(m["speedup"]) == pytest.approx(
            float(m["wall_time_ms"]) / float(a["wall_time_ms"])
        )

    def test_rejects_single_engine_mode(self, capsys):
        with pytest.raises(SystemExit):
            main(["compare", "--mode", "analytical"])


class TestParser:
    def test_unknown_arguments_exit(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--bogus"])
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults_match_published_sweep_bounds(self):
        args = build_parser().parse_args(["sweep"])
        assert args.event_th == [1e-5, 1e-6, 1e-7]
        assert args.merge_th == [1e-10, 1e-12, 1e-14, 1e-16]
        assert args.merge_mode == ["preservation", "lossy"]
