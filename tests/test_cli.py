import csv
import io
import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from paulitree import NoiseParams, Thresholds, build_basic_program, cli, run_analytical
from paulitree.cli import COLUMNS, build_parser, main
from paulitree.program import Program, program_hash


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
        assert "shards" not in m
        assert int(m["threads"]) >= 1
        assert float(m["mc_ci95_low"]) <= float(m["crash"]) <= float(m["mc_ci95_high"])
        # the rows an event hit, about 9% at 1x
        assert 0 < int(m["mc_faulted_rows"]) < 500
        assert a["mc_faulted_rows"] == ""
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
        # 22 of the 24 ancilla preparations repeat an earlier one
        assert int(a["segments_replayed"]) == rep.segments_replayed == 22
        assert m["branch_calls"] == m["segments_replayed"] == ""
        assert COLUMNS.index("segments_replayed") == COLUMNS.index("branch_calls") + 1

    def test_scaling_program_and_scale_knob(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--program", "scaling", "--n", "2",
            "--scale", "100", "--mode", "montecarlo",
            "--mc-iterations", "300",
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert row["program"] == "scaling"
        assert row["n"] == "2"
        # at 100x noise a few hundred iterations see crashes
        assert float(row["crash"]) > 0.0

    def test_bare_run_is_the_basic_1x_point(self, capsys):
        # exact thresholds (0) would not finish on the basic program
        code, out, _ = run_cli(capsys, "run")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["engine"] == "analytical" and row["error"] == ""
        assert (row["event_threshold"], row["merge_threshold"]) == ("1e-06", "1e-12")
        assert 3.8e-5 < float(row["crash"]) < 4.0e-5
        for command in ("run", "compare"):
            args = build_parser().parse_args([command])
            assert (args.event_th, args.merge_th) == (1e-6, 1e-12)

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

    @staticmethod
    def recording_pool(log, fail=None):
        """A stand-in for ProcessPoolExecutor that runs its initializer and
        maps in this process, logging its arguments and mapped items; with
        ``fail``, its map raises that exception instead."""

        class RecordingPool:
            def __init__(self, max_workers, initializer=None, initargs=()):
                log.append(("pool", max_workers, initargs))
                if initializer is not None:
                    initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                if fail is not None:
                    raise fail
                items = list(items)
                log.append(("map", items))
                return map(fn, items)

        return RecordingPool

    def test_jobs_capped_at_the_grid_size(self, capsys, monkeypatch):
        log = []
        monkeypatch.setattr(cli, "ProcessPoolExecutor", self.recording_pool(log))
        grid = ["--merge-th", "1e-8", "--merge-mode", "preservation"]
        code, out, _ = run_cli(capsys, "sweep", "--jobs", "64", "--event-th", "1e-4,1e-5", *grid)
        assert code == 0
        assert [e[1] for e in log if e[0] == "pool"] == [2]
        assert [r["event_threshold"] for r in parse_csv(out)] == ["0.0001", "1e-05"]
        # a one-point grid runs in this process
        code, _, _ = run_cli(capsys, "sweep", "--jobs", "64", "--event-th", "1e-4", *grid)
        assert code == 0 and [e[1] for e in log if e[0] == "pool"] == [2]

    def test_workers_get_the_program_once(self, capsys, monkeypatch):
        log = []
        monkeypatch.setattr(cli, "ProcessPoolExecutor", self.recording_pool(log))
        code, out, _ = run_cli(capsys, "sweep", "--jobs", "2", "--event-th", "1e-3,1e-4",
                               "--merge-th", "1e-6,1e-8", "--merge-mode", "preservation")
        assert code == 0
        (_, _, initargs), (_, items) = log
        # the program goes to each worker with its initializer, and the
        # mapped grid points are thresholds alone
        assert [type(a) for a in initargs] == [dict, Program]
        assert len(items) == 4 and all(isinstance(th, Thresholds) for th in items)
        assert len(parse_csv(out)) == 4

    def test_a_dead_worker_ends_the_sweep_cleanly(self, capsys, monkeypatch):
        died = BrokenProcessPool("A process in the process pool was terminated abruptly")
        monkeypatch.setattr(cli, "ProcessPoolExecutor", self.recording_pool([], died))
        with pytest.raises(SystemExit, match="worker process died.*terminated abruptly"):
            main(["sweep", "--jobs", "2", "--event-th", "1e-3,1e-4", *FAST[2:]])

    def test_worker_processes_match_a_serial_sweep(self, capsys):
        argv = ["sweep", "--event-th", "1e-2,1e-3", "--merge-th", "1e-4",
                "--merge-mode", "preservation"]
        _, serial, _ = run_cli(capsys, *argv)
        code, pooled, _ = run_cli(capsys, *argv, "--jobs", "2")
        assert code == 0

        def strip(rows):
            return [{k: v for k, v in r.items() if k != "wall_time_ms"} for r in rows]

        assert strip(parse_csv(pooled)) == strip(parse_csv(serial))


class TestProgramHash:
    @pytest.mark.parametrize("argv, rows", [
        (["sweep", "--event-th", "1e-2,1e-3", "--merge-th", "1e-4,1e-6",
          "--merge-mode", "preservation"], 4),
        (["run", "--mode", "both", "--mc-iterations", "200", *FAST], 2),
    ], ids=["serial-sweep", "run-both"])
    def test_the_program_is_hashed_once_per_invocation(self, capsys, monkeypatch, argv, rows):
        digests = []

        def spy(prog):
            digests.append(program_hash(prog))
            return digests[-1]

        monkeypatch.setattr(cli, "program_hash", spy)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(digests) == 1
        assert [r["program_hash"] for r in parse_csv(out)] == digests * rows


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

    @pytest.mark.parametrize("argv", [
        ["run", "--shards", "2"],
        ["compare", "--shards", "2"],
        ["run", "--jobs", "2"],
        ["compare", "--jobs", "2"],
    ])
    def test_jobs_only_on_sweep_and_no_shards(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert build_parser().parse_args(["sweep", "--jobs", "2"]).jobs == 2

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--jobs", jobs])
        assert exc.value.code == 2
        assert "argument --jobs: must be at least 1, got %s" % jobs in capsys.readouterr().err
