import json
import subprocess
import sys

import numpy as np
import pytest

import blurshift as bs
from blurshift.cli import main
from blurshift.engine import StopRule, run_bms
from blurshift.io import ParseError, emit_trace, load_points, trace_line

from synth_data import make_dataset


class TestLoadPoints:
    def test_plain_csv(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0.0,1.0\n2.0,3.0\n4.0,5.0\n")
        cfg = load_points(p)
        assert (cfg.n, cfg.d) == (3, 2)
        assert cfg.points[2, 1] == 5.0

    def test_header_detected_and_skipped(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
        cfg = load_points(p)
        assert (cfg.n, cfg.d) == (2, 2)

    def test_non_numeric_cell_reports_row_col(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("1.0,2.0\n3.0,abc\n")
        with pytest.raises(ParseError, match=r"row 2.*col 2"):
            load_points(p)

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match="row 2"):
            load_points(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_points(p)

    def test_json_array(self, tmp_path):
        p = tmp_path / "pts.json"
        p.write_text("[[0.5, 1.5], [2.5, 3.5]]")
        cfg = load_points(p)
        assert (cfg.n, cfg.d) == (2, 2)
        assert cfg.points[0, 0] == 0.5

    def test_bad_json(self, tmp_path):
        p = tmp_path / "pts.json"
        p.write_text("{\"not\": \"points\"}")
        with pytest.raises(ParseError):
            load_points(p)

    def test_single_column(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("1.0\n2.0\n")
        assert load_points(p).d == 1

    @pytest.mark.parametrize("text,col", [("1.0,2.O\n3.0,4.0\n5.0,6.0\n", 2),
                                          ("x,1\n3,4\n", 1)], ids=["typo", "mixed"])
    def test_first_row_with_a_number_is_data(self, tmp_path, text, col):
        # a first row with some numeric cell is no header: its bad cell is
        # an error, where it used to drop the row and load the rest
        p = tmp_path / "pts.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match=f"row 1:col {col}: non-numeric cell"):
            load_points(p)

    @pytest.mark.parametrize("name,text,match", [
        ("header.csv", "x,y\n", "no data rows"),
        ("empty.json", "[]", "no data rows"),
        ("inf.json", "[[1e999, 0]]", "non-finite coordinates"),
        ("broken.json", "[[1, 2]", "invalid JSON"),
    ], ids=["header-only", "empty-json", "infinite-json", "broken-json"])
    def test_unusable_file_is_a_parse_error(self, tmp_path, name, text, match):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ParseError, match=match):
            load_points(p)

    @pytest.mark.parametrize("cell", ['"1"', '"0x1p3"', '"nan"', "true"],
                             ids=["string-one", "string-hex", "string-nan", "bool"])
    def test_json_cell_must_be_a_json_number(self, tmp_path, cell):
        # float() reads the strings "1" and "nan" as numbers, and a bool is
        # an int to Python: none of these cells is a JSON number
        p = tmp_path / "pts.json"
        p.write_text(f"[[0.5, 1.5], [2.5, {cell}]]")
        with pytest.raises(ParseError, match=r"row 2:col 2: non-numeric cell"):
            load_points(p)

    @pytest.mark.parametrize("name,text,match", [
        ("cell.csv", "x,y\n1,2\n3,4\n5,abc\n", r":row 4:col 2: non-numeric cell 'abc'$"),
        ("short.csv", "x,y\n1,2\n3,4\n5\n", r":row 4: expected 2 columns, found 1$"),
        ("long.csv", "1,2\n3,4\n5,6,7\n", r":row 3: expected 2 columns, found 3$"),
        ("cell.json", "[[1, 2], [3, 4], [5, null]]", r":row 3:col 2: non-numeric cell None$"),
        ("short.json", "[[1, 2], [3, 4], [5]]", r":row 3: expected 2 columns, found 1$"),
        ("ragged-first.csv", "1,2\n3\n5,abc\n", r":row 2: expected 2 columns, found 1$"),
        ("cell-first.csv", "1,2\n3,abc\n5\n", r":row 2:col 2: non-numeric cell 'abc'$"),
    ])
    def test_first_bad_row_is_named_wherever_it_is(self, tmp_path, name, text, match):
        # the cells are parsed all at once; a fault, even in the last row,
        # still names the first bad row and cell
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ParseError, match=match):
            load_points(p)

    def test_json_numbers_load_as_their_floats(self, tmp_path):
        p = tmp_path / "pts.json"
        p.write_text("[[1, -0.0], [0.1, 12345678901234567890]]")
        cfg = load_points(p)
        assert cfg.points.tobytes() == np.array(
            [[1.0, -0.0], [0.1, 12345678901234567890.0]]).tobytes()

    def test_unknown_format_rejected(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("1.0\n")
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            load_points(p, fmt="xml")


def _tiny_run():
    return run_bms([[0.0], [0.4]], bs.builtin("gaussian"), 1.0,
                   stop=StopRule(max_iter=3))


class TestTrace:
    def test_single_record_line(self, tmp_path):
        run = run_bms([[0.0], [0.4]], bs.builtin("gaussian"), 1.0,
                      stop=StopRule(max_iter=1))
        path = tmp_path / "trace.jsonl"
        emit_trace(run.records, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert set(parsed) == {"t", "L", "d", "rho", "max_move", "M",
                               "closed", "singular", "stable"}

    def test_round_trip_precision(self):
        run = _tiny_run()
        for record in run.records:
            parsed = json.loads(trace_line(record))
            assert parsed["L"] == record.objective
            assert parsed["d"] == record.diameter
            assert parsed["rho"] == record.comp_diameter
            assert parsed["max_move"] == record.max_move
            assert parsed["t"] == record.t
            assert parsed["closed"] == record.closed

    def test_empty_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        emit_trace([], path)
        assert path.read_text() == ""


@pytest.fixture()
def blob_csv(tmp_path):
    pts, _ = make_dataset("two_blobs", n=80)
    path = tmp_path / "blobs.csv"
    np.savetxt(path, pts, delimiter=",", fmt="%.17g")
    return path


class TestCliCommands:
    def test_cluster_command(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "result.json"
        trace = tmp_path / "trace.jsonl"
        code = main(["cluster", "--input", str(blob_csv), "--kernel", "epanechnikov",
                     "--h", "0.8", "--standardize", "--move-tol", "0",
                     "--out", str(out), "--trace", str(trace)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["M"] == 2
        assert payload["stop_reason"] == "exact_fixed_point"
        assert len(payload["labels"]) == 80
        assert len(trace.read_text().splitlines()) == payload["T"]
        assert "clusters=2" in capsys.readouterr().out

    def test_cluster_trace_runs_the_iteration_once(self, blob_csv, tmp_path, monkeypatch):
        calls = []
        real = run_bms

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # every blurshift module that bound run_bms, as the CLI may reach it
        for mod in [m for name, m in sys.modules.items() if name.startswith("blurshift")]:
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counting)
        trace = tmp_path / "trace.jsonl"
        code = main(["cluster", "--input", str(blob_csv), "--kernel", "gaussian",
                     "--h", "0.5", "--max-iter", "6", "--out", str(tmp_path / "r.json"),
                     "--trace", str(trace)])
        assert code == 0
        assert len(calls) == 1
        run = real(load_points(blob_csv), bs.builtin("gaussian"), 0.5,
                   stop=StopRule(max_iter=6))
        assert trace.read_text().splitlines() == [trace_line(r) for r in run.records]

    def test_trace_command(self, blob_csv, tmp_path):
        trace = tmp_path / "t.jsonl"
        code = main(["trace", "--input", str(blob_csv), "--kernel", "gaussian",
                     "--h", "0.5", "--max-iter", "4", "--out", str(trace)])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert len(lines) == 4
        assert json.loads(lines[0])["t"] == 1

    @pytest.mark.parametrize("h", ["-1", "1e200"])
    def test_failed_trace_leaves_no_output(self, blob_csv, tmp_path, capsys, h):
        # an empty trace would read as a valid zero-step run
        trace = tmp_path / "t.jsonl"
        code = main(["trace", "--input", str(blob_csv), "--kernel", "gaussian",
                     "--h", h, "--out", str(trace)])
        assert code == 2
        assert "bandwidth" in capsys.readouterr().err
        assert not trace.exists()

    def test_verify_command_passes(self, blob_csv, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["verify", "--input", str(blob_csv), "--kernel", "epanechnikov",
                     "--h", "0.6", "--fuzz", "50", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert payload["fuzz_mismatches"] == 0
        assert any(c["name"] == "objective_ascent" for c in payload["checks"])
        assert "verify: pass" in capsys.readouterr().out

    def test_verify_tricube_is_a_usage_error(self, blob_csv, tmp_path, capsys):
        # g(0) = 0: the checks' constants cannot be formed, which is not a
        # failed check (exit 1)
        report = tmp_path / "report.json"
        code = main(["verify", "--input", str(blob_csv), "--kernel", "tricube",
                     "--h", "0.6", "--report", str(report)])
        assert code == 2
        assert "kernel 'tricube' has g(0) = 0.0" in capsys.readouterr().err
        assert not report.exists()

    def test_verify_inject_descent_fails(self, blob_csv, tmp_path):
        code = main(["verify", "--input", str(blob_csv), "--kernel", "epanechnikov",
                     "--h", "0.6", "--inject-descent"])
        assert code == 1

    def test_oracle_simplex_csv(self, tmp_path):
        out = tmp_path / "simplex.csv"
        code = main(["oracle", "simplex", "--kernel", "gaussian", "--n", "2",
                     "--d", "1", "--h", "1", "--r0", "0.99", "--steps", "6",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,r_oracle,r_sim,ratio"
        assert len(lines) == 8
        first = lines[1].split(",")
        assert float(first[1]) == 0.99

    def test_oracle_population_stdout(self, capsys):
        code = main(["oracle", "population", "--s0", "1.0", "--h", "1.0",
                     "--steps", "5"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "t,s,ratio"
        assert float(out[1].split(",")[1]) == 1.0
        assert float(out[2].split(",")[1]) == 0.5

    @pytest.mark.parametrize("kind,args", [
        ("simplex", ["--kernel", "gaussian", "--n", "2", "--d", "1", "--h", "1",
                     "--r0", "0.99"]),
        ("population", ["--s0", "1.0", "--h", "1.0"]),
    ])
    @pytest.mark.parametrize("steps", ["-1", "-2"])
    def test_oracle_negative_steps_exit_2(self, kind, args, steps, capsys):
        code = main(["oracle", kind, *args, "--steps", steps])
        assert code == 2
        assert f"steps must be an integer >= 0, got {steps}" in capsys.readouterr().err

    def test_oracle_population_out_of_range_bandwidth_exit_2(self, capsys):
        # h * h overflowed, and the run printed the collapse 1, 0, 0
        code = main(["oracle", "population", "--s0", "1.0", "--h", "inf", "--steps", "2"])
        assert code == 2
        assert "bandwidth inf is out of range" in capsys.readouterr().err

    def test_sweep_command(self, blob_csv, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--input", str(blob_csv), "--kernel", "epanechnikov",
                     "--h-min", "0.5", "--h-max", "1.5",
                     "--h-step", "0.5", "--standardize", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "h,M,T,L_final"
        assert len(lines) == 4

    def test_sweep_nan_h_step_is_a_usage_error(self, blob_csv, tmp_path, capsys):
        code = main(["sweep", "--input", str(blob_csv), "--kernel", "epanechnikov",
                     "--h-min", "0.5", "--h-max", "1.5", "--h-step", "nan",
                     "--out", str(tmp_path / "sweep.csv")])
        assert code == 2
        assert "--h-step must be positive, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds,message", [
        (("0.5", "inf", "0.5"), "--h-max must be finite, got inf"),
        (("nan", "1.5", "0.5"), "--h-min must be finite, got nan"),
        (("-inf", "1.5", "0.5"), "--h-min must be finite, got -inf"),
        (("0.5", "1.5", "1e-5"), "the grid has 100001 bandwidths, more than 10000"),
        (("-1e308", "1e308", "1e-300"), "the grid has inf bandwidths, more than 10000"),
    ])
    def test_sweep_rejects_bad_grid_bounds(self, blob_csv, tmp_path, capsys,
                                           bounds, message):
        out = tmp_path / "sweep.csv"
        h_min, h_max, h_step = bounds
        code = main(["sweep", "--input", str(blob_csv), "--kernel", "epanechnikov",
                     f"--h-min={h_min}", f"--h-max={h_max}", f"--h-step={h_step}",
                     "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--fuzz", "-3"), ("--directions", "0"),
                                            ("--directions", "-3")])
    def test_verify_rejects_bad_counts(self, blob_csv, tmp_path, capsys, flag, value):
        report = tmp_path / "report.json"
        code = main(["verify", "--input", str(blob_csv), "--kernel", "epanechnikov",
                     "--h", "1.5", flag, value, "--report", str(report)])
        assert code == 2
        assert flag.lstrip("-") in capsys.readouterr().err
        assert not report.exists()

    def test_missing_input_file(self, tmp_path):
        code = main(["cluster", "--input", str(tmp_path / "nope.csv"),
                     "--kernel", "gaussian", "--h", "1.0",
                     "--out", str(tmp_path / "o.json")])
        assert code == 2

    def test_unknown_kernel(self, blob_csv, tmp_path):
        code = main(["cluster", "--input", str(blob_csv), "--kernel", "sombrero",
                     "--h", "1.0", "--out", str(tmp_path / "o.json")])
        assert code == 2

    def test_custom_kernel_descriptor_path(self, blob_csv, tmp_path):
        kern = tmp_path / "flat.json"
        kern.write_text(json.dumps({
            "id": "flat_triangle",
            "samples": {"u": [0.0, 1.0, 1.5], "k": [1.0, 0.0, 0.0]},
            "beta": 2.0 ** 0.5,
            "class": "non_smoothly_truncated",
        }))
        out = tmp_path / "res.json"
        code = main(["cluster", "--input", str(blob_csv), "--kernel", str(kern),
                     "--h", "0.8", "--standardize", "--move-tol", "0",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kernel"] == "flat_triangle"
        assert payload["M"] == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["cluster", "--kernel", "gaussian"])
        assert err.value.code == 2

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\noops,3.0\n")
        code = main(["cluster", "--input", str(bad), "--kernel", "gaussian",
                     "--h", "1.0", "--out", str(tmp_path / "o.json")])
        assert code == 2


class TestCliDeterminism:
    def _run(self, args, cwd, env):
        return subprocess.run([sys.executable, "-m", "blurshift", *args],
                              cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=120)

    def test_byte_identical_outputs(self, blob_csv, tmp_path, cli_env):
        outputs = []
        for tag in ("a", "b"):
            res = tmp_path / f"result_{tag}.json"
            trace = tmp_path / f"trace_{tag}.jsonl"
            report = tmp_path / f"report_{tag}.json"
            proc1 = self._run(["cluster", "--input", str(blob_csv),
                               "--kernel", "epanechnikov", "--h", "0.8",
                               "--standardize", "--out", str(res),
                               "--trace", str(trace)], tmp_path, cli_env)
            assert proc1.returncode == 0, proc1.stderr
            proc2 = self._run(["verify", "--input", str(blob_csv),
                               "--kernel", "epanechnikov", "--h", "0.6",
                               "--fuzz", "25", "--report", str(report)],
                              tmp_path, cli_env)
            assert proc2.returncode == 0, proc2.stderr
            outputs.append((res.read_bytes(), trace.read_bytes(),
                            report.read_bytes(), proc1.stdout, proc2.stdout))
        assert outputs[0] == outputs[1]
