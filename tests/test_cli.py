import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from groupform import LatticeState, TorusShape, analytic_densities
from groupform.cli import main
from groupform.verify import CheckResult

FIG_EXAMPLE = [0, 0, 1, 1, 2, 0, 0, 2, 1, 2, 0, 1, 1, 0]


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestSimulate:
    def test_state_file_trajectory(self, tmp_path, capsys):
        state_path = tmp_path / "initial.json"
        write_json(state_path, LatticeState(TorusShape((14,)), FIG_EXAMPLE).to_json_dict())
        out_path = tmp_path / "trajectory.jsonl"
        code = main(["simulate", "--state", str(state_path), "--out", str(out_path)])
        assert code == 0
        lines = [json.loads(line) for line in out_path.read_text().splitlines()]
        outcome = lines[-1]
        assert outcome["kind"] == "fixed"
        assert outcome["n_st"] == 3
        assert outcome["mass"] == 11
        states = lines[:-1]
        assert len(states) == 4  # T(0) .. T(3)
        assert all(sum(s["values"]) == 11 for s in states)
        assert states[0]["values"] == FIG_EXAMPLE
        assert outcome["steady_state"]["values"] == states[-1]["values"]
        manifest = json.loads((tmp_path / "trajectory.jsonl.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["initial_state"]["values"] == FIG_EXAMPLE
        assert manifest["outputs"] == [str(out_path)]

    def test_periodic_state_flagged(self, tmp_path):
        state_path = tmp_path / "cycle.json"
        write_json(state_path, LatticeState(TorusShape((5,)), [1, 1, 1, 0, 0]).to_json_dict())
        out_path = tmp_path / "cycle.jsonl"
        code = main(["simulate", "--state", str(state_path), "--out", str(out_path)])
        assert code == 0
        lines = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert lines[-1]["kind"] == "periodic"
        assert lines[-1]["period"] == 2
        assert lines[-1]["entry_time"] == 0
        assert len(lines[:-1]) == 3  # entry state, other phase, revisit

    def test_random_state_to_stdout(self, capsys):
        code = main(["simulate", "--dims", "12", "--p", "0.5", "--seed", "3"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0])["dims"] == [12]
        assert json.loads(lines[-1])["kind"] in {"fixed", "periodic", "unresolved"}

    def test_unresolved_warns_but_succeeds(self, tmp_path, capsys):
        state_path = tmp_path / "cycle.json"
        write_json(state_path, LatticeState(TorusShape((5,)), [1, 1, 1, 0, 0]).to_json_dict())
        code = main(["simulate", "--state", str(state_path), "--max-steps", "1", "--out", "-"])
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out.splitlines()[-1])["kind"] == "unresolved"
        assert "warning" in captured.err

    def test_missing_source_is_usage_error(self, capsys):
        assert main(["simulate"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["simulate", "--dims", "5"]) == 2
        assert "--p" in capsys.readouterr().err

    def test_conflicting_sources_is_usage_error(self, tmp_path, capsys):
        state_path = tmp_path / "s.json"
        write_json(state_path, LatticeState(TorusShape((5,)), [1, 0, 0, 0, 0]).to_json_dict())
        assert main(["simulate", "--state", str(state_path), "--dims", "5", "--p", "0.5"]) == 2

    def test_invalid_state_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text in (
            '{"dims": [4], "values": [1, 2]}',
            '{"dims": 5, "values": [1, 0, 0, 0, 0]}',
            '{"dims": [3], "values": [18446744073709551616, 0, 0]}',
            '{"dims": [3], "values": [9223372036854775807, 1, 0]}',
            '{"dims": [3], "values": [true, 0, 0]}',
        ):
            bad.write_text(text)
            assert main(["simulate", "--state", str(bad)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and captured.err.count("\n") == 1
            assert captured.out == ""

    def test_unreadable_state_file_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--state", str(tmp_path / "missing.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["simulate", "--dims", "5", "--p", "0.5", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
        assert "--seed" in captured.err

    # recorded before simulate streamed its states through step
    @pytest.mark.parametrize(
        "values, expected",
        [
            (
                FIG_EXAMPLE,
                '{"dims":[14],"values":[0,0,1,1,2,0,0,2,1,2,0,1,1,0]}\n'
                '{"dims":[14],"values":[0,1,1,0,0,2,2,0,1,0,3,0,0,1]}\n'
                '{"dims":[14],"values":[1,0,0,3,0,0,0,0,3,0,3,0,0,1]}\n'
                '{"dims":[14],"values":[0,1,0,3,0,0,0,0,3,0,3,0,1,0]}\n'
                '{"kind":"fixed","steps_taken":4,"n_st":3,"entry_time":null,"period":null,"mass":11,'
                '"steady_state":{"dims":[14],"values":[0,1,0,3,0,0,0,0,3,0,3,0,1,0]}}\n',
            ),
            (
                [1, 1, 1, 0, 0],
                '{"dims":[5],"values":[1,1,1,0,0]}\n'
                '{"dims":[5],"values":[0,1,0,1,1]}\n'
                '{"dims":[5],"values":[1,1,1,0,0]}\n'
                '{"kind":"periodic","steps_taken":2,"n_st":null,"entry_time":0,"period":2,"mass":3,'
                '"steady_state":{"dims":[5],"values":[1,1,1,0,0]}}\n',
            ),
        ],
        ids=["fixed", "periodic"],
    )
    def test_pinned_stdout_bytes(self, tmp_path, capsys, values, expected):
        state_path = write_json(tmp_path / "initial.json", {"dims": [len(values)], "values": values})
        assert main(["simulate", "--state", state_path]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == ""

    def test_pinned_unresolved_stdout_digest(self, capsys):
        args = ["simulate", "--dims", "12,12", "--p", "0.9", "--seed", "3", "--max-steps", "5"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 7  # T(0) .. T(5), then the outcome
        assert hashlib.sha256(captured.out.encode()).hexdigest() == (
            "e150b522861eef197782d4bb8f8e233653fcced6eb12dbbd775299a9465b293c"
        )
        assert captured.err == "warning: no steady state or cycle within 5 steps\n"


class TestSweep:
    def _config_payload(self, **overrides):
        payload = {
            "dims": [24],
            "p_max": 0.5,
            "p_steps": 2,
            "samples": 6,
            "master_seed": 321,
        }
        payload.update(overrides)
        return payload

    def test_writes_csv_and_manifest(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", self._config_payload())
        out_dir = tmp_path / "out"
        code = main(["sweep", config, "--out", str(out_dir), "--threads", "1"])
        assert code == 0
        with (out_dir / "sweep.csv").open() as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header == [
            "p",
            "r",
            "mean_Q",
            "stderr_Q",
            "mean_N_st",
            "fixed_count",
            "periodic_count",
            "unresolved_count",
            "samples",
        ]
        # three grid points, six rows each: sentinel, r=1..4, tail
        assert len(body) == 18
        assert [row[1] for row in body[:6]] == ["0", "1", "2", "3", "4", "tail"]
        sentinel = body[0]
        assert sentinel[0] == "0.0"
        assert sentinel[4] == "0.0"  # empty initial states settle at once
        assert sentinel[5] == "6" and sentinel[8] == "6"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["parameters"]["master_seed"] == 321
        assert manifest["parameters"]["dims"] == [24]
        progress = capsys.readouterr().err
        assert "[3/3]" in progress

    def test_byte_identical_reruns(self, tmp_path):
        config = write_json(tmp_path / "config.json", self._config_payload())
        main(["sweep", config, "--out", str(tmp_path / "a"), "--threads", "1"])
        main(["sweep", config, "--out", str(tmp_path / "b"), "--threads", "2"])
        assert (tmp_path / "a/sweep.csv").read_bytes() == (tmp_path / "b/sweep.csv").read_bytes()

    def test_output_reproducible_from_manifest(self, tmp_path):
        config = write_json(tmp_path / "config.json", self._config_payload())
        main(["sweep", config, "--out", str(tmp_path / "a"), "--threads", "1"])
        manifest = json.loads((tmp_path / "a/manifest.json").read_text())
        replayed = write_json(tmp_path / "replayed.json", manifest["parameters"])
        main(["sweep", replayed, "--out", str(tmp_path / "b"), "--threads", "1"])
        assert (tmp_path / "a/sweep.csv").read_bytes() == (tmp_path / "b/sweep.csv").read_bytes()

    def test_invalid_config_names_field(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", self._config_payload(samples=0))
        assert main(["sweep", config, "--out", str(tmp_path / "out")]) == 2
        assert "samples" in capsys.readouterr().err

    def test_missing_field_named(self, tmp_path, capsys):
        payload = self._config_payload()
        del payload["p_max"]
        config = write_json(tmp_path / "config.json", payload)
        assert main(["sweep", config, "--out", str(tmp_path / "out")]) == 2
        assert "p_max" in capsys.readouterr().err

    def test_non_integer_dims_named(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", self._config_payload(dims=[30.7]))
        assert main(["sweep", config, "--out", str(tmp_path / "out")]) == 2
        assert "dims" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_workers_is_usage_error(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", self._config_payload())
        assert main(["sweep", config, "--out", str(tmp_path / "out"), "--threads", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
        assert "--threads" in captured.err
        assert not (tmp_path / "out").exists()

    def test_malformed_json(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{oops")
        assert main(["sweep", str(config), "--out", str(tmp_path / "out")]) == 2


class TestPrimitive:
    def test_csv_columns_and_analytic_rows(self, tmp_path):
        out = tmp_path / "primitive.csv"
        code = main(
            ["primitive", "--m", "50", "--p-steps", "4", "--seeds", "3", "--out", str(out)]
        )
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        first, last = rows[0], rows[-1]
        assert float(first["p"]) == 0.0
        assert all(float(first[c]) == 0.0 for c in first.keys() if c != "p")
        assert float(last["p"]) == 1.0
        assert float(last["q1_analytic"]) == 0.125
        assert float(last["q2_analytic"]) == 0.25
        assert float(last["q3_analytic"]) == 0.125
        for row in rows:
            q1, q2, q3 = analytic_densities(float(row["p"]))
            assert float(row["q1_analytic"]) == q1
            assert float(row["q2_analytic"]) == q2
            assert float(row["q3_analytic"]) == q3
            for column in ("q1_mc", "q2_mc", "q3_mc"):
                assert 0.0 <= float(row[column]) <= 1.0
        manifest = json.loads((tmp_path / "primitive.csv.manifest.json").read_text())
        assert manifest["parameters"]["m"] == 50

    def test_odd_m_is_usage_error(self, capsys):
        assert main(["primitive", "--m", "9"]) == 2
        assert "even" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["2", "0", "-2"])
    def test_too_small_m_is_usage_error(self, m, tmp_path, capsys):
        out = tmp_path / "primitive.csv"
        for target in ("-", str(out)):
            assert main(["primitive", "--m", m, "--p-steps", "1", "--seeds", "1", "--out", target]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
            assert "--m" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_no_replicas_is_usage_error(self, seeds, capsys):
        assert main(["primitive", "--m", "10", "--p-steps", "1", "--seeds", seeds]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seeds" in captured.err

    def test_deterministic_output(self, tmp_path):
        args = ["primitive", "--m", "30", "--p-steps", "3", "--seeds", "2", "--seed", "8"]
        main(args + ["--out", str(tmp_path / "a.csv")])
        main(args + ["--out", str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_pinned_stdout_bytes(self, capsys):
        # recorded before the CSV writer was shared with the figure script
        assert main(["primitive", "--m", "50", "--p-steps", "4", "--seeds", "3", "--seed", "9"]) == 0
        assert capsys.readouterr().out == (
            "p,q1_analytic,q2_analytic,q3_analytic,q1_mc,q2_mc,q3_mc,q1_stderr,q2_stderr,q3_stderr\n"
            "0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0\n"
            "0.25,0.177734375,0.033203125,0.001953125,0.16,0.03333333333333333,0.0,"
            "0.011547005383792509,0.006666666666666667,0.0\n"
            "0.5,0.234375,0.109375,0.015625,0.2333333333333333,0.08666666666666667,"
            "0.013333333333333334,0.035276684147527874,0.013333333333333336,0.006666666666666667\n"
            "0.75,0.205078125,0.193359375,0.052734375,0.21999999999999997,0.21333333333333335,"
            "0.02666666666666667,0.011547005383792509,0.006666666666666664,0.017638342073763937\n"
            "1.0,0.125,0.25,0.125,0.12666666666666668,0.24666666666666667,0.12666666666666668,"
            "0.017638342073763937,0.035276684147527874,0.017638342073763937\n"
        )


FIGURE_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_figure_sweeps.py"


class TestFigureScript:
    def test_onestep_table_matches_primitive_command(self, tmp_path):
        spec = importlib.util.spec_from_file_location("run_figure_sweeps", FIGURE_SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        script.onestep_table(str(tmp_path / "onestep.csv"), seeds=2)
        args = ["primitive", "--m", "10000", "--p-max", "1.0", "--p-steps", "100", "--seeds", "2"]
        assert main(args + ["--seed", "20260810", "--out", str(tmp_path / "cli.csv")]) == 0
        assert (tmp_path / "onestep.csv").read_bytes() == (tmp_path / "cli.csv").read_bytes()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_no_workers_is_usage_error(self, threads, tmp_path):
        pythonpath = [str(FIGURE_SCRIPT.parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
        out = tmp_path / "results"
        run = subprocess.run(
            [sys.executable, str(FIGURE_SCRIPT), "--out", str(out), "--threads", threads],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert run.returncode == 2
        assert run.stdout == ""
        assert "--threads" in run.stderr.splitlines()[-1]
        assert not out.exists()


class TestVerify:
    def test_pass_and_fail_exit_codes(self, monkeypatch, capsys):
        import groupform.cli as cli

        monkeypatch.setattr(cli, "quick_checks", lambda: [CheckResult("demo-check", True, "fine", 0.01)])
        assert main(["verify", "--scale", "quick", "--threads", "3"]) == 0
        assert "PASS demo-check" in capsys.readouterr().out

        monkeypatch.setattr(cli, "quick_checks", lambda: [CheckResult("demo-check", False, "broken", 0.01)])
        assert main(["verify"]) == 1
        assert "FAIL demo-check" in capsys.readouterr().out

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_no_workers_is_usage_error(self, monkeypatch, threads, capsys):
        import groupform.cli as cli

        def unreachable():
            raise AssertionError("checks ran despite a bad --threads")

        monkeypatch.setattr(cli, "quick_checks", unreachable)
        assert main(["verify", "--scale", "quick", "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
        assert "--threads" in captured.err

    def test_unknown_scale_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--scale", "huge"])
        assert excinfo.value.code == 2
