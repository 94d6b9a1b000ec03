import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import groupform.cli as cli
from groupform import LatticeState, TorusShape, analytic_densities
from groupform.cli import main
from groupform.montecarlo import p_grid
from groupform.verify import CheckResult

from conftest import FIG_EXAMPLE


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class Stopped(Exception):
    pass


class StopAfterLines(io.StringIO):
    """A stand-in stderr that raises ``Stopped`` from the flush of its ``lines``-th line:
    a run stopped from its progress callback once that many points are complete."""

    def __init__(self, lines):
        super().__init__()
        self.lines = lines

    def flush(self):
        if self.getvalue().count("\n") >= self.lines:
            raise Stopped


def stop_after(k, fn):
    """``fn``, but raising ``Stopped`` on the call after its ``k``-th: a run stopped mid-output."""
    calls = 0

    def stopping(*args):
        nonlocal calls
        calls += 1
        if calls > k:
            raise Stopped
        return fn(*args)

    return stopping


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

    def test_seed_with_state_file_is_usage_error(self, tmp_path, capsys):
        state_path = write_json(tmp_path / "z5.json", {"dims": [5], "values": [1, 1, 1, 0, 0]})
        assert main(["simulate", "--state", state_path, "--seed", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: give either --state or --dims/--p/--seed, not both\n"

    @pytest.mark.parametrize(
        "exc, line",
        [
            (
                MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"),
                "error: Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)\n",
            ),
            (MemoryError(), "error: MemoryError\n"),
        ],
        ids=["numpy", "bare"],
    )
    def test_allocation_failure_is_usage_error(self, exc, line, monkeypatch, tmp_path, capsys):
        # a stand-in for the draw: a real allocation this size may be granted by an overcommitting host
        def unallocatable(shape, p, seed):
            raise exc

        monkeypatch.setattr(cli, "bernoulli_state", unallocatable)
        out = tmp_path / "trajectory.jsonl"
        assert main(["simulate", "--dims", "1000000,1000000", "--p", "0.5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", line)
        assert not out.exists()

    def test_random_state_defaults_to_seed_zero(self, tmp_path):
        args = ["simulate", "--dims", "12", "--p", "0.5"]
        assert main(args + ["--out", str(tmp_path / "default.jsonl")]) == 0
        assert main(args + ["--seed", "0", "--out", str(tmp_path / "zero.jsonl")]) == 0
        default = (tmp_path / "default.jsonl").read_bytes()
        assert default == (tmp_path / "zero.jsonl").read_bytes()
        manifest = json.loads((tmp_path / "default.jsonl.manifest.json").read_text())
        assert manifest["master_seed"] == 0 and manifest["parameters"]["seed"] == 0

    def test_stopped_rerun_leaves_no_manifest(self, tmp_path, monkeypatch):
        # a rerun into a complete run's --out removes its manifest before the first state is written
        out = tmp_path / "trajectory.jsonl"
        args = ["simulate", "--dims", "40", "--p", "0.8", "--seed", "2", "--out", str(out)]
        assert main(args) == 0
        complete = out.read_bytes()
        assert complete.count(b"\n") > 4
        monkeypatch.setattr(cli, "step", stop_after(2, cli.step))
        with pytest.raises(Stopped):
            main(args)
        assert out.read_bytes().count(b"\n") < complete.count(b"\n")
        assert not (tmp_path / "trajectory.jsonl.manifest.json").exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--p", "1.5"], "--p"),
            (["--p", "0.5", "--max-steps", "0"], "--max-steps"),
            (["--p", "0.5", "--max-steps", "-3"], "--max-steps"),
        ],
        ids=["p", "max-steps-0", "max-steps-neg"],
    )
    def test_out_of_range_flag_is_usage_error(self, flags, named, tmp_path, capsys):
        out = tmp_path / "trajectory.jsonl"
        assert main(["simulate", "--dims", "5", *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: argument {named}:")
        assert not out.exists()
        assert not (tmp_path / "trajectory.jsonl.manifest.json").exists()

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

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_stopped_sweep_keeps_finished_points(self, threads, tmp_path, monkeypatch):
        # each stopped run reuses the directory of a complete one: the finished
        # points' rows are a prefix of the complete file, and no manifest is left
        config = write_json(tmp_path / "config.json", self._config_payload(p_steps=4))
        out = tmp_path / "out"
        assert main(["sweep", config, "--out", str(out), "--threads", threads]) == 0
        complete = (out / "sweep.csv").read_bytes()
        for k in (1, 3):
            monkeypatch.setattr(sys, "stderr", StopAfterLines(k))
            with pytest.raises(Stopped):
                main(["sweep", config, "--out", str(out), "--threads", threads])
            stopped = (out / "sweep.csv").read_bytes()
            assert stopped.count(b"\n") == 1 + 6 * k
            assert complete.startswith(stopped)
            assert not (out / "manifest.json").exists()

    def test_invalid_config_names_field(self, tmp_path, capsys):
        # the message names the JSON key, which is also the SweepConfig field
        for samples in (0, "4"):
            config = write_json(tmp_path / "config.json", self._config_payload(samples=samples))
            assert main(["sweep", config, "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert "samples" in err and "samples_per_p" not in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seed_outside_64_bits_is_usage_error(self, seed, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", self._config_payload(master_seed=seed))
        assert main(["sweep", config, "--out", str(tmp_path / "out")]) == 2
        assert "master_seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        assert [float(row["p"]) for row in rows] == p_grid(1.0, 4)
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

    def test_stopped_rerun_leaves_no_manifest(self, tmp_path, monkeypatch):
        out = tmp_path / "primitive.csv"
        args = ["primitive", "--m", "20", "--p-steps", "4", "--seeds", "2", "--out", str(out)]
        assert main(args) == 0
        monkeypatch.setattr(cli, "replica_densities", stop_after(2, cli.replica_densities))
        with pytest.raises(Stopped):
            main(args)
        assert out.read_text().count("\n") <= 3  # the header and at most the two finished rows
        assert not (tmp_path / "primitive.csv.manifest.json").exists()

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

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_is_usage_error(self, seed, capsys):
        assert main(["primitive", "--m", "10", "--p-steps", "1", "--seeds", "1", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: argument --seed:")

    def test_deterministic_output(self, tmp_path):
        args = ["primitive", "--m", "30", "--p-steps", "3", "--seeds", "2", "--seed", "8"]
        main(args + ["--out", str(tmp_path / "a.csv")])
        main(args + ["--out", str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_pinned_stdout_bytes(self, capsys):
        # recorded before the CSV writer was shared with the figure datasets
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


class TestFigureScript:
    def test_onestep_table_matches_primitive_command(self, tmp_path, monkeypatch):
        # a stand-in sampler whose rows spell out its arguments keeps the 100-replica table cheap
        monkeypatch.setattr(cli, "replica_densities", lambda m, p, i, seeds, seed: ((m, i, seeds), (seed, p, 0)))
        assert main(["figures", "--out", str(tmp_path), "--experiment", "onestep"]) == 0
        args = ["primitive", "--m", "10000", "--p-max", "1.0", "--p-steps", "100", "--seeds", "100"]
        assert main(args + ["--seed", "20260810", "--out", str(tmp_path / "cli.csv")]) == 0
        onestep = tmp_path / "onestep_densities.csv"
        assert onestep.read_bytes() == (tmp_path / "cli.csv").read_bytes()
        figures_manifest = json.loads((tmp_path / "onestep_densities.csv.manifest.json").read_text())
        cli_manifest = json.loads((tmp_path / "cli.csv.manifest.json").read_text())
        assert figures_manifest["command"] == "primitive"
        assert figures_manifest["parameters"] == cli_manifest["parameters"]
        assert figures_manifest["master_seed"] == cli_manifest["master_seed"] == cli.MASTER_SEED
        assert figures_manifest["outputs"] == [str(onestep)]

    # recorded before the CSV writers stopped formatting floats themselves;
    # each dataset is one sample_points job, run serially and on a pool
    def test_pinned_relaxation_curves(self, tmp_path):
        for threads in (1, 2):
            path = tmp_path / f"relaxation-{threads}.csv"
            cli.write_dataset(str(path), cli.relaxation((30, 60), 3), threads=threads)
            assert path.read_text() == (
                "p,m,mean_n_st,settled,samples\n"
                "0.35,30,2.3333333333333335,3,3\n"
                "0.35,60,7.333333333333333,3,3\n"
                "0.6,30,9.0,3,3\n"
                "0.6,60,12.0,3,3\n"
                "0.85,30,26.0,1,3\n"
                "0.85,60,29.0,2,3\n"
            ), threads

    def test_pinned_dense_2d_histograms(self, tmp_path):
        for threads in (1, 2):
            path = tmp_path / f"dense-{threads}.csv"
            cli.write_dataset(str(path), cli.dense_2d(2), threads=threads)
            lines = path.read_text().splitlines()
            assert lines[:3] == ["p,r,mean_Q", "0.9,1,0.018175", "0.9,2,0.0151"]
            assert "0.9,34,8.75e-05" in lines and lines[-1] == "0.99,61,1.25e-05"
            assert len(lines) == 100
            assert hashlib.sha256(path.read_bytes()).hexdigest() == (
                "c53e7f5e4e19147a05fe81262d5fed4a3251642b6404707a44696406254ad37b"
            ), threads

    def test_density_dataset_matches_sweep_command(self, tmp_path):
        payload = {"dims": [30], "p_max": 0.96, "p_steps": 96, "samples": 3, "master_seed": 20260810}
        config = write_json(tmp_path / "config.json", payload)
        for threads in (1, 2):
            path = tmp_path / f"density-{threads}.csv"
            cli.write_dataset(str(path), cli.density((30,), 3), threads=threads)
            out = tmp_path / f"cli-{threads}"
            assert main(["sweep", config, "--out", str(out), "--threads", str(threads)]) == 0
            assert path.read_bytes() == (out / "sweep.csv").read_bytes(), threads

    def test_dataset_manifest_records_points_samples_and_seed(self, tmp_path):
        path = tmp_path / "relaxation.csv"
        cli.write_dataset(str(path), cli.relaxation((30, 60), 3), threads=1)
        manifest = json.loads((tmp_path / "relaxation.csv.manifest.json").read_text())
        assert manifest["outputs"] == [str(path)]
        assert manifest["parameters"] == {
            "points": [[[m], p, 0] for p in (0.35, 0.6, 0.85) for m in (30, 60)],
            "samples": 3,
        }
        assert manifest["master_seed"] == cli.MASTER_SEED
        assert manifest["command"] == "figures"

    def test_stopped_dataset_keeps_finished_points(self, tmp_path, monkeypatch):
        for threads in (1, 2):
            # each stopped run reuses the file of a complete one, whose manifest it removes
            path = tmp_path / f"relaxation-{threads}.csv"
            monkeypatch.setattr(sys, "stderr", io.StringIO())
            cli.write_dataset(str(path), cli.relaxation((30, 60), 3), threads=threads)
            monkeypatch.setattr(sys, "stderr", StopAfterLines(2))
            with pytest.raises(Stopped):
                cli.write_dataset(str(path), cli.relaxation((30, 60), 3), threads=threads)
            assert path.read_text() == (
                "p,m,mean_n_st,settled,samples\n"
                "0.35,30,2.3333333333333335,3,3\n"
                "0.35,60,7.333333333333333,3,3\n"
            ), threads
            assert not (tmp_path / f"relaxation-{threads}.csv.manifest.json").exists()

    @pytest.mark.parametrize("flags", [["--threads", "0"], ["--threads", "-1"], ["--experiment", "nope"]],
                             ids=["0", "-1", "nope"])
    def test_no_workers_is_usage_error(self, flags, tmp_path):
        out = tmp_path / "results"
        run = run_cli("figures", "--out", str(out), *flags)
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr.count("\n") == 1 and run.stderr.startswith("error:")
        assert flags[0] in run.stderr.splitlines()[-1]
        assert not out.exists()

    def test_out_is_a_file_is_usage_error(self, tmp_path):
        out = tmp_path / "results"
        out.write_text("not a directory\n")
        run = run_cli("figures", "--out", str(out), "--experiment", "onestep")
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr.count("\n") == 1 and run.stderr.startswith("error:")
        assert str(out) in run.stderr
        assert out.read_text() == "not a directory\n"


def src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    pythonpath = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}


def run_cli(*args):
    """Run ``python -m groupform.cli`` in a fresh interpreter with src on the path."""
    command = [sys.executable, "-m", "groupform.cli", *args]
    return subprocess.run(command, capture_output=True, text=True, env=src_env(), timeout=60)


def interrupt_after_first_point(command):
    """Start ``command`` in its own process group, send the group a SIGINT, as a Ctrl-C does,
    once the first ``[1/`` progress line is on stderr, and return (exit code, stderr).
    The child starts with SIGINT's default action even if this process ignores it (as a
    background job does), since Python raises ``KeyboardInterrupt`` only from that default."""
    proc = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            env=src_env(), start_new_session=True,
                            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        lines = []
        while not any("[1/" in line for line in lines):
            line = proc.stderr.readline()
            assert line, "".join(lines)
            lines.append(line)
        os.killpg(proc.pid, signal.SIGINT)
        return proc.wait(timeout=60), "".join(lines) + proc.stderr.read()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stderr.close()


class TestProcess:
    def test_bad_flag_exits_2_before_any_output(self, tmp_path):
        payload = {"dims": [24], "p_max": 0.5, "p_steps": 2, "samples": 6, "master_seed": 321}
        config = write_json(tmp_path / "cfg.json", payload)
        out = tmp_path / "d"
        run = run_cli("sweep", config, "--out", str(out), "--threads", "0")
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr == "error: argument --threads: must be >= 1, got 0\n"
        assert not out.exists()

    def test_ctrl_c_is_one_line_and_keeps_finished_points(self, tmp_path):
        # long enough that the run is still going when the SIGINT arrives
        payload = {"dims": [3000], "p_max": 0.96, "p_steps": 96, "samples": 200, "master_seed": 7}
        config = write_json(tmp_path / "cfg.json", payload)
        out = tmp_path / "d"
        code, stderr = interrupt_after_first_point(
            [sys.executable, "-m", "groupform.cli", "sweep", config, "--out", str(out), "--threads", "2"]
        )
        assert code == 130, stderr
        assert "Traceback" not in stderr
        progress = [line for line in stderr.splitlines() if line.startswith("[")]
        assert stderr.splitlines() == progress + ["error: interrupted"]
        rows = (out / "sweep.csv").read_text().count("\n")
        assert (rows - 1) % 6 == 0 and rows > 6 * len(progress) >= 6
        assert not (out / "manifest.json").exists()

    def test_ctrl_c_stops_figure_script_with_one_line(self, tmp_path):
        out = tmp_path / "results"
        code, stderr = interrupt_after_first_point(
            [sys.executable, "-m", "groupform.cli", "figures", "--out", str(out), "--experiment", "density1d",
             "--threads", "2"]
        )
        assert code == 130, stderr
        assert "Traceback" not in stderr
        assert stderr.splitlines()[-1] == "error: interrupted"
        assert not (out / "density_1d_m3000.csv.manifest.json").exists()

    @pytest.mark.parametrize("verb", [[], ["simulate"], ["sweep"], ["primitive"], ["verify"], ["figures"]])
    def test_help_exits_0(self, verb):
        run = run_cli(*verb, "--help")
        assert run.returncode == 0
        assert run.stdout.startswith("usage: groupform")
        assert run.stderr == ""


class TestVerify:
    def test_pass_and_fail_exit_codes(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "quick_checks", lambda: [CheckResult("demo-check", True, "fine", 0.01)])
        assert main(["verify", "--scale", "quick", "--threads", "3"]) == 0
        assert "PASS demo-check" in capsys.readouterr().out

        monkeypatch.setattr(cli, "quick_checks", lambda: [CheckResult("demo-check", False, "broken", 0.01)])
        assert main(["verify"]) == 1
        assert "FAIL demo-check" in capsys.readouterr().out

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_no_workers_is_usage_error(self, monkeypatch, threads, capsys):
        def unreachable():
            raise AssertionError("checks ran despite a bad --threads")

        monkeypatch.setattr(cli, "quick_checks", unreachable)
        assert main(["verify", "--scale", "quick", "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
        assert "--threads" in captured.err

    def test_unknown_scale_rejected(self, capsys):
        assert main(["verify", "--scale", "huge"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
        assert "--scale" in captured.err
