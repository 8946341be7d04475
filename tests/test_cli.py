import errno
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tamedlmc
from tamedlmc import cli, constants, potentials, sampler
from tamedlmc.cli import main
from tamedlmc.constants import certified_moduli
from tamedlmc.numerics import RngStream
from tamedlmc.potentials import (
    check_assumption_2,
    make_double_well,
    override_constants,
)


def run(argv):
    return main(argv)


def exit_code(argv):
    """``main``'s exit code, also where argparse rejects a value by
    raising ``SystemExit``."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestSample:
    def test_writes_outputs(self, tmp_path):
        out = tmp_path / "g.csv"
        code = run([
            "sample", "--target", "gaussian", "--dim", "3", "--lambda", "0.1",
            "--chains", "8", "--horizon", "1", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "chain,x1,x2,x3"
        assert len(lines) == 9
        meta = json.loads((tmp_path / "g.meta.json").read_text())
        assert meta["target"] == "gaussian"
        assert meta["n_chains"] == 8
        assert meta["diverged_chains"] == []
        manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
        assert manifest["command"] == "sample"
        assert manifest["resolved_config"]["lambda"] == 0.1
        assert str(out) in manifest["outputs"]
        assert meta["manifest"].endswith("g.csv.manifest.json")

    def test_negative_lambda_exit_2(self, tmp_path):
        code = exit_code([
            "sample", "--target", "gaussian", "--lambda", "-1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_missing_lambda_exit_2(self, tmp_path):
        assert run(["sample", "--target", "gaussian", "--out", str(tmp_path / "x.csv")]) == 2

    def test_unknown_target_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["sample", "--target", "banana", "--lambda", "0.1",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_step_size_warning(self, tmp_path, capsys):
        out = tmp_path / "dw.csv"
        code = run([
            "sample", "--target", "double-well", "--dim", "2", "--lambda", "0.1",
            "--chains", "2", "--horizon", "0.5", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        assert "exceeds the theoretical maximum" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,runs", [
        ("sample --target gaussian --dim 2 --lambda 0.1 --chains 2 --horizon 0.5", 1),
        ("rate --target gaussian --dim 2 --chains 2 --horizon 0.5 --grid 0.1,0.05", 2),
    ])
    def test_chain_run_warning_reaches_caller(self, tmp_path, monkeypatch, argv, runs):
        # a warning raised inside a command's chain run is not swallowed
        run_chains = sampler.run_chains

        def warns(*args, **kwargs):
            warnings.warn("overflow in the kernel", RuntimeWarning)
            return run_chains(*args, **kwargs)

        monkeypatch.setattr(sampler, "run_chains", warns)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv.split() + ["--out", str(tmp_path / "o.csv")]) == 0
        assert [str(w.message) for w in caught] == ["overflow in the kernel"] * runs

    def test_universal_divergence_exit_3(self, tmp_path):
        code = run([
            "sample", "--target", "double-well", "--dim", "2", "--lambda", "0.5",
            "--algorithm", "ula", "--chains", "4", "--horizon", "500",
            "--seed", "3", "--out", str(tmp_path / "u.csv"),
        ])
        assert code == 3

    def test_determinism_and_workers(self, tmp_path):
        outs = []
        for i, extra in enumerate(([], [], ["--workers", "1"])):
            out = tmp_path / f"run{i}.csv"
            assert run([
                "sample", "--target", "mixture", "--dim", "4", "--lambda", "0.05",
                "--chains", "6", "--horizon", "1", "--seed", "9", "--out", str(out),
            ] + extra) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_protocol_scale_run(self, tmp_path):
        # the published protocol shape: 250 chains in dimension 100
        out = tmp_path / "dw.csv"
        assert run([
            "sample", "--target", "double-well", "--dim", "100", "--lambda", "0.01",
            "--beta", "1", "--chains", "250", "--horizon", "400", "--seed", "1",
            "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[:2] == ["chain", "x1"]
        assert len(lines) == 251
        assert lines[1].count(",") == 100

    def test_config_file_and_preset(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chains": 3, "horizon": 0.5}))
        out = tmp_path / "c.csv"
        assert run([
            "sample", "--target", "gaussian", "--dim", "2", "--lambda", "0.1",
            "--seed", "1", "--config", str(cfg), "--out", str(out),
        ]) == 0
        assert len(out.read_text().strip().splitlines()) == 4  # header + 3
        # explicit flag beats config
        out2 = tmp_path / "c2.csv"
        assert run([
            "sample", "--target", "gaussian", "--dim", "2", "--lambda", "0.1",
            "--chains", "5", "--seed", "1", "--config", str(cfg), "--out", str(out2),
        ]) == 0
        assert len(out2.read_text().strip().splitlines()) == 6
        # desk preset sets dim 20
        out3 = tmp_path / "c3.csv"
        assert run([
            "sample", "--target", "gaussian", "--lambda", "0.1", "--preset", "desk",
            "--chains", "2", "--horizon", "0.5", "--seed", "1", "--out", str(out3),
        ]) == 0
        assert out3.read_text().splitlines()[0].count(",") == 20

    def test_config_keys_are_long_option_names(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"lambda": 0.01, "target": "gaussian", "dim": 2, "chains": 10, "horizon": 1}))
        out = tmp_path / "cfg.csv"
        assert run(["sample", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 11
        manifest = json.loads((tmp_path / "cfg.csv.manifest.json").read_text())
        assert manifest["resolved_config"]["lambda"] == 0.01
        # a JSON true sets a switch
        assert run(["sample", "--config", str(cfg), "--out", str(out)]) == 2
        cfg.write_text(json.dumps({"lambda": 0.01, "target": "gaussian", "dim": 2,
                                   "chains": 4, "horizon": 1, "force": True}))
        assert run(["sample", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 5

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": 0.01, "target": "gaussian", "dim": 2}))
        assert run(["sample", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert "'lam'" in capsys.readouterr().err
        # a value is checked like the flag it stands for
        cfg.write_text(json.dumps({"lambda": 0.01, "target": "gaussian", "algorithm": "mala"}))
        with pytest.raises(SystemExit) as exc:
            run(["sample", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()


class TestHistogram:
    def make_samples(self, tmp_path, target="gaussian", dim=2):
        out = tmp_path / "s.csv"
        assert run([
            "sample", "--target", target, "--dim", str(dim), "--lambda", "0.05",
            "--chains", "400", "--horizon", "20", "--seed", "2", "--out", str(out),
        ]) == 0
        return out

    def test_histogram_outputs(self, tmp_path):
        src = self.make_samples(tmp_path)
        out = tmp_path / "h.csv"
        assert run(["histogram", "--in", str(src), "--out", str(out), "--bins", "40"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bin_center,empirical_density,analytic_density"
        assert len(lines) == 41
        summary = json.loads((tmp_path / "h.summary.json").read_text())
        assert summary["target"] == "gaussian"
        assert 0.0 <= summary["ks_statistic"] <= 0.2
        assert abs(summary["normalization_check"] - 1.0) < 1e-6

    def test_missing_input_exit_2(self, tmp_path):
        assert run(["histogram", "--in", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "h.csv")]) == 2

    def test_empty_input_exit_2(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("chain,x1\n")
        assert run(["histogram", "--in", str(bad), "--out", str(tmp_path / "h.csv"),
                    "--target", "gaussian"]) == 2

    def test_double_well_dim_1(self, tmp_path):
        # the first marginal of the 1-D double-well is the whole law
        src, out = tmp_path / "dw1.csv", tmp_path / "dw1h.csv"
        assert run(["sample", "--target", "double-well", "--dim", "1", "--chains", "100",
                    "--lambda", "0.01", "--horizon", "5", "--seed", "1", "--out", str(src)]) == 0
        assert run(["histogram", "--in", str(src), "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "dw1h.summary.json").read_text())
        assert abs(summary["normalization_check"] - 1.0) <= 1e-10

    def test_beta_other_than_1_exit_2(self, tmp_path, capsys):
        # the analytic marginals are the beta = 1 laws
        src, out = tmp_path / "g4.csv", tmp_path / "g4h.csv"
        assert run(["sample", "--target", "gaussian", "--dim", "2", "--beta", "4",
                    "--chains", "2000", "--lambda", "0.01", "--horizon", "20", "--seed", "3",
                    "--out", str(src)]) == 0
        capsys.readouterr()
        assert run(["histogram", "--in", str(src), "--out", str(out)]) == 2
        assert "beta = 4.0" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_range_refused_before_work(self, tmp_path, monkeypatch, capsys):
        def heavy(*args, **kwargs):
            raise AssertionError("the samples were read before --range was checked")

        monkeypatch.setattr(sampler, "load_measure_csv", heavy)
        monkeypatch.setattr(potentials, "marginal_pdf", heavy)
        for lo, hi in (("1", "0"), ("0.5", "0.5")):
            assert run(["histogram", "--in", str(tmp_path / "s.csv"), "--target", "gaussian",
                        "--out", str(tmp_path / "h.csv"), "--range", lo, hi]) == 2
            assert "--range requires lo < hi" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("body,line,why", [
        ("chain,x1,x2\n0,0.1\n1,0.2\n", 2, "2 fields, the header has 3"),
        ("chain,x1\n0,0.5\n1,0.1,0.2\n", 3, "3 fields, the header has 2"),
        ("chain,x1,x2\n0,0.1,0.3\n1,nan,0.2\n", 3, "non-finite coordinate"),
        ("chain,x1\n0,-inf\n", 2, "non-finite coordinate"),
        ("chain,x1\n0,0.5\n1,abc\n", 3, "could not convert string to float: 'abc'"),
        ("chain,x1\n0,0.5\nx,0.1\n", 3, "invalid literal for int() with base 10: 'x'"),
    ])
    def test_malformed_rows_exit_2(self, tmp_path, capsys, body, line, why):
        # a short row was read as a sample of lower dimension, and a NaN
        # failed only when the summary was serialised
        src, out = tmp_path / "s.csv", tmp_path / "h.csv"
        src.write_text(body)
        assert run(["histogram", "--in", str(src), "--out", str(out),
                    "--target", "gaussian"]) == 2
        assert f"cannot read samples from {src}: {src} line {line}: {why}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]

    def test_target_contradicting_metadata_exit_2(self, tmp_path, capsys):
        # a double-well sample scored against the Gaussian marginal exited 0
        src = self.make_samples(tmp_path, target="double-well")
        out = tmp_path / "h.csv"
        capsys.readouterr()
        assert run(["histogram", "--in", str(src), "--out", str(out), "--target", "gaussian"]) == 2
        err = capsys.readouterr().err
        assert "--target gaussian" in err and "'double-well'" in err
        assert not out.exists() and not (tmp_path / "h.summary.json").exists()
        # the target the metadata records is accepted
        assert run(["histogram", "--in", str(src), "--out", str(out),
                    "--target", "double-well"]) == 0

    def test_dimension_contradicting_metadata_exit_2(self, tmp_path, capsys):
        src, meta = tmp_path / "s.csv", tmp_path / "s.meta.json"
        src.write_text("chain,x1,x2\n0,0.5,0.1\n1,-0.25,0.3\n")
        meta.write_text(json.dumps({"target": "gaussian", "d": 3}))
        out = tmp_path / "h.csv"
        assert run(["histogram", "--in", str(src), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "d = 3" in err and "2 coordinates" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.meta.json"]

    @pytest.mark.parametrize("sidecar", ["list", "directory", "malformed"])
    def test_bad_metadata_file_exit_2(self, tmp_path, capsys, sidecar):
        # the samples' metadata file is read as a config file is: one that is
        # not a readable JSON object exits 2 naming it, and nothing is written
        src, meta = tmp_path / "s.csv", tmp_path / "s.meta.json"
        src.write_text("chain,x1\n0,0.5\n1,-0.25\n")
        if sidecar == "list":
            meta.write_text("[]")
        elif sidecar == "directory":
            meta.mkdir()
        else:
            meta.write_text('{"target": ')
        assert run(["histogram", "--in", str(src), "--out", str(tmp_path / "h.csv"),
                    "--target", "gaussian"]) == 2
        assert str(meta) in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.meta.json"]


class TestRate:
    def test_analytic_gaussian_slope(self, tmp_path):
        out = tmp_path / "rate.csv"
        assert run([
            "rate", "--target", "gaussian", "--dim", "1", "--metric", "gaussian-exact",
            "--analytic", "--grid", "0.2,0.1,0.05,0.025,0.0125", "--seed", "1",
            "--out", str(out),
        ]) == 0
        fit = json.loads((tmp_path / "rate.fit.json").read_text())
        assert 0.95 <= fit["slope"] <= 1.05
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,distance,metric"
        assert len(lines) == 6

    def test_sampled_gaussian_exact(self, tmp_path):
        out = tmp_path / "rate2.csv"
        assert run([
            "rate", "--target", "gaussian", "--dim", "1", "--metric", "w1",
            "--grid", "0.4,0.2,0.1", "--chains", "2000", "--horizon", "30",
            "--seed", "4", "--out", str(out),
        ]) == 0
        fit = json.loads((tmp_path / "rate2.fit.json").read_text())
        assert fit["slope"] > 0.0

    def test_sliced_metric(self, tmp_path):
        out = tmp_path / "rate3.csv"
        assert run([
            "rate", "--target", "gaussian", "--dim", "3", "--metric", "sw2",
            "--grid", "0.4,0.2,0.1", "--chains", "500", "--horizon", "20",
            "--n-proj", "64", "--seed", "6", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        assert all(line.endswith(",sw2") for line in lines[1:])

    def test_config_sets_rate_options(self, tmp_path):
        cfg = tmp_path / "rate.json"
        cfg.write_text(json.dumps({
            "target": "gaussian", "dim": 1, "metric": "gaussian-exact",
            "analytic": True, "grid": "0.2,0.1",
        }))
        out = tmp_path / "rate.csv"
        assert run(["rate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert all(line.endswith(",gaussian-exact") for line in lines[1:])
        manifest = json.loads((tmp_path / "rate.csv.manifest.json").read_text())
        assert manifest["resolved_config"]["analytic"] is True

    def test_manifest_records_reference_options(self, tmp_path):
        # defaults applied: the chain reference's lambda_max / 10 fine step
        out = tmp_path / "dw.csv"
        assert run([
            "rate", "--target", "double-well", "--dim", "1", "--metric", "w1",
            "--chains", "40", "--horizon", "0.5", "--grid", "0.1,0.05",
            "--ref-horizon", "0.2", "--seed", "1", "--out", str(out),
        ]) == 0
        cfg = json.loads((tmp_path / "dw.csv.manifest.json").read_text())["resolved_config"]
        assert cfg["ref_fine_step"] == certified_moduli(make_double_well(1)).lambda_max / 10.0
        assert (cfg["ref_horizon"], cfg["workers"]) == (0.2, 1)
        # an exact reference has no fine step or horizon; n_proj shapes sw1
        out = tmp_path / "g.csv"
        assert run([
            "rate", "--target", "gaussian", "--dim", "2", "--metric", "sw1",
            "--chains", "50", "--horizon", "1", "--grid", "0.1,0.05",
            "--n-proj", "8", "--seed", "1", "--out", str(out),
        ]) == 0
        cfg = json.loads((tmp_path / "g.csv.manifest.json").read_text())["resolved_config"]
        assert cfg["n_proj"] == 8
        assert cfg["ref_fine_step"] is None and cfg["ref_horizon"] is None

    def test_refuses_reference_options_it_cannot_honour(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        base = ["rate", "--target", "gaussian", "--dim", "1", "--grid", "0.1,0.05",
                "--out", str(out)]
        sampled = base + ["--metric", "w1", "--chains", "50", "--horizon", "1"]
        assert run(sampled + ["--ref-fine-step", "0.5"]) == 2
        assert "--ref-fine-step" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ref-horizon": 3}))
        assert run(sampled + ["--config", str(cfg)]) == 2
        assert "--ref-horizon" in capsys.readouterr().err
        analytic = base + ["--metric", "gaussian-exact", "--analytic", "--seed", "2"]
        assert not out.exists()
        assert run(analytic) == 0

    def test_refuses_options_it_ignores(self, tmp_path, capsys):
        # from a flag, a preset or the config file alike
        out = tmp_path / "r.csv"
        sampled = ["rate", "--target", "gaussian", "--dim", "2", "--metric", "w1",
                   "--chains", "50", "--horizon", "1", "--grid", "0.2,0.1", "--out", str(out)]
        assert run(sampled + ["--n-proj", "3"]) == 2
        assert "--n-proj" in capsys.readouterr().err
        analytic = ["rate", "--target", "gaussian", "--dim", "1", "--metric", "gaussian-exact",
                    "--analytic", "--grid", "0.2,0.1", "--out", str(out)]
        for extra in (["--chains", "7"], ["--horizon", "3"], ["--workers", "1"],
                      ["--n-proj", "3"], ["--ref-fine-step", "0.1"], ["--preset", "desk"]):
            assert run(analytic + extra) == 2, extra
            flag = "--chains" if extra[0] == "--preset" else extra[0]
            assert flag in capsys.readouterr().err, extra
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 1}))
        assert run(analytic + ["--config", str(cfg)]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()
        # the seed is accepted with --analytic; what does not apply is null
        assert run(analytic + ["--seed", "4"]) == 0
        cfg = json.loads((tmp_path / "r.csv.manifest.json").read_text())["resolved_config"]
        assert (cfg["chains"], cfg["horizon"], cfg["workers"], cfg["n_proj"]) == (None,) * 4

    def test_lost_chain_exit_3(self, tmp_path, monkeypatch, capsys):
        # the distance is between the whole sample and the whole reference,
        # never between survivors
        run_chains = sampler.run_chains

        def losing_one(config, target, **kwargs):
            measure = run_chains(config, target, **kwargs)
            if config.lam == 0.1:
                measure.samples = measure.samples[1:]
                measure.meta["diverged_chains"] = [{"chain": 0, "step": 3}]
            return measure

        monkeypatch.setattr(sampler, "run_chains", losing_one)
        out = tmp_path / "r.csv"
        assert run(["rate", "--target", "gaussian", "--dim", "1", "--metric", "w1",
                    "--chains", "30", "--horizon", "1", "--grid", "0.2,0.1",
                    "--out", str(out)]) == 3
        assert "lambda=0.1: 1 of 30 chains diverged" in capsys.readouterr().err
        assert not out.exists()

    def test_analytic_needs_dim_1(self, tmp_path):
        assert run([
            "rate", "--target", "gaussian", "--dim", "2", "--metric", "gaussian-exact",
            "--analytic", "--out", str(tmp_path / "r.csv"),
        ]) == 2

    def test_gaussian_exact_needs_analytic(self, tmp_path, monkeypatch, capsys):
        # sampled, it would be --metric w1 under another name; the closed-form
        # W2 is --analytic's
        def chains(*args, **kwargs):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(sampler, "run_chains", chains)
        monkeypatch.setattr(sampler, "reference_measure", chains)
        out = tmp_path / "r.csv"
        assert run(["rate", "--target", "gaussian", "--dim", "1", "--metric", "gaussian-exact",
                    "--chains", "20", "--horizon", "0.5", "--grid", "0.4,0.2",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "requires --analytic" in err and "--metric w1|w2" in err
        assert list(tmp_path.iterdir()) == []

    def test_gaussian_exact_needs_gaussian(self, tmp_path):
        assert run([
            "rate", "--target", "double-well", "--metric", "gaussian-exact",
            "--out", str(tmp_path / "r.csv"),
        ]) == 2

    def test_bad_grid(self, tmp_path):
        assert exit_code([
            "rate", "--target", "gaussian", "--dim", "1", "--grid", "0.1,-0.2",
            "--out", str(tmp_path / "r.csv"),
        ]) == 2


class TestConstants:
    def test_gaussian_report(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["constants", "--target", "gaussian", "--dim", "2", "--beta", "1",
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["constants"]["lambda_max"]["value"] == 0.125
        assert rep["constants"]["C0"]["degenerate"] is True

    def test_double_well_log_space(self, tmp_path):
        out = tmp_path / "dw.json"
        assert run(["constants", "--target", "double-well", "--dim", "100",
                    "--beta", "1", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        c1 = rep["constants"]["C1"]
        assert c1["representable"] is False
        assert c1["log10_value"] > 300
        assert rep["constants"]["v2_integral"]["value"] == pytest.approx(11.46, abs=0.05)

    @pytest.mark.parametrize("name", ["gaussian", "mixture", "double-well"])
    def test_v2_is_the_targets_closed_form(self, capsys, name):
        # no Monte Carlo knob: v2 is 1 + the target's own E|theta|^2 at beta
        assert [n for n, _, _ in cli.command_options("constants")] == [
            "target", "dim", "beta", "out", "force", "p-list"]
        assert run(["constants", "--target", name, "--dim", "3", "--beta", "2"]) == 0
        v2 = json.loads(capsys.readouterr().out)["constants"]["v2_integral"]
        second_moment = potentials.make_target(name, 3).second_moment(2.0)
        assert v2 == {"value": 1.0 + second_moment, "representable": True,
                      "formula_ref": "integral of (1+|theta|^2) under the target law"}
        for flag in (["--v2-method", "mc"], ["--v2-draws", "500"], ["--seed", "3"]):
            assert exit_code(["constants", "--target", name] + flag) == 2, flag
            assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_stdout_mode(self, capsys):
        assert run(["constants", "--target", "gaussian", "--dim", "2"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert "constants" in rep

    def test_unknown_target(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["constants", "--target", "nope"])
        assert exc.value.code == 2

    def test_bad_beta(self):
        assert exit_code(["constants", "--target", "gaussian", "--beta", "-1"]) == 2

    def test_rejects_ignored_flags(self):
        with pytest.raises(SystemExit) as exc:
            run(["constants", "--target", "double-well", "--preset", "desk"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run(["constants", "--target", "gaussian", "--config", "cfg.json"])
        assert exc.value.code == 2


class TestCheck:
    def test_all_targets_pass(self, tmp_path):
        for target in ("gaussian", "mixture", "double-well"):
            out = tmp_path / f"{target}.json"
            code = run(["check", "--target", target, "--dim", "4", "--points", "800",
                        "--seed", "0", "--out", str(out)])
            assert code == 0, target
            rep = json.loads(out.read_text())
            assert rep["all_ok"] is True
            assert len(rep["checks"]) == 8

    def test_falsification_override(self, tmp_path):
        code = run(["check", "--target", "double-well", "--dim", "4",
                    "--points", "800", "--seed", "0", "--override", "L=0.01"])
        assert code == 1

    def test_payload_lists_first_violations(self, tmp_path):
        out = tmp_path / "k.json"
        assert run(["check", "--target", "double-well", "--dim", "3", "--points", "400",
                    "--seed", "0", "--override", "L=0.01", "--out", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        target = override_constants(make_double_well(3), L=0.01)
        report = check_assumption_2(target, 400, 10.0, RngStream(0, 0))
        assert report.n_violations > 10
        written = {c["assumption"]: c for c in checks}["assumption-2"]
        assert written["n_violations"] == report.n_violations
        assert written["violations"] == report.violations
        assert all(len(c["violations"]) == min(c["n_violations"], 10) for c in checks)

    def test_points_validation(self):
        assert exit_code(["check", "--target", "gaussian", "--points", "0"]) == 2

    def test_no_full_pipeline_and_no_dense_hessian(self, monkeypatch):
        # check derives only the moduli it certifies (the package builds no
        # dense Hessian anywhere: every norm comes from the target's parts)
        def refuse(*args, **kwargs):
            raise AssertionError("refused on the check path")

        monkeypatch.setattr(constants, "derive_constants", refuse)
        for target in ("gaussian", "mixture", "double-well"):
            assert run(["check", "--target", target, "--dim", "3", "--points", "200"]) == 0, target

    def test_bad_override(self):
        assert exit_code(["check", "--target", "gaussian", "--override", "L"]) == 2
        assert exit_code(["check", "--target", "gaussian", "--override", "name=x"]) == 2

    def test_rejects_ignored_flags(self):
        for flag, value in (("--beta", "7"), ("--preset", "desk"), ("--config", "cfg.json")):
            with pytest.raises(SystemExit) as exc:
                run(["check", "--target", "gaussian", "--points", "100", flag, value])
            assert exc.value.code == 2, flag


class TestOutOfDomainRegressions:
    # each of these once exited 0 with a wrong answer, crashed, or named no option
    @pytest.mark.parametrize("line, name", [
        ("rate --target gaussian --dim 1 --metric gaussian-exact --analytic --beta -1 "
         "--grid 0.2,0.1", "beta"),
        ("check --target double-well --dim 10 --points 1000 --override L=0.01 --radius nan",
         "radius"),
        ("check --target double-well --dim 10 --points 1000 --override L=0.01 --radius inf",
         "radius"),
        ("check --target gaussian --points 10 --override L=nan", "override"),
        ("rate --target gaussian --dim 1 --metric gaussian-exact --analytic --grid 0.2,0.2",
         "grid"),
        ("sample --target gaussian --dim 2 --chains 2 --lambda 0.1 --horizon inf", "horizon"),
        ("sample --target gaussian --dim 2 --chains 2 --lambda nan --horizon 1", "lambda"),
        ("constants --target gaussian --dim 2 --p-list=-3,4", "p-list"),
        ("sample --target gaussian --dim 2 --chains 2 --lambda 0.1 --horizon 1 --workers 0",
         "workers"),
    ])
    def test_exits_2_naming_the_option(self, tmp_path, capsys, line, name):
        out = tmp_path / "out"
        assert exit_code(line.split() + ["--out", str(out)]) == 2
        assert f"argument --{name}:" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_payload_exit_2(self, tmp_path, monkeypatch, capsys):
        # a NaN in a payload is refused before the file is opened, not
        # written as a bare NaN token; nor is a manifest naming that file
        monkeypatch.setattr(sampler, "estimate_v2_integral", lambda *a, **k: float("nan"))
        out = tmp_path / "c.json"
        argv = ["constants", "--target", "gaussian", "--dim", "2"]
        assert exit_code(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert not (tmp_path / "c.json.manifest.json").exists()
        capsys.readouterr()
        assert exit_code(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("line", [
        "sample --target gaussian --dim 2 --chains 2 --lambda 1e-320 --horizon 1",
        "rate --target gaussian --dim 2 --chains 2 --grid 1e-320,0.1 --horizon 1",
    ])
    def test_step_count_overflow_exit_2(self, tmp_path, capsys, line):
        # horizon / lambda overflows to inf: refused, not an OverflowError
        out = tmp_path / "tiny.csv"
        assert exit_code(line.split() + ["--out", str(out)]) == 2
        assert "is not finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestManifest:
    def test_version_independent_of_working_directory(self, tmp_path, monkeypatch):
        # the stamp describes the package, not whatever checkout the CLI runs in
        versions = []
        for cwd in (tmp_path, Path(__file__).resolve().parents[1]):
            monkeypatch.chdir(cwd)
            cli._version_stamp.cache_clear()
            out = tmp_path / f"v{len(versions)}.json"
            assert run(["constants", "--target", "gaussian", "--dim", "2", "--out", str(out)]) == 0
            manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
            versions.append(manifest["version"])
        assert versions[0] == versions[1]

    def test_version_is_the_package_version(self, tmp_path):
        # read from the package, not from installed metadata, which a
        # source checkout does not have
        out = tmp_path / "v.json"
        assert run(["constants", "--target", "gaussian", "--dim", "2", "--out", str(out)]) == 0
        version = json.loads((tmp_path / "v.json.manifest.json").read_text())["version"]
        assert version == tamedlmc.__version__ or version.startswith(tamedlmc.__version__ + "+git.")

    def test_every_manifest_records_peak_rss(self, tmp_path, samples_csv):
        for cmd in OUTPUTS:
            assert run(_output_argv(cmd, tmp_path, samples_csv)) == 0
            peak = json.loads((tmp_path / OUTPUTS[cmd][-1]).read_text())["peak_rss_mb"]
            assert sorted(peak) == ["children", "self"] and peak["self"] > 10, (cmd, peak)

    def test_peak_rss_counts_the_reaped_helper(self, tmp_path):
        # a fresh process has reaped no child; at d=10 a block is 410 steps,
        # so 100 steps fork no helper and 500 steps fork one, reaped before
        # the manifest is written
        env = {**os.environ, "PYTHONPATH": str(Path(tamedlmc.__file__).resolve().parents[1])}
        for horizon, helper in (("1", False), ("5", True)):
            out = tmp_path / f"h{horizon}.csv"
            subprocess.run([sys.executable, "-m", "tamedlmc", "sample", "--target", "gaussian",
                            "--dim", "10", "--chains", "20", "--lambda", "0.01",
                            "--horizon", horizon, "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            peak = json.loads(Path(f"{out}.manifest.json").read_text())["peak_rss_mb"]
            assert peak["self"] > 10 and (peak["children"] > 0) == helper, (horizon, peak)

    def test_package_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == tamedlmc.__version__


# A small run of each command, and the files it writes: --out first, the
# manifest last.
LINES = {
    "sample": "sample --target gaussian --dim 2 --lambda 0.1 --chains 4 --horizon 0.5",
    "histogram": "histogram --in {samples}",
    "rate": "rate --target gaussian --dim 1 --chains 20 --horizon 0.5 --grid 0.2,0.1",
    "constants": "constants --target gaussian --dim 2",
    "check": "check --target gaussian --dim 2 --points 50",
}
OUTPUTS = {
    "sample": ("s.csv", "s.meta.json", "s.csv.manifest.json"),
    "histogram": ("h.csv", "h.summary.json", "h.csv.manifest.json"),
    "rate": ("r.csv", "r.fit.json", "r.csv.manifest.json"),
    "constants": ("c.json", "c.json.manifest.json"),
    "check": ("k.json", "k.json.manifest.json"),
}
# each command's first heavy call is one of these
HEAVY = ((sampler, "run_chains"), (potentials, "marginal_pdf"),
         (constants, "derive_constants"), (potentials, "check_assumption_2"))


@pytest.fixture(scope="module")
def samples_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("samples") / "s.csv"
    assert run(LINES["sample"].split() + ["--out", str(path)]) == 0
    return path


def _output_argv(cmd, directory, samples):
    return LINES[cmd].format(samples=samples).split() + ["--out", str(directory / OUTPUTS[cmd][0])]


class TestOutputs:
    @pytest.mark.parametrize("cmd, existing",
                             [(cmd, name) for cmd, names in OUTPUTS.items() for name in names])
    def test_existing_output_refused_before_work(self, tmp_path, monkeypatch, capsys,
                                                 samples_csv, cmd, existing):
        (tmp_path / existing).write_text("kept\n")

        def heavy(*args, **kwargs):
            raise AssertionError("the command ran before its outputs were checked")

        for module, name in HEAVY:
            monkeypatch.setattr(module, name, heavy)
        argv = _output_argv(cmd, tmp_path, samples_csv)
        assert run(argv) == 2
        assert f"output {tmp_path / existing} exists" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [existing]
        assert (tmp_path / existing).read_text() == "kept\n"
        monkeypatch.undo()
        assert run(argv + ["--force"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(OUTPUTS[cmd])

    @pytest.mark.parametrize("cmd", list(OUTPUTS))
    def test_unwritable_output_exit_2(self, tmp_path, capsys, samples_csv, cmd):
        missing = tmp_path / "missing"
        assert run(_output_argv(cmd, missing, samples_csv)) == 2
        err = capsys.readouterr().err
        assert f"no directory {missing}" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []
        # a directory in the place of an output is refused even with --force
        (tmp_path / OUTPUTS[cmd][-1]).mkdir()
        assert run(_output_argv(cmd, tmp_path, samples_csv) + ["--force"]) == 2
        assert f"{tmp_path / OUTPUTS[cmd][-1]}: it is a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [OUTPUTS[cmd][-1]]

    @pytest.mark.parametrize("cmd", list(OUTPUTS))
    def test_files_are_the_manifests_outputs(self, tmp_path, samples_csv, cmd):
        assert run(_output_argv(cmd, tmp_path, samples_csv)) == 0
        manifest = tmp_path / OUTPUTS[cmd][-1]
        outputs = json.loads(manifest.read_text())["outputs"]
        assert sorted(tmp_path.iterdir()) == sorted([Path(o) for o in outputs] + [manifest])
        for path in tmp_path.glob("*.json"):
            if path != manifest:
                assert json.loads(path.read_text())["manifest"] == str(manifest), path

    def test_failed_write_exit_2(self, tmp_path, monkeypatch, capsys):
        def full(measure, path):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(sampler, "save_measure_csv", full)
        assert run(_output_argv("sample", tmp_path, None)) == 2
        err = capsys.readouterr().err
        assert f"cannot write {tmp_path / 's.csv'}: No space left on device" in err
        assert list(tmp_path.iterdir()) == []


IN_DOMAIN = {"grid": "0.2,0.1", "override": "L=1"}

# Values outside each numeric or list option's domain.
OUT_OF_DOMAIN = {
    **dict.fromkeys(("lambda", "beta", "horizon", "radius", "ref-fine-step", "ref-horizon"),
                    ("0", "-1", "nan", "inf")),
    **dict.fromkeys(("theta0", "range"), ("nan", "inf", "-inf")),
    **dict.fromkeys(("dim", "chains", "bins", "n-proj", "points"),
                    ("0", "-1", "nan", "inf", "1.5")),
    "workers": ("0", "-1", "nan", "inf", "1.5", "2"),
    "seed": ("-1", "nan", "inf"),
    "grid": ("0.1", "0.1,0.1", "0.1,0", "0.1,-1", "0.1,nan", "0.1,inf", "0.1,x"),
    "p-list": ("-1", "2,-3", "1.5", "nan", "inf"),
    "override": ("L=nan", "L=inf", "L", "r=1.5", "nu=nan", "L=x"),
}


def _flag_argv(name, kwargs):
    """A valid command-line setting of the option ``name``."""
    if kwargs.get("action") == "store_true":
        return [f"--{name}"]
    value = str(kwargs["choices"][0]) if "choices" in kwargs else IN_DOMAIN.get(name, "1")
    return [f"--{name}"] + [value] * kwargs.get("nargs", 1)


def _readme_option_table():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| option | " + " | ".join(cli.COMMANDS) + " |")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        table[cells[0]] = cells[1:]
    return table


class TestOptionTable:
    def test_parser_accepts_every_row(self):
        parser = cli.build_parser()
        for cmd in cli.COMMANDS:
            for name, kwargs, _ in cli.command_options(cmd):
                args = parser.parse_args([cmd] + _flag_argv(name, kwargs))
                assert getattr(args, name.replace("-", "_")) is not None, (cmd, name)

    def test_single_command_options_rejected_elsewhere(self, capsys):
        parser = cli.build_parser()
        for name, kwargs, defaults in cli.OPTIONS:
            if len(defaults) > 1:
                continue
            for cmd in set(cli.COMMANDS) - set(defaults):
                with pytest.raises(SystemExit):
                    parser.parse_args([cmd] + _flag_argv(name, kwargs))
                assert f"--{name}" in capsys.readouterr().err, (cmd, name)

    def test_config_accepts_every_row(self, tmp_path):
        parser = cli.build_parser()
        cfg = tmp_path / "cfg.json"
        for cmd in ("sample", "rate"):
            rows = [(n, k) for n, k, _ in cli.command_options(cmd) if n != "config"]
            values = {n: True if k.get("action") == "store_true" else _flag_argv(n, k)[1]
                      for n, k in rows}
            cfg.write_text(json.dumps(values))
            loaded = cli._load_config(parser.parse_args([cmd, "--config", str(cfg)]))
            assert set(loaded) == {n.replace("-", "_") for n, _ in rows}
            assert None not in loaded.values()

    def test_manifest_records_every_option(self, tmp_path):
        sample = str(tmp_path / "s.csv")
        runs = {
            "sample": ["--target", "gaussian", "--dim", "2", "--lambda", "0.1",
                       "--chains", "20", "--horizon", "0.5", "--out", sample],
            "histogram": ["--in", sample, "--out", str(tmp_path / "h.csv")],
            "rate": ["--target", "gaussian", "--dim", "2", "--metric", "sw1", "--chains", "20",
                     "--horizon", "0.5", "--grid", "0.2,0.1", "--out", str(tmp_path / "r.csv")],
            "constants": ["--target", "gaussian", "--out", str(tmp_path / "c.json")],
            "check": ["--target", "gaussian", "--dim", "2", "--points", "50",
                      "--out", str(tmp_path / "k.json")],
        }
        derived = {"histogram": {"target", "range"}, "check": {"override"}}
        for cmd, argv in runs.items():
            assert run([cmd] + argv) == 0, cmd
            manifest = json.loads(Path(argv[-1] + ".manifest.json").read_text())
            cfg = manifest["resolved_config"]
            rows = {n.replace("-", "_"): d for n, _, d in cli.command_options(cmd)}
            assert set(cfg) == set(rows), cmd
            given = {a[2:].replace("-", "_") for a in argv if a.startswith("--")}
            for key in set(rows) - given - derived.get(cmd, set()):
                assert cfg[key] == rows[key], (cmd, key)
        assert cfg["override"] == {}

    def test_every_row_has_a_domain(self):
        # a bare float or int would accept nan, inf or a negative count
        for name, kwargs, _ in cli.OPTIONS:
            assert kwargs.get("type") not in (float, int), name

    def test_defaults_lie_in_their_domains(self):
        for name, kwargs, defaults in cli.OPTIONS:
            for default in defaults.values():
                if "type" in kwargs and default not in (None, cli.REQUIRED):
                    kwargs["type"](str(default))

    def test_out_of_domain_values_exit_2(self, tmp_path, capsys):
        # from a flag and from a config file alike, with the option named
        assert set(OUT_OF_DOMAIN) == {n for n, k, _ in cli.OPTIONS if "type" in k}
        cfg = tmp_path / "cfg.json"

        def refused(argv, name):
            return exit_code(argv) == 2 and f"argument --{name}:" in capsys.readouterr().err

        for cmd in cli.COMMANDS:
            takes_config = any(n == "config" for n, _, _ in cli.command_options(cmd))
            for name, kwargs, _ in cli.command_options(cmd):
                for value in OUT_OF_DOMAIN.get(name, ()):
                    flag = [f"--{name}"] + [value] * kwargs.get("nargs", 1)
                    assert refused([cmd] + flag, name), (cmd, flag)
                    if not takes_config:
                        continue
                    # the value as a JSON string and, where it reads as one,
                    # as a JSON number (NaN and Infinity included)
                    forms = [value]
                    try:
                        forms.append(float(value))
                    except ValueError:
                        pass
                    for form in forms:
                        cfg.write_text(json.dumps({name: form}))
                        assert refused([cmd, "--config", str(cfg)], name), (cmd, name, form)

    def test_preset_values_are_checked(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(cli.PRESETS, "desk", {"dim": 0, "chains": 500})
        out = tmp_path / "p.csv"
        assert exit_code(["sample", "--target", "gaussian", "--lambda", "0.1", "--preset", "desk",
                          "--horizon", "0.5", "--out", str(out)]) == 2
        assert "argument --dim:" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_table_matches_code(self):
        def cell(default):
            if default is cli.REQUIRED:
                return "required"
            if default is None:
                return "—"
            if default is False:
                return "off"
            return f"`{default}`"

        code = {f"`--{name}`": [cell(defaults[c]) if c in defaults else "" for c in cli.COMMANDS]
                for name, _, defaults in cli.OPTIONS}
        assert _readme_option_table() == code
