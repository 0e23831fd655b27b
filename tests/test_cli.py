import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pathrev.cli import CHECKS, main, validate_config
from pathrev.core import ConfigError, load_ensemble
from pathrev.entropy import gaussian_relative_entropy
from pathrev.models import Gaussian, load_model
from pathrev.simulate import ctmc_simulate


def _write_cfg(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _ou_cfg(**over):
    cfg = {"model": {"type": "ou", "init_mean": [1.0], "init_cov": [[0.5]]},
           "grid": {"T": 1.0, "n_steps": 100},
           "n_paths": 4000,
           "seed": 11,
           "density": "exact",
           "checks": ["ibp", "continuity", "carre"]}
    cfg.update(over)
    return cfg


def _cycle_cfg(**over):
    cfg = {"model": {"type": "cycle", "n": 4, "rate_cw": 2.0, "rate_ccw": 1.0},
           "grid": {"T": 1.0, "n_steps": 200},
           "seed": 7,
           "checks": ["reversal", "ibp"]}
    cfg.update(over)
    return cfg


def _read_lines(path):
    with open(path) as f:
        return f.read().splitlines()


# the README's check table: check name -> model types it applies to
_README_CHECK_TABLE = {
    "reversal": {"ou", "bm", "custom", "cycle"},
    "ibp": {"ou", "bm", "custom", "cycle"},
    "continuity": {"ou", "bm", "custom"},
    "detailed-balance": {"cycle"},
    "carre": {"ou", "bm", "custom"},
    "nelson": {"ou", "bm", "custom"},
    "dissipation": {"ou"},
}
# checks run when a config names none; manifest.json echoes this list
_DEFAULT_CHECKS = {
    "ou": ["reversal", "ibp", "continuity", "carre", "nelson", "dissipation"],
    "bm": ["reversal", "ibp", "continuity", "carre", "nelson"],
    "custom": ["ibp", "carre", "nelson"],
    "cycle": ["reversal", "ibp"],
}
_MODELS = {
    "ou": {"type": "ou", "init_mean": [1.0], "init_cov": [[0.5]]},
    "bm": {"type": "bm", "init_mean": [0.0], "init_cov": [[1.0]]},
    "custom": {"type": "custom", "dim": 1, "drift": {"name": "zero"},
               "diffusion_matrix": [[1.0]], "init_mean": [0.0], "init_cov": [[1.0]]},
    "cycle": {"type": "cycle", "n": 4, "rate_cw": 2.0, "rate_ccw": 1.0},
}

_OU_2D = {"type": "ou", "init_mean": [1.0, -0.5], "init_cov": [[0.5, 0.1], [0.1, 0.3]]}


class TestCheckTable:
    def test_names_match_readme(self):
        assert set(CHECKS) == set(_README_CHECK_TABLE)

    @pytest.mark.parametrize("mtype", sorted(_MODELS))
    @pytest.mark.parametrize("check", sorted(_README_CHECK_TABLE))
    def test_applicability(self, mtype, check):
        raw = _ou_cfg(model=_MODELS[mtype], checks=[check])
        if mtype in _README_CHECK_TABLE[check]:
            assert validate_config(raw)["checks"] == [check]
        else:
            with pytest.raises(ConfigError, match="does not apply"):
                validate_config(raw)

    @pytest.mark.parametrize("mtype", sorted(_MODELS))
    def test_defaults(self, mtype):
        raw = _ou_cfg(model=_MODELS[mtype])
        del raw["checks"]
        assert validate_config(raw)["checks"] == _DEFAULT_CHECKS[mtype]


class TestConfigValidation:
    def test_defaults_filled(self):
        cfg = validate_config(_cycle_cfg())
        assert cfg["n_paths"] == 1000
        assert cfg["density"] == "exact"
        assert cfg["out_dir"] == "out"
        assert cfg["grid"]["T"] == 1.0

    def test_checks_default_by_type(self):
        raw = _ou_cfg()
        del raw["checks"]
        cfg = validate_config(raw)
        assert cfg["checks"] == ["reversal", "ibp", "continuity", "carre",
                                 "nelson", "dissipation"]

    def test_rejections(self):
        bad = [
            _ou_cfg(grid={"T": 1.0, "n_steps": 0}),
            _ou_cfg(bogus=1),
            _ou_cfg(grid={"T": 1.0, "n_steps": 100, "dt": 0.01}),
            _ou_cfg(checks=["spectral"]),
            _cycle_cfg(checks=["dissipation"]),
            _ou_cfg(density="histogram"),
            _ou_cfg(seed=-1),
            _ou_cfg(seed=True),
            _ou_cfg(n_paths=2.5),
            _ou_cfg(grid={"T": -1.0, "n_steps": 100}),
            _ou_cfg(model={"type": "heat"}),
            _ou_cfg(out_dir=""),
            [1, 2, 3],
        ]
        for obj in bad:
            with pytest.raises(ConfigError):
                validate_config(obj)
        raw = _ou_cfg()
        del raw["seed"]
        with pytest.raises(ConfigError, match="seed"):
            validate_config(raw)
        raw = _ou_cfg()
        del raw["n_paths"]
        with pytest.raises(ConfigError, match="n_paths"):
            validate_config(raw)

    def test_main_maps_config_errors_to_exit_2(self, tmp_path, capsys):
        path = _write_cfg(tmp_path, _ou_cfg(density="histogram"))
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_main_bad_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["run", "--config", str(p)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_main_missing_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_main_negative_seed_override(self, tmp_path, capsys):
        path = _write_cfg(tmp_path, _cycle_cfg())
        assert main(["run", "--config", path, "--seed", "-3"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_seed_below_2_63(self):
        assert validate_config(_ou_cfg(seed=2**63 - 1))["seed"] == 2**63 - 1
        for seed in (2**63, 2**63 + 1, 2**64):
            with pytest.raises(ConfigError, match="below 2\\*\\*63"):
                validate_config(_ou_cfg(seed=seed))

    @pytest.mark.parametrize("where", ["config", "override"])
    def test_main_seed_2_63_exits_2(self, tmp_path, capsys, where):
        cfg = _cycle_cfg(seed=2**63) if where == "config" else _cycle_cfg()
        path = _write_cfg(tmp_path, cfg)
        argv = ["simulate", "--config", path, "--out", str(tmp_path / "sim")]
        if where == "override":
            argv += ["--seed", str(2**63)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: seed") and err.count("\n") == 1
        assert not (tmp_path / "sim").exists()


class TestConfigMessages:
    """Config fields go through the model loader's key and number checks, so
    each message names its object and its key."""

    @pytest.mark.parametrize("cfg, line", [
        (_ou_cfg(bogus=1), "config: unknown keys ['bogus']"),
        (_ou_cfg(grid={"T": 1.0, "n_steps": 100, "dt": 0.01}), "grid: unknown keys ['dt']"),
        (_ou_cfg(grid={"T": 1.0}), "grid: missing keys ['n_steps']"),
        (_ou_cfg(grid={"T": "1", "n_steps": 100}), "grid: T must be a number, got '1'"),
        (_ou_cfg(grid={"T": 0, "n_steps": 100}), "grid: T must be positive, got 0"),
        (_ou_cfg(grid={"T": 1.0, "n_steps": 2.5}),
         "grid: n_steps must be an integer, got 2.5"),
        (_ou_cfg(grid={"T": 1.0, "n_steps": 0}), "grid: n_steps must be at least 1, got 0"),
        (_ou_cfg(seed=True), "config: seed must be an integer, got True"),
        (_ou_cfg(n_paths=False), "config: n_paths must be an integer, got False"),
        (_ou_cfg(n_paths=0), "config: n_paths must be at least 1, got 0"),
    ], ids=["unknown-top", "unknown-grid", "missing-grid", "string-T", "zero-T",
            "float-n-steps", "zero-n-steps", "bool-seed", "bool-n-paths", "zero-n-paths"])
    def test_one_line_names_the_key(self, tmp_path, capsys, cfg, line):
        path = _write_cfg(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"
        assert not (tmp_path / "o").exists()

    def test_missing_top_keys_listed_together(self):
        raw = _ou_cfg()
        del raw["seed"], raw["grid"]
        with pytest.raises(ConfigError, match=re.escape("config: missing keys ['grid', 'seed']")):
            validate_config(raw)


class TestErrorContract:
    """Every pathrev error exits 2 with one stderr line and no output directory."""

    @pytest.mark.parametrize("command, cfg, pattern", [
        ("run", _ou_cfg(model={"type": "ou", "init_mean": [1.0], "init_cov": [[-1.0]]}),
         "numeric error: "),
        # json.dumps writes the nan as the bare constant NaN
        ("run", _ou_cfg(model={"type": "ou", "init_mean": [math.nan], "init_cov": [[0.5]]}),
         "config error: .*NaN is not a number"),
        ("run", _cycle_cfg(model=dict(_MODELS["cycle"], n="4")), "config error: model: n "),
        # a singular a has no reversible reference N(0, a/2)
        ("entropy", _ou_cfg(model=dict(_MODELS["custom"], diffusion_matrix=[[0.0]]),
                            n_paths=100), "config error: entropy report needs the reversible"),
        ("run", _ou_cfg(model=dict(_MODELS["ou"], dim=True)), "config error: model: dim "),
        ("run", _ou_cfg(model=dict(_MODELS["ou"], init_mean=["1.0"])),
         "config error: model: init_mean "),
        ("run", _ou_cfg(model=dict(_MODELS["ou"], init_cov=[[True]])),
         "config error: model: init_cov "),
        ("run", _ou_cfg(model=dict(_MODELS["bm"], dim=True)), "config error: model: dim "),
        ("run", _ou_cfg(model=dict(_MODELS["bm"], init_mean=["0.0"])),
         "config error: model: init_mean "),
        ("run", _ou_cfg(model=dict(_MODELS["bm"], init_cov=[[True]])),
         "config error: model: init_cov "),
        ("simulate", _ou_cfg(model=dict(_MODELS["custom"], diffusion_matrix=2.0)),
         re.escape("config error: model: diffusion_matrix shape () != (1, 1)")),
        ("simulate", _ou_cfg(model=dict(_MODELS["custom"], dim=2, init_mean=[0.0, 0.0],
                                        init_cov=[[1.0, 0.0], [0.0, 1.0]],
                                        diffusion_matrix=[[2.0, 1.0], [0.0, 2.0]])),
         "parameter error: diffusion matrix must be symmetric"),
        # n_paths x (n_steps + 1) doubles is 7.11 PiB: numpy refuses before allocating
        ("simulate", _ou_cfg(n_paths=10 ** 9, grid={"T": 1.0, "n_steps": 10 ** 6}),
         "memory error: .*7.11 PiB"),
        # the KDE probe table is one-dimensional: refused before simulating
        ("run", _ou_cfg(model=_OU_2D, density="kde", n_paths=200),
         "config error: kde probe table requires a one-dimensional model"),
        ("reverse", _ou_cfg(model=_OU_2D, density="kde", n_paths=200),
         "config error: kde probe table requires a one-dimensional model"),
    ], ids=["negative-cov", "nan-mean", "string-n", "singular-a-entropy",
            "ou-bool-dim", "ou-string-mean", "ou-bool-cov",
            "bm-bool-dim", "bm-string-mean", "bm-bool-cov", "custom-scalar-a",
            "custom-nonsymmetric-a", "oversized-ensemble",
            "ou2d-kde-run", "ou2d-kde-reverse"])
    def test_exit_2(self, tmp_path, capsys, command, cfg, pattern):
        path = _write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.match(pattern, err)
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "simulate", "reverse", "entropy", "verify"])
    def test_singular_custom_start_fails_at_load(self, tmp_path, capsys, command):
        # every diffusion builds its exact flow when the model is loaded, so
        # a start without a density is refused before anything is simulated
        model = dict(_MODELS["custom"], init_cov=[[0.0]])
        path = _write_cfg(tmp_path, _ou_cfg(model=model, n_paths=100, checks=["ibp"]))
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "numeric error: flow covariance not SPD at t=0.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "simulate", "reverse", "entropy", "verify"])
    @pytest.mark.parametrize("mtype", ["ou", "custom"])
    @pytest.mark.parametrize("mean, cov, line", [
        ([[1.0]], [[0.5]], "init_mean shape (1, 1) is not (d,)"),
        (1.0, 0.5, "init_mean shape () is not (d,)"),
        ([1.0], 0.5, "init_cov shape () != (1, 1)"),
        ([1.0], [0.5], "init_cov shape (1,) != (1, 1)"),
    ], ids=["nested-mean", "scalars", "scalar-cov", "vector-cov"])
    def test_start_of_another_shape_refused_at_load(self, tmp_path, capsys, command, mtype,
                                                    mean, cov, line):
        # init_mean is a vector of d entries and init_cov a d x d matrix
        model = dict(_MODELS[mtype], init_mean=mean, init_cov=cov)
        path = _write_cfg(tmp_path, _ou_cfg(model=model, n_paths=100, checks=["ibp"]))
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: model: {line}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, checks, extra", [
        ("run", ["reversal", "ibp", "reversal"], []),
        ("verify", ["ibp"], ["ibp", "ibp"]),
    ], ids=["config", "command-line"])
    def test_check_listed_twice(self, tmp_path, capsys, command, checks, extra):
        path = _write_cfg(tmp_path, _cycle_cfg(checks=checks))
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: check {checks[-1]!r} is listed more than once\n"
        assert not out.exists()

    def test_entropy_without_reference_refused_before_simulating(self, tmp_path, capsys,
                                                                 monkeypatch):
        from pathrev import cli

        def refuse(*args):
            raise AssertionError("simulated before refusing")

        monkeypatch.setattr(cli, "euler_maruyama", refuse)
        model = dict(_MODELS["custom"], diffusion_matrix=[[0.0]])
        path = _write_cfg(tmp_path, _ou_cfg(model=model, n_paths=20000,
                                            grid={"T": 1.0, "n_steps": 400}))
        out = tmp_path / "o"
        assert main(["entropy", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: entropy report needs the reversible reference")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "reverse"])
    @pytest.mark.parametrize("out", ["", "taken"])
    def test_unusable_out_dir(self, tmp_path, command, out):
        # an empty name, or the name of an existing file, which stays as it was
        _write_cfg(tmp_path, _cycle_cfg())
        (tmp_path / "taken").write_text("keep\n")
        proc = _cli(tmp_path, command, "--config", "cfg.json", "--out", out)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"config error: cannot create output directory {out!r}: ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]
        assert (tmp_path / "taken").read_text() == "keep\n"


# the fingerprint tool's CUSTOM model: x' = -x/2 + 0.2, a = 2, from N(0, 1)
_CUSTOM_LINEAR = {"type": "custom", "dim": 1,
                  "drift": {"name": "linear", "matrix": [[-0.5]], "offset": [0.2]},
                  "diffusion_matrix": [[2.0]], "init_mean": [0.0], "init_cov": [[1.0]]}
# M = -I + J from its invariant law N(0, I/2): stationary but not reversible
_ROTATION_M = [[-1.0, 1.0], [-1.0, -1.0]]
_ROTATION = {"type": "custom", "dim": 2, "drift": {"name": "linear", "matrix": _ROTATION_M},
             "diffusion_matrix": [[1.0, 0.0], [0.0, 1.0]],
             "init_mean": [0.0, 0.0], "init_cov": [[0.5, 0.0], [0.0, 0.5]]}


class TestCustomExact:
    """A custom model runs with its exact flow, and reversed_model.json holds
    A(s) = -M - a Sigma^{-1} and c(s) = -c + a Sigma^{-1} m at T - s."""

    def _run(self, tmp_path, model):
        # continuity probes the exact flow, so its verdict is not a matter of seed
        cfg = _ou_cfg(model=model, n_paths=400, checks=["continuity"])
        out = tmp_path / "o"
        assert main(["run", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        with open(out / "reversed_model.json") as f:
            return json.load(f)

    def test_one_dimensional_closed_form(self, tmp_path):
        rm = self._run(tmp_path, _CUSTOM_LINEAR)
        assert rm["kind"] == "reversed_drift_affine"
        for s, A, c in zip(rm["times"], rm["A"], rm["c"]):
            # m and Sigma relax to 0.4 and 2 at rate 1/2 and 1
            t = rm["T"] - s
            m = 0.4 - 0.4 * math.exp(-0.5 * t)
            var = 2.0 - 1.0 * math.exp(-t)
            assert A[0][0] == pytest.approx(0.5 - 2.0 / var, rel=1e-14, abs=1e-15)
            assert c[0] == pytest.approx(-0.2 + 2.0 * m / var, rel=1e-14, abs=1e-15)

    def test_stationary_rotation_reverses_the_rotation(self, tmp_path):
        # the reversed drift is (-I - J) x at every time
        rm = self._run(tmp_path, _ROTATION)
        assert rm["A"] == [[[-1.0, -1.0], [1.0, -1.0]]] * 5
        assert rm["c"] == [[0.0, 0.0]] * 5


class TestNonFiniteNumbers:
    """A number that is not finite as a float exits 2 with one stderr line,
    before anything is simulated.  Checked in a fresh process, so a
    traceback or a warning would show on its stderr."""

    @pytest.mark.parametrize("raw, line", [
        # an integer literal beyond the float range: float() overflows
        (json.dumps(_ou_cfg(grid={"T": 10 ** 400, "n_steps": 100})),
         "config error: grid: T must be finite"),
        # a float literal beyond the float range parses as inf
        (json.dumps(_ou_cfg(model=dict(_MODELS["ou"], init_mean=["BIG"]))).replace(
            '"BIG"', "1e400"), "config error: model: init_mean entry must be finite"),
    ], ids=["integer-T", "overflowing-mean"])
    def test_exit_2_one_line(self, tmp_path, raw, line):
        (tmp_path / "cfg.json").write_text(raw)
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "pathrev.cli", "run", "--config", "cfg.json",
             "--out", "o"], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 2
        assert proc.stderr == line + "\n"
        assert not (tmp_path / "o").exists()

    # finite JSON whose arithmetic overflows: numpy's warnings stay off stderr
    _BIG = {
        "ou-mean": _ou_cfg(model=dict(_MODELS["ou"], init_mean=[1e308])),
        "custom-drift": _ou_cfg(model=dict(_MODELS["custom"],
                                           drift={"name": "linear", "matrix": [[1e308]]})),
        "ou-cov": _ou_cfg(model=dict(_MODELS["ou"], init_cov=[[1e308]])),
        "custom-a": _ou_cfg(model=dict(_MODELS["custom"], diffusion_matrix=[[1e308]])),
        "cycle-rates": _cycle_cfg(model=dict(_MODELS["cycle"], rate_cw=1e308, rate_ccw=1e308)),
    }

    @pytest.mark.parametrize("case, command, line", [
        ("ou-mean", "run", "parameter error: every path has a non-finite action"),
        ("custom-drift", "simulate", "simulation error: non-finite state at path 6, step 1"),
        ("custom-drift", "run", "simulation error: non-finite state at path 6, step 1"),
        ("ou-cov", "simulate", "simulation error: non-finite state at path 0, step 1"),
        ("ou-cov", "run", "simulation error: non-finite state at path 0, step 1"),
        ("custom-a", "simulate", "simulation error: non-finite state at path 0, step 1"),
        ("custom-a", "run", "simulation error: non-finite state at path 0, step 1"),
        ("cycle-rates", "simulate", "parameter error: the total out-rate of a state overflows"),
        ("cycle-rates", "run", "parameter error: the total out-rate of a state overflows"),
    ])
    def test_overflow_exits_2_one_line(self, tmp_path, case, command, line):
        _write_cfg(tmp_path, self._BIG[case])
        proc = _cli(tmp_path, command, "--config", "cfg.json", "--out", "o")
        assert proc.returncode == 2
        assert proc.stderr == line + "\n"

    def test_huge_finite_rates_exit_2_at_once(self, tmp_path):
        # rates of 1e300 do not overflow, but a path would make about 2e300
        # jumps; the walk is refused before it simulates and before its
        # output directory exists (it once ran without end, leaving one)
        _write_cfg(tmp_path, _cycle_cfg(n_paths=5, model=dict(_MODELS["cycle"], rate_cw=1e300,
                                                              rate_ccw=1e300)))
        proc = _cli(tmp_path, "simulate", "--config", "cfg.json", "--out", "o", timeout=5)
        assert proc.returncode == 2
        assert proc.stderr == ("parameter error: max exit rate x horizon is 2e+300, above "
                               "10000: the walk would take about that many lockstep steps\n")
        assert not (tmp_path / "o").exists()


def _cli(tmp_path, *args, timeout=120):
    """pathrev in a fresh process, so a traceback or a warning shows on its
    stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-m", "pathrev.cli", *args], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=timeout, check=False)


# correlated noise: a = [[2, 1], [1, 2]], simulated through its Cholesky factor
_CORRELATED_A = [[2.0, 1.0], [1.0, 2.0]]
# the fingerprint tool's CUSTOM_2D_CORR: that a and a non-reversible drift
_CUSTOM_2D_CORR = {"type": "custom", "dim": 2,
                   "drift": {"name": "linear", "matrix": [[-1.0, 0.5], [-0.5, -1.0]],
                             "offset": [0.2, 0.0]},
                   "diffusion_matrix": _CORRELATED_A,
                   "init_mean": [1.0, 0.0], "init_cov": [[0.5, 0.0], [0.0, 0.5]]}


class TestCorrelatedNoise:
    """A custom model with an off-diagonal diffusion matrix simulates with
    noise of covariance a, and its reversal certifies."""

    def test_increment_covariance_is_a(self, tmp_path):
        model = {"type": "custom", "dim": 2, "drift": {"name": "zero"},
                 "diffusion_matrix": _CORRELATED_A,
                 "init_mean": [0.0, 0.0], "init_cov": [[1.0, 0.0], [0.0, 1.0]]}
        _write_cfg(tmp_path, _ou_cfg(model=model, n_paths=2000,
                                     grid={"T": 1.0, "n_steps": 50}))
        proc = _cli(tmp_path, "simulate", "--config", "cfg.json", "--out", "o")
        assert proc.returncode == 0, proc.stderr
        e = load_ensemble(str(tmp_path / "o" / "ensemble.bin"))
        dX = np.diff(e.paths, axis=1).reshape(-1, 2)
        # 1e5 increments: each entry's standard error is under 0.01
        assert np.abs(np.cov(dX.T) / e.grid.dt - _CORRELATED_A).max() <= 0.05

    def test_non_reversible_model_reverses(self, tmp_path):
        _write_cfg(tmp_path, _ou_cfg(model=_CUSTOM_2D_CORR, n_paths=2000,
                                     grid={"T": 1.0, "n_steps": 200}))
        proc = _cli(tmp_path, "verify", "--config", "cfg.json", "--out", "o",
                    "reversal", "ibp")
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        assert sorted(report["checks"]) == ["ibp", "reversal"]
        assert all(c["passed"] for c in report["checks"].values())

    @pytest.mark.parametrize("sigma, passed", [(None, True), (math.sqrt(2.0), False)],
                             ids=["cholesky", "uncorrelated"])
    def test_carre_checks_the_off_diagonal(self, tmp_path, monkeypatch, sigma, passed):
        # noise factor sqrt(2) I gives increments of covariance 2 I: the
        # declared a[0, 0] = 2 still holds, a[0, 1] = 1 does not
        from pathrev import cli
        if sigma is not None:
            load = cli.load_model

            def uncorrelated(obj):
                b = load(obj)
                return replace(b, diffusion=replace(b.diffusion, sigma=sigma * np.eye(2)))

            monkeypatch.setattr(cli, "load_model", uncorrelated)
        cfg = _ou_cfg(model=_CUSTOM_2D_CORR, n_paths=2000, grid={"T": 1.0, "n_steps": 200},
                      checks=["carre"])
        out = tmp_path / "o"
        rc = main(["verify", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
        assert rc == (0 if passed else 1)
        rep = json.loads((out / "verify_report.json").read_text())["checks"]["carre"]
        assert rep["expected"] == 2.0 and rep["cross"]["expected"] == 1.0
        # the diagonal estimate passes either way
        assert abs(rep["estimate"]) <= rep["z"] * rep["mc_stderr"] + rep["atol"]
        assert rep["cross"]["passed"] is passed and rep["passed"] is passed


class TestStoredKde:
    """A kde:<file> ensemble must hold exactly what its header describes,
    at least two paths and the config's grid; else reverse exits 2 with one
    stderr line and writes no directory."""

    def _stored(self, tmp_path, n_paths, n_steps=10):
        path = _write_cfg(tmp_path, _ou_cfg(n_paths=n_paths, grid={"T": 1.0, "n_steps": n_steps}),
                          name="sim.json")
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "sim")]) == 0
        return tmp_path / "sim" / "ensemble.bin"

    def _reverse(self, tmp_path, stored):
        _write_cfg(tmp_path, _ou_cfg(n_paths=20, grid={"T": 1.0, "n_steps": 10},
                                     density=f"kde:{stored}"))
        return _cli(tmp_path, "reverse", "--config", "cfg.json", "--out", "o")

    @pytest.mark.parametrize("cut, line", [
        (lambda b: b[:30], "container header cut short"),
        (lambda b: b[:-100], "bytes where the header describes"),
        (lambda b: b + bytes(8), "bytes where the header describes"),
        # the model tag starts after the 6-byte magic and the 42-byte header
        (lambda b: b[:48] + b"\xff" + b[49:], "model tag is not UTF-8"),
    ], ids=["header", "short-data", "padded", "tag"])
    def test_damaged_container(self, tmp_path, cut, line):
        stored = self._stored(tmp_path, 20)
        stored.write_bytes(cut(stored.read_bytes()))
        proc = self._reverse(tmp_path, stored)
        assert proc.returncode == 2
        assert re.fullmatch(f"consistency error: {re.escape(str(stored))}: .*{line}.*\n",
                            proc.stderr)
        assert not (tmp_path / "o").exists()

    def test_one_stored_path(self, tmp_path):
        stored = self._stored(tmp_path, 1)
        proc = self._reverse(tmp_path, stored)
        assert proc.returncode == 2
        assert proc.stderr == (f"config error: stored ensemble {stored} holds 1 path, "
                               "too few for a KDE\n")
        assert not (tmp_path / "o").exists()

    def test_other_step_count(self, tmp_path):
        # the KDE would snap each query of the 10-step run to one of the 5
        # stored nodes
        stored = self._stored(tmp_path, 300, n_steps=4)
        proc = self._reverse(tmp_path, stored)
        assert proc.returncode == 2
        assert proc.stderr == (f"config error: stored ensemble {stored} does not match "
                               "the config grid\n")
        assert not (tmp_path / "o").exists()

    def test_one_path_kde_run(self, tmp_path):
        _write_cfg(tmp_path, _ou_cfg(n_paths=1, density="kde",
                                     grid={"T": 1.0, "n_steps": 10}))
        proc = _cli(tmp_path, "run", "--config", "cfg.json", "--out", "o")
        assert proc.returncode == 2
        assert proc.stderr == "config error: density 'kde' needs n_paths >= 2, got 1\n"
        assert not (tmp_path / "o").exists()


class TestGaussianLawCache:
    def test_run_builds_at_most_two_laws_per_node(self, tmp_path, monkeypatch):
        # the run queries the flow at the grid nodes and at the reversed
        # clock's T - s; each distinct time builds its law once
        from pathrev import models

        flows = []
        build = models.ou_marginal_flow

        def recorded(*args):
            flows.append(build(*args))
            return flows[-1]

        calls = []
        at = models.GaussianFlow.at

        def counted(self, t):
            calls.append(t)
            return at(self, t)

        monkeypatch.setattr(models, "ou_marginal_flow", recorded)
        monkeypatch.setattr(models.GaussianFlow, "at", counted)
        n_steps = 400
        cfg = _ou_cfg(grid={"T": 1.0, "n_steps": n_steps}, n_paths=200)
        del cfg["checks"]  # the default checks of an OU model: all six
        rc = main(["run", "--config", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert rc in (0, 1)
        (flow,) = flows
        assert 0 < len(flow._laws) <= 2 * (n_steps + 1)
        assert len(calls) > 2 * (n_steps + 1)


@pytest.fixture(scope="module")
def cycle_run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cycle")
    path = _write_cfg(tmp, _cycle_cfg())
    out = tmp / "artifacts"
    rc = main(["run", "--config", path, "--out", str(out)])
    return rc, out


@pytest.fixture(scope="module")
def ou_run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ou")
    path = _write_cfg(tmp, _ou_cfg())
    out = tmp / "artifacts"
    rc = main(["run", "--config", path, "--out", str(out)])
    return rc, out


class TestCycleRun:
    def test_exit_code_and_files(self, cycle_run_dir):
        rc, out = cycle_run_dir
        assert rc == 0
        for name in ("manifest.json", "marginals.csv", "reversed_intensities.csv",
                     "entropy_report.json", "verify_report.json"):
            assert (out / name).is_file(), name

    def test_marginals_start_uniform(self, cycle_run_dir):
        _, out = cycle_run_dir
        lines = _read_lines(out / "marginals.csv")
        assert lines[0] == "t,p0,p1,p2,p3"
        assert lines[1] == "0.0,0.25,0.25,0.25,0.25"

    def test_reversed_table_is_the_swap(self, cycle_run_dir):
        # uniform law is invariant, so the reversed intensities transpose
        # the forward ones at every tabulated time
        _, out = cycle_run_dir
        lines = _read_lines(out / "reversed_intensities.csv")
        assert lines[0] == "from_state,to_state,t,j_fwd,j_bwd"
        assert "0,1,0.0,2.0,1.0" in lines
        assert "1,0,0.0,1.0,2.0" in lines
        assert "0,1,1.0,2.0,1.0" in lines
        assert len(lines) == 1 + 8 * 5

    def test_entropy_report(self, cycle_run_dir):
        _, out = cycle_run_dir
        obj = json.loads((out / "entropy_report.json").read_text())
        assert obj["relative_entropy"] == pytest.approx(-1.0, abs=1e-9)
        assert obj["initial_term"] == pytest.approx(-math.log(4.0), abs=1e-12)
        assert obj["flux_term"] == pytest.approx(obj["relative_entropy"]
                                                - obj["initial_term"], abs=1e-15)

    def test_verify_report(self, cycle_run_dir):
        _, out = cycle_run_dir
        obj = json.loads((out / "verify_report.json").read_text())
        assert obj["passed"] is True
        assert set(obj["checks"]) == {"reversal", "ibp"}
        assert obj["checks"]["ibp"]["max_abs_residual"] <= 1e-12


class TestOuRun:
    def test_exit_code_and_files(self, ou_run_dir):
        rc, out = ou_run_dir
        assert rc == 0
        for name in ("manifest.json", "ensemble.bin", "reversed_probe.csv",
                     "density_probe.csv", "reversed_model.json",
                     "entropy_report.json", "verify_report.json"):
            assert (out / name).is_file(), name

    def test_stored_ensemble_roundtrips(self, ou_run_dir):
        _, out = ou_run_dir
        e = load_ensemble(str(out / "ensemble.bin"))
        assert e.n_paths == 4000 and e.dim == 1
        assert e.grid.n_steps == 100 and e.grid.T == 1.0
        assert e.seed == 11

    def test_reversed_model_is_affine(self, ou_run_dir):
        # exact Gaussian density makes b* affine; at reversed time 0 the
        # marginal is N(e^{-1}, 1/2), so A = -1 and c = 2/e
        _, out = ou_run_dir
        obj = json.loads((out / "reversed_model.json").read_text())
        assert obj["kind"] == "reversed_drift_affine"
        assert obj["times"][0] == 0.0 and obj["times"][-1] == 1.0
        assert obj["a"] == [[1.0]]
        assert obj["c"][0][0] == pytest.approx(2.0 / math.e, abs=1e-12)
        assert obj["A"][0][0][0] == pytest.approx(-1.0, abs=1e-12)

    def test_density_probe_layout(self, ou_run_dir):
        _, out = ou_run_dir
        lines = _read_lines(out / "density_probe.csv")
        assert lines[0] == "t,x,pdf,score"
        assert len(lines) == 1 + 11 * 5
        t0, x0, pdf0, sc0 = (float(v) for v in lines[1].split(","))
        assert t0 == 0.0
        # first probe sits 2 sd + 0.5 left of the initial mean
        assert x0 == pytest.approx(1.0 - 2.0 * math.sqrt(0.5) - 0.5, abs=1e-12)
        assert pdf0 > 0.0 and np.isfinite(sc0)

    def test_verify_report_passes(self, ou_run_dir):
        _, out = ou_run_dir
        obj = json.loads((out / "verify_report.json").read_text())
        assert obj["passed"] is True
        assert set(obj["checks"]) == {"ibp", "continuity", "carre"}
        assert obj["checks"]["continuity"]["sup_residual"] <= 1e-6

    def test_entropy_report_written(self, ou_run_dir):
        _, out = ou_run_dir
        obj = json.loads((out / "entropy_report.json").read_text())
        assert len(obj) == 20
        assert all(isinstance(v, (int, float)) for v in obj.values())


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        # empty check list keeps this fast; byte identity is what matters here
        path = _write_cfg(tmp_path, _ou_cfg(n_paths=500, checks=[]))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["run", "--config", path, "--out", str(out1)]) == 0
        assert main(["run", "--config", path, "--out", str(out2)]) == 0
        names1 = sorted(os.listdir(out1))
        assert names1 == sorted(os.listdir(out2))
        for name in names1:
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, name

    def test_seed_override_changes_paths(self, tmp_path):
        path = _write_cfg(tmp_path, _ou_cfg(n_paths=200, checks=["ibp"]))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["simulate", "--config", path, "--out", str(out1)])
        main(["simulate", "--config", path, "--out", str(out2), "--seed", "12"])
        assert (out1 / "ensemble.bin").read_bytes() != (out2 / "ensemble.bin").read_bytes()


class TestSimulateCommand:
    def test_diffusion_csv(self, tmp_path):
        path = _write_cfg(tmp_path, _ou_cfg(n_paths=200,
                                            grid={"T": 1.0, "n_steps": 50}))
        out = tmp_path / "sim"
        rc = main(["simulate", "--config", path, "--out", str(out),
                   "--format", "csv"])
        assert rc == 0
        lines = _read_lines(out / "ensemble.csv")
        assert lines[0] == "path_id,t,x1"
        assert len(lines) == 1 + 200 * 51

    def test_csv_layout(self, tmp_path):
        path = _write_cfg(tmp_path, _ou_cfg(model=_OU_2D, n_paths=3,
                                            grid={"T": 1.0, "n_steps": 4}))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", path, "--out", str(out), "--format", "csv"]) == 0
        e = load_ensemble(str(out / "ensemble.bin"))
        lines = _read_lines(out / "ensemble.csv")
        assert lines[0] == "path_id,t,x1,x2"
        assert len(lines) == 1 + 3 * 5
        # full-precision floats round-trip through repr
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 0.0
        assert float(first[2]) == e.paths[0, 0, 0]

    def test_walk_events(self, tmp_path):
        path = _write_cfg(tmp_path, _cycle_cfg(n_paths=50))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        lines = _read_lines(out / "events.csv")
        assert lines[0] == "path_id,t,from_state,to_state"
        assert len(lines) > 1
        for line in lines[1:]:
            pid, t, u, v = line.split(",")
            assert 0 <= int(u) < 4 and 0 <= int(v) < 4
            assert 0.0 < float(t) < 1.0


def _repr_csv(header, columns) -> str:
    """The reference writer: every row through %r for floats, %d for ints."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return ",".join(header) + "\n" + "".join(
        ",".join("%r" % v if isinstance(v, float) else "%d" % v for v in row) + "\n"
        for row in rows)


def _cells_read_as_written(text: str) -> None:
    """Each cell below the header is str of the int or repr of the float it
    reads as, so it is what the reference writer prints for that value."""
    for line in text.splitlines()[1:]:
        for cell in line.split(","):
            assert cell in (str(int(cell)) if re.fullmatch(r"-?\d+", cell)
                            else repr(float(cell))), cell


class TestCsvArtifacts:
    @pytest.mark.parametrize("rates, T, n_paths", [((0.2, 0.1), 50.0, 2000),
                                                   ((30.0, 10.0), 2.0, 3000)],
                             ids=["slow-T50", "fast-30-10"])
    def test_events_match_reference_writer(self, tmp_path, rates, T, n_paths):
        model = {"type": "cycle", "n": 4, "rate_cw": rates[0], "rate_ccw": rates[1]}
        path = _write_cfg(tmp_path, _cycle_cfg(model=model, grid={"T": T, "n_steps": 200},
                                               n_paths=n_paths))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        e = ctmc_simulate(load_model(model).walk, T, n_paths, 7)
        path_id = np.arange(n_paths).repeat(np.diff(e.offsets))
        want = _repr_csv(["path_id", "t", "from_state", "to_state"],
                         [path_id, e.times, e.src, e.dst])
        got = (out / "events.csv").read_text()
        assert got == want
        if T == 50.0:
            assert re.search(r",\d\d\.\d+,", got)
        else:
            # times below 1e-4 take repr's scientific notation
            assert re.search(r",\d(\.\d+)?e-0[5-9],", got)

    def test_small_tables_read_as_written(self, tmp_path, capsys, cycle_run_dir, ou_run_dir):
        for out in (cycle_run_dir[1], ou_run_dir[1]):
            for csv in sorted(out.glob("*.csv")):
                _cells_read_as_written(csv.read_text())
        # a KDE with few paths leaves probe points outside its support: nan
        path = _write_cfg(tmp_path, _ou_cfg(density="kde", n_paths=60))
        assert main(["reverse", "--config", path, "--out", str(tmp_path / "kde")]) == 0
        probe = (tmp_path / "kde" / "density_probe.csv").read_text()
        assert ",nan\n" in probe
        _cells_read_as_written(probe)
        capsys.readouterr()
        assert main(["rw", "--config", _write_cfg(tmp_path, _cycle_cfg()), "reverse"]) == 0
        _cells_read_as_written(capsys.readouterr().out)


class TestReverseCommand:
    def test_brownian_probe_values(self, tmp_path):
        cfg = {"model": {"type": "bm", "init_mean": [0.0], "init_cov": [[1.0]]},
               "grid": {"T": 1.0, "n_steps": 100}, "n_paths": 50, "seed": 3,
               "density": "exact"}
        path = _write_cfg(tmp_path, cfg)
        out = tmp_path / "rev"
        assert main(["reverse", "--config", path, "--out", str(out)]) == 0
        lines = _read_lines(out / "reversed_probe.csv")
        assert lines[0] == "t,x,b_star"
        # reversed clock: s = 0 sees the terminal law N(0, 2), s = 1 the
        # initial law N(0, 1)
        assert "0.0,1.0,-0.5" in lines
        assert "1.0,1.0,-1.0" in lines
        obj = json.loads((out / "reversed_model.json").read_text())
        assert obj["kind"] == "reversed_drift_affine"
        assert obj["c"][0] == [0.0]
        assert obj["A"][0] == [[-0.5]]

    def test_kde_from_stored_ensemble(self, tmp_path):
        cfg = _ou_cfg(n_paths=2000)
        path = _write_cfg(tmp_path, cfg)
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", path, "--out", str(sim)]) == 0
        stored = str(sim / "ensemble.bin")
        path2 = _write_cfg(tmp_path, _ou_cfg(n_paths=2000,
                                             density="kde:" + stored),
                           name="cfg2.json")
        out = tmp_path / "rev"
        assert main(["reverse", "--config", path2, "--out", str(out)]) == 0
        obj = json.loads((out / "reversed_model.json").read_text())
        assert obj["kind"] == "reversed_drift_probe"
        assert len(obj["x"]) == 11
        assert len(obj["b_star"]) == 5

    def test_kde_path_missing(self, tmp_path, capsys):
        path = _write_cfg(tmp_path, _ou_cfg(density="kde:/nonexistent.bin"))
        assert main(["reverse", "--config", path, "--out",
                     str(tmp_path / "o")]) == 2
        assert "cannot read ensemble" in capsys.readouterr().err

    def test_kde_grid_mismatch(self, tmp_path, capsys):
        path = _write_cfg(tmp_path, _ou_cfg(n_paths=200))
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", path, "--out", str(sim)]) == 0
        stored = str(sim / "ensemble.bin")
        other = _ou_cfg(n_paths=200, grid={"T": 2.0, "n_steps": 100},
                        density="kde:" + stored)
        path2 = _write_cfg(tmp_path, other, name="cfg2.json")
        assert main(["reverse", "--config", path2, "--out",
                     str(tmp_path / "o")]) == 2
        assert "does not match" in capsys.readouterr().err


class TestEntropyCommand:
    def test_ou_report_and_fisher_table(self, tmp_path, capsys):
        path = _write_cfg(tmp_path, _ou_cfg(n_paths=2000))
        out = tmp_path / "ent"
        assert main(["entropy", "--config", path, "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        stored = json.loads((out / "entropy_report.json").read_text())
        assert printed == stored
        lines = _read_lines(out / "fisher.csv")
        assert lines[0] == "t,free_energy,fisher"
        # one row per grid node
        assert len(lines) == 1 + 101

    def _report(self, tmp_path, model, n_steps):
        cfg = _ou_cfg(model=model, n_paths=2000, grid={"T": 1.0, "n_steps": n_steps})
        out = tmp_path / "o"
        assert main(["entropy", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        return json.loads((out / "entropy_report.json").read_text())

    def test_brownian_reference(self, tmp_path):
        # against N(0, 1/2) with drift -x, beta_fwd = x; BM's Euler marginals
        # are exact and E X_t^2 = m0^2 + v0 + t is linear in t, so the
        # trapezoid sum has no bias: E A_fwd = T (m0^2 + v0) / 2 + T^2 / 4
        m0, v0 = 0.5, 0.4
        rep = self._report(tmp_path, {"type": "bm", "init_mean": [m0], "init_cov": [[v0]]}, 50)
        assert rep["boundary_initial"] == gaussian_relative_entropy(
            Gaussian([m0], [[v0]]), Gaussian([0.0], [[0.5]]))
        want = (m0 ** 2 + v0) / 2 + 1 / 4
        assert abs(rep["action_fwd"] - want) <= 3 * rep["action_fwd_stderr"]

    def test_stationary_rotation(self, tmp_path):
        # both boundary terms vanish, beta_os = 0 and beta_cu = beta_fwd = J x
        n, dt = 100, 0.01
        rep = self._report(tmp_path, _ROTATION, n)
        assert rep["boundary_initial"] == 0.0 and rep["boundary_terminal"] == 0.0
        # |beta_os|^2 is rounding of |x|^2-sized terms
        assert 0.0 <= rep["action_osmotic"] <= np.finfo(float).eps ** 2 * rep["action_current"]
        # E |J X_t|^2 / 2 = tr(Sigma_k) / 2 for the Euler covariances Sigma_k
        # of the simulated chain, summed by the trapezoid rule
        S, F = 0.5 * np.eye(2), np.eye(2) + np.array(_ROTATION_M) * dt
        vals = [np.trace(S) / 2]
        for _ in range(n):
            S = F @ S @ F.T + dt * np.eye(2)
            vals.append(np.trace(S) / 2)
        want = dt * (sum(vals) - (vals[0] + vals[-1]) / 2)
        assert abs(rep["action_current"] - want) <= 3 * rep["action_current_stderr"]


class TestVerifyCommand:
    def test_positional_check_failure_exits_1(self, tmp_path, capsys):
        # the bundled cycle is biased, so counting-measure detailed balance
        # must fail
        path = _write_cfg(tmp_path, _cycle_cfg())
        out = tmp_path / "ver"
        rc = main(["verify", "--config", path, "--out", str(out),
                   "detailed-balance"])
        assert rc == 1
        obj = json.loads((out / "verify_report.json").read_text())
        assert obj["passed"] is False
        assert obj["checks"]["detailed-balance"]["residual"] == 1.0
        assert "check detailed-balance: FAIL" in capsys.readouterr().out

    def test_config_checks_pass(self, tmp_path):
        path = _write_cfg(tmp_path, _cycle_cfg())
        assert main(["verify", "--config", path, "--out",
                     str(tmp_path / "ver")]) == 0

    # N(0, 100): F falls by 42.5, and the trapezoid error of the Fisher
    # integral reads 5.7e-3, 3.6e-4 and 2.2e-5, each above a fixed 1e-5;
    # (1.0, 0.5, 400) is the bundled OU
    @pytest.mark.parametrize("mean, cov, n_steps", [(0.0, 100.0, 50), (0.0, 100.0, 200),
                                                    (0.0, 100.0, 800), (1.0, 0.5, 400)])
    def test_dissipation_judges_its_quadrature_error(self, tmp_path, mean, cov, n_steps):
        cfg = _ou_cfg(model={"type": "ou", "init_mean": [mean], "init_cov": [[cov]]},
                      grid={"T": 1.0, "n_steps": n_steps}, n_paths=10)
        path = _write_cfg(tmp_path, cfg)
        out = tmp_path / "ver"
        assert main(["verify", "--config", path, "--out", str(out), "dissipation"]) == 0
        rep = json.loads((out / "verify_report.json").read_text())["checks"]["dissipation"]
        assert rep["passed"] and rep["residual"] == abs(rep["residual_h"])
        assert rep["extrapolated_residual"] <= rep["bound"]
        assert rep["bound"] == pytest.approx(abs(rep["residual_h"]), rel=1e-2)

    @pytest.mark.parametrize("density", ["exact", "kde"])
    def test_reversal_start_law(self, tmp_path, monkeypatch, density):
        # the reversed ensemble starts from the exact law at T, else from the
        # mean and covariance of the forward ensemble's terminal slice
        from pathrev import cli
        from pathrev.models import load_model

        runs = []
        simulate = cli.euler_maruyama

        def recorded(spec, sim):
            runs.append((spec, simulate(spec, sim)))
            return runs[-1][1]

        monkeypatch.setattr(cli, "euler_maruyama", recorded)
        cfg = _ou_cfg(n_paths=200, grid={"T": 1.0, "n_steps": 20}, density=density)
        rc = main(["verify", "--config", _write_cfg(tmp_path, cfg), "--out",
                   str(tmp_path / "ver"), "reversal"])
        assert rc in (0, 1)
        (_, fwd), (rev_spec, _) = runs
        assert rev_spec.tag.endswith("~rev")
        if density == "exact":
            law = load_model(cfg["model"]).flow.at(1.0)
            mean, cov = law.mean, law.cov
        else:
            XT = fwd.paths[:, -1, :]
            mean, cov = XT.mean(axis=0), np.atleast_2d(np.cov(XT.T))
        assert np.array_equal(rev_spec.init.mean, mean)
        assert np.array_equal(rev_spec.init.cov, cov)

    @pytest.mark.parametrize("density", ["exact", "kde"])
    def test_continuity_names_the_flow_it_probed(self, tmp_path, density):
        # a KDE run's continuity probes the model's exact flow too
        cfg = _ou_cfg(n_paths=200, grid={"T": 1.0, "n_steps": 20}, density=density)
        out = tmp_path / "ver"
        assert main(["verify", "--config", _write_cfg(tmp_path, cfg), "--out", str(out),
                     "continuity"]) == 0
        rep = json.loads((out / "verify_report.json").read_text())["checks"]["continuity"]
        assert rep["flow"] == "exact:linear"

    def test_walk_involution_from_a_non_invariant_start(self, tmp_path, monkeypatch):
        # the 4-cycle with rates 2 and 1 from p0 = (0.4, 0.3, 0.2, 0.1): the
        # reversed out-rate of state 3 reaches 8 at t = 0, and reversing the
        # reversed walk as it stands returns the forward rates
        from pathrev import models
        from pathrev.reversal import reversed_jump_intensities

        p0 = np.array([0.4, 0.3, 0.2, 0.1])
        cycle = models.biased_cycle_walk

        def started(n, rate_cw, rate_ccw):
            base = cycle(n, rate_cw, rate_ccw)
            return models.graph_walk(base.adjacency, base.intensity_matrix, p0)

        monkeypatch.setattr(models, "biased_cycle_walk", started)
        spec = started(4, 2.0, 1.0)
        rw = reversed_jump_intensities(spec, models.walk_marginal_fn(spec), 1.0)
        assert rw.backward_intensity(0.0).sum(axis=1).max() == pytest.approx(8.0, rel=1e-12)

        path = _write_cfg(tmp_path, _cycle_cfg())
        out = tmp_path / "ver"
        assert main(["verify", "--config", path, "--out", str(out), "reversal"]) == 0
        rep = json.loads((out / "verify_report.json").read_text())["checks"]["reversal"]
        assert rep["passed"] is True
        assert rep["involution_residual"] <= 1e-12

    @pytest.mark.parametrize("n_paths", [1, 4])
    def test_reversal_too_small_to_reject_fails(self, tmp_path, capsys, n_paths):
        # n paths per side give C(2n, n) splits; below 1/0.01 the permutation
        # test cannot reach p < 0.01, so the check must not pass
        path = _write_cfg(tmp_path, _ou_cfg(n_paths=n_paths,
                                            grid={"T": 1.0, "n_steps": 20}))
        out = tmp_path / "ver"
        assert main(["verify", "--config", path, "--out", str(out), "reversal"]) == 1
        rep = json.loads((out / "verify_report.json").read_text())["checks"]["reversal"]
        assert rep["passed"] is False and rep["n_compare"] == n_paths
        assert str(math.comb(2 * n_paths, n_paths)) in rep["reason"]
        assert "check reversal: FAIL" in capsys.readouterr().out

    def test_reversal_runs_from_five_paths(self, tmp_path):
        path = _write_cfg(tmp_path, _ou_cfg(n_paths=5, grid={"T": 1.0, "n_steps": 20}))
        out = tmp_path / "ver"
        main(["verify", "--config", path, "--out", str(out), "reversal"])
        rep = json.loads((out / "verify_report.json").read_text())["checks"]["reversal"]
        assert "reason" not in rep and len(rep["slices"]) == 5

    def test_short_horizon_default_checks(self, tmp_path):
        # at T = 0.1 the default lags (nelson 0.1 and 0.2) overran the grid
        cfg = {k: v for k, v in _ou_cfg(n_paths=500).items() if k != "checks"}
        path = _write_cfg(tmp_path, {**cfg, "grid": {"T": 0.1, "n_steps": 40}})
        out = tmp_path / "run"
        assert main(["run", "--config", path, "--out", str(out)]) in (0, 1)
        checks = json.loads((out / "verify_report.json").read_text())["checks"]
        assert sorted(checks) == sorted(_DEFAULT_CHECKS["ou"])
        assert "reason" not in checks["nelson"]

    def test_carre_lag_fits_the_grid(self, tmp_path):
        path = _write_cfg(tmp_path, _ou_cfg(n_paths=500, checks=["carre"],
                                            grid={"T": 0.05, "n_steps": 40}))
        out = tmp_path / "run"
        assert main(["run", "--config", path, "--out", str(out)]) in (0, 1)
        rep = json.loads((out / "verify_report.json").read_text())["checks"]["carre"]
        # node(10) + 30 steps of 0.00125 ends at T; the 0.05 lag would not
        assert rep["t"] == 10 * 0.00125 and rep["h"] == 30 * 0.00125

    def test_nelson_one_step_fails_with_reason(self, tmp_path, capsys):
        path = _write_cfg(tmp_path, _ou_cfg(n_paths=500, checks=["nelson"],
                                            grid={"T": 1.0, "n_steps": 1}))
        out = tmp_path / "run"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        rep = json.loads((out / "verify_report.json").read_text())["checks"]["nelson"]
        assert rep["passed"] is False and "two lags" in rep["reason"]
        assert "check nelson: FAIL" in capsys.readouterr().out

    # runs that leave a check nothing to evaluate; the library raises, and
    # the check FAILs with that message as its reason
    _UNEVALUABLE = {
        # T/4 = 2.5e-5 lies within continuity's 1e-4 time stencil of 0
        "short-horizon": (_ou_cfg(n_paths=50, grid={"T": 1e-4, "n_steps": 3}),
                          "continuity", "probe time 2.5e-05 too close to the interval ends"),
        # at seed 3 no path starts within nelson's 0.2 window of the mean
        "wide-start": (_ou_cfg(n_paths=10, seed=3, grid={"T": 1.0, "n_steps": 50},
                               model={"type": "ou", "init_mean": [0.0],
                                      "init_cov": [[100.0]]}),
                       "nelson", "no paths within 0.2 of [0.] at t=0.0"),
        "kde-two-paths": (_ou_cfg(n_paths=2, seed=3, density="kde",
                                  grid={"T": 1.0, "n_steps": 50}),
                          "nelson", "no paths within 0.2 of [1.] at t=0.0"),
    }

    @pytest.mark.parametrize("case, command", [
        ("short-horizon", "run"), ("wide-start", "run"), ("wide-start", "verify"),
        ("kde-two-paths", "run")])
    def test_unevaluable_check_fails_with_reason(self, tmp_path, capsys, case, command):
        cfg, check, reason = self._UNEVALUABLE[case]
        # the default checks of ou, which include continuity and nelson
        cfg = {k: v for k, v in cfg.items() if k != "checks"}
        out = tmp_path / "o"
        argv = [command, "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]
        assert main(argv + ([check] if command == "verify" else [])) == 1
        report = json.loads((out / "verify_report.json").read_text())
        assert report["passed"] is False
        assert report["checks"][check]["passed"] is False
        assert report["checks"][check]["reason"] == reason
        captured = capsys.readouterr()
        assert f"check {check}: FAIL" in captured.out and captured.err == ""

    def test_unknown_positional_check(self, tmp_path, capsys):
        path = _write_cfg(tmp_path, _cycle_cfg())
        assert main(["verify", "--config", path, "--out",
                     str(tmp_path / "ver"), "spectral"]) == 2
        assert "unknown check name" in capsys.readouterr().err


class TestRwCommand:
    def test_reverse_csv_stdout(self, tmp_path, capsys):
        path = _write_cfg(tmp_path, _cycle_cfg())
        assert main(["rw", "--config", path, "reverse"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "from_state,to_state,t,j_fwd,j_bwd"
        assert len(lines) == 1 + 8 * 5

    def test_reverse_json_and_artifact(self, tmp_path, capsys):
        path = _write_cfg(tmp_path, _cycle_cfg())
        out = tmp_path / "rw"
        assert main(["rw", "--config", path, "--out", str(out),
                     "reverse", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 8 * 5
        swap = {r["t"] == 0.0 and (r["from_state"], r["to_state"]) == (0, 1)
                for r in rows}
        assert True in swap
        assert (out / "reversed_intensities.csv").is_file()
        assert (out / "manifest.json").is_file()

    def test_entropy_action(self, tmp_path, capsys):
        path = _write_cfg(tmp_path, _cycle_cfg())
        assert main(["rw", "--config", path, "entropy"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["relative_entropy"] == pytest.approx(-1.0, abs=1e-9)

    def test_ibp_action(self, tmp_path, capsys):
        path = _write_cfg(tmp_path, _cycle_cfg())
        assert main(["rw", "--config", path, "ibp"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["passed"] is True

    def test_needs_walk_model(self, tmp_path, capsys):
        path = _write_cfg(tmp_path, _ou_cfg())
        assert main(["rw", "--config", path, "reverse"]) == 2
        assert "random-walk model" in capsys.readouterr().err


class TestParser:
    def test_help_lists_checks(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name in CHECKS:
            assert name in text

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_simulate_format_is_csv_only(self, tmp_path, capsys):
        path = _write_cfg(tmp_path, _cycle_cfg())
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", path, "--format", "json"])
        assert exc.value.code == 2

    def test_unknown_rw_action(self, tmp_path, capsys):
        path = _write_cfg(tmp_path, _cycle_cfg())
        with pytest.raises(SystemExit):
            main(["rw", "--config", path, "spin"])


def test_package_import_loads_no_submodule():
    # every name is imported from its module; the package re-exports nothing
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, pathrev; "
            "print(sorted(m for m in sys.modules if m.startswith('pathrev.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_leaves_scipy_linalg_unloaded(tmp_path):
    # scipy.linalg roughly doubles the import time and the resident memory
    # of `import numpy, scipy`; the exact flows and walk marginals take
    # their exponentials from core.expm, so neither the import nor a
    # one-dimensional run of any diffusion model loads it.  Each fresh
    # interpreter keeps the modules this test run already imported out of
    # the answer
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    loaded = "print('scipy.linalg' in sys.modules)"
    codes = {"import": f"import sys, pathrev.cli; {loaded}"}
    for model in ("ou", "bm", "custom"):
        cfg = _ou_cfg(model=_MODELS[model], n_paths=200, grid={"T": 1.0, "n_steps": 50})
        del cfg["checks"]  # the model type's default checks
        _write_cfg(tmp_path, cfg, f"{model}.json")
        codes[model] = ("import sys, pathrev.cli; "
                        f"rc = pathrev.cli.main(['run', '--config', '{model}.json', "
                        f"'--out', '{model}-out']); print(rc); {loaded}")
    for name, code in codes.items():
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, (name, proc.stderr)
        lines = proc.stdout.splitlines()
        assert lines[-1] == "False", name
        if name != "import":
            assert lines[-2] in ("0", "1"), (name, proc.stdout)


def test_two_dimensional_run_leaves_scipy_spatial_unloaded(tmp_path):
    # the reversal check of a 2-d run builds its pooled distance matrix in
    # numpy: scipy.spatial's cdist would load scipy.linalg with it
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    cfg = _ou_cfg(model=_OU_2D, n_paths=200, grid={"T": 1.0, "n_steps": 50})
    del cfg["checks"]  # the default checks, reversal among them
    _write_cfg(tmp_path, cfg)
    code = ("import sys, pathrev.cli; "
            "rc = pathrev.cli.main(['run', '--config', 'cfg.json', '--out', 'out']); "
            "print(rc, 'scipy.spatial' in sys.modules, 'scipy.linalg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] in ("0 False False", "1 False False"), proc.stdout
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert "reversal" in report["checks"]
