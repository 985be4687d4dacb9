"""Command line interface: config parsing, exit codes, certificates, verify."""

import dataclasses
import inspect
import json
import os
import pathlib
import re

import numpy as np
import pytest

from ballsaddle import (Ball, ConfigError, NonConvergence, SaddlePoint, ba_payoff, ba_report,
                        ba_small_radius, map_from_dict, run_saddle, small_radius,
                        solve_best_approx, solve_prox_pair, solve_vi, solve_vi_shifted,
                        vi_payoff, vi_report)
from ballsaddle import ba as ba_module
from ballsaddle import cli as cli_module
from ballsaddle import saddle as saddle_module
from ballsaddle import vi as vi_module
from ballsaddle.cli import (_FIELDS, CERT_FORMAT, COMMANDS, _build_parser,
                            _to_jsonable, main, parse_config, run, set_from_dict)
from ballsaddle.saddle import UNIQUENESS_STARTS, contraction, raise_failure

AFFINE = {"kind": "affine", "A": [[1.0, 0.0], [0.0, 1.0]],
          "b": [2.0, 0.0], "rho": 1.0}


def quadratic_problem(n, seed):
    """A quadratic problem document of the benchmark family at dimension n:
    33k coefficients at n = 32."""
    rng = np.random.default_rng(seed)
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    Q = rng.standard_normal((n, n, n))
    Q = 0.5 * (Q + Q.transpose(0, 2, 1))
    Q *= 0.1 / np.sqrt(sum(np.linalg.norm(q, 2) ** 2 for q in Q))
    return {"kind": "quadratic", "A": A.tolist(), "b": (2.0 * b / np.linalg.norm(b)).tolist(),
            "Q": Q.tolist(), "rho": 1.0}


QUADRATIC_32 = quadratic_problem(32, 0)


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_minimal_vi(self):
        cfg = parse_config({"problem": AFFINE}, "vi")
        assert cfg.command == "vi" and cfg.seed == 0 and not cfg.heuristic

    def test_unknown_field_path(self):
        with pytest.raises(ConfigError, match="surprise"):
            parse_config({"problem": AFFINE, "surprise": 1}, "vi")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="w"):
            parse_config({"problem": AFFINE}, "vi-shifted")

    def test_bad_tolerance_key(self):
        with pytest.raises(ConfigError, match="tolerances"):
            parse_config({"problem": AFFINE, "tolerances": {"wat": 1e-8}}, "vi")

    @pytest.mark.parametrize("command, doc, path", [
        # each of these was read as a number and wrote an exit-0 certificate
        ("vi", {"problem": dict(AFFINE, rho=True)}, "problem.rho"),
        ("vi", {"problem": dict(AFFINE, rho="0.5")}, "problem.rho"),
        ("vi", {"problem": dict(AFFINE, b=["2", 0])}, "problem.b"),
        # this box was read as [-0.5, 1] x [-0.5, 0.5]
        ("prox-pair", {"problem": AFFINE, "t_set": {"kind": "box", "lower": ["-0.5", -0.5],
                                                    "upper": [True, 0.5]}}, "t_set.lower"),
        # these were a ValueError, an OverflowError and a TypeError traceback
        ("vi", {"problem": dict(AFFINE, A=[[1.0, 0.0], [0.0]])}, "problem.A"),
        ("vi", {"problem": dict(AFFINE, b=[10**400, 0])}, "problem.b"),
        ("vi", {"problem": dict(AFFINE, b={"x": 1})}, "problem.b")])
    def test_malformed_document_is_a_config_error(self, tmp_path, capsys, command, doc, path):
        assert main([command, "--config", write_config(tmp_path, doc)]) == 1
        assert f"config error: {path}:" in capsys.readouterr().err

    def test_readme_config_example_parses(self):
        # the jsonc example of README "Config", its comments stripped, is a
        # valid vi config: a removed field cannot linger in the docs
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        example = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(json.loads(re.sub(r"//[^\n]*", "", example)), "vi")
        assert cfg.command == "vi" and cfg.r == 0.25

    @pytest.mark.parametrize("key, value, message", [
        ("seed", -5, "integer >= 0"), ("seed", 1.7, "integer >= 0"),
        ("seed", "7", "finite number"), ("r", float("nan"), "finite number"),
        ("r", float("inf"), "finite number"), ("r", 0.0, "positive"),
        pytest.param("r", 10**400, "finite number", id="r-beyond-float"),
        pytest.param("seed", 10**400, "finite number", id="seed-beyond-float")])
    def test_bad_number_has_its_path(self, key, value, message):
        with pytest.raises(ConfigError, match=message) as exc:
            parse_config({"problem": AFFINE, key: value}, "prox-pair")
        assert exc.value.path == key  # no leading dot

    def test_whole_numbers_keep_their_echo(self):
        cfg = parse_config({"problem": AFFINE, "seed": 3.0, "t_set": BOX}, "prox-pair")
        assert cfg.seed == 3 and isinstance(cfg.seed, int)
        assert cfg.to_dict()["seed"] == 3

    @pytest.mark.parametrize("sets", [{}, {"y_set": {"kind": "ball", "radius": 1.0}},
                                      {"r": 0.2, "t_set": {"kind": "ball", "radius": 0.2}},
                                      # without r the solve takes r_max = 1/2 of the report
                                      {"t_set": {"kind": "ball", "radius": 0.5}}])
    def test_start_count_without_a_probe_is_refused(self, sets):
        # with Y = ball(rho) and T = ball(r) the contraction proves uniqueness
        # and no probe runs; elsewhere the probe has UNIQUENESS_STARTS starts.
        # The start count is no field with any sets, and no echo carries it
        with pytest.raises(ConfigError, match="unknown field") as exc:
            parse_config({"problem": AFFINE, "uniqueness_starts": 5, **sets}, "prox-pair")
        assert exc.value.path == "uniqueness_starts"
        echo = parse_config({"problem": AFFINE, **sets}, "prox-pair").to_dict()
        assert "uniqueness_starts" not in echo

    @pytest.mark.parametrize("command, doc", [
        # each exited 0: constants echoed the garbage, saddle then verified
        ("constants", {"problem": AFFINE, "application": "vi", "y_set": "garbage"}),
        ("saddle", {"problem": AFFINE, "payoff": "vi", "y_set": {"kind": "box"}}),
        ("saddle", {"problem": AFFINE, "y_set": {"kind": "ball", "radius": 1.0}})])
    def test_unread_y_set_is_a_config_error(self, tmp_path, capsys, command, doc):
        assert main([command, "--config", write_config(tmp_path, doc)]) == 1
        assert "config error: y_set:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, path", [
        ("constants", {"problem": AFFINE, "application": "ba", "y_set": "garbage"}, "y_set"),
        ("saddle", {"problem": AFFINE, "payoff": "ba", "y_set": {"kind": "box"}},
         "y_set.lower"),
        ("saddle", {"problem": AFFINE, "t_set": {"kind": "ball", "radius": -1}},
         "t_set.radius"),
        ("prox-pair", {"problem": AFFINE, "y_set": {"kind": "ball", "radius": 1.0, "x": 0}},
         "y_set.x")])
    def test_bad_set_is_refused_when_parsed(self, command, doc, path):
        with pytest.raises(ConfigError) as exc:
            parse_config(doc, command)
        assert exc.value.path == path

    def test_read_sets_are_built_once(self):
        cfg = parse_config({"problem": AFFINE, "payoff": "ba", "y_set": BOX, "t_set": BOX},
                           "saddle")
        assert cfg.Y.dim == cfg.T.dim == 2 and cfg.to_dict()["y_set"] == BOX

    @pytest.mark.parametrize("epsilon", [1, 2])
    def test_epsilon_outside_the_unit_interval_is_a_config_error(self, tmp_path, capsys,
                                                                 epsilon):
        # epsilon 2 passed the parse and failed later as "error: epsilon must lie ..."
        doc = {"problem": AFFINE, "epsilon": epsilon}
        assert main(["small-radius", "--config", write_config(tmp_path, doc)]) == 1
        assert ("config error: epsilon: epsilon must lie in (0, 1)"
                in capsys.readouterr().err)

    def test_heuristic_must_be_bool(self):
        with pytest.raises(ConfigError, match="heuristic"):
            parse_config({"problem": AFFINE, "heuristic": "yes"}, "vi")

    def test_bad_problem_reported_early(self):
        with pytest.raises(ConfigError, match="problem"):
            parse_config({"problem": {"kind": "affine", "A": [[1.0]],
                                      "b": [0.0], "rho": -1.0}}, "vi")


class TestSetFromDict:
    def test_ball(self):
        s = set_from_dict({"kind": "ball", "radius": 0.5}, 2, "y_set")
        assert s.radius == 0.5 and s.dim == 2

    def test_box(self):
        s = set_from_dict({"kind": "box", "lower": [0, 0], "upper": [1, 1]},
                          2, "t_set")
        assert np.allclose(s.lower, 0.0) and np.allclose(s.upper, 1.0)

    def test_box_dimension_mismatch(self):
        with pytest.raises(ConfigError, match="t_set"):
            set_from_dict({"kind": "box", "lower": [0], "upper": [1]}, 2, "t_set")

    def test_box_bounds_of_different_lengths_have_the_path(self, tmp_path, capsys):
        # this was "error: expected dimension 2, got 1" with no config path
        with pytest.raises(ConfigError) as exc:
            set_from_dict({"kind": "box", "lower": [0, 0], "upper": [1]}, 2, "t_set")
        assert exc.value.path == "t_set"
        doc = {"problem": AFFINE, "t_set": {"kind": "box", "lower": [0, 0], "upper": [1]}}
        assert main(["saddle", "--config", write_config(tmp_path, doc)]) == 1
        assert "config error: t_set: bad box bounds" in capsys.readouterr().err

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            set_from_dict({"kind": "simplex"}, 2, "y_set")


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, {"problem": AFFINE})
        assert main(["vi", "--config", cfgp]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "ballsaddle-certificate/5"
        assert doc["passed"] is True
        assert doc["certificate"]["theorem"] == "2"

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["vi", "--config", str(tmp_path / "nope.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["vi", "--config", str(path)]) == 1

    def test_unknown_field_is_config_error(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, {"problem": AFFINE, "wat": 1})
        assert main(["vi", "--config", cfgp]) == 1
        assert "wat" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["vi", "vi-shifted", "best-approx"])
    def test_start_count_outside_prox_pair_is_unknown(self, tmp_path, capsys, command):
        doc = dict(ROUND_TRIPS[command][1], uniqueness_starts=16)
        assert main([command, "--config", write_config(tmp_path, doc)]) == 1
        assert "unknown field 'uniqueness_starts'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["vi", "vi-shifted", "best-approx"])
    def test_sample_count_of_a_proved_statement_is_unknown(self, tmp_path, capsys, command):
        # statements 2, 4 and 6 prove their inequality; only the saddle checks sample
        doc = dict(ROUND_TRIPS[command][1], n_samples=2000)
        assert main([command, "--config", write_config(tmp_path, doc)]) == 1
        assert "unknown field 'n_samples'" in capsys.readouterr().err

    def test_refuted_declaration_is_one(self, tmp_path, capsys):
        # the quadratic declares theta = 0.01, but its Jacobian at e_1 has norm 3
        cfgp = write_config(tmp_path, {"problem": dict(REFUTED, analytic_constants={
            "theta": 0.01})})
        assert main(["vi", "--config", cfgp]) == 1
        err = capsys.readouterr().err
        assert "problem.analytic_constants.theta: declared theta = 0.01 is refuted" in err
        assert "x = +1 e_1" in err and "deficit 2.99" in err

    def test_missing_cli_argument(self, capsys):
        assert main(["vi"]) == 1
        assert "config" in capsys.readouterr().err

    def test_hypothesis_violation_is_two(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, {"problem": AFFINE, "r": 0.3})
        assert main(["vi", "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert "deficit" in err

    def test_shift_below_threshold_is_two(self, tmp_path, capsys):
        doc = {"problem": {"kind": "quadratic", "A": [[0, 0], [0, 0]],
                           "b": [0, 0], "rho": 1.0,
                           "Q": [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]},
               "w": [15.9, 0.0], "r": 1.0}
        cfgp = write_config(tmp_path, doc)
        assert main(["vi-shifted", "--config", cfgp]) == 2
        assert "deficit 0.1" in capsys.readouterr().err

    def test_exclusion_factor_outside_unit_interval_is_one(self, tmp_path, capsys):
        # a factor of 3 would exclude the whole ball; no config field sets
        # the factor, so the tolerances object that carried it is unknown
        cfgp = write_config(tmp_path, {"problem": AFFINE,
                                       "tolerances": {"exclusion_factor": 3}})
        assert main(["vi", "--config", cfgp]) == 1
        assert "config error: tolerances: unknown field 'tolerances'" in capsys.readouterr().err

    def test_exclusion_factor_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch):
        import ballsaddle.saddle as saddle_mod
        calls, solve = [], saddle_mod.solve_saddle

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)
        monkeypatch.setattr(saddle_mod, "solve_saddle", counting)
        cfgp = write_config(tmp_path, {"problem": AFFINE,
                                       "tolerances": {"exclusion_factor": 3}})
        assert main(["vi", "--config", cfgp]) == 1
        assert "unknown field 'tolerances'" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("doc, argv", [({}, ["--seed", "-5"]), ({"seed": -5}, []),
                                           ({"seed": 1.7}, []), ({"seed": True}, [])])
    def test_bad_whole_number_is_one(self, tmp_path, capsys, doc, argv):
        cfgp = write_config(tmp_path, {"problem": AFFINE, **doc})
        assert main(["saddle", "--config", cfgp] + argv) == 1
        err = capsys.readouterr().err
        assert f"config error: {next(iter(doc), 'seed')}:" in err

    @pytest.mark.parametrize("w", ['["a", 3]', '[[1], 3]', '[true, 3]', '[1e400, 0]'])
    def test_bad_shift_target_is_one(self, tmp_path, capsys, w):
        # every entry of w must be a finite number, and a bool is not one
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(f'{{"problem": {json.dumps(QUARTIC)}, "r": 1.0, "w": {w}}}')
        assert main(["vi-shifted", "--config", str(cfgp)]) == 1
        assert "config error: w: w must be a non-empty array of finite numbers" \
            in capsys.readouterr().err

    def test_nonconvergence_is_four(self, tmp_path, capsys, monkeypatch):
        import ballsaddle.saddle as saddle_mod

        def explode(*a, **kw):
            raise NonConvergence("probe", residual=1.0, iterations=5)

        # the certified affine vi takes the sphere fixed-point solve
        monkeypatch.setattr(saddle_mod, "sphere_fixed_point", explode)
        cfgp = write_config(tmp_path, {"problem": AFFINE})
        assert main(["vi", "--config", cfgp]) == 4
        assert "non-convergence" in capsys.readouterr().err


class TestOverrides:
    def test_radius_flag(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, {"problem": AFFINE})
        assert main(["vi", "--config", cfgp, "--r", "0.2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["r"] == 0.2
        assert doc["config"]["r"] == 0.2

    def test_seed_flag(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, {"problem": AFFINE, "seed": 5})
        assert main(["vi", "--config", cfgp, "--seed", "9"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 9 and doc["config"]["seed"] == 9

    def test_heuristic_flag(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, {"problem": AFFINE, "heuristic": True,
                                       "r": 0.2})
        assert main(["vi", "--config", cfgp]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["mode"] == "heuristic"


    @pytest.mark.parametrize("command", COMMANDS)
    def test_overrides_follow_the_schema(self, command):
        fields = _FIELDS.get(command, {"optional": ()})["optional"]
        for flag, key, value in (("--r", "r", "0.3"), ("--seed", "seed", "9"),
                                 ("--heuristic", "heuristic", None)):
            argv = [command, "--config", "cfg.json", flag] + ([value] if value else [])
            if key in fields:
                assert getattr(_build_parser().parse_args(argv), key) is not None
            else:
                with pytest.raises(ConfigError, match="unrecognized"):
                    _build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [["constants", "--r", "0.3"], ["small-radius", "--r", "0.3"],
                                      ["verify", "--seed", "9"], ["verify", "--heuristic"],
                                      ["constants", "--seed", "9"], ["constants", "--heuristic"],
                                      ["small-radius", "--seed", "9"],
                                      ["small-radius", "--heuristic"]])
    def test_override_outside_the_schema_is_one(self, tmp_path, capsys, argv):
        # constants and small-radius have no r: their certificate would hold a
        # field that verify rejects; they sample nothing and gate nothing, so
        # they have no seed or mode either; verify recomputes from the stored config
        cfgp = write_config(tmp_path, {"problem": AFFINE})
        assert main(argv[:1] + ["--config", cfgp] + argv[1:]) == 1
        assert argv[1] in capsys.readouterr().err

    def test_config_echo_of_defaults(self):
        assert parse_config({"problem": AFFINE}, "vi").to_dict() == {
            "command": "vi", "problem": AFFINE, "seed": 0, "heuristic": False}
        # small-radius reads no seed, sample count, tolerance or mode
        assert parse_config({"problem": AFFINE}, "small-radius").to_dict() == {
            "command": "small-radius", "problem": AFFINE, "application": "vi",
            "epsilon": 0.5}

    def test_config_echo_parses_back(self):
        for command, doc in ROUND_TRIPS.values():
            echo = parse_config(doc, command).to_dict()
            assert echo.pop("command") == command
            assert set(echo) <= set(_FIELDS[command]["required"] + _FIELDS[command]["optional"])
            assert parse_config(echo, command).to_dict() == dict(echo, command=command)


class TestCertificates:
    def test_out_file_and_status_line(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, {"problem": AFFINE})
        out = tmp_path / "cert.json"
        assert main(["vi", "--config", cfgp, "--out", str(out)]) == 0
        line = capsys.readouterr().out
        assert line.startswith("PASS vi:")
        doc = json.loads(out.read_text())
        assert doc["certificate"]["passed"] is True

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys, where):
        # these were a FileNotFoundError and an IsADirectoryError traceback,
        # the second leaving <dir>.tmp behind
        cfgp = write_config(tmp_path, {"problem": AFFINE})
        out = tmp_path / "nonexistent" / "c.json" if where == "missing-dir" else tmp_path / "d"
        if where == "directory":
            out.mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert main(["vi", "--config", cfgp, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    def test_out_leaves_the_users_tmp_file_alone(self, tmp_path):
        # the certificate was written through <out>.tmp, which replaced and
        # then removed a file of that name
        cfgp = write_config(tmp_path, {"problem": AFFINE})
        out, users = tmp_path / "c.json", tmp_path / "c.json.tmp"
        users.write_bytes(b"user data\n")
        plain = tmp_path / "plain"
        with open(plain, "w"):
            pass
        assert main(["vi", "--config", cfgp, "--out", str(out)]) == 0
        assert users.read_bytes() == b"user data\n"
        assert json.loads(out.read_text())["certificate"]["passed"] is True
        assert out.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.json", "c.json.tmp", "cfg.json", "plain"]

    def test_out_leaves_the_umask_alone(self, tmp_path, monkeypatch):
        # the umask was read by setting and restoring it, which is process-wide
        def no_umask(mask):
            raise AssertionError("os.umask called")
        cfgp = write_config(tmp_path, {"problem": AFFINE})
        out, plain = tmp_path / "c.json", tmp_path / "plain"
        with open(plain, "w"):
            pass
        monkeypatch.setattr(os, "umask", no_umask)
        assert main(["vi", "--config", cfgp, "--out", str(out)]) == 0
        assert out.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "cfg.json", "plain"]

    def test_deterministic_bytes(self, tmp_path):
        cfgp = write_config(tmp_path, {"problem": AFFINE})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["vi", "--config", cfgp, "--out", str(a)]) == 0
        assert main(["vi", "--config", cfgp, "--out", str(b)]) == 0
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da.pop("wall_time"), db.pop("wall_time")
        assert da == db

    @pytest.mark.parametrize("command, doc", [
        ("vi", {"problem": QUADRATIC_32}),
        ("vi", {"problem": AFFINE, "r": 1.0, "heuristic": True}),  # q = 1: inf in the body
        ("prox-pair", {"problem": {"kind": "constant", "c": [2.0, 0.0], "rho": 1.0}, "r": 0.5,
                       "t_set": {"kind": "box", "lower": [-0.5, -0.5], "upper": [0.5, 0.5]}})])
    def test_envelope_bytes_match_a_full_walk(self, tmp_path, command, doc):
        # only the body goes through _to_jsonable; the config echo is plain JSON
        out = tmp_path / "cert.json"
        main([command, "--config", write_config(tmp_path, doc), "--out", str(out)])
        written = out.read_text()
        cfg = parse_config(doc, command)
        body, failures = run(cfg)
        wall_time = json.loads(written)["wall_time"]
        full = {"format": CERT_FORMAT, "command": command, "config": cfg.to_dict(),
                "certificate": body, "passed": not failures, "seed": cfg.seed,
                "wall_time": wall_time}
        assert written == json.dumps(_to_jsonable(full), sort_keys=True, indent=2) + "\n"

    def test_sorted_keys(self, tmp_path):
        cfgp = write_config(tmp_path, {"problem": AFFINE})
        out = tmp_path / "cert.json"
        main(["vi", "--config", cfgp, "--out", str(out)])
        doc = json.loads(out.read_text())
        assert list(doc) == sorted(doc)


QUARTIC = {"kind": "quadratic", "A": [[0, 0], [0, 0]], "b": [0, 0], "rho": 1.0,
           "Q": [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]}
CONSTANT = {"kind": "constant", "c": [2.0, 0.0], "rho": 1.0}

# F(x) = x + (2, 0) + (x^T x, 0): ||jac(e_1)|| = 3
REFUTED = {"kind": "quadratic", "A": [[1, 0], [0, 1]], "b": [2, 0], "rho": 1.0,
           "Q": [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]}
BOX = {"kind": "box", "lower": [-0.5, -0.5], "upper": [0.5, 0.5]}
ROUND_TRIPS = {
    "vi": ("vi", {"problem": AFFINE}),
    "vi-shifted": ("vi-shifted", {"problem": QUARTIC, "w": [16.0, 0.0], "r": 1.0}),
    "prox-pair-box": ("prox-pair", {"problem": CONSTANT, "r": 0.5, "t_set": BOX}),
    # the default sets collapse: the fixed-point solve and the contraction record
    "prox-pair": ("prox-pair", {"problem": AFFINE}),
    "best-approx": ("best-approx", {"problem": AFFINE}),
    "saddle-vi": ("saddle", {"problem": AFFINE}),
    "saddle-ba": ("saddle", {"problem": AFFINE, "payoff": "ba"}),
    "constants": ("constants", {"problem": AFFINE, "application": "ba"}),
    "small-radius": ("small-radius", {"problem": AFFINE}),
}
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
# the failures of format5-vi-failing.json, in verify's order
FAILING_VI = ["collapse", "uniqueness", "vi-inequality-proof", "vi-inequality", "direction"]


def saddle_certificate(m, payoff, point=None):
    """Statement 1 of the map ``m`` through the public API, as the
    ``saddle`` command runs it with its defaults."""
    Y = Ball(m.domain_radius, m.dimension)
    payoff, own = ((vi_payoff(m), vi_report(m)) if payoff == "vi"
                   else (ba_payoff(m, Y), ba_report(m, Y)))
    return run_saddle(payoff, None, None, own, point, mode="certified", seed=0,
                      fail=raise_failure)


# the public API call of each solving ROUND_TRIPS case, on the case's map
API_CALLS = {
    "vi": solve_vi,
    "vi-shifted": lambda m: solve_vi_shifted(m, [16.0, 0.0], 1.0),
    "prox-pair-box": lambda m: solve_prox_pair(m, Ball(1.0, 2), set_from_dict(BOX, 2, "t_set"),
                                               0.5),
    "prox-pair": lambda m: solve_prox_pair(m, Ball(1.0, 2), None),
    "best-approx": solve_best_approx,
    "saddle-vi": lambda m: saddle_certificate(m, "vi"),
    "saddle-ba": lambda m: saddle_certificate(m, "ba"),
}


# each runner given no report: it builds the report the public call builds
# (for statement 1, the payoff's own report)
RUNNER_CALLS = {
    "vi": lambda m: vi_module.run_vi(m, None, None, mode="certified", seed=0),
    "vi-shifted": lambda m: vi_module.run_vi(m, 1.0, None, mode="certified", seed=0,
                                             w=[16.0, 0.0]),
    "prox-pair-box": lambda m: ba_module.run_ba(m, Ball(1.0, 2), set_from_dict(BOX, 2, "t_set"),
                                                0.5, None, mode="certified", seed=0),
    "prox-pair": lambda m: ba_module.run_ba(m, Ball(1.0, 2), None, None, None,
                                            mode="certified", seed=0),
    "best-approx": lambda m: ba_module.run_ba(m, Ball(1.0, 2), None, None, None,
                                              mode="certified", seed=0, theorem="6"),
    "saddle-vi": lambda m: run_saddle(vi_payoff(m), None, None, mode="certified", seed=0),
    "saddle-ba": lambda m: run_saddle(ba_payoff(m, Ball(1.0, 2)), None, None,
                                      mode="certified", seed=0),
}


@pytest.mark.parametrize("case", sorted(RUNNER_CALLS))
def test_runner_without_a_report_matches_the_public_call(case):
    m = map_from_dict(ROUND_TRIPS[case][1]["problem"])
    cert, api = RUNNER_CALLS[case](m), API_CALLS[case](m)
    assert cert.to_dict() == api.to_dict()
    assert cert.failed_checks() == api.failed_checks() == []


@pytest.mark.parametrize("case", sorted(API_CALLS))
def test_solve_builds_one_report_inside_its_runner(tmp_path, capsys, monkeypatch, case):
    # the CLI passes what the config gives; the runner derives the report
    built = []
    for fn in (vi_report, ba_report):
        def building(*args, fn=fn, **kwargs):
            built.append({frame.function for frame in inspect.stack(0)}
                         & {"run_saddle", "run_vi", "run_ba"})
            return fn(*args, **kwargs)
        for mod in (cli_module, saddle_module, vi_module, ba_module):
            if getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, building)
    command, doc = ROUND_TRIPS[case]
    assert main([command, "--config", write_config(tmp_path, doc)]) == 0
    assert len(built) == 1 and built[0], built


@pytest.mark.parametrize("case", ["vi", "vi-shifted", "best-approx", "prox-pair"])
def test_one_contraction_per_run(tmp_path, capsys, count_calls, case):
    # one (reach, q) picks the solver and feeds the records; a solve took two
    command, doc = ROUND_TRIPS[case]
    calls = count_calls(contraction)
    cert = API_CALLS[case](map_from_dict(doc["problem"]))
    assert cert.uniqueness["method"] == "contraction" and calls == [1]
    out = tmp_path / "cert.json"
    for argv in ([command, "--config", write_config(tmp_path, doc), "--out", str(out)],
                 ["verify", "--config", str(out)]):
        calls.clear()
        assert main(argv) == 0 and calls == [1], argv[0]


@pytest.mark.parametrize("application, theorem, solve", [("vi", "3", small_radius),
                                                          ("ba", "7", ba_small_radius)])
def test_small_radius_verdict_comes_from_the_library(monkeypatch, application, theorem, solve):
    # the CLI lays out SmallRadiusResult's label and sigma-floor verdict
    command, doc = ROUND_TRIPS["small-radius"]
    cfg = parse_config(dict(doc, application=application), command)
    res = solve(cfg.smooth_map, cfg.epsilon)
    body, failures = run(cfg)
    assert (res.theorem, res.failed_checks()) == (body["theorem"], failures) == (theorem, [])
    short = dataclasses.replace(res, sigma_floor=res.report.sigma.value + 1.0)
    monkeypatch.setattr(cli_module, solve.__name__, lambda m, epsilon: short)
    body, failures = run(cfg)
    assert short.failed_checks() == failures == ["sigma-floor"] and not body["passed"]


class TestVerify:
    def make_cert(self, tmp_path, command="vi", doc=None, name="cert.json"):
        cfgp = write_config(tmp_path, doc or {"problem": AFFINE}, name="in_" + name)
        out = tmp_path / name
        code = main([command, "--config", cfgp, "--out", str(out)])
        assert code == 0
        return out

    def verify_tampered(self, tmp_path, capsys, cert, tamper):
        doc = json.loads(cert.read_text())
        tamper(doc)
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--config", str(cert)]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["verified"] is False
        return out["failures"]

    @pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
    def test_round_trip(self, tmp_path, capsys, case):
        command, doc = ROUND_TRIPS[case]
        cert = self.make_cert(tmp_path, command, doc)
        capsys.readouterr()
        assert main(["verify", "--config", str(cert)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["format"] == "ballsaddle-verification/1"
        assert out["verified"] is True
        assert out["failures"] == []
        # run and verify take one certify path: the recomputed body is the stored one
        assert out["recomputed"] == json.loads(cert.read_text())["certificate"]

    @pytest.mark.parametrize("case", [case for case, (command, _) in sorted(ROUND_TRIPS.items())
                                      if command not in ("constants", "small-radius")])
    def test_cli_body_is_the_api_certificate(self, tmp_path, case):
        # the CLI keeps no certify step of its own: its body is the library's
        command, doc = ROUND_TRIPS[case]
        body = json.loads(self.make_cert(tmp_path, command, doc).read_text())["certificate"]
        cert = API_CALLS[case](map_from_dict(doc["problem"]))
        assert body == cert.to_dict()
        assert (cert.failed_checks(), body["passed"]) == ([], True)

    @pytest.mark.parametrize("payoff", ["vi", "ba"])
    def test_run_saddle_reproduces_a_stored_body(self, payoff):
        stored = json.loads((FIXTURES / f"format5-saddle-{payoff}.json").read_text())
        body, sol = stored["certificate"], stored["certificate"]["solution"]
        point = SaddlePoint(np.array(sol["x_star"]), np.array(sol["y_star"]),
                            body["residuals"]["saddle_residual"], body["iterations"], body["step"])
        cert = saddle_certificate(map_from_dict(stored["config"]["problem"]), payoff, point)
        assert cert.to_dict() == body
        assert "uniqueness" not in body["checks"] and cert.failed_checks() == []

    @pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
    def test_envelope_seed_follows_the_schema(self, tmp_path, case):
        # constants and small-radius draw no random numbers and have no seed
        envelope = json.loads(self.make_cert(tmp_path, *ROUND_TRIPS[case]).read_text())
        assert ("seed" in envelope) == (case not in ("constants", "small-radius"))

    @pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
    def test_round_trip_checks_have_samples(self, tmp_path, case):
        # guard: no sampled check of a certificate ran on zero samples
        command, doc = ROUND_TRIPS[case]
        body = json.loads(self.make_cert(tmp_path, command, doc).read_text())["certificate"]
        reports, stack = [], [body]
        while stack:
            node = stack.pop()
            if isinstance(node, dict) and "n_samples" in node:
                reports.append(node)
            elif isinstance(node, (dict, list)):
                stack.extend(node.values() if isinstance(node, dict) else node)
        assert bool(reports) == (command not in ("constants", "small-radius"))
        assert all(rep["n_samples"] >= 1 for rep in reports), reports

    def test_verify_does_not_solve(self, tmp_path, capsys, monkeypatch):
        import ballsaddle.ba as ba_mod
        import ballsaddle.cli as cli_mod
        import ballsaddle.saddle as saddle_mod
        import ballsaddle.vi as vi_mod

        certs = [self.make_cert(tmp_path, command, doc, name=f"{case}.json")
                 for case, (command, doc) in sorted(ROUND_TRIPS.items())]
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for mod in (cli_mod, saddle_mod, vi_mod, ba_mod):
            for name in ("solve_saddle", "sphere_fixed_point", "probe_uniqueness",
                         "uniqueness_probe", "vi_report", "ba_report"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counting(getattr(mod, name)))
        for cert in certs:
            calls.clear()
            assert main(["verify", "--config", str(cert)]) == 0
            # one constants report and no solve per verify
            assert calls in (["vi_report"], ["ba_report"]), (cert.name, calls)

    def test_map_is_built_once_per_command(self, tmp_path, capsys, monkeypatch):
        # parse_config builds the map and run or verify reuse it, so the
        # declared-constant gate runs once per command
        import ballsaddle.catalog as catalog_mod

        calls, bounds = [], catalog_mod.axis_lower_bounds

        def counting(*args, **kwargs):
            calls.append(args)
            return bounds(*args, **kwargs)

        monkeypatch.setattr(catalog_mod, "axis_lower_bounds", counting)
        # theta = 4 holds: the largest axis-point Jacobian norm is 3
        doc = {"problem": dict(REFUTED, analytic_constants={"theta": 4.0})}
        cert = self.make_cert(tmp_path, "vi", doc)
        assert len(calls) == 1
        calls.clear()
        assert main(["verify", "--config", str(cert)]) == 0
        assert len(calls) == 1

    def test_tampered_solution_detected(self, tmp_path, capsys):
        def tamper(doc):
            doc["certificate"]["solution"]["x_star"] = [0.25, 0.0]
        failures = self.verify_tampered(tmp_path, capsys, self.make_cert(tmp_path), tamper)
        assert any("vi" in f or "direction" in f for f in failures)

    def test_tampered_constants_detected(self, tmp_path, capsys):
        def tamper(doc):
            doc["certificate"]["constants"]["sigma"]["value"] = 5.0
        failures = self.verify_tampered(tmp_path, capsys, self.make_cert(tmp_path), tamper)
        assert any(f.startswith("constants:sigma") for f in failures)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_constant_detected(self, tmp_path, capsys, value):
        def tamper(doc):
            doc["certificate"]["constants"]["sigma"]["value"] = value
        failures = self.verify_tampered(tmp_path, capsys, self.make_cert(tmp_path), tamper)
        assert "constants:sigma" in failures

    def test_mode_relabelled_certified(self, tmp_path, capsys):
        cert = self.make_cert(tmp_path, doc={"problem": AFFINE, "r": 0.3, "heuristic": True})

        def tamper(doc):
            doc["certificate"]["mode"] = "certified"
        assert "recorded:mode" in self.verify_tampered(tmp_path, capsys, cert, tamper)

    def test_heuristic_config_relabelled_certified(self, tmp_path, capsys):
        cert = self.make_cert(tmp_path, doc={"problem": AFFINE, "r": 0.3, "heuristic": True})

        def tamper(doc):
            doc["config"]["heuristic"] = False
            doc["certificate"]["mode"] = "certified"
        assert self.verify_tampered(tmp_path, capsys, cert, tamper) == ["radius-admissible"]

    def test_heuristic_failure_is_written_and_verified(self, tmp_path, capsys):
        # r = 1 is beyond r_max = 1/4: the pair does not collapse, and the run
        # writes its watermarked failing certificate instead of raising
        cfgp = write_config(tmp_path, {"problem": AFFINE})
        out = tmp_path / "cert.json"
        assert main(["vi", "--config", cfgp, "--r", "1.0", "--heuristic",
                     "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out.startswith("FAIL vi:")
        doc = json.loads(out.read_text())
        assert doc["certificate"]["mode"] == "heuristic"
        assert doc["passed"] is False and doc["certificate"]["passed"] is False
        names = captured.err.strip().removeprefix("check failure: ").split(", ")
        assert names[0] == "collapse"
        assert main(["verify", "--config", str(out)]) == 3
        captured_verify = capsys.readouterr()
        ver = json.loads(captured_verify.out)
        assert ver["failures"] == names and ver["certificate_passed"] is False
        assert captured_verify.err == captured.err

    def test_theorem_changed(self, tmp_path, capsys):
        def tamper(doc):
            doc["certificate"]["theorem"] = "3"
        failures = self.verify_tampered(tmp_path, capsys, self.make_cert(tmp_path), tamper)
        assert failures == ["recorded:theorem"]

    def test_shift_gate_changed(self, tmp_path, capsys):
        command, doc = ROUND_TRIPS["vi-shifted"]
        cert = self.make_cert(tmp_path, command, doc)

        def tamper(doc):
            doc["certificate"]["gate"].update(threshold=0, deficit=123)
        failures = self.verify_tampered(tmp_path, capsys, cert, tamper)
        assert failures == ["recorded:gate.deficit", "recorded:gate.threshold"]

    def test_shift_below_threshold_is_named(self, tmp_path, capsys):
        command, doc = ROUND_TRIPS["vi-shifted"]
        cert = self.make_cert(tmp_path, command, doc)

        def tamper(doc):
            doc["config"]["w"] = [15.9, 0.0]
        assert "shift-threshold" in self.verify_tampered(tmp_path, capsys, cert, tamper)

    def test_check_margin_changed(self, tmp_path, capsys):
        def tamper(doc):
            doc["certificate"]["checks"]["vi"]["margin"] = 99
            doc["certificate"]["residuals"]["direction_gap"] = 0
        failures = self.verify_tampered(tmp_path, capsys, self.make_cert(tmp_path), tamper)
        # the true direction gap of this instance is exactly 0
        assert failures == ["recorded:checks.vi.margin"]

    def test_residual_changed(self, tmp_path, capsys):
        def tamper(doc):
            doc["certificate"]["residuals"]["direction_gap"] = 0.5
        failures = self.verify_tampered(tmp_path, capsys, self.make_cert(tmp_path), tamper)
        assert failures == ["recorded:residuals.direction_gap"]

    def test_small_residual_changed(self, tmp_path, capsys):
        # a stored 0 is compared relative to its own scale, not to 1e-9
        cert = self.make_cert(tmp_path, doc={"problem": AFFINE, "r": 0.25, "seed": 7})
        assert json.loads(cert.read_text())["certificate"]["residuals"]["direction_gap"] == 0.0

        def tamper(doc):
            doc["certificate"]["residuals"]["direction_gap"] = 5e-10
        failures = self.verify_tampered(tmp_path, capsys, cert, tamper)
        assert failures == ["recorded:residuals.direction_gap"]

    def test_last_bit_noise_near_zero_verifies(self, tmp_path, capsys):
        # a value at the level of rounding noise, as another BLAS build may
        # produce it, still matches a recomputed 0
        cert = self.make_cert(tmp_path, doc={"problem": AFFINE, "r": 0.25, "seed": 7})
        doc = json.loads(cert.read_text())
        doc["certificate"]["residuals"]["direction_gap"] = 1e-16
        cert.write_text(json.dumps(doc))
        assert main(["verify", "--config", str(cert)]) == 0

    def test_zero_sigma_without_radius_is_named(self, tmp_path, capsys):
        def tamper(doc):
            doc["config"]["problem"]["b"] = [0.0, 0.0]
        for case in ("vi", "saddle-vi", "saddle-ba"):
            command, doc = ROUND_TRIPS[case]
            cert = self.make_cert(tmp_path, command, doc, name=f"{case}.json")
            assert "positivity" in self.verify_tampered(tmp_path, capsys, cert, tamper)
            # the solve path still refuses the problem as a hypothesis violation
            cfgp = write_config(tmp_path, dict(doc, problem=dict(AFFINE, b=[0.0, 0.0])))
            assert main([command, "--config", cfgp]) == 2
            assert "sigma = 0" in capsys.readouterr().err

    def test_gate_that_stops_recomputation_is_the_only_failure(self, tmp_path, capsys):
        # with sigma = 0 and no r nothing is recomputed, so no stored field is named
        def tamper(doc):
            doc["config"]["problem"]["b"] = [0.0, 0.0]
        for case in ("vi", "saddle-vi", "saddle-ba"):
            command, doc = ROUND_TRIPS[case]
            cert = self.make_cert(tmp_path, command, doc, name=f"{case}.json")
            assert self.verify_tampered(tmp_path, capsys, cert, tamper) == ["positivity"]
        command, doc = ROUND_TRIPS["small-radius"]
        cert = self.make_cert(tmp_path, command, doc, name="small.json")
        assert self.verify_tampered(tmp_path, capsys, cert, tamper) == ["origin-nonzero"]

    def test_small_radius_constant_changed_is_named(self, tmp_path, capsys):
        command, doc = ROUND_TRIPS["small-radius"]
        cert = self.make_cert(tmp_path, command, doc)

        def tamper(doc):
            doc["certificate"]["small_radius"]["constants"]["theta"]["value"] = 7.0
        assert self.verify_tampered(tmp_path, capsys, cert, tamper) == ["constants:theta"]

    # the probe record of the prox pair is carried over and checked for consistency
    def test_passed_inconsistent_with_uniqueness_record(self, tmp_path, capsys):
        def tamper(doc):
            doc["certificate"]["checks"]["uniqueness"]["passed"] = False
        failures = self.verify_tampered(tmp_path, capsys,
                                        self.make_cert(tmp_path, *ROUND_TRIPS["prox-pair-box"]),
                                        tamper)
        assert failures == ["uniqueness-record", "uniqueness", "recorded:passed"]

    def test_default_set_prox_pair_verifies_its_contraction_record(self, tmp_path, capsys):
        cert = self.make_cert(tmp_path, "prox-pair", {"problem": AFFINE})
        doc = json.loads(cert.read_text())
        assert doc["certificate"]["checks"]["uniqueness"]["method"] == "contraction"
        assert doc["certificate"]["checks"]["saddle"]["passed"]
        assert main(["verify", "--config", str(cert)]) == 0

        def tamper(doc):
            doc["certificate"]["checks"]["uniqueness"]["q"] = 0.5
        assert (self.verify_tampered(tmp_path, capsys, cert, tamper)
                == ["recorded:checks.uniqueness.q"])

    def test_failed_uniqueness_record_is_named(self, tmp_path, capsys):
        # a self-consistent failed record on a certificate that says it failed:
        # every stored field matches, and the verdict is still a failure
        def tamper(doc):
            doc["certificate"]["checks"]["uniqueness"].update(max_pairwise=0.5, passed=False)
            doc["certificate"]["passed"] = doc["passed"] = False
        failures = self.verify_tampered(tmp_path, capsys,
                                        self.make_cert(tmp_path, *ROUND_TRIPS["prox-pair-box"]),
                                        tamper)
        assert failures == ["uniqueness"]

    @pytest.mark.parametrize("record", [
        {"starts": 16, "max_pairwise": 0.0}, "junk", [1],
        # these two once ended in a KeyError and a ValueError traceback
        {"starts": 16, "passed": True}, {"starts": 16, "max_pairwise": "x", "passed": True},
        {"starts": 16.5, "max_pairwise": 0.0, "passed": True},
        {"starts": 16, "max_pairwise": True, "passed": True}])
    def test_malformed_uniqueness_record_is_config_error(self, tmp_path, capsys, record):
        cert = self.make_cert(tmp_path, *ROUND_TRIPS["prox-pair-box"])
        doc = json.loads(cert.read_text())
        doc["certificate"]["checks"]["uniqueness"] = record
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--config", str(cert)]) == 1
        assert "malformed certificate body" in capsys.readouterr().err

    def test_box_prox_pair_claims_uniqueness_only_with_a_probe(self, tmp_path, capsys):
        # a start count below 2 once wrote a certified, passing box prox-pair
        # with no uniqueness record at all
        command, doc = ROUND_TRIPS["prox-pair-box"]
        for key, value in (("uniqueness_starts", 0), ("n_samples", 2000)):
            cfgp = write_config(tmp_path, dict(doc, **{key: value}), name=f"{key}.json")
            assert main([command, "--config", cfgp]) == 1
            assert f"unknown field {key!r}" in capsys.readouterr().err
        cert = self.make_cert(tmp_path, command, doc)
        stored = json.loads(cert.read_text())
        assert stored["certificate"]["checks"]["uniqueness"]["starts"] == UNIQUENESS_STARTS

        def tamper(doc):
            doc["certificate"]["checks"]["uniqueness"] = None
        assert self.verify_tampered(tmp_path, capsys, cert, tamper) == ["uniqueness-record"]
        # a certificate written while the counts were fields echoes them
        stored["config"].update(uniqueness_starts=16, n_samples=2000)
        cert.write_text(json.dumps(stored))
        capsys.readouterr()
        assert main(["verify", "--config", str(cert)]) == 1
        assert "unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["vi", "vi-shifted", "best-approx", "prox-pair"])
    @pytest.mark.parametrize("key, value", [("q", 0.5), ("error_bound", 1e-3)])
    def test_contraction_record_changed(self, tmp_path, capsys, case, key, value):
        # the contraction record is recomputed, not carried over
        cert = self.make_cert(tmp_path, *ROUND_TRIPS[case])

        def tamper(doc):
            doc["certificate"]["checks"]["uniqueness"][key] = value
        failures = self.verify_tampered(tmp_path, capsys, cert, tamper)
        assert failures == [f"recorded:checks.uniqueness.{key}"]

    def test_contraction_record_failing_is_recomputed(self, tmp_path, capsys):
        # a stored record that claims no contraction is refuted by the recomputed one
        def tamper(doc):
            doc["certificate"]["checks"]["uniqueness"].update(q=2.0, passed=False)
            doc["certificate"]["passed"] = doc["passed"] = False
        failures = self.verify_tampered(tmp_path, capsys, self.make_cert(tmp_path), tamper)
        assert failures == ["recorded:checks.uniqueness.passed", "recorded:checks.uniqueness.q",
                            "recorded:passed"]

    def test_moved_solution_changes_the_error_bound(self, tmp_path, capsys):
        # x* moved by 1e-3, as the benchmark's tamper does
        def tamper(doc):
            doc["certificate"]["solution"]["x_star"][0] += 1e-3
        failures = self.verify_tampered(tmp_path, capsys, self.make_cert(tmp_path), tamper)
        assert "recorded:checks.uniqueness.error_bound" in failures

    def test_format_1_certificate_is_config_error(self, tmp_path, capsys):
        cert = self.make_cert(tmp_path)
        doc = json.loads(cert.read_text())
        doc["format"] = "ballsaddle-certificate/1"
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--config", str(cert)]) == 1
        assert "not a ballsaddle-certificate/5 document" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["vi", "vi-shifted", "best-approx"])
    @pytest.mark.parametrize("key", ["margin", "phi_lower"])
    def test_tampered_proof_margin_detected(self, tmp_path, capsys, case, key):
        def tamper(doc):
            doc["certificate"]["checks"]["proof"][key] *= 2.0
        cert = self.make_cert(tmp_path, *ROUND_TRIPS[case])
        assert (self.verify_tampered(tmp_path, capsys, cert, tamper)
                == [f"recorded:checks.proof.{key}"])

    def test_format_3_certificate_asks_for_a_new_solve(self, tmp_path, capsys):
        # format 3 sampled the strict inequalities of statements 2, 4 and 6
        # 2,000 times and carried no proof record
        cert = self.make_cert(tmp_path)
        doc = json.loads(cert.read_text())
        doc["format"] = "ballsaddle-certificate/3"
        del doc["certificate"]["checks"]["proof"]
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--config", str(cert)]) == 1
        assert ("not a ballsaddle-certificate/5 document; re-run the solve"
                in capsys.readouterr().err)

    def test_format_2_certificate_asks_for_a_new_solve(self, tmp_path, capsys):
        # format 2 carried the saddle checks of statements 2, 4 and 6
        cert = self.make_cert(tmp_path)
        doc = json.loads(cert.read_text())
        doc["format"] = "ballsaddle-certificate/2"
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--config", str(cert)]) == 1
        assert ("not a ballsaddle-certificate/5 document; re-run the solve"
                in capsys.readouterr().err)

    def test_format_4_quadratic_certificate_asks_for_a_new_solve(self, tmp_path, capsys):
        # format 4 bounded a quadratic map's gamma by sqrt(sum ||Q_i||^2); its
        # body would fail constants:gamma against today's ||sum Q_i^2||^(1/2)
        cert = self.make_cert(tmp_path, "vi", {"problem": quadratic_problem(4, 1)})
        doc = json.loads(cert.read_text())
        doc["format"] = "ballsaddle-certificate/4"
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--config", str(cert)]) == 1
        assert ("not a ballsaddle-certificate/5 document; re-run the solve"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["vi", "best-approx"])
    def test_extragradient_certificate_verifies(self, capsys, command):
        # certificates stored before statements 2 and 6 solved by the
        # fixed-point iteration: their points, residuals and iteration counts
        # are the extragradient's, and their y* differs from x* by about 1e-8.
        # Written as format 4; format 5 changed only quadratic-map constants,
        # so these affine bodies carry the /5 label unchanged
        path = pathlib.Path(__file__).parent / "fixtures" / f"extragradient-{command}.json"
        body = json.loads(path.read_text())["certificate"]
        assert body["solution"]["x_star"] != body["solution"]["y_star"]
        capsys.readouterr()
        assert main(["verify", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["failures"] == []

    @pytest.mark.parametrize("case", ["vi-shifted", "prox-pair", "prox-pair-box", "saddle-vi",
                                      "saddle-ba"])
    def test_format_5_certificate_verifies(self, capsys, case):
        # certificates of the other solving commands, stored before the
        # uniqueness and proof records of statements 2, 4 and 6 came from
        # one builder: their bodies are recomputed exactly
        path = FIXTURES / f"format5-{case}.json"
        stored = json.loads(path.read_text())
        command, doc = ROUND_TRIPS[case]
        assert stored["format"] == CERT_FORMAT and stored["command"] == command
        assert stored["config"]["problem"] == doc["problem"]
        capsys.readouterr()
        assert main(["verify", "--config", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["failures"] == [] and out["recomputed"] == stored["certificate"]

    @pytest.mark.parametrize("command, failures", [
        ("vi", FAILING_VI), ("best-approx", ["uniqueness", "nearest-point-proof"])])
    def test_failing_certificate_verifies_its_failures(self, capsys, command, failures):
        # heuristic certificates of x + (2, 0) at r = 1, twice its admissible
        # radius, stored with their failing verdicts: verify recomputes each
        # body exactly and names the same failures in the same order
        path = FIXTURES / f"format5-{command}-failing.json"
        stored = json.loads(path.read_text())
        assert stored["command"] == command and stored["config"]["problem"] == AFFINE
        assert stored["config"]["r"] == 1.0 and stored["config"]["heuristic"] is True
        capsys.readouterr()
        assert main(["verify", "--config", str(path)]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["failures"] == failures and out["recomputed"] == stored["certificate"]

    @pytest.mark.parametrize("case, path, scale, failures", [
        ("saddle-vi", ("saddle", "reports", 0, "margin"), 1 + 1e-12, []),
        ("saddle-vi", ("saddle", "reports", 0, "margin"), 1 + 1e-3,
         ["recorded:checks.saddle.reports"]),
        ("vi-failing", ("vi", "witness", 0), 1 + 1e-12, FAILING_VI),
        ("vi-failing", ("vi", "witness", 0), 1 + 1e-3,
         FAILING_VI + ["recorded:checks.vi.witness"])])
    def test_list_entries_follow_the_number_rule(self, tmp_path, capsys, case, path, scale,
                                                 failures):
        # last-bit noise in a number inside a list matches as it does in a
        # dict; a change beyond the tolerance names the list's own path
        doc = json.loads((FIXTURES / f"format5-{case}.json").read_text())
        node = doc["certificate"]["checks"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] *= scale
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--config", str(cert)]) == (3 if failures else 0)
        assert json.loads(capsys.readouterr().out)["failures"] == failures

    def test_certified_saddle_defaults_to_the_saddle_radius(self, tmp_path, capsys):
        # the ba payoff's own default radius, 0.75, exceeds the saddle rule's
        # 0.625; delta over the smaller ball(0.625) keeps that radius admissible
        doc = {"problem": AFFINE, "payoff": "ba", "y_set": BOX}
        cert = self.make_cert(tmp_path, "saddle", doc)
        body = json.loads(cert.read_text())["certificate"]
        assert (body["r"], body["constants"]["r_max"], body["constants"]["delta"]) == (
            0.625, 0.6875, {"value": 2.75, "flag": "analytic"})
        assert body["passed"] and main(["verify", "--config", str(cert)]) == 0
        heuristic = self.make_cert(tmp_path, "saddle", dict(doc, heuristic=True), name="h.json")
        assert json.loads(heuristic.read_text())["certificate"]["r"] == 0.75

    @pytest.mark.parametrize("case, path, value", [
        ("vi-shifted", ("r",), True), ("saddle-vi", ("solution", "y_star_unique"), 1)])
    def test_boolean_matches_only_a_boolean(self, tmp_path, capsys, case, path, value):
        # True == 1.0 in Python: a stored boolean where a number is recorded,
        # or a number where a boolean is, once verified
        doc = json.loads((FIXTURES / f"format5-{case}.json").read_text())
        body = doc["certificate"]
        for key in path[:-1]:
            body = body[key]
        assert body[path[-1]] == value and type(body[path[-1]]) is not type(value)
        body[path[-1]] = value
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--config", str(cert)]) == 3
        assert json.loads(capsys.readouterr().out)["failures"] == ["recorded:" + ".".join(path)]

    def test_config_cannot_loosen_a_tampered_certificate(self, tmp_path, capsys):
        # y* of the saddle certificate of x + (2, 0) moved from (-0.25, 0) to
        # (0, 0), then verify's own recomputed body pasted back in, as a
        # tamperer would.  At the fixed thresholds y-maximal fails (exit 3);
        # a config echo with loose tolerances once made it verify (exit 0)
        cert = self.make_cert(tmp_path, "saddle")
        doc = json.loads(cert.read_text())
        doc["certificate"]["solution"]["y_star"] = [0.0, 0.0]

        def verify_pasted(doc):
            for _ in range(2):
                cert.write_text(json.dumps(doc))
                capsys.readouterr()
                code = main(["verify", "--config", str(cert)])
                out, err = capsys.readouterr()
                if code != 3:
                    break
                doc["certificate"] = json.loads(out)["recomputed"]
            return code, err
        assert verify_pasted(doc) == (3, "check failure: saddle-checks\n")
        saddle = doc["certificate"]["checks"]["saddle"]
        assert [rep["name"] for rep in saddle["reports"] if not rep["passed"]] == ["y-maximal"]
        doc["config"]["tolerances"] = {"check": 1e6, "exclusion_factor": 0.999}
        code, err = verify_pasted(doc)
        assert code == 1 and "unknown field 'tolerances'" in err

    @pytest.mark.parametrize("case, key, value, name", [
        ("vi", "y_star", [-0.25, 0.001], "collapse"),  # every sampled check still passes
        ("prox-pair-box", "y_star", [0.5, 0.001], "projection"),
        ("vi", "x_star", [-2.0, 0.0], "map-nonzero")])
    def test_broken_identity_is_named(self, tmp_path, capsys, case, key, value, name):
        command, doc = ROUND_TRIPS[case]
        cert = self.make_cert(tmp_path, command, doc)

        def tamper(doc):
            doc["certificate"]["solution"][key] = value
            if name == "map-nonzero":  # F(-2, 0) = 0; keep the pair collapsed
                doc["certificate"]["solution"]["y_star"] = value
        failures = self.verify_tampered(tmp_path, capsys, cert, tamper)
        # the stored verdict is true, so recorded:passed means the recomputed one is false
        assert failures[0] == name and "recorded:passed" in failures

    def test_containment_broken_is_named(self, tmp_path, capsys):
        command, doc = ROUND_TRIPS["prox-pair-box"]
        cert = self.make_cert(tmp_path, command, doc)

        def tamper(doc):
            doc["config"]["y_set"] = {"kind": "ball", "radius": 0.6}
        assert "containment" in self.verify_tampered(tmp_path, capsys, cert, tamper)

    def test_box_corner_outside_y_is_named(self, tmp_path, capsys):
        # 128 sampled points of this box all lie inside ball(1); its corners
        # have norm 1.05
        n = 8
        problem = {"kind": "affine", "A": np.eye(n).tolist(), "b": [2.0] + [0.0] * (n - 1),
                   "rho": 1.0}

        def box(c):
            return {"kind": "box", "lower": [-c] * n, "upper": [c] * n}
        cert = self.make_cert(tmp_path, "prox-pair",
                              {"problem": problem, "r": 0.5, "t_set": box(0.9 / np.sqrt(n))})

        def tamper(doc):
            doc["config"]["t_set"] = box(1.05 / np.sqrt(n))
        assert "containment" in self.verify_tampered(tmp_path, capsys, cert, tamper)

    def test_small_radius_vanishing_origin_is_named(self, tmp_path, capsys):
        command, doc = ROUND_TRIPS["small-radius"]
        cert = self.make_cert(tmp_path, command, doc)

        def tamper(doc):
            doc["config"]["problem"]["b"] = [0.0, 0.0]
        assert "origin-nonzero" in self.verify_tampered(tmp_path, capsys, cert, tamper)

    def test_bad_shift_target_is_config_error(self, tmp_path, capsys):
        command, doc = ROUND_TRIPS["vi-shifted"]
        cert = self.make_cert(tmp_path, command, doc)
        stored = json.loads(cert.read_text())
        stored["config"]["w"] = [True, 0.0]
        cert.write_text(json.dumps(stored))
        capsys.readouterr()
        assert main(["verify", "--config", str(cert)]) == 1
        assert "config error: w:" in capsys.readouterr().err

    def test_refuted_declaration_is_config_error(self, tmp_path, capsys):
        cert = self.make_cert(tmp_path, doc={"problem": REFUTED})
        doc = json.loads(cert.read_text())
        doc["config"]["problem"]["analytic_constants"] = {"theta": 0.01}
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--config", str(cert)]) == 1
        assert "analytic_constants.theta: declared theta = 0.01 is refuted" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        # each of these was a TypeError or AttributeError traceback
        ("vi", "config", [1, 2]), ("vi", "config", 5),
        ("constants", "certificate", [1]), ("constants", "certificate", 7),
        ("vi", "command", ["vi"])])
    def test_wrong_typed_top_level_field_is_config_error(self, tmp_path, capsys,
                                                         command, key, value):
        doc = {"problem": AFFINE, "application": "vi"} if command == "constants" else None
        cert = self.make_cert(tmp_path, command, doc)
        stored = json.loads(cert.read_text())
        stored[key] = value
        if key == "command":
            del stored["config"]["command"]
        cert.write_text(json.dumps(stored))
        capsys.readouterr()
        assert main(["verify", "--config", str(cert)]) == 1
        assert f"config error: {key}: must be a" in capsys.readouterr().err

    def test_saddle_certificate_records_a_unique_y_star(self, tmp_path):
        for case in ("saddle-vi", "saddle-ba"):
            doc = json.loads(self.make_cert(tmp_path, *ROUND_TRIPS[case]).read_text())
            assert doc["certificate"]["solution"]["y_star_unique"] is True

    def test_wrong_format_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {"format": "something-else"})
        assert main(["verify", "--config", str(path)]) == 1


# F(x) = A x + b on ball(1) without its declared constants: the sampled
# constants once drew their points with scipy
SAMPLED_REPORTS = (
    "from ballsaddle import Ball, SmoothMap, ba_report, make_affine, vi_report\n"
    "m = make_affine([[1.0, 0.2], [0.0, 0.9]], [2.0, 0.0], 1.0)\n"
    "m = SmoothMap(m.dimension, m.domain_radius, m.value, m.jacobian)\n"
    "assert not vi_report(m).certified\n"
    "assert not ba_report(m, Ball(1.0, 2)).certified\n")


@pytest.mark.parametrize("case", ["cli-vi", "sampled-reports"])
def test_library_leaves_scipy_unimported(tmp_path, case):
    # importing scipy costs several times the whole CLI start-up
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    cfgp = write_config(tmp_path, {"problem": {
        "kind": "affine", "A": [[1.0, 0.2, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 1.1]],
        "b": [2.0, 0.0, 1.0], "rho": 1.0}})
    run_case = {"cli-vi": "from ballsaddle.cli import main\n"
                          f"assert main(['vi', '--config', {cfgp!r}, "
                          f"'--out', {str(tmp_path / 'c.json')!r}]) == 0\n",
                "sampled-reports": SAMPLED_REPORTS}[case]
    script = "import sys, ballsaddle\n" + run_case + "print('scipy' in sys.modules)\n"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"


def test_command_list_is_stable():
    assert COMMANDS == ("constants", "saddle", "vi", "vi-shifted", "prox-pair",
                        "best-approx", "small-radius", "verify")


def test_cli_dump_repeats_its_records(tmp_path):
    # the byte-identity tool: two runs of the same configs write equal files
    import cli_dump

    src = pathlib.Path(cli_module.__file__).parents[1]
    configs = [c for c in cli_dump.CONFIGS
               if c[0] in ("vi-affine-0", "saddle-ba-ybox-affine", "constants-ba-affine")]
    first = cli_dump.dump(str(src), str(tmp_path / "a.json"), configs)
    assert cli_dump.dump(str(src), str(tmp_path / "b.json"), configs) == first
    assert first[0] == 3
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    records = {r["name"]: r for r in json.loads((tmp_path / "a.json").read_text())}
    assert all(r["run"]["exit"] == 0 and r["verify-stored"]["document"]["verified"]
               for r in records.values())
    assert records["vi-affine-0"]["verify-moved"]["exit"] == 3
    assert "verify-moved" not in records["constants-ba-affine"]
