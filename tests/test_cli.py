"""Command line interface: config parsing, exit codes, certificates, verify."""

import json
import pathlib

import numpy as np
import pytest

from ballsaddle import ConfigError, NonConvergence
from ballsaddle.cli import (_FIELDS, CERT_FORMAT, COMMANDS, DEFAULT_TOLERANCES, _build_parser,
                            _to_jsonable, main, parse_config, run, set_from_dict)

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
        assert cfg.command == "vi" and cfg.seed == 0
        assert cfg.tolerances == DEFAULT_TOLERANCES

    def test_unknown_field_path(self):
        with pytest.raises(ConfigError, match="surprise"):
            parse_config({"problem": AFFINE, "surprise": 1}, "vi")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="w"):
            parse_config({"problem": AFFINE}, "vi-shifted")

    def test_bad_tolerance_key(self):
        with pytest.raises(ConfigError, match="tolerances"):
            parse_config({"problem": AFFINE, "tolerances": {"wat": 1e-8}}, "vi")

    def test_tolerance_merge(self):
        cfg = parse_config({"problem": AFFINE,
                            "tolerances": {"solve": 1e-10}}, "vi")
        assert cfg.tolerances["solve"] == 1e-10
        assert cfg.tolerances["check"] == DEFAULT_TOLERANCES["check"]

    def test_exclusion_factor_has_its_path(self):
        with pytest.raises(ConfigError) as exc:
            parse_config({"problem": AFFINE, "tolerances": {"exclusion_factor": 1.0}}, "vi")
        assert exc.value.path == "tolerances.exclusion_factor"

    @pytest.mark.parametrize("key, value, message", [
        ("seed", -5, "integer >= 0"), ("seed", 1.7, "integer >= 0"),
        ("seed", "7", "finite number"), ("uniqueness_starts", -1, "integer >= 0"),
        ("uniqueness_starts", 2.5, "integer >= 0"), ("n_samples", 0, "integer >= 1"),
        ("n_samples", 0.5, "integer >= 1"), ("r", float("nan"), "finite number"),
        ("r", float("inf"), "finite number"), ("r", 0.0, "positive"),
        pytest.param("r", 10**400, "finite number", id="r-beyond-float"),
        pytest.param("seed", 10**400, "finite number", id="seed-beyond-float")])
    def test_bad_number_has_its_path(self, key, value, message):
        # prox-pair is the one command that takes every one of these fields
        with pytest.raises(ConfigError, match=message) as exc:
            parse_config({"problem": AFFINE, key: value}, "prox-pair")
        assert exc.value.path == key  # no leading dot

    def test_whole_numbers_keep_their_echo(self):
        # a box T: with the default sets no probe runs and the start count is refused
        cfg = parse_config({"problem": AFFINE, "seed": 3.0, "n_samples": 50,
                            "uniqueness_starts": 0, "t_set": BOX}, "prox-pair")
        assert (cfg.seed, cfg.n_samples, cfg.uniqueness_starts) == (3, 50, 0)
        assert isinstance(cfg.seed, int)

    @pytest.mark.parametrize("sets", [{}, {"y_set": {"kind": "ball", "radius": 1.0}},
                                      {"r": 0.2, "t_set": {"kind": "ball", "radius": 0.2}},
                                      # without r the solve takes r_max = 1/2 of the report
                                      {"t_set": {"kind": "ball", "radius": 0.5}}])
    def test_start_count_without_a_probe_is_refused(self, sets):
        # with Y = ball(rho) and T = ball(r) the contraction proves uniqueness
        # and no probe runs, so a start count would be accepted and ignored
        with pytest.raises(ConfigError, match="no use") as exc:
            parse_config({"problem": AFFINE, "uniqueness_starts": 5, **sets}, "prox-pair")
        assert exc.value.path == "uniqueness_starts"
        echo = parse_config({"problem": AFFINE, **sets}, "prox-pair").to_dict()
        assert "uniqueness_starts" not in echo
        # a box T, or a ball T other than ball(r), is probed: its count is echoed
        for t_set in (BOX, {"kind": "ball", "radius": 0.1}):
            cfg = parse_config({"problem": AFFINE, "uniqueness_starts": 5, "r": 0.2,
                                "t_set": t_set}, "prox-pair")
            assert cfg.to_dict()["uniqueness_starts"] == 5

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

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            set_from_dict({"kind": "simplex"}, 2, "y_set")


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, {"problem": AFFINE})
        assert main(["vi", "--config", cfgp]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "ballsaddle-certificate/4"
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
        # a factor of 3 excludes the whole ball, so the checks would see no sample
        cfgp = write_config(tmp_path, {"problem": AFFINE,
                                       "tolerances": {"exclusion_factor": 3}})
        assert main(["vi", "--config", cfgp]) == 1
        assert "exclusion_factor" in capsys.readouterr().err

    def test_exclusion_factor_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch):
        import ballsaddle.saddle as saddle_mod
        import ballsaddle.vi as vi_mod
        calls, solve = [], saddle_mod.solve_saddle

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)
        for mod in (saddle_mod, vi_mod):
            monkeypatch.setattr(mod, "solve_saddle", counting)
        cfgp = write_config(tmp_path, {"problem": AFFINE,
                                       "tolerances": {"exclusion_factor": 3}})
        assert main(["vi", "--config", cfgp]) == 1
        assert "tolerances.exclusion_factor" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("doc, argv", [({}, ["--seed", "-5"]), ({"seed": -5}, []),
                                           ({"seed": 1.7}, []), ({"n_samples": 0.5}, [])])
    def test_bad_whole_number_is_one(self, tmp_path, capsys, doc, argv):
        # saddle has both counts: n_samples sizes only the saddle checks
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
        import ballsaddle.cli as cli_mod

        def explode(*a, **kw):
            raise NonConvergence("probe", residual=1.0, iterations=5)

        monkeypatch.setattr(cli_mod, "solve_vi", explode)
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
            "command": "vi", "problem": AFFINE, "seed": 0,
            "heuristic": False, "tolerances": DEFAULT_TOLERANCES}
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
    "best-approx": ("best-approx", {"problem": AFFINE}),
    "saddle-vi": ("saddle", {"problem": AFFINE}),
    "saddle-ba": ("saddle", {"problem": AFFINE, "payoff": "ba"}),
    "constants": ("constants", {"problem": AFFINE, "application": "ba"}),
    "small-radius": ("small-radius", {"problem": AFFINE}),
}


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
            for name in ("solve_saddle", "uniqueness_probe", "vi_report", "ba_report"):
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
        cert = self.make_cert(tmp_path)

        def tamper(doc):
            doc["config"]["problem"]["b"] = [0.0, 0.0]
        assert "positivity" in self.verify_tampered(tmp_path, capsys, cert, tamper)
        # the solve path still refuses the problem as a hypothesis violation
        cfgp = write_config(tmp_path, {"problem": dict(AFFINE, b=[0.0, 0.0])})
        assert main(["vi", "--config", cfgp]) == 2
        assert "sigma = 0" in capsys.readouterr().err

    def test_gate_that_stops_recomputation_is_the_only_failure(self, tmp_path, capsys):
        # with sigma = 0 and no r nothing is recomputed, so no stored field is named
        def tamper(doc):
            doc["config"]["problem"]["b"] = [0.0, 0.0]
        assert self.verify_tampered(tmp_path, capsys, self.make_cert(tmp_path),
                                    tamper) == ["positivity"]
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

    @pytest.mark.parametrize("record", [{"starts": 16, "max_pairwise": 0.0}, "junk", [1]])
    def test_malformed_uniqueness_record_is_config_error(self, tmp_path, capsys, record):
        cert = self.make_cert(tmp_path, *ROUND_TRIPS["prox-pair-box"])
        doc = json.loads(cert.read_text())
        doc["certificate"]["checks"]["uniqueness"] = record
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--config", str(cert)]) == 1
        assert "malformed certificate body" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["vi", "vi-shifted", "best-approx"])
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
        assert "not a ballsaddle-certificate/4 document" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["vi", "vi-shifted", "best-approx"])
    def test_tampered_proof_margin_detected(self, tmp_path, capsys, case):
        def tamper(doc):
            doc["certificate"]["checks"]["proof"]["margin"] *= 2.0
        cert = self.make_cert(tmp_path, *ROUND_TRIPS[case])
        assert (self.verify_tampered(tmp_path, capsys, cert, tamper)
                == ["recorded:checks.proof.margin"])

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
        assert ("not a ballsaddle-certificate/4 document; re-run the solve"
                in capsys.readouterr().err)

    def test_format_2_certificate_asks_for_a_new_solve(self, tmp_path, capsys):
        # format 2 carried the saddle checks of statements 2, 4 and 6
        cert = self.make_cert(tmp_path)
        doc = json.loads(cert.read_text())
        doc["format"] = "ballsaddle-certificate/2"
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--config", str(cert)]) == 1
        assert ("not a ballsaddle-certificate/4 document; re-run the solve"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["vi", "best-approx"])
    def test_extragradient_certificate_verifies(self, capsys, command):
        # format-4 certificates stored before statements 2 and 6 solved by the
        # fixed-point iteration: their points, residuals and iteration counts
        # are the extragradient's, and their y* differs from x* by about 1e-8
        path = pathlib.Path(__file__).parent / "fixtures" / f"extragradient-{command}.json"
        body = json.loads(path.read_text())["certificate"]
        assert body["solution"]["x_star"] != body["solution"]["y_star"]
        capsys.readouterr()
        assert main(["verify", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["failures"] == []

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
                              {"problem": problem, "r": 0.5, "t_set": box(0.9 / np.sqrt(n)),
                               "uniqueness_starts": 0})

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

    def test_wrong_format_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {"format": "something-else"})
        assert main(["verify", "--config", str(path)]) == 1


def test_cli_run_leaves_scipy_optimize_unimported(tmp_path):
    # importing scipy.optimize costs several times the whole CLI start-up
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    cfgp = write_config(tmp_path, {"problem": {
        "kind": "affine", "A": [[1.0, 0.2, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 1.1]],
        "b": [2.0, 0.0, 1.0], "rho": 1.0}})
    script = ("import sys, ballsaddle\n"
              "from ballsaddle.cli import main\n"
              f"assert main(['vi', '--config', {cfgp!r}, '--out', {str(tmp_path / 'c.json')!r}]) == 0\n"
              "print('scipy.optimize' in sys.modules)\n")
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"


def test_command_list_is_stable():
    assert COMMANDS == ("constants", "saddle", "vi", "vi-shifted", "prox-pair",
                        "best-approx", "small-radius", "verify")
