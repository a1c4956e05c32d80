import json
import math
import warnings
from pathlib import Path

import pytest

from anisolab.cli import main, run_config
from anisolab.config import (ConfigError, emit_config, load_config,
                             parse_config, shipped_config_dir)
from anisolab.linsolve import IndefiniteOperatorError, NonConvergenceError
from anisolab.semigroup import ContractionError, StepperAccuracyError

CONFIG_DIR = shipped_config_dir()
TOOL_CONFIG_DIR = Path(__file__).resolve().parents[1] / "tools" / "configs"

MINIMAL = """
[problem]
domain = 0, pi, 0, pi
a11 = "1"
f = "(2/pi)*sin(x1)*sin(x2)"
f_dx1 = "(2/pi)*cos(x1)*sin(x2)"
f_grad_x1_in_l2 = true
f_slices_vanish_x1 = true

[discretization]
basis1 = sine
m1 = 8
basis2 = sine
m2 = 8

[study]
kind = rate
epsilons = 0.5, 0.25
"""


class TestParsing:
    def test_round_trip_identity(self):
        cfg = parse_config(MINIMAL)
        assert parse_config(emit_config(cfg)) == cfg

    def test_all_shipped_configs_round_trip(self):
        for path in sorted(CONFIG_DIR.glob("*.cfg")):
            cfg = load_config(path)
            assert parse_config(emit_config(cfg)) == cfg

    def test_epsilon_range_rejected(self):
        bad = MINIMAL.replace("epsilons = 0.5, 0.25", "epsilons = 1.5, 0.25")
        with pytest.raises(ConfigError, match=r"epsilon must lie in \(0,1\]"):
            parse_config(bad)

    def test_unknown_key_reports_line(self):
        bad = MINIMAL.replace("m1 = 8", "mesh = 8")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "mesh" in str(err.value)
        assert err.value.line == MINIMAL.splitlines().index("m1 = 8") + 1

    def test_unquoted_expression_rejected_with_position(self):
        bad = MINIMAL.replace('a11 = "1"', "a11 = 1")
        with pytest.raises(ConfigError, match="double-quoted") as err:
            parse_config(bad)
        assert err.value.line == 4

    def test_bad_expression_syntax_located(self):
        bad = MINIMAL.replace('a11 = "1"', 'a11 = "sin(x3)"')
        with pytest.raises(ConfigError, match="x3"):
            parse_config(bad)

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="section"):
            parse_config("m1 = 8\n")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# top\n\n[study]\nkind = solve  # trailing\n")
        assert cfg.study.kind == "solve"

    def test_sine_quad_order_below_three_rejected(self):
        parse_config("[discretization]\nbasis1 = q1\nbasis2 = q1\n"
                     "quad_order = 2\n")
        with pytest.raises(ConfigError, match="quad_order must be >= 3"):
            parse_config("[discretization]\nbasis1 = q1\nbasis2 = sine\n"
                         "quad_order = 2\n")

    def test_unknown_study_kind(self):
        with pytest.raises(ConfigError, match="study kind"):
            parse_config("[study]\nkind = banana\n")


class TestRunConfig:
    def test_solve_writes_grid_and_summary(self, tmp_path):
        cfg = load_config(CONFIG_DIR / "solve_identity.cfg")
        summary, code = run_config(cfg, tmp_path)
        assert code == 0
        grid = (tmp_path / "grid.csv").read_text().splitlines()
        assert grid[0] == "x1,x2,u"
        assert len(grid) == 1 + 65 * 65
        data = json.loads((tmp_path / "summary.json").read_text())
        assert data["verdicts"]["residual_contract"] is True
        assert data["verdicts"]["apriori_bounds"] is True

    def test_rate_csv_schema_frozen(self, tmp_path):
        cfg = load_config(CONFIG_DIR / "rate_identity.cfg")
        summary, code = run_config(cfg, tmp_path)
        assert code == 0
        lines = (tmp_path / "rate.csv").read_text().splitlines()
        assert lines[0] == "epsilon,e_x1,e_x2,e_l2,bound,verdict"
        assert len(lines) == 1 + 6
        first = lines[1].split(",")
        assert len(first) == 6
        assert float(first[0]) == 0.5
        assert first[5] == "pass"
        assert summary["rate"]["slope"] == pytest.approx(1.95, abs=0.1)

    def test_ap_csv_schema_frozen(self, tmp_path):
        cfg = load_config(CONFIG_DIR / "ap_identity.cfg")
        _, code = run_config(cfg, tmp_path)
        assert code == 0
        lines = (tmp_path / "ap_grid.csv").read_text().splitlines()
        assert lines[0] == "epsilon,n,error"
        assert len(lines) == 1 + 4 * 4

    def test_semigroup_csv_schemas_frozen(self, tmp_path):
        cfg = load_config(CONFIG_DIR / "semigroup_identity.cfg")
        _, code = run_config(cfg, tmp_path)
        assert code == 0
        trace = (tmp_path / "deviation_trace.csv").read_text().splitlines()
        summ = (tmp_path / "deviation_summary.csv").read_text().splitlines()
        assert trace[0] == "epsilon,t,deviation"
        assert summ[0] == "epsilon,D_sup,slope"
        assert len(summ) == 1 + 3

    def test_refusal_is_structured_not_a_crash(self, tmp_path):
        text = MINIMAL.replace("f_slices_vanish_x1 = true",
                               "f_slices_vanish_x1 = false")
        cfg = parse_config(text)
        summary, code = run_config(cfg, tmp_path)
        assert code == 2
        assert summary["refusals"]
        assert "slices_vanish_x1" in summary["refusals"][0]["reason"]

    @pytest.mark.parametrize("kind", ["solve", "rate", "cea", "dq", "ap"])
    def test_ledger_computed_once_per_study(self, tmp_path, monkeypatch,
                                            kind):
        import anisolab.cli
        import anisolab.coefficients

        calls = []
        real = anisolab.coefficients.compute_constants

        def counting(*args, **kwargs):
            calls.append(kind)
            return real(*args, **kwargs)

        monkeypatch.setattr(anisolab.cli, "compute_constants", counting)
        monkeypatch.setattr(anisolab.coefficients, "compute_constants",
                            counting)
        cfg = parse_config(MINIMAL.replace("kind = rate", f"kind = {kind}"))
        summary, _ = run_config(cfg, tmp_path)
        assert len(calls) == 1
        assert summary["constants"]["poincare_omega2"] == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", ["solve", "rate", "cea", "dq", "ap"])
    def test_ledger_validated_once_per_study(self, tmp_path, monkeypatch,
                                             kind):
        # compute_constants validates its ledger once, so a ledger computed
        # through any binding of compute_constants is counted here
        from anisolab.coefficients import ConstantLedger

        calls = []
        real = ConstantLedger.validate

        def counting(ledger, *args, **kwargs):
            calls.append(kind)
            return real(ledger, *args, **kwargs)

        monkeypatch.setattr(ConstantLedger, "validate", counting)
        cfg = parse_config(MINIMAL.replace("kind = rate", f"kind = {kind}"))
        run_config(cfg, tmp_path)
        assert len(calls) == 1

    def test_hypothesis_refusal_leaves_no_constants(self, tmp_path):
        # The x1-dependent a12 has no declared partial, which the ledger
        # would reject; the hypothesis gate must refuse before that.
        text = MINIMAL.replace("kind = rate", "kind = dq").replace(
            "f_grad_x1_in_l2 = true", "f_grad_x1_in_l2 = false").replace(
            'a11 = "1"', 'a11 = "2"\na12 = "0.1*sin(x1)"\na21 = "0.1*sin(x1)"')
        summary, code = run_config(parse_config(text), tmp_path)
        assert code == 2
        assert summary["refusals"] == [{"study": "dq",
                                        "missing": ["grad_x1_in_l2"]}]
        assert "constants" not in summary
        data = json.loads((tmp_path / "summary.json").read_text())
        assert "constants" not in data

    def test_determinism_byte_identical_outputs(self, tmp_path):
        for name in ("rate_identity.cfg", "ap_identity.cfg",
                     "solve_identity.cfg"):
            cfg = load_config(CONFIG_DIR / name)
            a = tmp_path / (name + ".a")
            b = tmp_path / (name + ".b")
            run_config(cfg, a)
            run_config(load_config(CONFIG_DIR / name), b)
            files_a = sorted(p.name for p in a.iterdir())
            files_b = sorted(p.name for p in b.iterdir())
            assert files_a == files_b
            for fname in files_a:
                assert (a / fname).read_bytes() == (b / fname).read_bytes()


class TestCommandLine:
    def test_rate_study_subcommand(self, tmp_path, capsys):
        code = main(["rate-study", "--config",
                     str(CONFIG_DIR / "rate_identity.cfg"),
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "rate.csv").exists()

    def test_epsilon_list_override(self, tmp_path):
        code = main(["rate-study", "--config",
                     str(CONFIG_DIR / "rate_identity.cfg"),
                     "--out", str(tmp_path),
                     "--epsilon-list", "0.5,0.25"])
        assert code == 0
        lines = (tmp_path / "rate.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_bad_epsilon_list_rejected(self, tmp_path, capsys):
        code = main(["rate-study", "--config",
                     str(CONFIG_DIR / "rate_identity.cfg"),
                     "--out", str(tmp_path),
                     "--epsilon-list", "1.5"])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_constants_subcommand_prints_ledger(self, tmp_path, capsys):
        code = main(["constants", "--config",
                     str(CONFIG_DIR / "rate_identity.cfg"),
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "poincare_omega2" in out
        assert "rate_const_grad" in out
        data = json.loads((tmp_path / "summary.json").read_text())
        consts = data["constants"]
        assert consts["poincare_omega2"] == pytest.approx(1.0)
        assert consts["energy_const"] == pytest.approx(0.5)
        assert consts["rate_const_grad"] == pytest.approx(math.sqrt(2.0))
        assert consts["rate_const_source"] == pytest.approx(0.0)

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2

    def test_solve_export_override(self, tmp_path):
        code = main(["solve", "--config",
                     str(CONFIG_DIR / "solve_identity.cfg"),
                     "--out", str(tmp_path), "--export", "lattice.csv"])
        assert code == 0
        assert (tmp_path / "lattice.csv").exists()

    @pytest.mark.parametrize("command,artifact", [
        ("ap-check", "ap_grid.csv"),
        ("dq-check", "summary.json"),
        ("resolvent-study", "resolvent.csv"),
    ])
    def test_subcommand_overrides_config_kind(self, tmp_path, command,
                                              artifact):
        # the rate config carries kind = rate; subcommands replace it
        code = main([command, "--config",
                     str(CONFIG_DIR / "rate_identity.cfg"),
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / artifact).exists()

    def test_refused_rate_csv_marks_rows(self, tmp_path):
        text = MINIMAL.replace("f_grad_x1_in_l2 = true",
                               "f_grad_x1_in_l2 = false")
        cfg = parse_config(text)
        summary, code = run_config(cfg, tmp_path)
        assert code == 2
        lines = (tmp_path / "rate.csv").read_text().splitlines()
        assert all(line.endswith(",refused") for line in lines[1:])


POSITIONED = """[problem]
lambda = 1.0
beta = zero
[discretization]
basis1 = sine
basis2 = sine
  quad_order = 4
[study]
kind = rate
epsilon = 0.5
epsilons = 0.5, 0.25
"""


class TestConfigErrorPositions:
    @pytest.mark.parametrize("old,new,line,column,message", [
        ("kind = rate", "kind = banana", 9, 1, "study kind"),
        ("epsilon = 0.5", "epsilon = 1.5", 10, 1, "epsilon must lie"),
        ("epsilons = 0.5, 0.25", "epsilons = 0.5, 0", 11, 1,
         "epsilon must lie"),
        ("beta = zero", "beta = cubic", 3, 1, "unknown reaction"),
        ("basis1 = sine", "basis1 = legendre", 5, 1, "basis kinds"),
        ("basis2 = sine", "basis2 = fourier", 6, 1, "basis kinds"),
        ("  quad_order = 4", "  quad_order = 2", 7, 3, "quad_order must be"),
        ("lambda = 1.0", "lambda = -1", 2, 1, "lambda must be positive"),
    ])
    def test_semantic_error_points_at_key(self, old, new, line, column,
                                          message):
        with pytest.raises(ConfigError, match=message) as err:
            parse_config(POSITIONED.replace(old, new))
        assert (err.value.line, err.value.column) == (line, column)


class TestDivisionByZero:
    # a11 sits on line 4 of solve_identity.cfg; a constant divisor and one
    # that depends on x1 end alike
    @pytest.mark.parametrize("a11", ["1 + 1/(2-2)", "1 + 1/(x1-x1)", "0/(1-1)"])
    def test_config_error_at_the_key(self, tmp_path, capsys, a11):
        text = (CONFIG_DIR / "solve_identity.cfg").read_text()
        assert 'a11 = "1"' in text.splitlines()[3]
        cfg_path = tmp_path / "zero.cfg"
        cfg_path.write_text(text.replace('a11 = "1"', f'a11 = "{a11}"'))
        with pytest.raises(ConfigError, match="coefficient a11 is not finite") as err:
            load_config(cfg_path)
        assert (err.value.line, err.value.column) == (4, 1)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        err_text = capsys.readouterr().err
        assert err_text.startswith("error: line 4, column 1: coefficient a11")
        assert "Traceback" not in err_text
        assert not (tmp_path / "out" / "summary.json").exists()


class TestNumericalFailures:
    # The real trigger (semigroup_identity.cfg with steps = 20000) marches
    # for seconds, so the study is replaced by one that raises at once.
    @pytest.mark.parametrize("exc,diagnostics", [
        (StepperAccuracyError(65536, 32768), {"required_steps": 65536}),
        (NonConvergenceError(None, 2.5e-3, 40),
         {"iterations": 40, "residual_norm": 2.5e-3}),
        (IndefiniteOperatorError(), {}),
        (ContractionError("contraction violated at step 7: 2 > 1"), {}),
    ])
    def test_failure_is_reported_with_exit_code_3(self, tmp_path, capsys,
                                                  monkeypatch, exc,
                                                  diagnostics):
        import anisolab.semigroup

        def failing(*args, **kwargs):
            raise exc

        monkeypatch.setattr(anisolab.semigroup, "semigroup_deviation_study",
                            failing)
        code = main(["run", "--config",
                     str(CONFIG_DIR / "semigroup_identity.cfg"),
                     "--out", str(tmp_path)])
        assert code == 3
        data = json.loads((tmp_path / "summary.json").read_text())
        assert data["failures"] == [dict(
            {"study": "semigroup", "error": type(exc).__name__,
             "message": str(exc)}, **diagnostics)]
        assert data["refusals"] == []
        assert "failed: " in capsys.readouterr().err


class TestNonFiniteSource:
    # f and f_dx1 sit on lines 13 and 14 of rate_identity.cfg and
    # dq_identity.cfg; a non-finite source used to pass the bound verdicts
    # (f_dx1) or fail with a message about a ledger entry or a coefficient
    @pytest.mark.parametrize("cfg_name,command", [
        ("rate_identity.cfg", "rate-study"),
        ("dq_identity.cfg", "dq-check"),
        ("solve_identity.cfg", "solve"),
    ])
    @pytest.mark.parametrize("key,value,line", [
        ("f_dx1", "1/(x2-x2)", 14),
        ("f", "1/(x1-x1)", 13),
        ("f", "1/(2-2)", 13),
    ])
    def test_config_error_at_the_key(self, tmp_path, capsys, cfg_name,
                                     command, key, value, line):
        lines = (CONFIG_DIR / cfg_name).read_text().splitlines()
        assert lines[line - 1].startswith(f"{key} = ")
        lines[line - 1] = f'{key} = "{value}"'
        cfg_path = tmp_path / "source.cfg"
        cfg_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError,
                           match=f"source {key} is not finite") as err:
            load_config(cfg_path)
        assert (err.value.line, err.value.column) == (line, 1)
        out = tmp_path / "out"
        code = main([command, "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        err_text = capsys.readouterr().err
        assert err_text.startswith(f"error: line {line}, column 1: source {key}")
        assert "Traceback" not in err_text
        assert not (out / "summary.json").exists()

    def test_source_finite_on_the_gauss_grid_is_accepted(self, tmp_path):
        # sin(x1)/x1 is 0/0 at x1 = 0, a point no Gauss rule holds
        text = (CONFIG_DIR / "solve_identity.cfg").read_text()
        text = text.replace('f = "(2/pi)*sin(x1)*sin(x2)"',
                            'f = "sin(x1)/x1*sin(x2)"')
        text = text.replace('f_dx1 = "(2/pi)*cos(x1)*sin(x2)"',
                            'f_dx1 = "cos(x1)/x1*sin(x2) - sin(x1)/(x1*x1)*sin(x2)"')
        cfg_path = tmp_path / "sinc.cfg"
        cfg_path.write_text(text)
        cfg = load_config(cfg_path)
        assert cfg.problem.f == "sin(x1)/x1*sin(x2)"
        summary, code = run_config(cfg, tmp_path / "out")
        assert code in (0, 1)
        assert (tmp_path / "out" / "summary.json").exists()

    def test_assembly_names_the_source(self, sine8):
        import numpy as np
        from anisolab.assembly import assemble_load
        with pytest.raises(ValueError, match="^source produced non-finite"):
            with np.errstate(divide="ignore", invalid="ignore"):
                assemble_load(sine8, lambda x1, x2: x1 / (x2 - x2))


class TestOutputPath:
    def test_out_naming_a_file_is_an_error_not_a_traceback(self, tmp_path,
                                                          capsys):
        target = tmp_path / "taken"
        target.write_text("keep me\n")
        code = main(["solve", "--config",
                     str(CONFIG_DIR / "solve_identity.cfg"),
                     "--out", str(target)])
        assert code == 2
        err_text = capsys.readouterr().err
        assert err_text.startswith("error: ")
        assert str(target) in err_text
        assert "Traceback" not in err_text
        assert target.read_text() == "keep me\n"
        assert not (tmp_path / "summary.json").exists()

    def test_out_below_a_file_is_an_error(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        code = main(["solve", "--config",
                     str(CONFIG_DIR / "solve_identity.cfg"),
                     "--out", str(target / "sub")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestParabolicInputs:
    # u0 sits on line 31 of parabolic_identity.cfg; a non-finite u0 used to
    # end with a numpy warning and a message about the source
    @pytest.mark.parametrize("value,message", [
        ("1/(x1-x1)", "initial state u0 is not finite on the domain"),
        ("1/(2-2)", "initial state u0 is not finite on the domain"),
        ("t*x1", "initial state u0 may depend on x1 and x2 only"),
    ])
    def test_bad_u0_is_a_config_error_at_the_key(self, tmp_path, capsys,
                                                  value, message):
        lines = (CONFIG_DIR / "parabolic_identity.cfg").read_text().splitlines()
        assert lines[30].startswith("u0 = ")
        lines[30] = f'u0 = "{value}"'
        cfg_path = tmp_path / "u0.cfg"
        cfg_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=message) as err:
            load_config(cfg_path)
        assert (err.value.line, err.value.column) == (31, 1)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        err_text = capsys.readouterr().err
        assert err_text == f"error: line 31, column 1: {message}\n"
        assert not (out / "summary.json").exists()

    def test_source_blowing_up_at_a_step_time_is_one_error_line(self, tmp_path,
                                                                capsys):
        # steps = 256 over T = 1 puts a step time on t = 0.5
        text = (CONFIG_DIR / "parabolic_identity.cfg").read_text()
        assert "steps = 256\n" in text and "T = 1\n" in text
        cfg_path = tmp_path / "source.cfg"
        cfg_path.write_text(text.replace("u0_eps_coeff",
                                         'source = "1/(t-0.5)"\nu0_eps_coeff'))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err_text = capsys.readouterr().err
        assert err_text == ("error: source produced non-finite values on the "
                            "quadrature grid\n")


class TestDeclaredSourceSlices:
    # f_slices_vanish_x1 sits on line 16 of rate_identity.cfg; a source that
    # does not vanish at an x1 endpoint made the rate bound read 0, and the
    # run exit 1 as a false counterexample
    @pytest.mark.parametrize("f,f_dx1,peak", [
        ("(2/pi)*sin(x2)", "0", "0.637"),
        ("x1*sin(x2)", "sin(x2)", "3.14"),
    ])
    def test_false_flag_is_a_config_error_at_the_key(self, tmp_path, capsys,
                                                     f, f_dx1, peak):
        lines = (CONFIG_DIR / "rate_identity.cfg").read_text().splitlines()
        assert lines[12].startswith("f = ") and lines[13].startswith("f_dx1 = ")
        assert lines[15] == "f_slices_vanish_x1 = true"
        lines[12], lines[13] = f'f = "{f}"', f'f_dx1 = "{f_dx1}"'
        cfg_path = tmp_path / "slices.cfg"
        cfg_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 16, column 1: f declared to vanish at the x1 endpoints "
            f"but reaches {peak} there\n")
        assert not (out / "summary.json").exists()

    def test_every_shipped_source_passes_the_check(self):
        # (2/pi) sin(pi) is 7.8e-17, within 1e-12 max(1, max|f|) of 0
        paths = sorted(CONFIG_DIR.glob("*.cfg")) + sorted(TOOL_CONFIG_DIR.glob("*.cfg"))
        assert len(paths) == 16
        for path in paths:
            assert load_config(path).problem.f_slices_vanish_x1


class TestRepeatedKey:
    def test_second_occurrence_is_an_error(self):
        with pytest.raises(ConfigError, match="key 'kind' given twice in "
                           r"\[study\] \(first on line 2\)") as err:
            parse_config("[study]\nkind = rate\nkind = ap\n")
        assert (err.value.line, err.value.column) == (3, 1)

    def test_repeat_in_a_reopened_section_at_its_indent(self):
        text = "[problem]\nlambda = 1\n[study]\nkind = rate\n[problem]\n  lambda = 2\n"
        with pytest.raises(ConfigError, match="'lambda' given twice") as err:
            parse_config(text)
        assert (err.value.line, err.value.column) == (6, 3)

    def test_same_key_in_two_sections_is_accepted(self):
        cfg = parse_config("[problem]\nmu = 2\n[study]\nmu = 3\n")
        assert (cfg.problem.mu, cfg.study.mu) == (2.0, 3.0)


class TestCodecErrors:
    @pytest.mark.parametrize("section,line,message", [
        ("study", "check_bound = True",
         "line 2, column 14: expected true or false, got 'True'"),
        ("discretization", "m1 = 1.5",
         "line 2, column 5: invalid literal for int() with base 10: '1.5'"),
        ("study", "sizes = 4,",
         "line 2, column 8: invalid literal for int() with base 10: ''"),
        ("problem", "domain = 0,1,0",
         "line 2, column 9: domain needs exactly four numbers a1,b1,a2,b2"),
        ("study", "epsilon = abc",
         "line 2, column 10: could not convert string to float: 'abc'"),
    ])
    def test_bad_value_text(self, section, line, message):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[{section}]\n{line}\n")
        assert str(err.value) == message


class TestProblemExpressionVariables:
    # a [problem] expression with a variable besides x1 and x2 used to skip
    # the finiteness check and end with an error that named no line
    @pytest.mark.parametrize("key,value,message", [
        ("f", "t*(2/pi)*sin(x1)*sin(x2)", "source f"),
        ("f_dx1", "t*(2/pi)*cos(x1)*sin(x2)", "source f_dx1"),
        ("a12", "t*x1", "coefficient a12"),
        ("a22", "1 + t*x2", "coefficient a22"),
        ("a12_dx1", "t", "coefficient derivative a12_dx1"),
    ])
    def test_config_error_at_the_key(self, tmp_path, capsys, key, value,
                                     message):
        lines = (CONFIG_DIR / "solve_identity.cfg").read_text().splitlines()
        at = next((i for i, line in enumerate(lines)
                   if line.startswith(f"{key} = ")), None)
        if at is None:  # a key the config leaves out goes after a12
            at = next(i for i, line in enumerate(lines)
                      if line.startswith("a12 = ")) + 1
            lines.insert(at, "")
        lines[at] = f'{key} = "{value}"'
        cfg_path = tmp_path / "vars.cfg"
        cfg_path.write_text("\n".join(lines) + "\n")
        message += " may depend on x1 and x2 only"
        with pytest.raises(ConfigError, match=message) as err:
            load_config(cfg_path)
        assert (err.value.line, err.value.column) == (at + 1, 1)
        code = main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (f"error: line {at + 1}, column 1: "
                                           f"{message}\n")


class TestCustomReactionStudies:
    def test_solve_runs_damped_picard(self, tmp_path):
        out = tmp_path / "out"
        code = main(["solve", "--config", str(TOOL_CONFIG_DIR / "solve_arctan.cfg"),
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solve"]["picard_iterations"] > 0
        assert summary["verdicts"] == {"apriori_bounds": True,
                                       "residual_contract": True}

    def test_cea_check_takes_the_square_root_bound(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(TOOL_CONFIG_DIR / "cea_arctan.cfg"),
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cea"]["kind"] == "limit-sqrt"

    @pytest.mark.parametrize("command", ["rate-study", "ap-check", "dq-check"])
    def test_linear_only_studies_refuse(self, tmp_path, capsys, command):
        code = main([command, "--config", str(TOOL_CONFIG_DIR / "solve_arctan.cfg"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == ("error: custom reactions require "
                                           "solve_semilinear\n")


class TestFamilySizes:
    # in ap_identity.cfg basis1 sits on line 19, m1 on 20, basis2 on 21,
    # m2 on 22 and sizes on 28; a 0 in sizes used to run as m1
    @pytest.mark.parametrize("edits,line,message", [
        ({"sizes = 2, 4, 8, 16": "sizes = 0, 16"}, 28,
         "sizes must be >= 1 for a sine basis, got 0"),
        ({"sizes = 2, 4, 8, 16": "sizes = -2, 4"}, 28,
         "sizes must be >= 1 for a sine basis, got -2"),
        ({"m1 = 16": "m1 = 0"}, 20, "m1 must be >= 1 for a sine basis, got 0"),
        ({"m2 = 16": "m2 = -1"}, 22, "m2 must be >= 1 for a sine basis, got -1"),
        ({"basis1 = sine": "basis1 = q1", "m1 = 16": "m1 = 1"}, 20,
         "m1 must be >= 2 for a q1 basis, got 1"),
        ({"basis2 = sine": "basis2 = q1", "sizes = 2, 4, 8, 16": "sizes = 1, 4"},
         28, "sizes must be >= 2 for a q1 basis, got 1"),
    ])
    def test_config_error_at_the_key(self, tmp_path, capsys, edits, line,
                                     message):
        text = (CONFIG_DIR / "ap_identity.cfg").read_text()
        for old, new in edits.items():
            assert text.splitlines().count(old) == 1
            text = text.replace(old, new)
        cfg_path = tmp_path / "sizes.cfg"
        cfg_path.write_text(text)
        with pytest.raises(ConfigError, match=message) as err:
            load_config(cfg_path)
        assert (err.value.line, err.value.column) == (line, 1)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: line {line}, column 1: {message}\n"
        assert not (out / "summary.json").exists()

    def test_least_sizes_are_accepted(self):
        text = (CONFIG_DIR / "ap_identity.cfg").read_text()
        cfg = parse_config(text.replace("m1 = 16", "m1 = 1")
                           .replace("sizes = 2, 4, 8, 16", "sizes = 1, 2"))
        assert (cfg.discretization.m1, cfg.study.sizes) == (1, (1, 2))
        cfg = parse_config(text.replace("basis1 = sine", "basis1 = q1")
                           .replace("m1 = 16", "m1 = 2").replace("m2 = 16", "m2 = 1"))
        assert (cfg.discretization.m1, cfg.discretization.m2) == (2, 1)

    def test_make_space_takes_an_explicit_size_as_given(self):
        from anisolab.config import build_problem_objects, make_space

        cfg = load_config(CONFIG_DIR / "ap_identity.cfg")
        domain = build_problem_objects(cfg)[0]
        assert make_space(cfg, domain, m1=4, m2=2).dim == 8
        assert make_space(cfg, domain).dim == 256
        with pytest.raises(ValueError, match="family sizes must be positive"):
            make_space(cfg, domain, m1=0, m2=16)


def _edited(tmp_path, cfg_name, edits):
    """Path of a copy of a shipped config with whole lines replaced."""
    text = (CONFIG_DIR / cfg_name).read_text()
    for old, new in edits.items():
        assert text.splitlines().count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / cfg_name
    path.write_text(text)
    return path


class TestCommandLineOverrides:
    # in solve_identity.cfg m1 sits on line 20 and quad_order on 23; in
    # rate_identity.cfg epsilons sits on line 27.  An override used to be
    # written into the config after its checks had run.
    @pytest.mark.parametrize("cfg_name,edits,flags,message", [
        ("solve_identity.cfg", {"m1 = 8": "m1 = 1"}, ["--basis", "q1"],
         "line 20, column 1: m1 must be >= 2 for a q1 basis, got 1"),
        ("solve_identity.cfg", {"basis1 = sine": "basis1 = q1",
                                "basis2 = sine": "basis2 = q1",
                                "quad_order = 4": "quad_order = 2"},
         ["--basis", "sine"],
         "line 23, column 1: quad_order must be >= 3 for a sine basis"),
        ("rate_identity.cfg", {}, ["--epsilon-list", "1.5"],
         "line 27, column 1: epsilon must lie in (0,1], got 1.5"),
        # a key the file lacks is reported at line 1
        ("solve_identity.cfg", {}, ["--epsilon-list", "0.5,0"],
         "line 1, column 1: epsilon must lie in (0,1], got 0.0"),
    ])
    def test_override_is_checked_at_the_replaced_key(self, tmp_path, capsys,
                                                     cfg_name, edits, flags,
                                                     message):
        cfg_path = _edited(tmp_path, cfg_name, edits)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)]
                    + flags)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "summary.json").exists()

    def test_overrides_replace_file_values(self):
        cfg = load_config(CONFIG_DIR / "rate_identity.cfg", {
            ("study", "epsilons"): (0.5, 0.25),
            ("discretization", "basis1"): "q1",
            ("discretization", "basis2"): "q1",
        })
        assert cfg.study.epsilons == (0.5, 0.25)
        assert (cfg.discretization.basis1, cfg.discretization.basis2) == ("q1", "q1")

    def test_study_kinds_agree_with_the_subcommands(self, capsys):
        from anisolab import cli, config

        assert set(config.STUDY_KINDS) == set(cli._STUDIES)
        with pytest.raises(SystemExit):
            main(["--help"])
        assert ("{solve,rate-study,cea-check,ap-check,dq-check,resolvent-study,"
                "semigroup-study,parabolic-study,constants,run}"
                in capsys.readouterr().out)


class TestInputsRejectedBeforeOutput:
    @pytest.mark.parametrize("text", ["", "# nothing set\n\n[study]\n"])
    def test_config_that_sets_no_key(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "empty.cfg"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 1, column 1: config sets no keys\n")
        assert not out.exists()

    @pytest.mark.parametrize("beta", ["zero", "arctan"])
    @pytest.mark.parametrize("damping", ["0", "1.5"])
    def test_damping_at_the_key(self, tmp_path, capsys, beta, damping):
        # checked whatever the reaction, as solve_semilinear checks it
        cfg_path = _edited(tmp_path, "solve_identity.cfg",
                           {"beta = zero": f"beta = {beta}",
                            "epsilon = 0.5": f"epsilon = 0.5\ndamping = {damping}"})
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 28, column 1: damping must lie in (0, 1]\n")
        assert not out.exists()

    def test_degenerate_domain_at_the_key(self, tmp_path, capsys):
        cfg_path = _edited(tmp_path, "solve_identity.cfg",
                           {"domain = 0, pi, 0, pi": "domain = 0, 0, 0, pi"})
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 3, column 1: degenerate interval: each side must "
            "have b > a\n")
        assert not out.exists()

    def test_unknown_output_format_at_the_key(self, tmp_path, capsys):
        cfg_path = _edited(tmp_path, "solve_identity.cfg",
                           {"formats = csv, json": "formats = xml"})
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 32, column 1: unknown output format 'xml'; "
            "expected csv or json\n")
        assert not out.exists()

    @pytest.mark.parametrize("edits,message", [
        ({"lambda = 1": "lambda = 2"},
         "error: line 8, column 1: ellipticity check failed: "),
        ({'a22 = "1"': 'a22 = "1 + 0.5*sin(x1)"'},
         "error: line 7, column 1: a22 declared x2-only but varies with x1"),
    ])
    def test_unbuildable_problem_leaves_no_output_directory(self, tmp_path,
                                                            capsys, edits,
                                                            message):
        cfg_path = _edited(tmp_path, "solve_identity.cfg", edits)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("export", ["{tmp}/escape.csv", "../x.csv"])
    def test_export_outside_the_output_directory(self, tmp_path, capsys,
                                                 export):
        export = export.format(tmp=tmp_path)
        out = tmp_path / "out"
        code = main(["solve", "--config", str(CONFIG_DIR / "solve_identity.cfg"),
                     "--out", str(out), "--export", export])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 28, column 1: export must be a file name in the "
            f"output directory, got {export!r}\n")
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    def test_linear_reaction_without_mu_at_the_key(self, tmp_path, capsys):
        cfg_path = _edited(tmp_path, "solve_identity.cfg",
                           {"beta = zero": "beta = linear\nmu = 0"})
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 13, column 1: linear reaction needs mu > 0\n")
        assert not out.exists()


class TestFlowAndNumberInputs:
    # in solve_identity.cfg lambda sits on line 8; in semigroup_identity.cfg
    # T, stepper and steps on lines 28 to 30; in resolvent_identity.cfg the
    # study's mu on line 28.  A number's fault is reported at its value.
    @pytest.mark.parametrize("cfg_name,edits,message", [
        ("solve_identity.cfg", {"lambda = 1": "lambda = nan"},
         "line 8, column 9: expected a finite number, got 'nan'"),
        ("semigroup_identity.cfg", {"T = 2": "T = inf"},
         "line 28, column 4: expected a finite number, got 'inf'"),
        ("semigroup_identity.cfg", {"T = 2": "T = -1"},
         "line 28, column 1: final time must be nonnegative"),
        ("semigroup_identity.cfg", {"stepper = be": "stepper = foo"},
         "line 29, column 1: unknown stepper 'foo'"),
        ("semigroup_identity.cfg", {"steps = 256": "steps = 0"},
         "line 30, column 1: positive horizon needs at least one step"),
        ("semigroup_identity.cfg",
         {"stepper = be": "stepper = yosida\nyosida_mu = 0"},
         "line 30, column 1: the bounded-operator stepper needs yosida_mu > 0"),
        ("resolvent_identity.cfg", {"mu = 1": "mu = -1"},
         "line 28, column 1: resolvent parameter must be positive"),
    ])
    def test_config_error_at_the_key(self, tmp_path, capsys, cfg_name, edits,
                                     message):
        cfg_path = _edited(tmp_path, cfg_name, edits)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestRunnerSections:
    def test_rate_with_linear_reaction(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(TOOL_CONFIG_DIR / "rate_linear.cfg"),
                     "--out", str(out)])
        assert code == 0
        data = json.loads((out / "summary.json").read_text())
        section = data["rate_linear_reaction"]
        assert set(section) == {"mus", "e_x2", "scaled"}
        assert section["mus"] == [1.0, 10.0, 100.0]
        n_eps = len(data["rate"]["epsilons"])
        for key in ("e_x2", "scaled"):
            assert list(section[key]) == ["1.0", "10.0", "100.0"]
            assert all(len(v) == n_eps for v in section[key].values())
        assert data["verdicts"] == {"rate_bound": True,
                                    "rate_slope_ge_0.95": True,
                                    "rate_mu_bounded": True,
                                    "rate_mu_shrink": True}

    def test_resolvent_refusal(self, tmp_path):
        cfg_path = _edited(tmp_path, "resolvent_identity.cfg", {
            "offdiag_mixed_deriv_in_l2 = true":
                "offdiag_mixed_deriv_in_l2 = false"})
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        data = json.loads((out / "summary.json").read_text())
        assert data["refusals"] == [{
            "study": "resolvent",
            "reason": "missing hypotheses: offdiag_mixed_deriv_in_l2"}]
        assert not (out / "resolvent.csv").exists()

    def test_cea_rows_agree_with_the_csv(self, tmp_path):
        from anisolab.reports import CSV_COLUMNS

        code = main(["run", "--config", str(CONFIG_DIR / "cea_variable_a22.cfg"),
                     "--out", str(tmp_path)])
        assert code == 0
        columns = CSV_COLUMNS["cea"]
        rows = json.loads((tmp_path / "summary.json").read_text())["cea"]["rows"]
        lines = (tmp_path / "cea.csv").read_text().splitlines()
        assert lines[0] == ",".join(columns)
        assert len(lines) == len(rows) + 1
        for row, line in zip(rows, lines[1:]):
            assert set(row) == set(columns)
            cells = dict(zip(columns, line.split(",")))
            assert int(cells["dim"]) == row["dim"]
            assert cells["passed"] == json.dumps(row["passed"])
            for name in ("galerkin_error", "best_error", "bound_rhs"):
                assert float(cells[name]) == row[name]


def test_repeated_epsilon_gives_no_slope_verdict(tmp_path):
    cfg_path = tmp_path / "rate.cfg"
    text = (CONFIG_DIR / "rate_identity.cfg").read_text()
    old = "epsilons = 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625"
    cfg_path.write_text(text.replace(old, "epsilons = 0.5, 0.5"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 1
    data = json.loads((tmp_path / "summary.json").read_text(),
                      parse_constant=_refuse_constant)
    assert data["rate"]["slope"] is None
    assert data["verdicts"]["rate_slope_ge_0.95"] is False


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


class TestEpsilonListFlag:
    @pytest.mark.parametrize("value,message", [
        ("", "--epsilon-list is empty"),
        (" ", "--epsilon-list is empty"),
        ("0.5,x", "--epsilon-list: 'x' is not a number"),
        ("0.5,,0.25", "--epsilon-list: '' is not a number"),
    ])
    def test_fault_exits_2_before_output(self, tmp_path, capsys, value, message):
        out = tmp_path / "out"
        code = main(["run", "--config", str(CONFIG_DIR / "rate_identity.cfg"),
                     "--out", str(out), "--epsilon-list", value])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestStudyListsAtTheKey:
    # in cea_variable_a22.cfg (q1, m = 8) sizes sits on line 26; in
    # ap_identity.cfg (sine) on line 28; in tools/configs/rate_linear.cfg a
    # mus line after check_bound sits on line 31.  Each of these faults used
    # to surface only after the reference solve, without its position.
    NESTING = "is not nested in the reference size {}, the last size refined once"

    @pytest.mark.parametrize("cfg_name,edits,flags,line,message", [
        ("cea_variable_a22.cfg", {"sizes = 4, 8, 16": "sizes = 3, 4"},
         ["run"], 26, "a q1 basis of size 3 " + NESTING.format(8)),
        ("cea_variable_a22.cfg", {"sizes = 4, 8, 16": "sizes = 4, 3"},
         ["run"], 26, "a q1 basis of size 4 " + NESTING.format(6)),
        # the subcommand sets the kind after loading
        ("cea_variable_a22.cfg", {"sizes = 4, 8, 16": "sizes = 3, 4"},
         ["ap-check"], 26, "a q1 basis of size 3 " + NESTING.format(8)),
        ("cea_variable_a22.cfg",
         {"basis1 = q1": "basis1 = sine", "sizes = 4, 8, 16": "sizes = 3, 4"},
         ["run"], 26, "a q1 basis of size 3 " + NESTING.format(8)),
        # the basis comes from the command line
        ("ap_identity.cfg", {"sizes = 2, 4, 8, 16": "sizes = 3, 4"},
         ["run", "--basis", "q1"], 28, "a q1 basis of size 3 " + NESTING.format(8)),
    ])
    def test_sizes_that_do_not_nest(self, tmp_path, capsys, cfg_name, edits,
                                    flags, line, message):
        cfg_path = _edited(tmp_path, cfg_name, edits)
        out = tmp_path / "out"
        code = main([flags[0], "--config", str(cfg_path), "--out", str(out),
                     *flags[1:]])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: line {line}, column 1: {message}\n")
        assert not out.exists()

    def test_sizes_that_nest_are_accepted(self):
        cea = (CONFIG_DIR / "cea_variable_a22.cfg").read_text()
        assert parse_config(cea.replace("sizes = 4, 8, 16",
                                        "sizes = 3, 6")).study.sizes == (3, 6)
        ap = (CONFIG_DIR / "ap_identity.cfg").read_text()
        assert parse_config(ap.replace("sizes = 2, 4, 8, 16",
                                       "sizes = 5, 3")).study.sizes == (5, 3)

    @pytest.mark.parametrize("mus", ["0, 10", "10, -1"])
    def test_nonpositive_mus(self, tmp_path, capsys, mus):
        text = (TOOL_CONFIG_DIR / "rate_linear.cfg").read_text()
        assert text.splitlines().count("check_bound = true") == 1
        cfg_path = tmp_path / "rate_linear.cfg"
        cfg_path.write_text(text.replace("check_bound = true",
                                         f"check_bound = true\nmus = {mus}"))
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 31, column 1: linear reaction needs mu > 0\n")
        assert not out.exists()
