"""Properties of config input: emitted configs parse back to themselves,
malformed text fails only with a positioned ``ConfigError``, and inputs at
the edge of floating-point range end a run with one error line.
"""

import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisolab.cli import main
from anisolab.config import (STUDY_KINDS, ConfigError, DiscretizationConfig,
                             ExperimentConfig, OutputConfig, ProblemConfig,
                             StudyConfig, emit_config, parse_config,
                             shipped_config_dir)
from anisolab.semigroup import STEPPERS
from anisolab.spaces import Q1Basis, SineBasis

CONFIG_DIR = shipped_config_dir()
TOOL_CONFIG_DIR = Path(__file__).resolve().parents[1] / "tools" / "configs"
CONFIG_TEXTS = [p.read_text() for d in (CONFIG_DIR, TOOL_CONFIG_DIR)
                for p in sorted(d.glob("*.cfg"))]

# Each of these is finite on every domain drawn below; with a11 and a22 at
# least 1 and |a12| = |a21| <= 0.1 the matrix is elliptic with lam <= 0.85.
_DIAGONAL = ["1", "2", "1 + x2*x2/10"]
_COUPLING = ["0", "0.1*sin(x1)*sin(x2)", "0.1*exp(-(x1-x2)*(x1-x2))"]
_FUNCTION = ["0", "(2/pi)*sin(x1)*sin(x2)", "sin(x1)*cos(x2) + x1/3"]
_WORD = st.text(string.ascii_letters + string.digits + "_-.", min_size=1,
                max_size=12).filter(lambda w: w not in (".", ".."))


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _optional(values):
    return st.none() | st.sampled_from(values)


@st.composite
def valid_configs(draw):
    a1, a2 = draw(_floats(-3, 3)), draw(_floats(-3, 3))
    L1, L2 = draw(_floats(0.5, 5)), draw(_floats(0.5, 5))
    coupling = draw(st.sampled_from(_COUPLING))
    f = draw(st.sampled_from(_FUNCTION))
    problem = ProblemConfig(
        domain=(a1, a1 + L1, a2, a2 + L2),
        a11=draw(st.sampled_from(_DIAGONAL)), a12=coupling, a21=coupling,
        a22=draw(st.sampled_from(_DIAGONAL)),
        a12_dx1=draw(_optional(_FUNCTION)), a12_dx2=draw(_optional(_FUNCTION)),
        a21_dx1=draw(_optional(_FUNCTION)), a21_dx2=draw(_optional(_FUNCTION)),
        lam=draw(_floats(1e-6, 0.85)),
        a22_x2_only=draw(st.booleans()),
        offdiag_derivs_bounded=draw(st.booleans()),
        offdiag_mixed_deriv_in_l2=draw(st.booleans()),
        beta=draw(st.sampled_from(["zero", "linear", "arctan"])),
        mu=draw(_floats(1e-3, 1e3)),
        f=f, f_dx1=draw(_optional(_FUNCTION)),
        f_grad_x1_in_l2=draw(st.booleans()),
        # a source declared to vanish at the x1 endpoints is checked there,
        # and of _FUNCTION only 0 does on every domain
        f_slices_vanish_x1=draw(st.booleans()) and f == "0")
    kinds = draw(st.lists(st.sampled_from(["sine", "q1"]), min_size=2, max_size=2))
    families = [SineBasis if k == "sine" else Q1Basis for k in kinds]
    least_m = max(f.least_m for f in families)
    discretization = DiscretizationConfig(
        basis1=kinds[0], m1=draw(st.integers(families[0].least_m, 64)),
        basis2=kinds[1], m2=draw(st.integers(families[1].least_m, 64)),
        quad_order=draw(st.integers(max(f.least_order for f in families), 8)))
    stepper = draw(st.sampled_from(STEPPERS))
    epsilon = _floats(1e-6, 1.0).filter(lambda e: e > 0)
    study = StudyConfig(
        kind=draw(st.sampled_from(STUDY_KINDS)),
        epsilon=draw(epsilon),
        epsilons=tuple(draw(st.lists(epsilon, min_size=1, max_size=6))),
        check_bound=draw(st.booleans()),
        # powers of two nest in the last one refined once, in both families
        sizes=tuple(sorted(draw(st.sets(st.sampled_from(
            [s for s in (1, 2, 4, 8, 16, 32) if s >= least_m]), min_size=1)))),
        mu=draw(_floats(1e-3, 1e3)),
        T=draw(_floats(0.0, 10.0)),
        stepper=stepper,
        steps=draw(st.integers(1, 512)),
        yosida_mu=draw(_floats(1e-3, 1e3)),
        damping=draw(_floats(1e-3, 1.0)),
        mus=tuple(draw(st.lists(_floats(1e-3, 1e3), min_size=1, max_size=4))),
        source=draw(_optional(["t*sin(x1)*sin(x2)"])) if stepper == "be" else None,
        u0=draw(_optional(_FUNCTION)),
        u0_eps_coeff=draw(_floats(-10, 10)),
        tol=draw(_floats(1e-6, 1.0)),
        export=draw(st.none() | _WORD))
    output = OutputConfig(
        directory=draw(_WORD),
        formats=tuple(draw(st.lists(st.sampled_from(["csv", "json"]),
                                    min_size=1, max_size=2))))
    return ExperimentConfig(problem, discretization, study, output)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(valid_configs())
def test_emitted_config_parses_back_to_itself(cfg):
    assert parse_config(emit_config(cfg)) == cfg


_SNIPPETS = ['"', "=", "#", "[", "]", ",", " ", "\n", "-", ".", "e", "0",
             "9", "x1", "x2", "t", "(", ")", "*", "/", "^", "pi", "nan",
             "inf", "1e-300", "1e300", "true", "q1", "sine", "[study]",
             "m1 = ", "kind = ", "lambda = ", "domain = "]


@st.composite
def mutated_texts(draw):
    """A config text with a few random edits: inserted snippets, deleted
    spans, and duplicated, deleted or swapped lines."""
    text = draw(st.sampled_from(CONFIG_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "line"]))
        at = draw(st.integers(0, len(text)))
        if op == "insert":
            text = text[:at] + draw(st.sampled_from(_SNIPPETS)) + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 12)):]
        else:
            lines = text.splitlines()
            i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            edit = draw(st.sampled_from(["duplicate", "drop", "swap"]))
            if edit == "duplicate":
                lines.insert(j, lines[i])
            elif edit == "drop":
                del lines[i]
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_texts() | st.text(max_size=80))
def test_malformed_text_fails_only_with_a_positioned_config_error(text):
    try:
        parse_config(text)
    except ConfigError as exc:
        assert exc.line >= 1 and exc.column >= 1
        assert str(exc).startswith(f"line {exc.line}, column {exc.column}: ")


# in solve_identity.cfg and rate_identity.cfg the domain sits on line 3 and
# quad_order on line 23; lambda is on line 8
@pytest.mark.parametrize("cfg_name,edits,message", [
    ("solve_identity.cfg", {"basis1 = sine": "basis1 = q1",
                            "basis2 = sine": "basis2 = q1",
                            "quad_order = 4": "quad_order = 0"},
     "line 23, column 1: quad_order must be >= 1 for a q1 basis"),
    ("rate_identity.cfg", {"domain = 0, pi, 0, pi": "domain = 0, 1e-200, 0, 1"},
     "line 3, column 1: side length 1e-200 is out of range: (pi / length)^2 "
     "must be a positive finite number"),
    ("rate_identity.cfg", {"lambda = 1": "lambda = 1e-200"},
     "ledger entry rate_const_grad is not finite"),
    ("rate_identity.cfg", {"lambda = 1": "lambda = 1e-250"},
     "ledger entry rate_const_grad is not finite"),
    ("solve_identity.cfg", {"epsilon = 0.5": "epsilon = 1e-300"},
     "line 27, column 1: epsilon 1e-300 is out of range: (1 / epsilon)^2 "
     "must be a finite number"),
])
def test_extreme_input_ends_in_one_error_line(tmp_path, capsys, cfg_name,
                                              edits, message):
    text = (CONFIG_DIR / cfg_name).read_text()
    for old, new in edits.items():
        assert text.splitlines().count(old) == 1
        text = text.replace(old, new)
    cfg_path = tmp_path / cfg_name
    cfg_path.write_text(text)
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"
    assert "Traceback" not in err
    assert not (out / "summary.json").exists()


# A coefficient or declared partial whose square overflows: the ledger
# squares by multiplication, so the entry is inf and validate names it.
@pytest.mark.parametrize("edits,message", [
    ({'a11 = "1"': 'a11 = "1e200"'}, "ledger entry sup_matrix is not finite"),
    ({'a12 = "0"': 'a12 = "0"\na12_dx2 = "1e300"'},
     "ledger entry offdiag_const is not finite"),
    ({'a11 = "1"': 'a11 = "1e210"', 'a22 = "1"': 'a22 = "1e210"',
      "lambda = 1": "lambda = 1e209"},
     "ledger entry sup_matrix is not finite"),
])
def test_overflowing_ledger_entry_ends_in_one_error_line(tmp_path, capsys,
                                                         edits, message):
    text = (CONFIG_DIR / "rate_identity.cfg").read_text()
    for old, new in edits.items():
        assert text.splitlines().count(old) == 1
        text = text.replace(old, new)
    cfg_path = tmp_path / "rate.cfg"
    cfg_path.write_text(text)
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# The ledger is taken before the output directory is made, also for the
# studies that report it after their own files.
@pytest.mark.parametrize("cfg_name", ["rate_identity.cfg", "solve_identity.cfg",
                                      "semigroup_identity.cfg",
                                      "parabolic_identity.cfg", "ap_identity.cfg"])
def test_ledger_error_leaves_no_output_directory(tmp_path, capsys, cfg_name):
    text = (CONFIG_DIR / cfg_name).read_text()
    assert text.splitlines().count("lambda = 1") == 1
    cfg_path = tmp_path / cfg_name
    cfg_path.write_text(text.replace("lambda = 1", "lambda = 1e-200"))
    out = tmp_path / "out" / "nested"
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: ledger entry rate_const_grad is not finite\n"
    assert not (tmp_path / "out").exists()
