"""Each input rule has one owner, and every entry point reports its fault in
the owner's words; faults met during a run end in one stderr line.

* ``coefficients.check_epsilon`` owns the epsilon rule: a value in (0, 1]
  whose ``(1 / epsilon)^2`` is finite, since the a-priori bounds divide by
  ``epsilon^2``.
* A march whose norm is not finite is a numerical failure (exit 3), not a
  configuration error.
* Numbers on the ``failed:`` line are plain Python numbers.
* A subcommand's study kind replaces the file's before the checks.
"""

import json
from pathlib import Path

import pytest

from anisolab.assembly import assemble_scaled_stiffness, assemble_system, project
from anisolab.cli import main
from anisolab.config import ConfigError, parse_config, shipped_config_dir
from anisolab.elliptic import ProblemSpec
from anisolab.semigroup import semigroup_deviation_study

CONFIG_DIR = shipped_config_dir()
TOOL_CONFIG_DIR = Path(__file__).resolve().parents[1] / "tools" / "configs"

# epsilon -> the message of its fault, in the owner's words
EPSILON_FAULTS = {
    0.0: "epsilon must lie in (0,1], got 0.0",
    1.5: "epsilon must lie in (0,1], got 1.5",
    1e-160: "epsilon 1e-160 is out of range: (1 / epsilon)^2 must be a finite number",
}


def _edited(tmp_path, name, edits):
    text = (CONFIG_DIR / name).read_text()
    for old, new in edits.items():
        assert text.splitlines().count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.mark.parametrize("eps", list(EPSILON_FAULTS))
def test_every_epsilon_entry_point_gives_the_owner_message(tmp_path, capsys, dom,
                                                           A_identity, f_mode11,
                                                           sine8, eps):
    message = EPSILON_FAULTS[eps]
    solve_text = (CONFIG_DIR / "solve_identity.cfg").read_text()
    rate_text = (CONFIG_DIR / "rate_identity.cfg").read_text()
    epsilons = "epsilons = 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625"
    for text in (solve_text.replace("epsilon = 0.5", f"epsilon = {eps!r}"),
                 rate_text.replace(epsilons, f"epsilons = 0.5, {eps!r}")):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value).endswith(f": {message}")

    code = main(["rate-study", "--config", str(CONFIG_DIR / "rate_identity.cfg"),
                 "--epsilon-list", f"0.5,{eps!r}", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line ") and err.endswith(f": {message}\n")

    system = assemble_system(sine8, A_identity, f_mode11)
    g = project(sine8, f_mode11)
    assert system.two_term_eigenbasis is not None  # the diagonal flow route
    calls = {
        "ProblemSpec": lambda: ProblemSpec(dom, A_identity, f_mode11, epsilon=eps),
        "operator": lambda: system.operator(eps),
        "assemble_scaled_stiffness": lambda: assemble_scaled_stiffness(sine8, A_identity, eps),
        "diagonal flows": lambda: semigroup_deviation_study(
            sine8, A_identity, [0.5, eps], g, 1.0),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message, name


def test_nonfinite_march_norm_is_a_numerical_failure(tmp_path, capsys):
    cfg = _edited(tmp_path, "semigroup_identity.cfg", {
        'f = "(2/pi)*sin(x1)*sin(x2)"': 'f = "1e300*sin(x1)*sin(x2)"',
        'f_dx1 = "(2/pi)*cos(x1)*sin(x2)"': 'f_dx1 = "1e300*cos(x1)*sin(x2)"'})
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    failure = {"study": "semigroup", "error": "ContractionError",
               "message": "norm is not finite at step 0: inf"}
    assert capsys.readouterr().err == f"failed: {failure}\n"
    assert json.loads((out / "summary.json").read_text())["failures"] == [failure]


def test_failed_line_prints_plain_numbers(tmp_path, capsys):
    text = (TOOL_CONFIG_DIR / "solve_arctan.cfg").read_text()
    text = text.replace("[study]", "[study]\ndamping = 1e-300")
    path = tmp_path / "damped.cfg"
    path.write_text(text)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("failed: {'study': 'solve', 'error': 'NonConvergenceError'")
    assert err.endswith(", 'iterations': 200, 'residual_norm': 1.0}\n")
    assert err.count("\n") == 1


def test_subcommand_kind_replaces_the_file_kind(tmp_path, capsys):
    # the file's kind is replaced before the checks, as --basis replaces
    # the file's basis kinds
    for edits, argv in (({"kind = rate": "kind = bogus"}, ["rate-study"]),
                        ({"basis1 = sine": "basis1 = bogus"}, ["run", "--basis", "q1"])):
        cfg = _edited(tmp_path, "rate_identity.cfg", edits)
        out = tmp_path / "out"
        code = main(argv + ["--config", str(cfg), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert json.loads((out / "summary.json").read_text())["study"] == "rate"
