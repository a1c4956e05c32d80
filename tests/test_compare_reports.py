"""The report classifier of ``tools/compare_reports.py``."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
_SPEC = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)


@pytest.mark.parametrize("old,new,verdict,largest", [
    (b"a,1.5e-3\n", b"a,1.5e-3\n", "identical", 0.0),
    (b"e,2.0e+00,x1\n", b"e,2.0000000000002e+00,x1\n", "numeric-only", 1e-13),
    (b'{"v": 1e-20}', b'{"v": 3e-20}', "numeric-only", 2e-20),
    (b'{"v": NaN}', b'{"v": 0.5}', "numeric-only", math.inf),
    (b"verdict,true\n", b"verdict,false\n", "text differs", None),
    (b"a,1\n", b"a,1,2\n", "text differs", None),
    (b"a,1.0\n", b"a,1.00\n", "text differs", None),
])
def test_classify(old, new, verdict, largest):
    got, change = compare_reports.classify(old, new)
    assert got == verdict
    if largest is not None:
        assert change == pytest.approx(largest, rel=1e-3)


def test_words_holding_nan_or_inf_are_text():
    text, numbers = compare_reports.split_numbers(b"info,finance,nan,inf,a12")
    assert text == b"info,finance,#,#,a#"
    assert numbers == [b"nan", b"inf", b"12"]


def test_shared_configs_reach_paths_no_shipped_config_does():
    from anisolab.config import load_config

    configs = {p.name: load_config(p)
               for p in sorted(compare_reports.SHARED_CONFIGS.glob("*.cfg"))}
    assert set(configs) == {"parabolic_source.cfg", "solve_nonsymmetric.cfg",
                            "solve_arctan.cfg", "cea_arctan.cfg",
                            "rate_linear.cfg", "rate_nonseparable.cfg"}
    assert configs["parabolic_source.cfg"].study.source is not None
    problem = configs["solve_nonsymmetric.cfg"].problem
    assert problem.a12 != problem.a21
    for name, kind, beta in (("solve_arctan.cfg", "solve", "arctan"),
                             ("cea_arctan.cfg", "cea", "arctan"),
                             ("rate_linear.cfg", "rate", "linear")):
        assert (configs[name].study.kind, configs[name].problem.beta) == (kind, beta)


def test_only_the_nonseparable_config_reaches_the_grid_contraction():
    # a coupling that does not split into x1 and x2 factors keeps the grid
    # contraction of its blocks; every shipped coupling splits
    from anisolab.config import load_config, shipped_config_dir
    from anisolab.expressions import parse_expression

    problem = load_config(compare_reports.SHARED_CONFIGS
                          / "rate_nonseparable.cfg").problem
    assert problem.a12 == problem.a21
    assert parse_expression(problem.a12).separable() is None
    for path in sorted(shipped_config_dir().glob("*.cfg")):
        problem = load_config(path).problem
        for text in (problem.a11, problem.a12, problem.a21, problem.a22):
            assert parse_expression(text).separable() is not None, path.name


def test_tree_without_the_package_is_refused_before_any_run(tmp_path, capsys,
                                                            monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a run started")
    monkeypatch.setattr(compare_reports, "run", refuse)
    src = Path(compare_reports.__file__).resolve().parents[1] / "src"
    missing = tmp_path / "nonexistent"
    assert compare_reports.main([str(missing), str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no anisolab/__init__.py under {missing}\n"
