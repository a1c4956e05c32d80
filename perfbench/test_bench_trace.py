"""Tests of the traced run: self-time arithmetic, wrapping and step accounting."""

import sys
import types

import pytest

import run
import tracer
from tracer import Span, Tracer


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: 1..6 is covered once
        Span("leaf", 2.0, 3.0, parent=1),
        Span("c", 8.0, 9.0, parent=0),
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])


def test_per_round_sums_self_times_and_counts_by_name():
    spans = [
        Span("x", 0.0, 5.0, round=0),
        Span("y", 1.0, 2.0, parent=0, round=0, counts={"n": 3}),
        Span("y", 2.0, 4.0, parent=0, round=0, counts={"n": 4}),
        Span("x", 10.0, 11.0, round=1),
    ]
    rounds = tracer.per_round(spans)
    assert rounds[0] == pytest.approx({"x_s": 2.0, "y_s": 3.0, "n": 7})
    assert rounds[1] == pytest.approx({"x_s": 1.0})
    assert tracer.medians([rounds[0], rounds[1]], ["x_s", "n"]) == pytest.approx(
        {"x_s": 1.5, "n": 3.5})


def test_wrapped_calls_nest_and_count():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    def inner(k):
        return k * 2

    inner_t = tr.wrap(inner, "inner", lambda r, a, kw: {"out": r})

    def outer():
        return inner_t(1) + inner_t(2)

    outer_t = tr.wrap(outer, lambda: "outer")
    tr.round = 5
    assert outer_t() == 6
    names = [(s.name, s.parent, s.round, s.counts) for s in tr.spans]
    assert names == [("outer", -1, 5, {}), ("inner", 0, 5, {"out": 2}),
                     ("inner", 0, 5, {"out": 4})]
    assert tracer.self_times(tr.spans) == [3.0, 1.0, 1.0]


def test_install_replaces_every_module_holding_the_function():
    pkg = types.ModuleType("fakepkg")
    mod_a = types.ModuleType("fakepkg.a")
    mod_b = types.ModuleType("fakepkg.b")

    def f():
        return 1

    mod_a.f = f
    mod_b.f_alias = f
    pkg.f = f
    saved = {n: sys.modules.get(n) for n in ("fakepkg", "fakepkg.a", "fakepkg.b")}
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": mod_a, "fakepkg.b": mod_b})
    try:
        tr = Tracer()
        tr.install(mod_a, "f", "f")
        assert mod_a.f is not f and mod_b.f_alias is mod_a.f and pkg.f is mod_a.f
        assert mod_b.f_alias() == 1 and len(tr.spans) == 1
        tr.uninstall()
        assert mod_a.f is f and mod_b.f_alias is f and pkg.f is f
    finally:
        for name, value in saved.items():
            if value is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = value


def test_install_on_class_wraps_method():
    class K:
        def m(self):
            return 7

    tr = Tracer()
    tr.install(K, "m", "k.m")
    assert K().m() == 7 and tr.spans[0].name == "k.m"
    tr.uninstall()
    assert K().m() == 7 and len(tr.spans) == 1


def test_useful_step_ratio_counts_only_accepted_doubling_marches():
    steps = "semigroup.steps"
    spans = [
        Span("semigroup.study", 0, 10, round=0, counts={"semigroup.accepted_steps": 16}),
        Span("semigroup.evolve", 1, 2, parent=0, round=0, counts={steps: 4}),
        Span("semigroup.evolve", 2, 3, parent=0, round=0, counts={steps: 4}),
        Span("semigroup.evolve", 3, 4, parent=0, round=0, counts={steps: 8}),
        Span("semigroup.evolve", 4, 5, parent=0, round=0, counts={steps: 8}),
        Span("semigroup.study", 11, 12, round=0),
        Span("semigroup.evolve", 11, 12, parent=5, round=0, counts={steps: 6}),
    ]
    # 30 steps marched; the doubling study accepted its last two marches only
    assert run.useful_step_ratios(spans) == {0: pytest.approx(22 / 30)}

