"""Tests of the benchmark's closed-form oracles and config generation."""

import math
import re

import numpy as np
import pytest

import oracles
import workloads

EPS = (1.0, 0.5, 0.125)


@pytest.mark.parametrize("eps", EPS)
def test_one_mode_flow_deviation(eps):
    t = np.linspace(0.0, 3.0, 7)
    want = np.exp(-t) * (1.0 - np.exp(-eps ** 2 * t))
    got = oracles.flow_deviation([(1, 1)], [1.0], eps, t)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("eps", EPS)
def test_one_mode_flow_sup_at_stationary_point(eps):
    t_star = math.log(1.0 + eps ** 2) / eps ** 2
    want = math.exp(-t_star) * (1.0 - math.exp(-eps ** 2 * t_star))
    assert oracles.flow_sup([(1, 1)], [1.0], eps, 2.0) == pytest.approx(want, rel=1e-12)


def test_flow_sup_at_horizon_when_still_rising():
    # with T before the stationary point the sup is the end value
    T = 0.1
    want = math.exp(-T) * (1.0 - math.exp(-0.25 * T))
    assert oracles.flow_sup([(1, 1)], [1.0], 0.5, T) == pytest.approx(want, rel=1e-12)


def test_backward_euler_converges_to_flow_at_first_order():
    modes, amps, eps, T = [(1, 1), (2, 3)], [1.0, 0.5], 0.5, 1.0
    exact = float(oracles.flow_deviation(modes, amps, eps, T))
    err = [abs(oracles.backward_euler_deviations(modes, amps, eps, T, n)[-1] - exact)
           for n in (200, 400)]
    assert err[1] == pytest.approx(err[0] / 2.0, rel=0.02)


def test_backward_euler_initial_gap():
    devs = oracles.backward_euler_deviations([(1, 1), (3, 1)], [3.0, 4.0], 0.25, 1.0, 8,
                                             start_scale=1.25)
    assert devs[0] == pytest.approx(0.25 * 5.0, rel=1e-15)


@pytest.mark.parametrize("eps", EPS)
def test_one_mode_rate_errors(eps):
    d = eps ** 2 / (1.0 + eps ** 2)  # 1/q^2 - 1/(eps^2 p^2 + q^2) with p = q = 1
    assert oracles.rate_errors([(1, 1)], [1.0], eps) == pytest.approx((d, d, d), rel=1e-14)
    d2 = 2.0 * (1.0 / 9.0 - 1.0 / (4.0 * eps ** 2 + 9.0))  # mode (2, 3), amplitude 2
    e_x1, e_x2, e_l2 = oracles.rate_errors([(2, 3)], [2.0], eps)
    assert (e_x1, e_x2, e_l2) == pytest.approx((2.0 * d2, 3.0 * d2, d2), rel=1e-14)


def test_ap_grid_modes_inside_and_outside_the_space():
    eps = 0.5
    grid, col = oracles.ap_grid([(3, 2)], [2.0], [eps], [2, 4])
    # outside the space of size 2 the whole limit coefficient 2/q^2 is missed
    assert grid[0][0] == pytest.approx(2.0 * 2.0 / 4.0, rel=1e-15)
    assert col == pytest.approx([1.0, 0.0], abs=1e-15)
    inside = 2.0 * (2.0 / 4.0 - 2.0 / (9.0 * eps ** 2 + 4.0))
    assert grid[0][1] == pytest.approx(inside, rel=1e-14)


def test_one_mode_resolvent_deviation():
    eps, mu = 0.5, 1.0
    want = 1.0 / (mu + 1.0) - 1.0 / (mu + eps ** 2 + 1.0)
    assert oracles.resolvent_deviation([(1, 1)], [1.0], eps, mu) == pytest.approx(want, rel=1e-14)


def test_slope_of_power_law_and_floor():
    eps = [0.5, 0.25, 0.125]
    assert oracles.slope(eps, [3.0 * e ** 2 for e in eps]) == pytest.approx(2.0, rel=1e-12)
    assert math.isnan(oracles.slope(eps, [1.0, 1e-20, 1e-20]))


def test_monotone_and_bounds_allow_round_off_only():
    assert oracles.nonincreasing([1.0, 1.0 + 1e-12, 0.5])
    assert not oracles.nonincreasing([1.0, 1.001])
    assert oracles.below(1.0 + 1e-12, 1.0)
    assert not oracles.below(1.001, 1.0)


def test_amplitudes_depend_on_seed_only_and_reach_config_exactly():
    a = workloads.amplitudes(7, "flow", 3)
    assert a == workloads.amplitudes(7, "flow", 3)
    assert a != workloads.amplitudes(8, "flow", 3)
    assert all(0.75 <= x <= 1.25 for x in a)
    f, _ = workloads.source_exprs(workloads.FLOW_MODES, a)
    written = [float(x) for x in re.findall(r"([0-9.]+(?:e-?[0-9]+)?)\*sin\(\d", f)]
    assert written == a


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_studies_do_not_depend_on_seed_except_amplitudes(name):
    def shape(seed):
        # the parabolic tolerance scales with the initial state's norm
        return [re.sub(r'"\(2/pi\)\*\(.*\)"|tol = .*', "AMPLITUDES", st.text)
                for st in workloads.WORKLOADS[name](seed)]
    assert shape(1) == shape(2)
