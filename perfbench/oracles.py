"""Closed-form values and method properties the benchmark checks results against.

Every source the benchmark generates is a finite sum of sine modes on the
square (0, pi)^2,

    f = (2/pi) * sum_k a_k sin(p_k x1) sin(q_k x2),

whose coefficient on the L2-normalised mode phi_p(x1) phi_q(x2) is exactly
``a_k``.  With identity coefficients every operator of the problem is
diagonal in these modes (the x1 and x2 stiffness eigenvalues are p^2 and
q^2), so perturbed and limit solutions, resolvents and flows are known in
closed form.  This module imports numpy only, never the program under test.
"""

from __future__ import annotations

import math

import numpy as np

SLOPE_FLOOR = 1e3 * np.finfo(float).eps  # errors below this are round-off


def _arrays(modes, amps):
    p = np.array([m[0] for m in modes], dtype=float)
    q = np.array([m[1] for m in modes], dtype=float)
    return p, q, np.asarray(amps, dtype=float)


def rate_errors(modes, amps, epsilon):
    """``(e_x1, e_x2, e_l2)`` of ``u_eps - u_0`` for identity coefficients."""
    p, q, a = _arrays(modes, amps)
    d = a / q ** 2 - a / (epsilon ** 2 * p ** 2 + q ** 2)
    return (math.sqrt(float(np.sum(p ** 2 * d ** 2))),
            math.sqrt(float(np.sum(q ** 2 * d ** 2))),
            math.sqrt(float(np.sum(d ** 2))))


def ap_grid(modes, amps, epsilons, sizes):
    """Commuting-limits error grid and limit trace for identity coefficients.

    ``grid[i][j]`` is the x2-seminorm distance between the limit solution
    and the perturbed Galerkin solution with ``epsilons[i]`` on the sine
    space of size ``sizes[j]``; ``col[j]`` is the same distance for the
    limit Galerkin solution.  A mode is in the space of size n when both of
    its indices are at most n; modes outside contribute their whole limit
    coefficient.  The reference space must hold every mode.
    """
    p, q, a = _arrays(modes, amps)
    grid = []
    for eps in epsilons:
        row = []
        for n in sizes:
            inside = (p <= n) & (q <= n)
            d = np.where(inside, a / q ** 2 - a / (eps ** 2 * p ** 2 + q ** 2),
                         a / q ** 2)
            row.append(math.sqrt(float(np.sum(q ** 2 * d ** 2))))
        grid.append(row)
    col = []
    for n in sizes:
        outside = ~((p <= n) & (q <= n))
        col.append(math.sqrt(float(np.sum(q ** 2 * (a / q ** 2) ** 2 * outside))))
    return grid, col


def resolvent_deviation(modes, amps, epsilon, mu):
    """M-norm of ``(mu + A_eps)^-1 f - (mu + A_0)^-1 f``."""
    p, q, a = _arrays(modes, amps)
    d = a / (mu + q ** 2) - a / (mu + epsilon ** 2 * p ** 2 + q ** 2)
    return math.sqrt(float(np.sum(d ** 2)))


def flow_deviation(modes, amps, epsilon, t):
    """M-norm of ``S_eps(t) g - S_0(t) g`` for ``g`` with coefficients ``amps``.

    One mode (1, 1) of unit amplitude gives ``e^{-t} (1 - e^{-eps^2 t})``.
    """
    p, q, a = _arrays(modes, amps)
    t = np.asarray(t, dtype=float)[..., None]
    d = a * np.exp(-q ** 2 * t) * (1.0 - np.exp(-epsilon ** 2 * p ** 2 * t))
    return np.sqrt(np.sum(d ** 2, axis=-1))


def flow_sup(modes, amps, epsilon, T, samples=4097, refinements=40):
    """``max_{0 <= t <= T}`` of :func:`flow_deviation`.

    A uniform sample locates the maximum; golden-section steps on the
    bracketing interval then refine it to round-off.
    """
    ts = np.linspace(0.0, T, samples)
    vals = flow_deviation(modes, amps, epsilon, ts)
    k = int(np.argmax(vals))
    lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, samples - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(refinements):
        a_ = hi - g * (hi - lo)
        b_ = lo + g * (hi - lo)
        if flow_deviation(modes, amps, epsilon, a_) >= flow_deviation(modes, amps, epsilon, b_):
            hi = b_
        else:
            lo = a_
    return max(float(vals[k]), float(flow_deviation(modes, amps, epsilon, 0.5 * (lo + hi))))


def backward_euler_deviations(modes, amps, epsilon, T, steps, start_scale=1.0):
    """Deviation after each backward Euler step for identity coefficients.

    Both flows use ``steps`` steps of size ``T / steps``; the perturbed one
    starts from ``start_scale * g`` and the limit one from ``g``.  Entry n
    is the M-norm of the difference after n steps (entry 0 is the initial
    gap).
    """
    p, q, a = _arrays(modes, amps)
    tau = T / steps
    n = np.arange(steps + 1, dtype=float)[:, None]
    r_eps = 1.0 / (1.0 + tau * (epsilon ** 2 * p ** 2 + q ** 2))
    r_0 = 1.0 / (1.0 + tau * q ** 2)
    d = a * (start_scale * r_eps ** n - r_0 ** n)
    return np.sqrt(np.sum(d ** 2, axis=-1))


def slope(epsilons, errors, floor=SLOPE_FLOOR):
    """Least-squares slope of log(error) against log(epsilon), or nan."""
    pairs = [(math.log(e), math.log(v)) for e, v in zip(epsilons, errors) if v > floor]
    if len(pairs) < 2:
        return float("nan")
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in pairs)
            / sum((x - mx) ** 2 for x in xs))


def nonincreasing(values, rel=1e-9, abs_=1e-12):
    return all(b <= a * (1.0 + rel) + abs_ for a, b in zip(values, values[1:]))


def below(lhs, rhs, rel=1e-9, abs_=1e-12):
    return lhs <= rhs * (1.0 + rel) + abs_


def close(value, expected, rel, abs_=1e-14):
    return abs(value - expected) <= rel * abs(expected) + abs_
