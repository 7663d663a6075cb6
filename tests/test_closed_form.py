"""Closed-form reference for the pure field channel: checks field_rate at any d, independently of the oracle.

With gamma_ge = gamma_eg = 0, a ground pointer and a diagonal input
rho = sum_n rho_n |n><n|, the level (g, n) exchanges population only with
(e, n - 1), at rate r n both ways, where r = 2 omega^2 gamma_big /
(gamma_big^2 + delta^2) is the field rate.  Each pair relaxes to equal
shares at rate 2 r n from all-g, so

    P_g(t) = sum_n rho_n (1 + exp(-2 r n t)) / 2,

and y_g stays diagonal.  The detuning drops out, because the rotation
vanishes on the diagonal.  So does the truncation: the e branch only holds
levels below d - 1, where a a+ is n + 1 in both modes.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from cavityprobe.fock import TruncationMode, fock_state, maximally_mixed
from cavityprobe.instrument import ModelParams, Preparation, conditional_trajectories

STEPS = 64  # RK4 steps of size dt to the horizon
ROUNDING = 1e-12  # each step mixes only the two entries of a pair, so rounding stays near 1e-14


@st.composite
def field_channels(draw):
    """(omega, delta, gamma_big, d, mode, rho, dt) with x = 2 r (d - 1) dt in [0.25, 0.5]."""
    omega, delta, gamma_big = draw(st.floats(0.05, 5.0)), draw(st.floats(-5.0, 5.0)), draw(st.floats(0.1, 10.0))
    d = draw(st.integers(2, 80))
    n = draw(st.none() | st.integers(0, d - 1))
    rho = maximally_mixed(d) if n is None else fock_state(d, n)
    r = 2 * omega**2 * gamma_big / (gamma_big**2 + delta**2)
    dt = draw(st.floats(0.25, 0.5)) / (2 * r * (d - 1))
    return omega, delta, gamma_big, d, draw(st.sampled_from(TruncationMode)), rho, dt


@settings(max_examples=40, deadline=None, derandomize=True)
@given(field_channels())
def test_pure_field_channel_matches_closed_form(case):
    """RK4's P_g exceeds the closed form by at most sum_n rho_n k x_n^5 / 240 after k steps, x_n = 2 r n dt.

    The pair (g, n), (e, n - 1) has eigenvalues 0 and -2 r n, and the
    all-g start is half on each, so k RK4 steps give (1 + P(-x_n)^k) / 2
    with P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.  Taylor's remainder gives
    P(-x) = e^{-x} + e^{-xi} x^5/120 for some xi in (0, x), the leading
    terms of P(-x) = e^{-x} + x^5/120 + O(x^6), so 0 <= P(-x) - e^{-x} <=
    x^5/120.  For 0 <= x <= 0.5 both P(-x) and e^{-x} lie in (0, 1], so
    a^k - b^k = (a - b) sum_j a^j b^(k-1-j) <= k (a - b).  Halving the
    result for the pair's g share and summing over levels:

        0 <= P_g^RK4(k dt) - P_g(k dt) <= sum_n rho_n k x_n^5 / 240.

    At fixed t = k dt the gap is about k (P(-x) - e^{-x}) e^{-(k-1) x} / 2
    per level, so halving dt divides it by about 16 (1 - x/12) e^{x/2}: 16
    as dt -> 0, and at most 19.7 at x = 0.5.  That is checked wherever the
    gap is far above rounding.
    """
    omega, delta, gamma_big, d, mode, rho, dt = case
    p = ModelParams(omega=omega, delta=delta, gamma_big=gamma_big, gamma_ge=0.0, gamma_eg=0.0)
    r = 2 * omega**2 * gamma_big / (gamma_big**2 + delta**2)  # stated here, not read from p.field_rate
    weights, levels = rho.diagonal().real, np.arange(d)

    def gap(step):
        times, y_g, _ = conditional_trajectories(p, d, Preparation.GROUND, rho, STEPS * dt, step, mode,
                                                 stride=round(dt / step))
        assert np.all(y_g[:, ~np.eye(d, dtype=bool)] == 0)
        exact = (weights * (1 + np.exp(-2 * r * np.outer(times, levels)))).sum(axis=1) / 2
        return times, np.trace(y_g, axis1=1, axis2=2).real - exact

    times, full = gap(dt)
    bound = np.round(times / dt) * (weights * (2 * r * levels * dt) ** 5).sum() / 240
    assert np.all(full >= -ROUNDING) and np.all(full <= bound + ROUNDING)
    if full.max() > 1e-8:
        _, half = gap(dt / 2)
        assert 12 < full.max() / half.max() < 20
