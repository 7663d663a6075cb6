"""End-to-end acceptance checks, one test per advertised numerical contract.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); failing
tests also carry the detail in their assertion message.

Two checks are expected to fail and are kept failing on purpose, because the
expectations they encode are provably unreachable for this model:

* ``test_criterion_1_conservation_weak_grid`` includes excited-pointer runs
  whose initial field state occupies the top Fock level.  A photon emitted
  there has no level to land on, so probability leaks past the cutoff at
  rate 2*kappa*gamma_big*d no matter how the generator is closed; the leak
  is reproduced exactly by an independent rate model (see
  test_instrument.py::test_excited_prep_top_level_leak_matches_rate_model).
* ``test_criterion_4_initial_slope_alpha_constant`` asserts the slope
  constant alpha = kappa*gamma_big.  The generator validated against the
  joint-model solver carries twice that rate on its field channel, so the
  measured slope is -(2*alpha*nbar + gamma_ge); the matching law is pinned
  green in test_instrument.py::test_initial_slope_matches_field_rate_law.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from cavityprobe.cli import figure_grid_configs, sweep
from cavityprobe.fock import fock_state, maximally_mixed
from cavityprobe.instrument import (
    ModelParams,
    Preparation,
    conditional_trajectories,
    integrate_instrument,
)
from cavityprobe.metrics import metrics_series, uhlmann_fidelity, von_neumann_entropy
from cavityprobe.oracle import secular_residual
from cavityprobe.superop import apply_superop, choi_matrix

STRONG = ModelParams(omega=0.7, delta=0.5, gamma_big=2.0, gamma_ge=0.1, gamma_eg=1.0)
WEAK = ModelParams(omega=0.7, delta=0.5, gamma_big=2.0, gamma_ge=0.0, gamma_eg=0.01)
PRESETS = {"strong": STRONG, "weak": WEAK}


def _report(num: int, label: str, ok: bool, detail: str = "") -> str:
    line = f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return line


def test_criterion_1_conservation_weak_grid():
    """Weak preset, d in {2,4,6}, both preparations, mixed and top-level Fock
    states: max_t |P_g + P_e - 1| < 1e-9 over t in [0, 50] at dt = 0.01."""
    t_start = time.perf_counter()
    failures = []
    worst = 0.0
    for d in (2, 4, 6):
        states = {"mixed": maximally_mixed(d), f"fock({d - 1})": fock_state(d, d - 1)}
        for prep in (Preparation.GROUND, Preparation.EXCITED):
            for name, rho in states.items():
                _, y_g, y_e = conditional_trajectories(WEAK, d, prep, rho, 50.0, 0.01)
                total = (np.trace(y_g, axis1=1, axis2=2) + np.trace(y_e, axis1=1, axis2=2)).real
                deviation = float(np.max(np.abs(total - 1.0)))
                worst = max(worst, deviation)
                if deviation >= 1e-9:
                    failures.append(f"{prep.value}/{name}/d={d}: {deviation:.3e}")
    elapsed = time.perf_counter() - t_start
    detail = f"max deviation {worst:.3e}, {len(failures)}/12 cells over tolerance, {elapsed:.1f}s"
    ok = not failures and elapsed < 10.0
    _report(1, "conservation-weak-grid", ok, detail)
    assert elapsed < 10.0, f"runtime budget exceeded: {elapsed:.1f}s"
    assert not failures, (
        "probability not conserved to 1e-9 in cells: " + "; ".join(failures)
        + "  (excited preparation with top-level field support leaks past the "
        "Fock cutoff by construction of the truncated ladder)"
    )


def test_criterion_2_identity_at_time_zero():
    """First record of every run: P_prep = 1, I_prep = 0, F_prep = 1 to 1e-10."""
    worst = 0.0
    for preset in PRESETS.values():
        for prep in (Preparation.GROUND, Preparation.EXCITED):
            for rho in (maximally_mixed(4), fock_state(6, 5)):
                d = rho.shape[0]
                rec = metrics_series(*conditional_trajectories(preset, d, prep, rho, 0.1, 0.01, stride=10), rho)[0]
                label = "g" if prep is Preparation.GROUND else "e"
                p = getattr(rec, f"p_{label}")
                gain = getattr(rec, f"i_{label}")
                fid = getattr(rec, f"f_{label}")
                worst = max(worst, abs(p - 1.0), abs(gain), abs(fid - 1.0))
    ok = worst < 1e-10
    _report(2, "identity-at-t0", ok, f"max deviation {worst:.3e}")
    assert ok, f"initial record deviates by {worst:.3e} (tolerance 1e-10)"


def test_criterion_3_complete_positivity():
    """Choi matrices of both outcome maps stay PSD (min eig >= -1e-8) at every
    sampled time, for both presets and d up to 6."""
    lowest = np.inf
    for preset in PRESETS.values():
        for d in (2, 4, 6):
            for prep in (Preparation.GROUND, Preparation.EXCITED):
                branch = integrate_instrument(preset, d, prep, 10.0, 0.01, stride=10)
                for maps in (branch.m_g, branch.m_e):
                    for m in maps:
                        c = choi_matrix(m)
                        low = float(np.linalg.eigvalsh(0.5 * (c + c.conj().T)).min())
                        lowest = min(lowest, low)
    ok = lowest >= -1e-8
    _report(3, "complete-positivity", ok, f"min Choi eigenvalue {lowest:.3e}")
    assert ok, f"Choi eigenvalue {lowest:.3e} below -1e-8"


def test_criterion_4_initial_slope_alpha_constant():
    """One-sided finite difference of P_g at t=0 against -(alpha*nbar + gamma_ge)
    with alpha = kappa*gamma_big, to 1e-4 relative."""
    h = 1e-6
    rows = []
    worst_rel = 0.0
    for preset_name, p in PRESETS.items():
        for rho, nbar in ((fock_state(4, 1), 1.0), (fock_state(4, 3), 3.0), (maximally_mixed(4), 1.5)):
            _, y_g, _ = conditional_trajectories(p, 4, Preparation.GROUND, rho, h, h)
            slope = (np.trace(y_g[1]).real - np.trace(y_g[0]).real) / h
            expected = -(p.alpha * nbar + p.gamma_ge)
            rel = abs(slope - expected) / abs(expected)
            worst_rel = max(worst_rel, rel)
            if rel >= 1e-4:
                rows.append(f"{preset_name}/nbar={nbar}: slope {slope:.6f} vs alpha-law {expected:.6f}")
    ok = worst_rel < 1e-4
    _report(4, "initial-slope-alpha-law", ok, f"worst relative deviation {worst_rel:.3e}")
    assert ok, (
        "slope does not follow -(alpha*nbar + gamma_ge): " + "; ".join(rows)
        + "  (the oracle-validated generator carries the field channel at "
        "2*kappa*gamma_big, twice the alpha combination)"
    )


def test_criterion_5_oracle_residual_ladder():
    """With kappa fixed at 0.002 and gamma_big/omega stepping through 5, 10, 20,
    the gap between the joint-model maps and the reduced maps for outcome g
    (d = 3, ground preparation, t <= 5) strictly decreases."""
    t_start = time.perf_counter()
    kappa, gamma_big, gamma_ge, gamma_eg = 0.002, 1.0, 0.0, 0.05
    residuals = []
    for ratio in (5, 10, 20):
        omega = gamma_big / ratio
        delta = gamma_big * np.sqrt(1.0 / (kappa * ratio**2) - 1.0)
        p = ModelParams(omega=omega, delta=delta, gamma_big=gamma_big,
                        gamma_ge=gamma_ge, gamma_eg=gamma_eg)
        assert abs(p.kappa - kappa) < 1e-15
        res = secular_residual(p, 3, Preparation.GROUND, 5.0, 0.002, stride=125)
        residuals.append(res["g"])
    # reference values for this ladder: 1.056e-02 > 5.813e-03 > 4.990e-03
    elapsed = time.perf_counter() - t_start
    decreasing = all(a > b for a, b in zip(residuals, residuals[1:]))
    ok = decreasing and elapsed < 60.0
    detail = "residuals " + " > ".join(f"{r:.3e}" for r in residuals) + f", {elapsed:.1f}s"
    _report(5, "oracle-residual-ladder", ok, detail)
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f}s"
    assert decreasing, f"residual ladder not strictly decreasing: {residuals}"


def test_criterion_6_diagonal_rate_equation_equivalence():
    """For a diagonal initial state the outcome probabilities match a 2d-level
    birth-death rate system assembled independently from the ladder actions on
    Fock projectors, to 1e-9 (strong preset, d = 4, fock(3))."""
    d = 4
    p = STRONG
    rate = 2.0 * p.kappa * p.gamma_big
    # populations ordered (g_0..g_{d-1}, e_0..e_{d-1})
    a = np.zeros((2 * d, 2 * d))
    for n in range(d):
        a[n, n] -= rate * n + p.gamma_ge
        a[d + n, d + n] -= rate * (n + 1) + p.gamma_eg
        a[d + n, n] += p.gamma_ge
        a[n, d + n] += p.gamma_eg
        if n >= 1:
            a[n, d + n - 1] += rate * n
        if n + 1 <= d - 1:
            a[d + n, n + 1] += rate * (n + 1)

    def rate_probabilities(prep, n0, t_max, dt, stride):
        y = np.zeros(2 * d)
        y[n0 if prep is Preparation.GROUND else d + n0] = 1.0
        out = [(y[:d].sum(), y[d:].sum())]
        n_steps = int(round(t_max / dt))
        for k in range(1, n_steps + 1):
            k1 = a @ y
            k2 = a @ (y + dt / 2 * k1)
            k3 = a @ (y + dt / 2 * k2)
            k4 = a @ (y + dt * k3)
            y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            if k % stride == 0 or k == n_steps:
                out.append((y[:d].sum(), y[d:].sum()))
        return np.array(out)

    worst = 0.0
    for prep in (Preparation.GROUND, Preparation.EXCITED):
        branch = integrate_instrument(p, d, prep, 10.0, 0.01, stride=10)
        rho = fock_state(d, 3)
        full = np.array(
            [
                (np.trace(apply_superop(mg, rho)).real, np.trace(apply_superop(me, rho)).real)
                for mg, me in zip(branch.m_g, branch.m_e)
            ]
        )
        reduced = rate_probabilities(prep, 3, 10.0, 0.01, 10)
        worst = max(worst, float(np.max(np.abs(full - reduced))))
    ok = worst < 1e-9
    _report(6, "diagonal-rate-equivalence", ok, f"max |P difference| {worst:.3e}")
    assert ok, f"superoperator and rate-system probabilities disagree by {worst:.3e}"


def test_criterion_7_rk4_fourth_order():
    """Halving dt from 0.02 to 0.01 shrinks the error of M_g(t=1), measured
    against a dt/8 reference, by at least 12x."""
    d = 3

    def m_g_at_one(dt):
        branch = integrate_instrument(STRONG, d, Preparation.GROUND, 1.0, dt,
                                      stride=int(round(1.0 / dt)))
        return branch.m_g[-1]

    errors = {}
    for dt in (0.02, 0.01):
        errors[dt] = float(np.max(np.abs(m_g_at_one(dt) - m_g_at_one(dt / 8))))
    ratio = errors[0.02] / errors[0.01]
    ok = ratio >= 12.0
    _report(7, "rk4-order", ok, f"error ratio {ratio:.2f} (e(0.02)={errors[0.02]:.3e})")
    assert ok, f"error ratio {ratio:.2f} below 12"


def test_criterion_8_figure_grid_sweep(tmp_path):
    """The sweep emits the full strong/weak figure grid (mixed d = 2, 4, 6 and
    Fock n = 1, 3, 5) as CSVs plus SVGs; every P_g curve starts at one and
    stays inside [0, 1]."""
    t_start = time.perf_counter()
    configs = figure_grid_configs(tmp_path, presets=("strong", "weak"),
                                  t_max=10.0, dt=0.01, stride=10)
    manifest = sweep(configs, tmp_path / "manifest.json")
    problems = []
    for config in configs:
        csv_lines = Path(config.csv_out).read_text().splitlines()
        header = csv_lines[0].split(",")
        p_g = np.array([float(line.split(",")[header.index("P_g")]) for line in csv_lines[1:]])
        if abs(p_g[0] - 1.0) > 1e-10:
            problems.append(f"{config.csv_out}: P_g(0) = {p_g[0]}")
        if p_g.min() < -1e-9 or p_g.max() > 1 + 1e-9:
            problems.append(f"{config.csv_out}: P_g range [{p_g.min()}, {p_g.max()}]")
        if not Path(config.svg_out).read_text().startswith("<svg"):
            problems.append(f"{config.svg_out}: not an SVG")
    elapsed = time.perf_counter() - t_start
    ok = len(manifest["runs"]) == 12 and not problems and elapsed < 30.0
    detail = f"{len(manifest['runs'])} runs, {elapsed:.1f}s"
    _report(8, "figure-grid-sweep", ok, detail)
    assert len(manifest["runs"]) == 12
    assert elapsed < 30.0, f"runtime budget exceeded: {elapsed:.1f}s"
    assert not problems, "; ".join(problems)


def test_criterion_9_metric_unit_values():
    """S(I/d) = log2 d, F(rho, rho) = 1, F(orthogonal pures) = 0, and
    F(I/2, pure) = 1/sqrt(2), each to 1e-9."""
    checks = {
        "entropy-mixed-2": abs(von_neumann_entropy(maximally_mixed(2)) - 1.0),
        "entropy-mixed-4": abs(von_neumann_entropy(maximally_mixed(4)) - 2.0),
        "entropy-mixed-6": abs(von_neumann_entropy(maximally_mixed(6)) - np.log2(6)),
        "self-fidelity": abs(uhlmann_fidelity(maximally_mixed(3), maximally_mixed(3)) - 1.0),
        "orthogonal-fidelity": abs(uhlmann_fidelity(fock_state(2, 0), fock_state(2, 1))),
        "mixed-pure-fidelity": abs(uhlmann_fidelity(maximally_mixed(2), fock_state(2, 0)) - 1 / np.sqrt(2)),
    }
    worst = max(checks.values())
    ok = worst < 1e-9
    _report(9, "metric-unit-values", ok, f"max deviation {worst:.3e}")
    assert ok, f"metric unit checks off by {worst:.3e}: {checks}"
