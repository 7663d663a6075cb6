"""Property tests of the outcome maps over random rates, d, preparations and truncations.

The rates stay inside RK4's stable region at dt = 0.01 (gamma_big >= 0.5,
omega <= 1).  Outside it the integration can blow up without raising: at
omega = 1, delta = 0, gamma_big ~ 0.008 the maps come back non-finite or
with a Choi eigenvalue near -1.5e16.  Rejecting such rates before
integrating needs a stability check the package does not have yet, so these
tests leave that region out.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavityprobe.fock import TruncationMode
from cavityprobe.instrument import P_FLOOR, ModelParams, Preparation, conditional_trajectories, integrate_instrument
from cavityprobe.metrics import metrics_series, uhlmann_fidelity, von_neumann_entropy
from cavityprobe.superop import apply_superop, choi_matrix

T_MAX, DT, STRIDE = 5.0, 0.01, 25


@st.composite
def stable_params(draw, reexcitation=True):
    gamma_big = draw(st.floats(0.5, 5.0))
    # Fractions of gamma_big keep gamma_big >= (gamma_ge + gamma_eg) / 2.
    return ModelParams(
        omega=draw(st.floats(0.0, 1.0)),
        delta=draw(st.floats(-3.0, 3.0)),
        gamma_big=gamma_big,
        gamma_ge=draw(st.floats(0.0, 1.0)) * gamma_big if reexcitation else 0.0,
        gamma_eg=draw(st.floats(0.0, 1.0)) * gamma_big,
    )


def coherence_order(d):
    """q = m - n of the matrix unit |m><n| at each column-stacking index."""
    index = np.arange(d * d)
    return index % d - index // d


def assert_physical(branch):
    """Every sampled map has a Hermitian, positive semidefinite Choi matrix."""
    for maps in (branch.m_g, branch.m_e):
        for m in maps:
            c = choi_matrix(m)
            assert np.max(np.abs(c - c.conj().T)) < 1e-10
            assert np.linalg.eigvalsh(0.5 * (c + c.conj().T)).min() >= -1e-8


@settings(max_examples=30, deadline=None, derandomize=True)
@given(stable_params(), st.integers(1, 4), st.sampled_from(Preparation), st.sampled_from(TruncationMode))
def test_maps_never_link_coherence_orders(p, d, prep, mode):
    branch = integrate_instrument(p, d, prep, T_MAX, DT, mode, STRIDE)
    q = coherence_order(d)
    crosses = q[:, None] != q[None, :]
    assert np.all(branch.m_g[:, crosses] == 0.0)
    assert np.all(branch.m_e[:, crosses] == 0.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(stable_params(), st.integers(1, 4), st.sampled_from(Preparation), st.sampled_from(TruncationMode))
def test_maps_completely_positive(p, d, prep, mode):
    assert_physical(integrate_instrument(p, d, prep, T_MAX, DT, mode, STRIDE))


def test_strict_maps_completely_positive():
    p = ModelParams(omega=1.0, delta=0.0, gamma_big=1.0, gamma_ge=0.0, gamma_eg=0.0)
    assert_physical(integrate_instrument(p, 2, Preparation.GROUND, 1.0, DT, TruncationMode.STRICT, STRIDE))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(stable_params(reexcitation=False), st.integers(1, 4))
def test_trace_conserved_without_reexcitation(p, d):
    """Ground pointer, gamma_ge = 0, closure truncation: no population can
    reach past the cutoff, so Tr(M_g X + M_e X) = Tr X for every X."""
    branch = integrate_instrument(p, d, Preparation.GROUND, T_MAX, DT, stride=STRIDE)
    trace_row = np.eye(d).reshape(-1, order="F")
    total = trace_row @ (branch.m_g + branch.m_e)
    assert np.max(np.abs(total - trace_row)) < 1e-9


@st.composite
def density_matrices(draw, d):
    """Random density matrices of every rank 1..d, rank-deficient ones included."""
    rank = draw(st.integers(1, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = m @ m.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def reference_metrics(branch, rho, base=2.0):
    """Per-sample metrics from the full maps, one scalar call per sample and outcome."""
    s_initial = von_neumann_entropy(rho, base)
    rows = []
    for m_g, m_e in zip(branch.m_g, branch.m_e):
        row = {}
        for label, m in (("g", m_g), ("e", m_e)):
            y = apply_superop(m, rho)
            p = max(np.trace(y).real, 0.0)
            defined = bool(p > P_FLOOR)
            state = 0.5 * (y + y.conj().T) / p if defined else None
            s = von_neumann_entropy(state, base) if defined else None
            row.update({
                f"p_{label}": p, f"defined_{label}": defined, f"s_{label}": s,
                f"i_{label}": s_initial - s if defined else None,
                f"f_{label}": uhlmann_fidelity(rho, state) if defined else None,
            })
        rows.append(row)
    return rows


@settings(max_examples=30, deadline=None, derandomize=True)
@given(stable_params(), st.sampled_from(Preparation), st.data())
def test_batched_metrics_match_per_sample_reference(p, prep, data):
    d = data.draw(st.integers(1, 4))
    rho = data.draw(density_matrices(d))
    records = metrics_series(*conditional_trajectories(p, d, prep, rho, T_MAX, DT, stride=STRIDE), rho)
    reference = reference_metrics(integrate_instrument(p, d, prep, T_MAX, DT, stride=STRIDE), rho)
    assert len(records) == len(reference)
    for rec, ref in zip(records, reference):
        for name, expected in ref.items():
            got = getattr(rec, name)
            if name.startswith("defined"):
                assert got is expected
            elif expected is None:
                assert got is None
            else:
                assert abs(got - expected) < 1e-12, (name, rec.t, got, expected)
