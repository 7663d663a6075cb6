"""Property tests of the outcome maps over random rates, d, preparations and truncations.

The rates stay inside RK4's stable region at dt = 0.01 (gamma_big >= 0.5,
omega <= 1).  Outside it the integration blows up: at omega = 1, delta = 0,
gamma_big = 0.008 and d >= 2 the maps overflow before T_MAX, and the
integrators raise DivergenceError at the first non-finite sample.  Over a
shorter run the same maps come back finite but far from completely positive
(a Choi eigenvalue of -3e160 at d = 4, t = 0.5).  Rejecting such rates
before integrating needs a stability check the package does not have yet,
so these tests leave that region out.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavityprobe.fock import TruncationMode, fock_state, maximally_mixed
from cavityprobe.instrument import ModelParams, Preparation, conditional_trajectories, integrate_instrument
from cavityprobe.metrics import _P_FLOOR, metrics_series, uhlmann_fidelity, von_neumann_entropy
from dense_ops import apply_superop, block_choi_certificate, vec

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
    deviation, lowest = block_choi_certificate(branch)
    assert deviation.max() < 1e-10
    assert lowest.min() >= -1e-8


@settings(max_examples=30, deadline=None, derandomize=True)
@given(stable_params(), st.integers(1, 4), st.sampled_from(Preparation), st.sampled_from(TruncationMode))
def test_maps_never_link_coherence_orders(p, d, prep, mode):
    branch = integrate_instrument(p, d, prep, T_MAX, DT, mode, STRIDE)
    q = coherence_order(d)
    crosses = q[:, None] != q[None, :]
    assert np.all(branch.m_g[:, crosses] == 0.0)
    assert np.all(branch.m_e[:, crosses] == 0.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(stable_params(), st.integers(1, 4) | st.just(20), st.sampled_from(Preparation),
       st.sampled_from(TruncationMode), st.booleans())
# The case below runs the dt-halving branch on every run, whatever else is drawn: the draws change with
# the modules imported before this one, since Hypothesis seeds float draws with their constants.
@example(ModelParams(omega=1.0, delta=1.0, gamma_big=0.5, gamma_ge=0.0, gamma_eg=0.0), 20, Preparation.EXCITED,
         TruncationMode.ALGEBRAIC_CLOSURE, False)
def test_maps_completely_positive(p, d, prep, mode, resonant):
    """At resonance (delta = 0) the generator is real, and the maps are propagated in real arithmetic.

    RK4's maps are CP only up to its truncation error.  At d = 20 that error can exceed the 1e-8 allowance
    inside the stable region: the detuning rotates order q at kappa delta q, up to 0.19 a step at q = 19, and
    omega = 1, delta = 1, gamma_big = 0.5, excited, closure gives a Choi eigenvalue of -6.1e-7 at t = 0.25.
    There the excess over the allowance must shrink at least 8-fold, sample by sample, when dt halves, as
    RK4's O(dt^4) error does (by 30x or more over a grid of the region) and a map that is not CP would not.
    """
    if resonant:
        p = replace(p, delta=0.0)
    branch = integrate_instrument(p, d, prep, T_MAX, DT, mode, STRIDE)
    if d < 20:
        return assert_physical(branch)
    deviation, lowest = block_choi_certificate(branch)
    assert deviation.max() < 1e-10
    excess = np.maximum(-1e-8 - lowest, 0.0)
    if excess.any():
        halved = block_choi_certificate(integrate_instrument(p, d, prep, T_MAX, DT / 2, mode, 2 * STRIDE))[1]
        assert np.all(np.maximum(-1e-8 - halved, 0.0) <= excess / 8)


def test_strict_maps_completely_positive():
    p = ModelParams(omega=1.0, delta=0.0, gamma_big=1.0, gamma_ge=0.0, gamma_eg=0.0)
    assert_physical(integrate_instrument(p, 2, Preparation.GROUND, 1.0, DT, TruncationMode.STRICT, STRIDE))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(stable_params(reexcitation=False), st.integers(1, 4))
def test_trace_conserved_without_reexcitation(p, d):
    """Ground pointer, gamma_ge = 0, closure truncation: no population can
    reach past the cutoff, so Tr(M_g X + M_e X) = Tr X for every X."""
    branch = integrate_instrument(p, d, Preparation.GROUND, T_MAX, DT, stride=STRIDE)
    trace_row = vec(np.eye(d))
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


@st.composite
def random_populations(draw, d):
    """A diagonal density matrix with random populations, some of them exactly zero."""
    occupied = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    occupied[draw(st.integers(0, d - 1))] = True
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.where(occupied, rng.uniform(0.01, 1.0, size=d), 0.0)
    return np.diag(weights / weights.sum()).astype(complex)


def diagonal_states(d):
    """Density matrices without coherences: random populations, Fock states and the maximally mixed state."""
    return st.one_of(random_populations(d), st.integers(0, d - 1).map(lambda n: fock_state(d, n)),
                     st.just(maximally_mixed(d)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(stable_params(), st.sampled_from(Preparation), st.sampled_from(TruncationMode), st.data())
def test_real_path_trajectories_match_complex_path_maps(p, prep, mode, data):
    """A diagonal state runs in real arithmetic; the detuned maps, whose coherence blocks rotate, in complex."""
    p = replace(p, omega=max(p.omega, 0.1), delta=max(abs(p.delta), 0.1))
    d = data.draw(st.integers(2, 5))
    rho = data.draw(diagonal_states(d))
    _, y_g, y_e = conditional_trajectories(p, d, prep, rho, T_MAX, DT, mode, STRIDE)
    branch = integrate_instrument(p, d, prep, T_MAX, DT, mode, STRIDE)
    assert np.any(branch.m_g.imag)
    for y, maps in ((y_g, branch.m_g), (y_e, branch.m_e)):
        assert np.max(np.abs(y - [apply_superop(m, rho) for m in maps])) < 1e-12


def reference_metrics(branch, rho, base=2.0):
    """Per-sample metrics from the full maps, one scalar call per sample and outcome."""
    s_initial = von_neumann_entropy(rho, base)
    rows = []
    for m_g, m_e in zip(branch.m_g, branch.m_e):
        row = {}
        for label, m in (("g", m_g), ("e", m_e)):
            y = apply_superop(m, rho)
            p = max(np.trace(y).real, 0.0)
            defined = bool(p > _P_FLOOR)
            state = 0.5 * (y + y.conj().T) / p if defined else None
            s = von_neumann_entropy(state, base) if defined else None
            row.update({
                f"p_{label}": p, f"defined_{label}": defined, f"s_{label}": s,
                f"i_{label}": s_initial - s if defined else None,
                f"f_{label}": uhlmann_fidelity(rho, state) if defined else None,
            })
        rows.append(row)
    return rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(stable_params(), st.sampled_from(Preparation), st.sampled_from([2.0, np.e]), st.data())
def test_batched_metrics_match_per_sample_reference(p, prep, base, data):
    """Diagonal inputs take metrics_series' closed forms; the reference decomposes every state."""
    d = data.draw(st.integers(1, 4))
    rho = data.draw(st.one_of(density_matrices(d), diagonal_states(d)))
    records = metrics_series(conditional_trajectories(p, d, prep, rho, T_MAX, DT, stride=STRIDE), rho, base)
    reference = reference_metrics(integrate_instrument(p, d, prep, T_MAX, DT, stride=STRIDE), rho, base)
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


@st.composite
def order_confined_states(draw, d):
    """A density matrix on a random set of coherence orders q = i - j closed under q -> -q, and the mask of that set.

    Order 0 is always in the set, since the trace lives there.
    """
    orders = [0, *draw(st.sets(st.integers(1, d - 1)) if d > 1 else st.just(set()))]
    inside = np.isin(np.abs(np.subtract.outer(np.arange(d), np.arange(d))), orders)
    rho = np.where(inside, draw(density_matrices(d)), 0.0)
    rho = rho + max(0.0, -np.linalg.eigvalsh(rho).min()) * np.eye(d)
    return rho / np.trace(rho).real, inside


@settings(max_examples=30, deadline=None, derandomize=True)
@given(stable_params(), st.sampled_from(Preparation), st.sampled_from(TruncationMode), st.data())
def test_trajectories_stay_on_the_occupied_orders(p, prep, mode, data):
    d = data.draw(st.integers(1, 5))
    rho, inside = data.draw(order_confined_states(d))
    _, y_g, y_e = conditional_trajectories(p, d, prep, rho, T_MAX, DT, mode, STRIDE)
    branch = integrate_instrument(p, d, prep, T_MAX, DT, mode, STRIDE)
    for y, maps in ((y_g, branch.m_g), (y_e, branch.m_e)):
        assert np.all(y[:, ~inside] == 0.0)
        assert np.max(np.abs(y - [apply_superop(m, rho) for m in maps])) < 1e-12
