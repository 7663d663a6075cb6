import numpy as np
import pytest

from cavityprobe.fock import fock_state, maximally_mixed
from cavityprobe.instrument import ModelParams, Preparation, integrate_instrument
from cavityprobe.oracle import (
    evolve_joint,
    extract_instrument_oracle,
    joint_hamiltonian,
    joint_liouvillian,
    pure_dephasing_rate,
    secular_residual,
)
from cavityprobe.superop import apply_superop

STRONG = ModelParams(omega=0.7, delta=0.5, gamma_big=2.0, gamma_ge=0.1, gamma_eg=1.0)


def rand_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return m + m.conj().T


def rand_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def joint_ground_vacuum(d):
    rho = np.zeros((2 * d, 2 * d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def test_dephasing_tops_up_to_gamma_big():
    assert pure_dephasing_rate(STRONG) == pytest.approx(2.0 - 0.55)
    border = ModelParams(omega=0.1, delta=0.5, gamma_big=0.55, gamma_ge=0.1, gamma_eg=1.0)
    assert pure_dephasing_rate(border) == pytest.approx(0.0, abs=1e-15)


def test_hamiltonian_couples_excitation_exchange():
    d = 3
    h = joint_hamiltonian(STRONG, d, 0.0)
    assert np.max(np.abs(h - h.conj().T)) < 1e-15
    # |g, 1> (index 1) couples to |e, 0> (index d) with strength omega
    assert h[d, 1] == pytest.approx(STRONG.omega)
    assert h[0, 0] == 0.0


def test_zero_liouvillian_without_drives_or_dissipation():
    p = ModelParams(omega=0.0, delta=0.5, gamma_big=0.0, gamma_ge=0.0, gamma_eg=0.0)
    assert np.max(np.abs(joint_liouvillian(p, 2, 1.3))) == 0.0


def test_liouvillian_is_trace_free():
    rng = np.random.default_rng(31)
    d = 3
    lv = joint_liouvillian(STRONG, d, 0.7)
    for _ in range(5):
        x = rand_hermitian(rng, 2 * d)
        assert abs(np.trace(apply_superop(lv, x))) < 1e-12


@pytest.mark.parametrize("delta", [0.5, -3.0, 4.36])
def test_evolve_joint_matches_lab_frame_rk4(delta):
    """The rotating-frame solver against RK4 on the time-dependent lab generator."""
    rng = np.random.default_rng(77)
    d, dt, stride = 3, 0.002, 100
    p = ModelParams(omega=0.7, delta=delta, gamma_big=2.0, gamma_ge=0.1, gamma_eg=1.0)
    rho0 = rand_density(rng, 2 * d)
    times, states = evolve_joint(p, d, rho0, 1.0, dt, stride=stride)

    def rhs(t, v):
        return joint_liouvillian(p, d, t) @ v

    v = rho0.reshape(-1, order="F")
    reference = [rho0]
    for k in range(len(times[1:]) * stride):
        t = k * dt
        k1 = rhs(t, v)
        k2 = rhs(t + 0.5 * dt, v + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, v + 0.5 * dt * k2)
        k4 = rhs(t + dt, v + dt * k3)
        v = v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) % stride == 0:
            reference.append(v.reshape(2 * d, 2 * d, order="F"))
    assert np.max(np.abs(states - np.stack(reference))) < 1e-10


def test_ground_vacuum_is_dark_without_reexcitation():
    p = ModelParams(omega=0.7, delta=0.5, gamma_big=2.0, gamma_ge=0.0, gamma_eg=1.0)
    rho0 = joint_ground_vacuum(2)
    times, states = evolve_joint(p, 2, rho0, 3.0, 0.005, stride=100)
    assert np.max(np.abs(states - rho0)) < 1e-12


def test_pure_atomic_decay_without_coupling():
    p = ModelParams(omega=0.0, delta=0.5, gamma_big=2.0, gamma_ge=0.0, gamma_eg=0.8)
    d = 2
    rho_f = maximally_mixed(d)
    excited = np.zeros((2, 2), dtype=complex)
    excited[1, 1] = 1.0
    rho0 = np.kron(excited, rho_f)
    times, states = evolve_joint(p, d, rho0, 4.0, 0.005, stride=50)
    for t, state in zip(times, states):
        p_e = np.trace(state[d:, d:]).real
        assert abs(p_e - np.exp(-p.gamma_eg * t)) < 1e-9
        # the field factor is untouched
        total_field = state[:d, :d] + state[d:, d:]
        assert np.max(np.abs(total_field - rho_f)) < 1e-9


def test_evolution_preserves_trace_and_positivity():
    rng = np.random.default_rng(13)
    d = 3
    rho0 = np.kron(np.diag([0.4, 0.6]).astype(complex), rand_density(rng, d))
    times, states = evolve_joint(STRONG, d, rho0, 3.0, 0.005, stride=60)
    for state in states:
        assert abs(np.trace(state) - 1.0) < 1e-9
        assert np.linalg.eigvalsh(0.5 * (state + state.conj().T)).min() > -1e-10


def test_dt_limit_enforced():
    with pytest.raises(ValueError):
        evolve_joint(STRONG, 2, joint_ground_vacuum(2), 1.0, 0.05)


def test_extraction_initial_condition():
    branch = extract_instrument_oracle(STRONG, 2, Preparation.GROUND, 0.1, 0.005, stride=20)
    assert np.allclose(branch.m_g[0], np.eye(4), atol=0)
    assert np.max(np.abs(branch.m_e[0])) == 0.0
    branch_e = extract_instrument_oracle(STRONG, 2, Preparation.EXCITED, 0.1, 0.005, stride=20)
    assert np.allclose(branch_e.m_e[0], np.eye(4), atol=0)
    assert np.max(np.abs(branch_e.m_g[0])) == 0.0


def test_extracted_outcome_maps_sum_to_trace_preserving():
    d = 3
    branch = extract_instrument_oracle(STRONG, d, Preparation.GROUND, 2.0, 0.005, stride=80)
    trace_dual = np.eye(d, dtype=complex).reshape(-1, order="F")  # <<I| picks Tr
    for mg, me in zip(branch.m_g, branch.m_e):
        row = trace_dual @ (mg + me)
        assert np.max(np.abs(row - trace_dual)) < 1e-9


def test_extraction_is_linear():
    rng = np.random.default_rng(4)
    d = 3
    rho_f = rand_density(rng, d)
    branch = extract_instrument_oracle(STRONG, d, Preparation.GROUND, 1.0, 0.005, stride=40)
    ground = np.zeros((2, 2), dtype=complex)
    ground[0, 0] = 1.0
    times, states = evolve_joint(STRONG, d, np.kron(ground, rho_f), 1.0, 0.005, stride=40)
    for k in range(len(times)):
        direct_g = states[k][:d, :d]
        via_columns = apply_superop(branch.m_g[k], rho_f)
        assert np.max(np.abs(direct_g - via_columns)) < 1e-10


def test_hermiticity_pairing_of_columns():
    d = 3
    branch = extract_instrument_oracle(STRONG, d, Preparation.GROUND, 1.0, 0.005, stride=100)
    for maps in (branch.m_g, branch.m_e):
        for s in maps:
            for m in range(d):
                for n in range(d):
                    col_mn = s[:, n * d + m].reshape((d, d), order="F")
                    col_nm = s[:, m * d + n].reshape((d, d), order="F")
                    assert np.max(np.abs(col_mn - col_nm.conj().T)) < 1e-10


def test_residual_vanishes_without_coupling():
    p = ModelParams(omega=0.0, delta=0.5, gamma_big=1.0, gamma_ge=0.2, gamma_eg=0.8)
    res = secular_residual(p, 2, Preparation.GROUND, 2.0, 0.01, stride=20)
    assert res["g"] < 1e-10
    assert res["e"] < 1e-10


def test_residual_small_in_secular_regime():
    p = ModelParams(omega=0.05, delta=0.5, gamma_big=1.0, gamma_ge=0.0, gamma_eg=0.05)
    res = secular_residual(p, 3, Preparation.GROUND, 5.0, 0.01, stride=50)
    assert res["g"] < 0.01
    assert res["e"] < 0.01


def test_preparation_given_by_value_selects_its_branch():
    for prep in Preparation:
        branch = extract_instrument_oracle(STRONG, 2, prep.value, 0.05, 0.005)
        reference = extract_instrument_oracle(STRONG, 2, prep, 0.05, 0.005)
        assert branch.prep is prep
        assert np.array_equal(branch.m_g, reference.m_g)
        assert np.array_equal(branch.m_e, reference.m_e)
    with pytest.raises(ValueError):
        extract_instrument_oracle(STRONG, 2, "g", 0.05, 0.005)
