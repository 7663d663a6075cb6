from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from cavityprobe.fock import TruncationMode, fock_state, maximally_mixed
from cavityprobe.cli import PRESETS
from cavityprobe.instrument import (
    DivergenceError,
    InstrumentBranch,
    ModelParams,
    Preparation,
    _propagate_blocks,
    _rk4_sampled,
    _sample_steps,
    _slots,
    integrate_instrument,
)
from cavityprobe.oracle import (
    dt_limit,
    extract_instrument_oracle,
    joint_hamiltonian,
    joint_liouvillian,
    _liouvillian,
    _pure_dephasing_rate,
    secular_residual,
    _units,
)
from dense_ops import _sandwich_superop, apply_superop, unvec, vec

STRONG = ModelParams(omega=0.7, delta=0.5, gamma_big=2.0, gamma_ge=0.1, gamma_eg=1.0)


def rand_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return m + m.conj().T


def rand_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def test_dephasing_tops_up_to_gamma_big():
    assert _pure_dephasing_rate(STRONG) == pytest.approx(2.0 - 0.55)
    border = ModelParams(omega=0.1, delta=0.5, gamma_big=0.55, gamma_ge=0.1, gamma_eg=1.0)
    assert _pure_dephasing_rate(border) == pytest.approx(0.0, abs=1e-15)


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


def textbook_liouvillian(p, d, h):
    """-i[h, .] plus each channel's J . J^dagger - {J^dagger J, .}/2, zero rates included: the reference form."""
    sigma_plus = np.array([[0.0, 0.0], [1.0, 0.0]])
    channels = [
        (sigma_plus.T, p.gamma_eg),
        (sigma_plus, p.gamma_ge),
        (np.diag([-1.0, 1.0]), 0.5 * (p.gamma_big - 0.5 * (p.gamma_ge + p.gamma_eg))),
    ]
    eye = np.eye(2 * d, dtype=complex)
    lv = -1j * (_sandwich_superop(h, eye) - _sandwich_superop(eye, h))
    for atom_op, rate in channels:
        op = np.kron(atom_op, np.eye(d)).astype(complex)
        opd_op = op.conj().T @ op
        lv += rate * (
            _sandwich_superop(op, op.conj().T)
            - 0.5 * _sandwich_superop(opd_op, eye)
            - 0.5 * _sandwich_superop(eye, opd_op)
        )
    return lv


def frame_hamiltonian(p, d):
    """joint_hamiltonian(p, d, 0) + delta |e><e|, the constant Hamiltonian of the atom frame."""
    return joint_hamiltonian(p, d, 0.0) + p.delta * np.kron(np.diag([0.0, 1.0]), np.eye(d))


def frame_generator(p, d):
    """The constant generator extract_instrument_oracle hands to the RK4 kernel: its (d, 4d, 4d) block stack."""

    class Captured(Exception):
        pass

    def capture(generator, *args):
        raise Captured(generator)

    with mock.patch("cavityprobe.oracle._rk4_sampled", capture), pytest.raises(Captured) as caught:
        extract_instrument_oracle(p, d, Preparation.GROUND, dt_limit(p), dt_limit(p))
    return caught.value.args[0]


# A subnormal rate holds too few digits for a comparison at 1e-13 of the largest entry: at
# gamma_big = 2.2e-311 alone, the K form leaves one subnormal step, 5e-324 (2e-13 of it), where
# the commutator form's terms cancel to 0.
RATES = st.one_of(st.just(0.0), st.floats(0.0, 3.0, allow_subnormal=False))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 4), RATES, st.floats(-5.0, 5.0), RATES, RATES, RATES, st.floats(-10.0, 10.0))
@example(3, 0.7, 0.5, 1.45, 0.1, 1.0, 0.3)  # the strong preset
@example(2, 0.7, 0.5, 0.0, 0.1, 1.0, 0.3)  # gamma_big at its floor: no dephasing channel
@example(2, 0.7, 0.5, 0.0, 0.0, 0.0, 0.3)  # no dissipation at all
def test_effective_hamiltonian_form_matches_textbook_form(d, omega, delta, above_floor, gamma_ge, gamma_eg, t):
    """joint_liouvillian and the frame generator's d blocks, built through K = -iH - sum rate J^dagger J / 2,
    against the commutator plus the Lindblad dissipator of every channel.  The blocks partition the
    (2d)^2 joint units, and the textbook generator links no two of them.  The oracle propagates
    classes 0 .. d // 2 of them, bit for bit the first d // 2 + 1 blocks of the stack."""
    try:
        p = ModelParams(omega=omega, delta=delta, gamma_big=0.5 * (gamma_ge + gamma_eg) + above_floor,
                        gamma_ge=gamma_ge, gamma_eg=gamma_eg)
    except ValueError:  # kappa's denominator gamma_big**2 + delta**2 underflows to 0
        reject()
    reference = textbook_liouvillian(p, d, joint_hamiltonian(p, d, t))
    assert np.max(np.abs(joint_liouvillian(p, d, t) - reference)) <= 1e-13 * np.max(np.abs(reference))
    units = _units(d)
    blocks = _liouvillian(p, d, frame_hamiltonian(p, d), units)
    assert np.array_equal(frame_generator(p, d), blocks[: d // 2 + 1])
    reference = textbook_liouvillian(p, d, frame_hamiltonian(p, d))
    assert blocks.shape == (d, 4 * d, 4 * d)
    assert np.array_equal(np.sort(units, axis=None), np.arange(4 * d * d))
    for block, unit in zip(blocks, units):
        assert np.max(np.abs(block - reference[np.ix_(unit, unit)])) <= 1e-13 * np.max(np.abs(reference))
    block_of = np.empty(4 * d * d, dtype=int)
    block_of[units] = np.arange(d)[:, None]
    assert np.all(reference[block_of[:, None] != block_of] == 0.0)


def transposed(units, d):
    """The vec positions of |y><x| for the joint units |x><y| at vec positions units."""
    y, x = np.divmod(units, 2 * d)
    return y + 2 * d * x


@pytest.mark.parametrize("d", range(1, 9))
def test_frame_generator_class_d_minus_t_is_the_transposed_conjugate_of_class_t(d):
    """The joint generator preserves Hermiticity: between the transposes |y><x| of two units of class t,
    which lie in class d - t, it holds the conjugate of its entry between the units.  The relation is
    bit for bit (random detuned rates, the frame generator built on all of _units(d))."""
    rng = np.random.default_rng(d)
    units = _units(d)
    for _ in range(5):
        gamma_ge, gamma_eg = rng.uniform(0.0, 2.0, 2)
        p = ModelParams(omega=rng.uniform(0.0, 3.0), delta=rng.uniform(-5.0, 5.0),
                        gamma_big=0.5 * (gamma_ge + gamma_eg) + rng.uniform(0.0, 3.0),
                        gamma_ge=gamma_ge, gamma_eg=gamma_eg)
        blocks = _liouvillian(p, d, frame_hamiltonian(p, d), units)
        for t in range(d):
            mirror = transposed(units[t], d)
            order = np.argsort(units[(d - t) % d])
            where = order[np.searchsorted(units[(d - t) % d], mirror, sorter=order)]  # class d - t's index of each
            assert np.array_equal(units[(d - t) % d][where], mirror)
            assert np.array_equal(blocks[(d - t) % d][np.ix_(where, where)], blocks[t].conj())


def by_position(positions, entries):
    """A branch's positions, raveled, in increasing order, with its entries in that order."""
    order = np.argsort(positions, axis=None)
    return positions.ravel()[order], entries.reshape(len(entries), -1)[:, order]


def full_reduced_maps(p, d, prep, mode, dt, grid):
    """(positions, entries) of the maps from the reduced model's RK4 on all d coherence blocks."""
    times, samples = _propagate_blocks(p, d, prep, np.eye(d), dt, grid, mode, slice(None))
    i, j = _slots(d)
    position = i + d * j
    positions = np.hstack((position, d * d + position))[:, None, :] * (d * d) + position[:, :, None]
    return positions.ravel(), samples.reshape(len(times), -1)


def full_oracle_maps(p, d, prep, dt, grid):
    """(positions, entries) of the maps from the joint RK4 on all d classes of _units(d), read as the oracle reads them."""
    units = _units(d)
    y, x = np.divmod(units, 2 * d)
    atom, field = x // d, x % d + d * (y % d)
    start = np.nonzero((atom == (prep is Preparation.EXCITED)) & (y // d == atom))
    columns = np.zeros((d, 4 * d, d), dtype=complex)
    columns[(*start, np.arange(d * d) % d)] = 1.0
    times, samples = _rk4_sampled(_liouvillian(p, d, frame_hamiltonian(p, d), units), columns.swapaxes(1, 2), dt, grid)
    samples = samples.swapaxes(2, 3)
    read = np.nonzero(y // d == atom)
    positions = (atom * d * d + field)[read][:, None] * (d * d) + field[start].reshape(d, d)[read[0]]
    return positions.ravel(), samples[:, read[0], read[1]].reshape(len(times), -1)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 7) | st.just(20), st.sampled_from(Preparation), st.sampled_from(TruncationMode),
       st.floats(0.0, 1.0), st.floats(-3.0, 3.0), st.floats(0.5, 5.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(20, Preparation.EXCITED, TruncationMode.STRICT, 1.0, 1.0, 0.5, 0.0, 0.0)
@example(6, Preparation.GROUND, TruncationMode.ALGEBRAIC_CLOSURE, 0.7, 0.5, 2.0, 0.05, 0.5)  # the strong preset
def test_mirrored_entries_match_the_propagation_of_every_block(d, prep, mode, omega, delta, gamma_big, ge, eg):
    """Both solvers propagate blocks or classes 0 .. d // 2 and mirror the rest.  Keyed by position, their
    entries match RK4 on all d blocks (reduced) or classes (oracle) to 1e-13 of the largest entry."""
    p = ModelParams(omega=omega, delta=delta, gamma_big=gamma_big, gamma_ge=ge * gamma_big, gamma_eg=eg * gamma_big)
    dt = dt_limit(p)
    grid = _sample_steps(d, 40 * dt, dt, 10)
    for branch, (positions, entries) in (
        (integrate_instrument(p, d, prep, 40 * dt, dt, mode, 10), full_reduced_maps(p, d, prep, mode, dt, grid)),
        (extract_instrument_oracle(p, d, prep, 40 * dt, dt, 10), full_oracle_maps(p, d, prep, dt, grid)),
    ):
        held, halved = by_position(branch.positions, branch.entries)
        expected_held, expected = by_position(positions, entries)
        assert np.array_equal(held, expected_held)
        assert np.max(np.abs(halved - expected)) <= 1e-13 * np.max(np.abs(expected))


def dense_oracle(p, d, prep, t_max, dt, stride):
    """(times, m_g, m_e) from the textbook generator of the frame Hamiltonian, run through
    the RK4 kernel as one dense matrix on d^2 columns, one per field matrix unit."""
    positions = unvec(np.arange(4 * d * d))  # positions[i, j]: where <i|rho|j> sits in vec(rho)
    g_rows, e_rows = vec(positions[:d, :d]), vec(positions[d:, d:])
    columns = np.zeros((4 * d * d, d * d), dtype=complex)
    columns[g_rows if prep is Preparation.GROUND else e_rows, np.arange(d * d)] = 1.0
    grid = _sample_steps(d, t_max, dt, stride)
    times, samples = _rk4_sampled(textbook_liouvillian(p, d, frame_hamiltonian(p, d)), columns.T, dt, grid)
    samples = samples.swapaxes(1, 2)
    return times, samples[:, g_rows], samples[:, e_rows]


def assert_matches_dense_oracle(p, d, prep, t_max, dt, stride):
    branch = extract_instrument_oracle(p, d, prep, t_max, dt, stride)
    times, m_g, m_e = dense_oracle(p, d, prep, t_max, dt, stride)
    assert np.array_equal(branch.times, times)
    assert np.max(np.abs(branch.m_g - m_g)) <= 1e-13
    assert np.max(np.abs(branch.m_e - m_e)) <= 1e-13


@pytest.mark.parametrize("prep", Preparation)
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("d", range(1, 7))
def test_block_oracle_matches_dense_oracle_on_presets(d, preset, prep):
    assert_matches_dense_oracle(ModelParams(**PRESETS[preset]), d, prep, 1.0, 0.005, 20)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.sampled_from(Preparation), RATES, st.floats(-5.0, 5.0), RATES, RATES, RATES)
def test_block_oracle_matches_dense_oracle_on_drawn_rates(d, prep, omega, delta, above_floor, gamma_ge, gamma_eg):
    try:
        p = ModelParams(omega=omega, delta=delta, gamma_big=0.5 * (gamma_ge + gamma_eg) + above_floor,
                        gamma_ge=gamma_ge, gamma_eg=gamma_eg)
    except ValueError:  # kappa's denominator gamma_big**2 + delta**2 underflows to 0
        reject()
    assert_matches_dense_oracle(p, d, prep, 100 * dt_limit(p), dt_limit(p), 25)


def test_liouvillian_is_trace_free():
    rng = np.random.default_rng(31)
    d = 3
    lv = joint_liouvillian(STRONG, d, 0.7)
    for _ in range(5):
        x = rand_hermitian(rng, 2 * d)
        assert abs(np.trace(apply_superop(lv, x))) < 1e-12


def lab_frame_rk4(p, d, rho0, t_max, dt, stride):
    """Joint states from RK4 on the time-dependent lab-frame generator joint_liouvillian(p, d, t)."""
    v = vec(rho0)
    states = [rho0]
    start = joint_liouvillian(p, d, 0.0)
    for k in range(1, round(t_max / dt) + 1):
        # Each step needs the generator at its start, middle and end; the end is the next start.
        mid, end = joint_liouvillian(p, d, (k - 0.5) * dt), joint_liouvillian(p, d, k * dt)
        k1 = start @ v
        k2 = mid @ (v + 0.5 * dt * k1)
        k3 = mid @ (v + 0.5 * dt * k2)
        k4 = end @ (v + dt * k3)
        v = v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        start = end
        if k % stride == 0:
            states.append(unvec(v))
    return np.stack(states)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.floats(-5.0, 5.0), st.sampled_from(Preparation), st.integers(0, 2**32 - 1))
@example(0.5, Preparation.GROUND, 77)
@example(-3.0, Preparation.GROUND, 77)
@example(4.36, Preparation.GROUND, 77)
def test_extracted_maps_match_lab_frame_rk4(delta, prep, seed):
    """The atom-frame oracle's maps, applied to a random field state, against
    the pointer blocks of RK4 on the time-dependent lab-frame generator."""
    p = ModelParams(omega=0.7, delta=delta, gamma_big=2.0, gamma_ge=0.1, gamma_eg=1.0)
    assert_maps_match_lab_frame(p, 3, prep, rand_density(np.random.default_rng(seed), 3), 0.5, 0.002, 50)


def assert_maps_match_lab_frame(p, d, prep, rho_f, t_max, dt, stride):
    pointer = np.diag([1.0, 0.0] if prep is Preparation.GROUND else [0.0, 1.0])
    states = lab_frame_rk4(p, d, np.kron(pointer, rho_f), t_max, dt, stride)
    branch = extract_instrument_oracle(p, d, prep, t_max, dt, stride)
    assert len(states) == len(branch.times)
    for state, m_g, m_e in zip(states, branch.m_g, branch.m_e):
        assert np.max(np.abs(apply_superop(m_g, rho_f) - state[:d, :d])) < 1e-10
        assert np.max(np.abs(apply_superop(m_e, rho_f) - state[d:, d:])) < 1e-10


@pytest.mark.parametrize("delta", [0.5, -3.0, 4.36])
def test_excited_branch_maps_match_lab_frame_rk4(delta):
    """The excited branch's joint evolution, read through the extracted maps,
    against RK4 on the time-dependent lab-frame generator."""
    p = ModelParams(omega=0.7, delta=delta, gamma_big=2.0, gamma_ge=0.1, gamma_eg=1.0)
    rho_f = rand_density(np.random.default_rng(77), 3)
    assert_maps_match_lab_frame(p, 3, Preparation.EXCITED, rho_f, 0.5, 0.002, 50)


def test_ground_vacuum_is_dark_without_reexcitation():
    p = ModelParams(omega=0.7, delta=0.5, gamma_big=2.0, gamma_ge=0.0, gamma_eg=1.0)
    vacuum = fock_state(2, 0)
    branch = extract_instrument_oracle(p, 2, Preparation.GROUND, 3.0, 0.005, stride=100)
    for m_g, m_e in zip(branch.m_g, branch.m_e):
        assert np.max(np.abs(apply_superop(m_g, vacuum) - vacuum)) < 1e-12
        assert np.max(np.abs(apply_superop(m_e, vacuum))) < 1e-12


def test_pure_atomic_decay_without_coupling():
    p = ModelParams(omega=0.0, delta=0.5, gamma_big=2.0, gamma_ge=0.0, gamma_eg=0.8)
    d = 2
    rho_f = maximally_mixed(d)
    branch = extract_instrument_oracle(p, d, Preparation.EXCITED, 4.0, 0.005, stride=50)
    for t, m_g, m_e in zip(branch.times, branch.m_g, branch.m_e):
        y_g, y_e = apply_superop(m_g, rho_f), apply_superop(m_e, rho_f)
        assert abs(np.trace(y_e).real - np.exp(-p.gamma_eg * t)) < 1e-9
        # the field factor is untouched
        assert np.max(np.abs(y_g + y_e - rho_f)) < 1e-9


def test_evolution_preserves_trace_and_positivity():
    rng = np.random.default_rng(13)
    d = 3
    rho_f = rand_density(rng, d)
    for prep in Preparation:
        branch = extract_instrument_oracle(STRONG, d, prep, 3.0, 0.005, stride=60)
        for m_g, m_e in zip(branch.m_g, branch.m_e):
            y_g, y_e = apply_superop(m_g, rho_f), apply_superop(m_e, rho_f)
            assert abs(np.trace(y_g + y_e) - 1.0) < 1e-9
            for y in (y_g, y_e):
                assert np.linalg.eigvalsh(0.5 * (y + y.conj().T)).min() > -1e-10


def test_dt_limit_enforced():
    with pytest.raises(ValueError, match="too coarse"):
        extract_instrument_oracle(STRONG, 2, Preparation.GROUND, 1.0, 0.05)


def test_trace_drift_names_the_first_sample_that_drifts(monkeypatch):
    """A generator that only damps, at rate r, drifts by 1 - exp(-r t): past 1e-9 first at t = 0.46 here."""
    rate = 1e-9 / 0.455
    monkeypatch.setattr("cavityprobe.oracle._liouvillian",
                        lambda p, d, h, units: np.broadcast_to(-rate * np.eye(4 * d, dtype=complex), (d, 4 * d, 4 * d)))
    with pytest.raises(DivergenceError, match=r"at t=0\.46: trace drifted by 1\.01\de-09") as info:
        extract_instrument_oracle(STRONG, 2, Preparation.GROUND, 1.0, 0.005, stride=2)
    assert info.value.t == pytest.approx(0.46)


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
    trace_dual = vec(np.eye(d, dtype=complex))  # <<I| picks Tr
    for mg, me in zip(branch.m_g, branch.m_e):
        row = trace_dual @ (mg + me)
        assert np.max(np.abs(row - trace_dual)) < 1e-9


def test_extraction_is_linear():
    """The maps extracted column by column act on a field state as the joint
    evolution of that state does, and on a mixture as the mixture of their actions."""
    rng = np.random.default_rng(4)
    d = 3
    rho_f, sigma_f = rand_density(rng, d), rand_density(rng, d)
    assert_maps_match_lab_frame(STRONG, d, Preparation.GROUND, rho_f, 1.0, 0.005, 40)
    branch = extract_instrument_oracle(STRONG, d, Preparation.GROUND, 1.0, 0.005, stride=40)
    pointer = np.diag([1.0, 0.0])
    mixed = lab_frame_rk4(STRONG, d, np.kron(pointer, 0.3 * rho_f + 0.7 * sigma_f), 1.0, 0.005, 40)
    for m_g, state in zip(branch.m_g, mixed):
        via_columns = 0.3 * apply_superop(m_g, rho_f) + 0.7 * apply_superop(m_g, sigma_f)
        assert np.max(np.abs(via_columns - state[:d, :d])) < 1e-10


def test_hermiticity_pairing_of_columns():
    d = 3
    branch = extract_instrument_oracle(STRONG, d, Preparation.GROUND, 1.0, 0.005, stride=100)
    # swap[k] is the vec position of |n><m| when |m><n| sits at position k
    swap = vec(unvec(np.arange(d * d)).T)
    for maps in (branch.m_g, branch.m_e):
        images = unvec(maps.swapaxes(-1, -2))  # images[t, k]: image of the matrix unit at position k
        assert np.max(np.abs(images - images[:, swap].conj().swapaxes(-1, -2))) < 1e-10


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


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.sampled_from(Preparation), st.sampled_from(TruncationMode),
       RATES, st.floats(-5.0, 5.0), RATES, RATES, RATES)
def test_residual_is_the_dense_map_gap(d, prep, mode, omega, delta, above_floor, gamma_ge, gamma_eg):
    """The residual on the entries the branches hold is, bit for bit, the largest entry gap of the dense maps."""
    try:
        p = ModelParams(omega=omega, delta=delta, gamma_big=0.5 * (gamma_ge + gamma_eg) + above_floor,
                        gamma_ge=gamma_ge, gamma_eg=gamma_eg)
    except ValueError:  # kappa's denominator gamma_big**2 + delta**2 underflows to 0
        reject()
    t_max, dt = 100 * dt_limit(p), dt_limit(p)
    joint = extract_instrument_oracle(p, d, prep, t_max, dt, 25)
    reduced = integrate_instrument(p, d, prep, t_max, dt, mode, 25)
    assert secular_residual(p, d, prep, t_max, dt, 25, mode) == {
        "g": float(np.max(np.abs(joint.m_g - reduced.m_g))),
        "e": float(np.max(np.abs(joint.m_e - reduced.m_e))),
    }


@pytest.mark.parametrize("joint_held, reduced_held", [
    ([0, 5, 17, 30], [5, 9, 30, 31]),  # shared entries, and some of each outcome on one side only
    ([5, 9, 30, 31], [0, 5, 17, 30]),
    ([3], [12]),  # disjoint, and no M_e entry on either side
    ([12], [3]),
])
def test_residual_compares_an_entry_one_branch_holds_against_zero(monkeypatch, joint_held, reduced_held):
    """Hand-built d = 2 branches, whose (M_g; M_e) has 32 entries, the first 16 M_g's: the residual is the dense gap.

    Both branches give a shared position the same entry, and an entry grows
    with its position, so the largest gap of each outcome is at the last
    position that one branch holds alone.
    """
    times = np.array([0.0, 0.5, 1.0])
    phase = np.exp(1j * np.random.default_rng(7).uniform(0.0, 2 * np.pi, 32))
    def branch(held):
        held = np.array(held)
        return InstrumentBranch(Preparation.GROUND, times, 2, held, (1 + times[:, None]) * (held + 1) * phase[held], (4, 4))
    joint, reduced = branch(joint_held), branch(reduced_held)
    monkeypatch.setattr("cavityprobe.oracle.extract_instrument_oracle", lambda *args: joint)
    monkeypatch.setattr("cavityprobe.oracle.integrate_instrument", lambda *args: reduced)
    residual = secular_residual(STRONG, 2, Preparation.GROUND, 1.0, 0.005)
    assert residual == {
        "g": float(np.max(np.abs(joint.m_g - reduced.m_g))),
        "e": float(np.max(np.abs(joint.m_e - reduced.m_e))),
    }
    one_side = np.setxor1d(joint_held, reduced_held)
    assert residual["g"] == pytest.approx(2 * (one_side[one_side < 16].max() + 1))
    assert residual["e"] == pytest.approx(2 * (one_side.max() + 1) if one_side.max() >= 16 else 0.0)


def test_residual_is_the_gap_of_all_samples_at_once(monkeypatch):
    """Taken a few samples per pass, the residual is bit for bit the largest entry of one (T, union) gap array.

    At d = 12 the union holds 3,456 positions, so the 41 samples take three
    passes.  The oracle branch drops the positions of the reduced branch's
    block 1, and the reduced branch its block 0, so each holds entries that
    the other lacks."""
    d = 12
    joint = extract_instrument_oracle(STRONG, d, Preparation.GROUND, 0.2, 0.005)
    reduced = integrate_instrument(STRONG, d, Preparation.GROUND, 0.2, 0.005)
    keep = ~np.isin(joint.positions, reduced.positions[1])
    joint = replace(joint, positions=joint.positions[keep], entries=joint.entries[:, keep])
    reduced = replace(reduced, positions=reduced.positions[1:], entries=reduced.entries[:, 1:])
    monkeypatch.setattr("cavityprobe.oracle.extract_instrument_oracle", lambda *args: joint)
    monkeypatch.setattr("cavityprobe.oracle.integrate_instrument", lambda *args: reduced)
    positions = np.union1d(joint.positions, reduced.positions)
    assert len(reduced.times) == 41 and 3 * (2**16 // len(positions)) >= 41 > 2 * (2**16 // len(positions))
    gap = np.zeros((len(reduced.times), len(positions)), dtype=complex)
    gap[:, np.searchsorted(positions, joint.positions)] = joint.entries
    gap[:, np.searchsorted(positions, reduced.positions.ravel())] -= reduced.entries.reshape(len(gap), -1)
    gap, g = np.abs(gap), positions < d**4
    assert np.setdiff1d(joint.positions, reduced.positions).size and np.setdiff1d(reduced.positions, joint.positions).size
    assert secular_residual(STRONG, d, Preparation.GROUND, 0.2, 0.005) == {
        "g": float(np.max(gap[:, g], initial=0.0)), "e": float(np.max(gap[:, ~g], initial=0.0))}


def test_residual_builds_no_dense_map(monkeypatch):
    def refuse(branch):
        raise AssertionError("a dense map stack was built")
    monkeypatch.setattr(InstrumentBranch, "dense", property(refuse))
    residual = secular_residual(STRONG, 3, Preparation.GROUND, 0.5, 0.005, stride=20)
    assert 0 < residual["g"] < 1 and 0 < residual["e"] < 1


def test_preparation_given_by_value_selects_its_branch():
    for prep in Preparation:
        branch = extract_instrument_oracle(STRONG, 2, prep.value, 0.05, 0.005)
        reference = extract_instrument_oracle(STRONG, 2, prep, 0.05, 0.005)
        assert branch.prep is prep
        assert np.array_equal(branch.m_g, reference.m_g)
        assert np.array_equal(branch.m_e, reference.m_e)
    with pytest.raises(ValueError):
        extract_instrument_oracle(STRONG, 2, "g", 0.05, 0.005)
