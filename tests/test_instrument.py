import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cavityprobe import instrument
from cavityprobe.fock import InvalidStateError, TruncationMode, fock_state, maximally_mixed
from cavityprobe.instrument import (
    DivergenceError,
    InstrumentBranch,
    ModelParams,
    Preparation,
    _slots,
    build_block_generator,
    conditional_trajectories,
    integrate_instrument,
)
from cavityprobe.metrics import PositivityError, metrics_series
from cavityprobe.oracle import extract_instrument_oracle, secular_residual
from dense_ops import (
    _dense,
    _sandwich_superop,
    apply_superop,
    block_choi_certificate,
    choi_matrix,
    state_branch,
    unvec,
    vec,
)
from cavityprobe.fock import annihilation_op, quadratic_ops

STRONG = ModelParams(omega=0.7, delta=0.5, gamma_big=2.0, gamma_ge=0.1, gamma_eg=1.0)
WEAK = ModelParams(omega=0.7, delta=0.5, gamma_big=2.0, gamma_ge=0.0, gamma_eg=0.01)
# dt_limit(SLOW) = 0.01, so the oracle's step-size check lets dt = 0.01 through
SLOW = ModelParams(omega=0.1, delta=0.0, gamma_big=1.0, gamma_ge=0.0, gamma_eg=0.5)


@pytest.fixture
def no_generator(monkeypatch):
    """Make building any generator, reduced or joint, fail the test, so a check must come before it."""
    def refuse(*args, **kwargs):
        raise AssertionError("generator built before the inputs were checked")

    monkeypatch.setattr("cavityprobe.instrument.build_block_generator", refuse)
    monkeypatch.setattr("cavityprobe.oracle._liouvillian", refuse)


def rand_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def total_probability(branch, rho):
    return np.array(
        [np.trace(apply_superop(mg + me, rho)).real for mg, me in zip(branch.m_g, branch.m_e)]
    )


def kernel_input(p, d, state):
    """(generator, state0) as the solvers hand them to the kernel, ground pointer, state0 in the kernel's row form
    (blocks, k, 2d): "maps" propagates the identity on blocks 0 .. d // 2, "mixed" the maximally mixed state on
    block 0, and "coherent" the state np.full((d, d), 1 / d), which occupies all d blocks.  A generator without
    imaginary part comes real."""
    blocks = {"maps": slice(d // 2 + 1), "mixed": [0], "coherent": slice(None)}[state]
    matrix = build_block_generator(p, d, blocks=blocks)
    matrix = matrix if np.any(matrix.imag) else matrix.real
    state0 = np.zeros((len(matrix), d if state == "maps" else 1, 2 * d), dtype=matrix.dtype)
    state0[..., :d] = np.eye(d) if state == "maps" else 1.0 / d
    return matrix, state0


def sequential_rk4(matrix, state0, dt, grid):
    """The kernel as its docstring states it, one sample at a time: P = I + M (I + M (I + M (I + M/4)/3)/2) with
    M = dt matrix, and each sample is the rows of the one before times (P^gap)^T.  Returns (times, samples)."""
    m = dt * matrix
    eye = np.eye(m.shape[-1])
    steps = np.array([*grid, grid.stop])
    samples = [state0]
    with np.errstate(over="ignore", invalid="ignore"):
        step = eye + m @ (eye + m @ (eye + m @ (eye + m / 4) / 3) / 2)
        powers = {gap: np.linalg.matrix_power(step, gap) for gap in set(np.diff(steps))}
        for gap in np.diff(steps):
            samples.append(samples[-1] @ powers[gap].swapaxes(-1, -2))
    return steps * dt, np.array(samples)


def samples_by_doubling(matrix, columns) -> bool:
    """Whether the kernel fills this generator's samples by doubling: its squaring costs at most _DOUBLING_MADDS per
    propagated column."""
    return matrix.size * matrix.shape[-1] * (1 if np.isrealobj(matrix) else 4) <= instrument._DOUBLING_MADDS * columns


class TestModelParams:
    def test_derived_rates_strong_values(self):
        assert abs(STRONG.kappa - 0.49 / 4.25) < 1e-16
        assert abs(STRONG.kappa - 0.115294) < 1e-6
        assert abs(STRONG.alpha - 0.230588) < 1e-6
        assert abs(STRONG.field_rate - 2 * STRONG.alpha) < 1e-16

    def test_kappa_recomputation_is_stable(self):
        p = ModelParams(omega=0.31, delta=-0.7, gamma_big=1.3, gamma_ge=0.2, gamma_eg=0.4)
        assert abs(p.kappa - p.omega**2 / (p.gamma_big**2 + p.delta**2)) < 1e-14

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ModelParams(omega=-0.1, delta=0.0, gamma_big=1.0, gamma_ge=0.0, gamma_eg=0.0)
        with pytest.raises(ValueError):
            ModelParams(omega=0.1, delta=0.0, gamma_big=0.4, gamma_ge=0.5, gamma_eg=0.5)
        with pytest.raises(ValueError):
            ModelParams(omega=0.1, delta=0.0, gamma_big=0.0, gamma_ge=0.0, gamma_eg=0.0)
        for delta in (np.nan, np.inf):
            with pytest.raises(ValueError, match="delta must be finite"):
                ModelParams(omega=0.1, delta=delta, gamma_big=1.0, gamma_ge=0.0, gamma_eg=0.0)
        # kappa = omega**2 / (gamma_big**2 + delta**2): the denominator underflows
        # to 0, the quotient overflows, or the square overflows
        for gamma_big in (1e-200, 1e-160, 1e200):
            with pytest.raises(ValueError, match="kappa"):
                ModelParams(omega=0.1, delta=0.0, gamma_big=gamma_big, gamma_ge=0.0, gamma_eg=0.0)


class TestBlockGenerator:
    def test_d1_ground_branch_is_frozen(self):
        p = ModelParams(omega=0.7, delta=0.5, gamma_big=2.0, gamma_ge=0.0, gamma_eg=1.0)
        (g_gg, g_ge), (g_eg, g_ee) = _dense(build_block_generator(p, 1))
        assert g_gg == 0
        assert g_eg == 0
        # excited branch decays and only the atomic channel flows back
        assert abs(g_ge - p.gamma_eg) < 1e-15
        assert abs(g_ee + (p.field_rate + p.gamma_eg)) < 1e-15

    def test_blocks_real_on_diagonal_operands(self):
        rng = np.random.default_rng(5)
        d = 5
        generator = _dense(build_block_generator(STRONG, d))
        assert generator.shape == (2 * d * d, 2 * d * d)
        diag = np.diag(rng.uniform(size=d)).astype(complex)
        halves = (slice(None, d * d), slice(d * d, None))
        for block in (generator[rows, cols] for rows in halves for cols in halves):
            image = apply_superop(block, diag)
            assert np.max(np.abs(image.imag)) < 1e-15
            assert np.max(np.abs(image - np.diag(np.diag(image)))) < 1e-15

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            build_block_generator(STRONG, 0)

    @pytest.mark.parametrize("mode", list(TruncationMode))
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_matches_dense_ladder_construction(self, d, mode):
        """The generator scattered from the stack of coherence blocks equals the blocks built
        from Kronecker sandwiches of the ladder operators, entry for entry."""
        p = ModelParams(omega=0.9, delta=-1.3, gamma_big=1.7, gamma_ge=0.3, gamma_eg=0.8)
        a = annihilation_op(d)
        n_op, aad_op = quadratic_ops(d, mode)
        ident = np.eye(d * d)
        rate = p.field_rate
        number = _sandwich_superop(n_op, np.eye(d)) - _sandwich_superop(np.eye(d), n_op)
        g_gg = -(rate * 0.5 * (_sandwich_superop(n_op, np.eye(d)) + _sandwich_superop(np.eye(d), n_op))
                 - 1j * p.kappa * p.delta * number + p.gamma_ge * ident)
        g_ee = -(rate * 0.5 * (_sandwich_superop(aad_op, np.eye(d)) + _sandwich_superop(np.eye(d), aad_op))
                 + 1j * p.kappa * p.delta * number + p.gamma_eg * ident)
        g_ge = rate * _sandwich_superop(a.conj().T, a) + p.gamma_eg * ident
        g_eg = rate * _sandwich_superop(a, a.conj().T) + p.gamma_ge * ident
        expected = np.block([[g_gg, g_ge], [g_eg, g_ee]])
        assert np.max(np.abs(_dense(build_block_generator(p, d, mode)) - expected)) < 1e-15

    @pytest.mark.parametrize("mode", list(TruncationMode))
    def test_stacked_generator_keeps_the_two_orders_of_a_block_apart(self, mode):
        """Block b holds the coherence orders b (slots j < d - b) and b - d (the
        rest); every entry that would link them is exactly zero."""
        d = 5
        stack = build_block_generator(STRONG, d, mode)
        assert stack.shape == (d, 2 * d, 2 * d)
        slots = np.arange(d)
        for b in range(d):
            upper = np.r_[slots[slots < d - b], d + slots[slots < d - b]]
            lower = np.r_[slots[slots >= d - b], d + slots[slots >= d - b]]
            assert np.all(stack[b][np.ix_(upper, lower)] == 0.0)
            assert np.all(stack[b][np.ix_(lower, upper)] == 0.0)

    def test_block_d_minus_b_is_the_rolled_conjugate_of_block_b(self):
        """The generator preserves Hermiticity: slot s of block d - b, in each branch, is slot (s + d - b) mod d
        of block b, conjugated, bit for bit (random detuned rates, both truncations, d <= 12)."""
        rng = np.random.default_rng(30)
        for _ in range(20):
            gamma_big = rng.uniform(0.5, 5.0)
            p = ModelParams(omega=rng.uniform(0.0, 2.0), delta=rng.uniform(-3.0, 3.0), gamma_big=gamma_big,
                            gamma_ge=rng.uniform() * gamma_big, gamma_eg=rng.uniform() * gamma_big)
            for mode, d in itertools.product(TruncationMode, range(1, 13)):
                stack = build_block_generator(p, d, mode)
                for b in range(d):
                    slot = (np.arange(d) + d - b) % d
                    rolled = np.r_[slot, d + slot]
                    assert np.array_equal(stack[(d - b) % d], stack[b][np.ix_(rolled, rolled)].conj())

    @pytest.mark.parametrize("mode", list(TruncationMode))
    @pytest.mark.parametrize("blocks", [slice(None), np.array([0]), np.array([1, 3, 4]), np.arange(5)],
                             ids=["all", "block-0", "some", "every-index"])
    def test_builds_only_the_selected_blocks(self, mode, blocks):
        """Building a selection gives, bit for bit, those blocks of the full stack."""
        selected = build_block_generator(STRONG, 5, mode, blocks)
        assert np.array_equal(selected, build_block_generator(STRONG, 5, mode)[blocks])


class TestDenseScatter:
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_matches_per_entry_placement(self, d, width, lead):
        n = width * d
        rng = np.random.default_rng(100 * d + 10 * width + len(lead))
        blocks = rng.normal(size=(*lead, d, 2 * d, n)) + 1j * rng.normal(size=(*lead, d, 2 * d, n))
        i, j = _slots(d)
        # Slot s of block b is X[i[b, s], j[s]]; column stacking puts it at i + d j
        # of its branch, and the e branch follows the g branch at offset d^2.
        expected = np.zeros((*lead, 2 * d * d, n * d), dtype=complex)
        for index in np.ndindex(*lead):
            for b in range(d):
                for r in range(2 * d):
                    for c in range(n):
                        row = (r // d) * d * d + i[b, r % d] + d * j[r % d]
                        col = (c // d) * d * d + i[b, c % d] + d * j[c % d]
                        expected[(*index, row, col)] = blocks[(*index, b, r, c)]
        assert np.array_equal(_dense(blocks), expected)

    @pytest.mark.parametrize("solve", [integrate_instrument, extract_instrument_oracle], ids=["reduced", "oracle"])
    def test_maps_are_scattered_once_on_first_read(self, solve):
        """m_g and m_e are views of one (M_g, M_e) stack, scattered on the first read and kept."""
        branch = solve(SLOW, 3, Preparation.GROUND, 0.1, 0.01)
        assert "dense" not in vars(branch)
        m_g = branch.m_g
        stack = vars(branch)["dense"]
        assert m_g.base is stack and branch.m_e.base is stack and branch.m_g.base is stack


class TestIntegration:
    def test_initial_condition_is_exact(self):
        for prep, first, other in (
            (Preparation.GROUND, "m_g", "m_e"),
            (Preparation.EXCITED, "m_e", "m_g"),
        ):
            branch = integrate_instrument(STRONG, 3, prep, 0.1, 0.01)
            assert np.array_equal(getattr(branch, first)[0], np.eye(9))
            assert np.array_equal(getattr(branch, other)[0], np.zeros((9, 9)))
            assert branch.times[0] == 0.0

    def test_d1_vacuum_ground_is_fixed_point(self):
        p = ModelParams(omega=0.7, delta=0.5, gamma_big=2.0, gamma_ge=0.0, gamma_eg=1.0)
        branch = integrate_instrument(p, 1, Preparation.GROUND, 5.0, 0.01, stride=50)
        assert np.max(np.abs(branch.m_g - 1.0)) < 1e-12
        assert np.max(np.abs(branch.m_e)) < 1e-12

    @pytest.mark.parametrize("d", [2, 4])
    def test_probability_conserved_without_reexcitation(self, d):
        rng = np.random.default_rng(d)
        branch = integrate_instrument(WEAK, d, Preparation.GROUND, 10.0, 0.01, stride=10)
        for rho in (maximally_mixed(d), fock_state(d, d - 1), rand_density(rng, d)):
            assert np.max(np.abs(total_probability(branch, rho) - 1.0)) < 1e-9

    def test_excited_prep_conserves_below_cutoff(self):
        d = 4
        branch = integrate_instrument(WEAK, d, Preparation.EXCITED, 10.0, 0.01, stride=10)
        assert np.max(np.abs(total_probability(branch, fock_state(d, d - 2)) - 1.0)) < 1e-9

    def test_excited_prep_top_level_leak_matches_rate_model(self):
        """A photon emitted from the top Fock level has nowhere to go, so the
        excited branch loses probability at rate field_rate * d; the deficit
        follows the one-channel rate solution exactly."""
        d = 4
        times, y_g, y_e = conditional_trajectories(
            WEAK, d, Preparation.EXCITED, fock_state(d, d - 1), 20.0, 0.01, stride=10
        )
        ptot = (np.trace(y_g, axis1=1, axis2=2) + np.trace(y_e, axis1=1, axis2=2)).real
        k_leak = WEAK.field_rate * d + WEAK.gamma_eg
        expected = (WEAK.field_rate * d / k_leak) * (1.0 - np.exp(-k_leak * times))
        assert np.max(1.0 - ptot) > 0.5
        assert np.max(np.abs((1.0 - ptot) - expected)) < 1e-7

    def test_maps_completely_positive_and_hermiticity_preserving(self):
        for d in (3, 20):
            deviation, lowest = block_choi_certificate(integrate_instrument(STRONG, d, Preparation.GROUND, 5.0, 0.01,
                                                                            stride=50))
            assert deviation.max() < 1e-10
            assert lowest.min() >= -1e-8

    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_block_choi_certificate_matches_the_dense_choi_matrix(self, d):
        """Per sample and outcome, to 1e-12; also for the negated maps, whose Choi matrices are far from PSD."""
        for p, prep, mode in itertools.product((STRONG, WEAK), Preparation, TruncationMode):
            branch = integrate_instrument(p, d, prep, 10.0, 0.01, mode, stride=20)
            negated = replace(branch, entries=-branch.entries)
            for b in (branch, negated):
                choi = np.array([[choi_matrix(m) for m in maps] for maps in (b.m_g, b.m_e)]).swapaxes(0, 1)
                adjoint = choi.conj().swapaxes(-1, -2)
                deviation, lowest = block_choi_certificate(b)
                assert np.max(np.abs(deviation - np.abs(choi - adjoint).max(axis=(-1, -2)))) < 1e-12
                assert np.max(np.abs(lowest - np.linalg.eigvalsh(0.5 * (choi + adjoint))[..., 0])) < 1e-12

    def test_block_choi_certificate_rejects_a_slot_that_links_two_orders(self):
        """Block 1 at d = 2 holds X[1, 0] (order 1) in slot 0 and X[0, 1] (order -1) in slot 1."""
        branch = integrate_instrument(STRONG, 2, Preparation.GROUND, 0.1, 0.01, stride=10)
        entries = branch.entries.copy()
        entries[:, branch.positions == 1 * 4 + 2] = 1e-300  # <1|M_g(|0><1|)|0>: order -1 in, order 1 out
        with pytest.raises(AssertionError, match="linking two coherence orders"):
            block_choi_certificate(replace(branch, entries=entries))

    def test_initial_slope_matches_field_rate_law(self):
        """dP_g/dt at t=0 equals -(field_rate * nbar + gamma_ge), the trace of
        the generator against the initial state."""
        d = 4
        h = 1e-6
        for p in (STRONG, WEAK):
            for rho, nbar in ((fock_state(d, 1), 1.0), (fock_state(d, 3), 3.0), (maximally_mixed(d), 1.5)):
                _, y_g, _ = conditional_trajectories(p, d, Preparation.GROUND, rho, h, h)
                slope = (np.trace(y_g[1]).real - np.trace(y_g[0]).real) / h
                expected = -(p.field_rate * nbar + p.gamma_ge)
                assert abs(slope - expected) / abs(expected) < 1e-5

    def test_detuning_invariance_on_diagonal_inputs(self):
        """Two parameter sets with equal kappa, gamma_big and gammas but different
        detuning produce identical metrics for diagonal initial states."""
        delta2 = 1.5
        omega2 = np.sqrt(STRONG.kappa * (STRONG.gamma_big**2 + delta2**2))
        other = ModelParams(omega=omega2, delta=delta2, gamma_big=STRONG.gamma_big,
                            gamma_ge=STRONG.gamma_ge, gamma_eg=STRONG.gamma_eg)
        assert abs(other.kappa - STRONG.kappa) < 1e-15
        rho = fock_state(4, 2)
        records = []
        for p in (STRONG, other):
            records.append(metrics_series(conditional_trajectories(p, 4, Preparation.GROUND, rho, 3.0, 0.01, stride=30), rho))
        for rec_a, rec_b in zip(*records):
            for name in ("p_g", "p_e", "i_g", "f_g", "s_g"):
                va, vb = getattr(rec_a, name), getattr(rec_b, name)
                if va is None or vb is None:
                    assert va == vb
                else:
                    assert abs(va - vb) < 1e-9

    def test_trajectories_match_map_integration(self):
        rng = np.random.default_rng(8)
        d = 3
        rho = rand_density(rng, d)
        branch = integrate_instrument(STRONG, d, Preparation.GROUND, 2.0, 0.01, stride=20)
        times, y_g, y_e = conditional_trajectories(
            STRONG, d, Preparation.GROUND, rho, 2.0, 0.01, stride=20
        )
        assert np.array_equal(times, branch.times)
        for k in range(len(times)):
            assert np.max(np.abs(y_g[k] - apply_superop(branch.m_g[k], rho))) < 1e-12
            assert np.max(np.abs(y_e[k] - apply_superop(branch.m_e[k], rho))) < 1e-12

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """(blocks, sample dtype) of each kernel call, from the reduced model and the oracle alike."""
        calls = []

        def recording(matrix, *args):
            times, samples = rk4_sampled(matrix, *args)
            calls.append((len(matrix), samples.dtype))
            return times, samples

        rk4_sampled = instrument._rk4_sampled
        monkeypatch.setattr(instrument, "_rk4_sampled", recording)
        monkeypatch.setattr("cavityprobe.oracle._rk4_sampled", recording)
        return calls

    def test_propagates_only_the_occupied_blocks(self, kernel_calls):
        """A state is propagated on the coherence blocks it occupies, the maps on blocks 0 .. d // 2.

        A state branch holds the entries of its live blocks alone, at
        o d^2 + i d + j for X_ij of outcome o, and its m_g and m_e fill the
        rest with 0.  The maps' other blocks are the mirrors of those, so their
        entries still cover all d.  A diagonal state runs in real arithmetic,
        a state with coherences and the detuned maps in complex; the dense
        outputs are complex128 either way."""
        d = 5
        i, j = _slots(d)
        for rho, live, dtype in (
            (fock_state(d, 2), [0], np.float64),
            (maximally_mixed(d), [0], np.float64),
            (maximally_mixed(d) + 0.01 * (np.eye(d, k=2) + np.eye(d, k=-2)), [0, 2, 3], np.complex128),
            (rand_density(np.random.default_rng(3), d), range(d), np.complex128),
        ):
            kernel_calls.clear()
            branch = conditional_trajectories(STRONG, d, Preparation.GROUND, rho, 0.1, 0.01)
            assert kernel_calls == [(len(live), dtype)]
            assert branch.shape == (d, d) and branch.entries.shape == (len(branch.times), len(live), 2 * d)
            expected = [[o * d * d + (s + b) % d * d + s for o in (0, 1) for s in range(d)] for b in live]
            assert branch.positions.tolist() == expected
            times, y_g, y_e = branch
            assert y_g.dtype == y_e.dtype == np.complex128 and y_g.shape == (len(times), d, d)
            held = np.zeros((d, d), dtype=bool)
            held[i[live], j] = True
            assert np.array_equal(y_g[0], rho) and not np.any(y_g[:, ~held]) and not np.any(y_e[:, ~held])
        kernel_calls.clear()
        branch = integrate_instrument(STRONG, d, Preparation.GROUND, 0.1, 0.01)
        assert kernel_calls == [(3, np.complex128)]
        assert branch.shape == (d * d, d * d) and branch.entries.shape == (len(branch.times), d, 2 * d * d)
        assert branch.positions.shape == (d, 2 * d * d)
        assert branch.m_g.dtype == branch.m_e.dtype == np.complex128

    def test_a_large_mixed_run_never_builds_the_dense_states(self):
        """metrics_series reads a diagonal branch's entries, so the traced peak of a mixed run at d = 160 stays below
        one dense (T, d, d) complex stack (41 MB), and m_g is never built."""
        d, rho = 160, maximally_mixed(160)
        tracemalloc.start()
        try:
            branch = conditional_trajectories(STRONG, d, Preparation.GROUND, rho, 10.0, 0.01, stride=10)
            metrics_series(branch, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(branch.times) * d * d * np.dtype(complex).itemsize
        assert "dense" not in vars(branch)

    def test_resonant_maps_run_real_and_the_oracle_complex(self, kernel_calls):
        """At delta = 0 the maps' generator is real; the oracle's -iH never is.  Both return complex128.

        Each solver propagates blocks or classes 0 .. d // 2 of d: 3 of 4 and 2 of 3 here."""
        resonant = ModelParams(omega=0.7, delta=0.0, gamma_big=2.0, gamma_ge=0.1, gamma_eg=1.0)
        branch = integrate_instrument(resonant, 4, Preparation.EXCITED, 0.5, 0.01, stride=10)
        assert kernel_calls == [(3, np.float64)]
        assert branch.entries.dtype == np.float64
        assert branch.m_g.dtype == branch.m_e.dtype == np.complex128
        kernel_calls.clear()
        branch = extract_instrument_oracle(SLOW, 3, Preparation.GROUND, 0.1, 0.01, stride=5)
        assert kernel_calls == [(2, np.complex128)]
        assert branch.m_g.dtype == branch.m_e.dtype == np.complex128

    def test_imaginary_diagonal_keeps_the_complex_path(self, kernel_calls):
        """An imaginary part on the diagonal, within the density-matrix tolerance, is propagated, not dropped."""
        rho = maximally_mixed(3)
        rho[1, 1] += 1e-13j
        _, y_g, _ = conditional_trajectories(STRONG, 3, Preparation.GROUND, rho, 0.5, 0.01, stride=10)
        assert kernel_calls == [(1, np.complex128)]
        assert y_g[0, 1, 1] == rho[1, 1]
        assert np.all(y_g[1:, 1, 1].imag != 0.0)

    @pytest.mark.parametrize("solve, bound", [
        (lambda: integrate_instrument(STRONG, 20, Preparation.GROUND, 10.0, 0.01, stride=10), 1.25),
        (lambda: extract_instrument_oracle(STRONG, 20, Preparation.GROUND, 10.0, 0.005, stride=20), 3.2),
        (lambda: integrate_instrument(STRONG, 10, Preparation.GROUND, 10.0, 0.01, stride=10), 1.25),
    ], ids=["reduced", "oracle", "reduced-doubled"])
    def test_peak_allocation_stays_near_the_entries(self, solve, bound):
        """The traced peak of one solver call, as a multiple of the entries it returns.

        The maps' entries are a view of the kernel's one sample buffer, into
        which the mirrored blocks are written in place; a second
        samples-sized array would read about 2.  The maps at d = 10 and 20
        fill their samples by doubling.  The oracle's grid is the one
        run --oracle uses at the default dt."""
        tracemalloc.start()
        try:
            branch = solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * branch.entries.nbytes

    def test_final_step_always_sampled(self):
        branch = integrate_instrument(STRONG, 2, Preparation.GROUND, 0.25, 0.01, stride=10)
        assert branch.times[-1] == pytest.approx(0.25)
        assert len(branch.times) == 4  # t = 0, 0.1, 0.2, 0.25

    @pytest.mark.parametrize("mode", list(TruncationMode))
    @pytest.mark.parametrize("prep", list(Preparation))
    def test_kernel_is_classical_rk4(self, prep, mode):
        """The sampled maps and conditional states are those of the four-stage RK4
        scheme on the block generator, with a stride that does not divide the run."""
        dt, stride, n_steps = 0.01, 7, 50
        for d in (1, 3):
            a = _dense(build_block_generator(STRONG, d, mode))
            rng = np.random.default_rng(d)
            rho = rand_density(rng, d)
            populations = rng.uniform(0.1, 1.0, size=d)
            diagonal = np.diag(populations / populations.sum())  # real, so its run is in real arithmetic
            # columns: the identity map, then the two states, on the prepared branch
            field = np.column_stack([np.eye(d * d), vec(rho), vec(diagonal)])
            zero = np.zeros_like(field)
            y = np.concatenate((field, zero) if prep is Preparation.GROUND else (zero, field))
            expected = [y]
            for step in range(1, n_steps + 1):
                k1 = a @ y
                k2 = a @ (y + 0.5 * dt * k1)
                k3 = a @ (y + 0.5 * dt * k2)
                k4 = a @ (y + dt * k3)
                y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if step % stride == 0 or step == n_steps:
                    expected.append(y)
            expected = np.array(expected)
            g, e = expected[:, : d * d], expected[:, d * d :]
            branch = integrate_instrument(STRONG, d, prep, n_steps * dt, dt, mode, stride)
            assert np.array_equal(branch.times, dt * np.array([0, 7, 14, 21, 28, 35, 42, 49, 50]))
            assert np.max(np.abs(branch.m_g - g[..., : d * d])) < 1e-13
            assert np.max(np.abs(branch.m_e - e[..., : d * d])) < 1e-13
            for column, state in ((d * d, rho), (d * d + 1, diagonal)):
                times, y_g, y_e = conditional_trajectories(STRONG, d, prep, state, n_steps * dt, dt, mode, stride)
                assert np.array_equal(times, branch.times)
                assert np.max(np.abs(y_g - unvec(g[..., column]))) < 1e-13
                assert np.max(np.abs(y_e - unvec(e[..., column]))) < 1e-13

    def test_divergence_raises_with_time(self):
        p = ModelParams(omega=0.7, delta=0.5, gamma_big=2.0, gamma_ge=0.1, gamma_eg=1.0)
        with pytest.raises(DivergenceError) as err:
            integrate_instrument(p, 6, Preparation.GROUND, 4000.0, 2.0, stride=100)
        assert err.value.t > 0
        # RK4 is unstable here: field_rate = 250, so dt times the three-photon
        # decay rate is 7.5, past RK4's real-axis limit of about 2.79.  The
        # samples are finite up to t = 0.9 and overflow at the sample t = 1.0,
        # which is the time reported even though the run goes on to t = 3.
        unstable = ModelParams(omega=1.0, delta=0.0, gamma_big=0.008, gamma_ge=0.0, gamma_eg=0.01)
        rho = maximally_mixed(4)
        for run in (
            lambda t_max: integrate_instrument(unstable, 4, Preparation.GROUND, t_max, 0.01, stride=10).m_g,
            lambda t_max: conditional_trajectories(unstable, 4, Preparation.GROUND, rho, t_max, 0.01, stride=10).m_g,
        ):
            with pytest.raises(DivergenceError) as err:
                run(3.0)
            assert err.value.t == 1.0
            assert np.all(np.isfinite(run(0.9)))

    @pytest.mark.parametrize("d, state, doubled", [
        (4, "maps", True), (10, "maps", True), (20, "mixed", True), (40, "mixed", False), (20, "maps", True),
        (32, "maps", False), (6, "coherent", True),
    ])
    def test_kernel_matches_the_sequential_products(self, d, state, doubled):
        """Over 145 samples whose stride does not divide the run, the kernel gives P^gap applied sample by sample:
        to 1e-13 of the largest entry where squaring is cheap and it samples by doubling, and bit for bit past that
        size, where each sample is one product of the last."""
        matrix, state0 = kernel_input(STRONG, d, state)
        assert samples_by_doubling(matrix, state0.shape[-2]) == doubled
        grid = range(0, 1003, 7)
        times, samples = instrument._rk4_sampled(matrix, state0, 0.01, grid)
        expected_times, expected = sequential_rk4(matrix, state0, 0.01, grid)
        assert np.array_equal(times, expected_times)
        assert samples.dtype == expected.dtype
        if doubled:
            assert np.max(np.abs(samples - expected)) <= 1e-13 * np.max(np.abs(expected))
        else:
            assert np.array_equal(samples, expected)

    def test_divergence_is_the_first_non_finite_sequential_sample(self):
        """With the unstable rates above, doubling reports the sample where the sequential run first overflows."""
        unstable = ModelParams(omega=1.0, delta=0.0, gamma_big=0.008, gamma_ge=0.0, gamma_eg=0.01)
        d, grid = 4, range(0, 300, 10)
        for state, run in (
            ("maps", lambda: integrate_instrument(unstable, d, Preparation.GROUND, 3.0, 0.01, stride=10)),
            ("mixed", lambda: conditional_trajectories(
                unstable, d, Preparation.GROUND, maximally_mixed(d), 3.0, 0.01, stride=10)),
        ):
            matrix, state0 = kernel_input(unstable, d, state)
            assert samples_by_doubling(matrix, state0.shape[-2])
            times, expected = sequential_rk4(matrix, state0, 0.01, grid)
            first = np.argmin(np.isfinite(expected).reshape(len(times), -1).all(axis=1))
            assert first > 0
            with pytest.raises(DivergenceError) as err:
                run()
            assert err.value.t == times[first]

    def test_a_finite_run_whose_sum_overflows_does_not_raise(self):
        """The kernel first sums the whole run; a sum that overflows from finite samples is scanned, and passes."""
        state0 = np.full((1, 2), 1e308)
        times, samples = instrument._rk4_sampled(np.zeros((2, 2)), state0, 0.5, range(0, 4))
        assert np.array_equal(times, [0.0, 0.5, 1.0, 1.5, 2.0]) and np.all(samples == 1e308)

    def test_a_squared_power_that_overflows_ends_the_doubling(self):
        """The e branch here is past RK4's limit (dt gamma_eg = 3), but a ground pointer never enters it, so the
        sequential run stays finite.  From t = 4096 a squared power holds inf, which on the branch's exact zeros
        would give nan; the kernel stops doubling there and takes the rest one product each, as the reference does."""
        p = ModelParams(omega=0.0, delta=0.0, gamma_big=1.5, gamma_ge=0.0, gamma_eg=3.0)
        matrix, state0 = kernel_input(p, 2, "mixed")
        assert samples_by_doubling(matrix, state0.shape[-2])
        grid = range(0, 5000)
        _, samples = instrument._rk4_sampled(matrix, state0, 1.0, grid)
        assert np.array_equal(samples, sequential_rk4(matrix, state0, 1.0, grid)[1])
        _, y_g, y_e = conditional_trajectories(p, 2, Preparation.GROUND, maximally_mixed(2), 5000.0, 1.0)
        assert np.all(y_g == maximally_mixed(2)) and np.all(y_e == 0.0)

    def test_a_squared_power_that_overflows_ends_the_doubling_of_the_maps(self):
        """The stop above on the d = 2 maps, two blocks of two columns each, bit for bit the sequential products."""
        p = ModelParams(omega=0.0, delta=0.0, gamma_big=1.5, gamma_ge=0.0, gamma_eg=3.0)
        matrix, state0 = kernel_input(p, 2, "maps")
        assert samples_by_doubling(matrix, 2) and state0.shape == (2, 2, 4)
        grid = range(0, 5000)
        _, samples = instrument._rk4_sampled(matrix, state0, 1.0, grid)
        expected = sequential_rk4(matrix, state0, 1.0, grid)[1]
        assert np.array_equal(samples, expected) and np.all(expected[:, :, :, :2] == np.eye(2))

    @pytest.mark.parametrize("d, k, doubled", [(4, 4, True), (40, 3, False)])
    def test_a_bare_matrix_is_a_stack_of_one_block(self, d, k, doubled):
        """A bare (n, n) matrix, the maps' complex block 1, with the k columns of an (n, k) state, given as their (k, n)
        transpose: the samples are (T, k, n), those of the sequential products to 1e-13 where the kernel doubles
        and bit for bit past it."""
        matrix, state0 = kernel_input(STRONG, d, "maps")
        matrix, columns = matrix[1], np.ascontiguousarray(state0[1, :k].T)
        assert samples_by_doubling(matrix, k) == doubled and columns.shape == (2 * d, k)
        grid = range(0, 1003, 7)
        times, samples = instrument._rk4_sampled(matrix, columns.T, 0.01, grid)
        expected_times, expected = sequential_rk4(matrix, columns.T, 0.01, grid)
        assert np.array_equal(times, expected_times) and samples.shape == expected.shape == (len(times), k, 2 * d)
        if doubled:
            assert np.max(np.abs(samples - expected)) <= 1e-13 * np.max(np.abs(expected))
        else:
            assert np.array_equal(samples, expected)

    def test_unoccupied_blocks_never_diverge(self):
        """A block the state leaves at zero is not propagated, so its own instability raises nothing."""
        # At dt = 1 the coherence block's rotation kappa delta = 4.95 is past RK4's
        # imaginary-axis limit of about 2.83 (a step multiplies it by about 20, so
        # P^250 overflows), while block 0, the populations, carries no rotation
        # and stays stable.
        p = ModelParams(omega=5.0, delta=5.0, gamma_big=0.5, gamma_ge=0.0, gamma_eg=0.0)
        with pytest.raises(DivergenceError):
            integrate_instrument(p, 2, Preparation.GROUND, 500.0, 1.0, stride=250)
        with pytest.raises(DivergenceError):
            conditional_trajectories(p, 2, Preparation.GROUND, np.full((2, 2), 0.5), 500.0, 1.0, stride=250)
        _, y_g, y_e = conditional_trajectories(p, 2, Preparation.GROUND, maximally_mixed(2), 500.0, 1.0, stride=250)
        assert np.all(np.isfinite(y_g)) and np.all(np.isfinite(y_e))
        assert np.all(y_g[:, [0, 1], [1, 0]] == 0.0)

    def test_preparation_given_by_value_selects_its_branch(self):
        for prep in Preparation:
            branch = integrate_instrument(STRONG, 2, prep.value, 0.1, 0.01)
            reference = integrate_instrument(STRONG, 2, prep, 0.1, 0.01)
            assert branch.prep is prep
            assert np.array_equal(branch.m_g, reference.m_g)
            assert np.array_equal(branch.m_e, reference.m_e)
        with pytest.raises(ValueError):
            integrate_instrument(STRONG, 2, "g", 0.1, 0.01)

    def test_truncation_mode_given_by_value_selects_its_mode(self):
        branch = integrate_instrument(STRONG, 2, Preparation.GROUND, 0.1, 0.01, mode="strict")
        reference = integrate_instrument(STRONG, 2, Preparation.GROUND, 0.1, 0.01, mode=TruncationMode.STRICT)
        assert np.array_equal(branch.m_g, reference.m_g)
        with pytest.raises(ValueError):
            integrate_instrument(STRONG, 2, Preparation.GROUND, 0.1, 0.01, mode="closure")

    def test_trajectories_reject_non_density_input(self):
        with pytest.raises(InvalidStateError):
            conditional_trajectories(STRONG, 2, Preparation.GROUND, np.array([[1.0, 1.0], [0.0, 0.0]]), 0.1, 0.01)
        with pytest.raises(ValueError, match=r"initial state shape \(3, 3\) does not match d=2"):
            conditional_trajectories(STRONG, 2, Preparation.GROUND, maximally_mixed(3), 0.1, 0.01)

    def test_trajectories_reject_nan_input(self):
        with pytest.raises(InvalidStateError, match="non-finite"):
            conditional_trajectories(STRONG, 2, Preparation.GROUND, np.diag([np.nan, np.nan]), 0.1, 0.01)

    def test_bad_time_arguments(self):
        with pytest.raises(ValueError):
            integrate_instrument(STRONG, 2, Preparation.GROUND, 0.0, 0.01)
        with pytest.raises(ValueError):
            integrate_instrument(STRONG, 2, Preparation.GROUND, 1.0, 2.0)
        with pytest.raises(ValueError):
            integrate_instrument(STRONG, 2, Preparation.GROUND, 1.0, 0.01, stride=0)
        inf = float("inf")
        with pytest.raises(ValueError, match="finite"):
            integrate_instrument(STRONG, 2, Preparation.GROUND, inf, 0.01)
        with pytest.raises(ValueError, match="finite"):
            conditional_trajectories(STRONG, 2, Preparation.GROUND, maximally_mixed(2), inf, 0.01)
        with pytest.raises(ValueError, match="finite"):
            extract_instrument_oracle(STRONG, 2, Preparation.GROUND, inf, 0.005)
        # t_max / dt overflows to inf: rejected, not an OverflowError from the step count
        with pytest.raises(ValueError, match=r"2\*\*63"):
            integrate_instrument(STRONG, 2, Preparation.GROUND, 1e300, 1e-10)
        with pytest.raises(ValueError, match=r"2\*\*63"):
            conditional_trajectories(STRONG, 2, Preparation.GROUND, maximally_mixed(2), 1e300, 1e-10)
        with pytest.raises(ValueError, match=r"2\*\*63"):
            extract_instrument_oracle(STRONG, 2, Preparation.GROUND, 1e300, 1e-10)
        # numpy scalars are converted before dividing, so the overflow is no RuntimeWarning
        with pytest.raises(ValueError, match=r"2\*\*63"):
            integrate_instrument(STRONG, 2, Preparation.GROUND, np.float64(1e300), np.float64(1e-10))
        # a fractional or boolean stride would silently change the sampling
        for stride in (2.5, True):
            with pytest.raises(ValueError, match="stride"):
                integrate_instrument(STRONG, 2, Preparation.GROUND, 0.1, 0.01, stride=stride)

    def test_time_grid_checked_before_any_generator_is_built(self, no_generator):
        rho = maximally_mixed(2)
        for t_max, stride in ((0.015, 1), (0.02, 0)):
            with pytest.raises(ValueError):
                integrate_instrument(SLOW, 2, Preparation.GROUND, t_max, 0.01, stride=stride)
            with pytest.raises(ValueError):
                conditional_trajectories(SLOW, 2, Preparation.GROUND, rho, t_max, 0.01, stride=stride)
            with pytest.raises(ValueError):
                extract_instrument_oracle(SLOW, 2, Preparation.GROUND, t_max, 0.01, stride=stride)


def _runs(d=2, t_max=1.0, dt=0.01):
    """Each library run as a thunk, on SLOW's valid grid unless d, t_max or dt is given."""
    return {
        "integrate_instrument": lambda: integrate_instrument(SLOW, d, "ground", t_max, dt),
        "conditional_trajectories": lambda: conditional_trajectories(
            SLOW, d, "ground", maximally_mixed(2), t_max, dt),
        "extract_instrument_oracle": lambda: extract_instrument_oracle(SLOW, d, "ground", t_max, dt),
        "secular_residual": lambda: secular_residual(SLOW, d, "ground", t_max, dt),
    }


def _takes_d(d):
    """Every entry point that takes a truncation d, as a thunk."""
    return {
        "annihilation_op": lambda: annihilation_op(d),
        "quadratic_ops": lambda: quadratic_ops(d),
        "fock_state": lambda: fock_state(d, 0),
        "maximally_mixed": lambda: maximally_mixed(d),
        "build_block_generator": lambda: build_block_generator(SLOW, d),
        **_runs(d=d),
    }


def _same(result, reference) -> bool:
    """Whether two results of one entry point (an array, a tuple of arrays, an InstrumentBranch or a dict) are equal."""
    if isinstance(result, dict):
        return result == reference
    if isinstance(result, InstrumentBranch):
        result, reference = (result.times, result.m_g, result.m_e), (reference.times, reference.m_g, reference.m_e)
    elif not isinstance(result, tuple):
        result, reference = (result,), (reference,)
    return all(map(np.array_equal, result, reference))


class TestInputRules:
    """Each run-input rule has one statement in the library, and every entry point applies it before building anything."""

    @pytest.mark.parametrize("entry", list(_takes_d(2)))
    @pytest.mark.parametrize("d", [2.0, 2.5, True, "2"])
    def test_dimension_rule(self, no_generator, entry, d):
        with pytest.raises(ValueError, match="^dimension must be a positive integer"):
            _takes_d(d)[entry]()

    @pytest.mark.parametrize("n", [1.5, True])
    def test_level_rule(self, no_generator, n):
        with pytest.raises(ValueError, match=r"^Fock level n must be an integer with 0 <= n < d=3"):
            fock_state(3, n)

    @pytest.mark.parametrize("name", ["omega", "delta", "gamma_big", "gamma_ge", "gamma_eg"])
    @pytest.mark.parametrize("value", [True, "0.7", None, 10**400], ids=["True", "str", "None", "1e400"])
    def test_number_rule_for_rates(self, no_generator, name, value):
        rates = {**vars(SLOW), name: value}
        with pytest.raises(ValueError, match=f"^{name} (must be a number|is an integer too large for a float)"):
            ModelParams(**rates)

    @pytest.mark.parametrize("entry", list(_runs()))
    @pytest.mark.parametrize("key", ["t_max", "dt"])
    @pytest.mark.parametrize("value", ["0.1", True])
    def test_number_rule_for_the_grid(self, no_generator, entry, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be a number"):
            _runs(**{key: value})[entry]()

    def test_integer_grid_runs_in_float(self):
        # the number rule admits any integer that fits a float, beyond int64 too
        assert integrate_instrument(STRONG, 2, "ground", 2, 1).times.dtype == float
        with pytest.raises(DivergenceError):
            integrate_instrument(STRONG, 2, "ground", 10**300, 10**300)

    def test_numpy_scalars_pass_every_rule(self):
        for entry, make in _takes_d(np.int64(2)).items():
            assert _same(make(), _takes_d(2)[entry]()), entry
        assert np.array_equal(fock_state(np.int64(3), np.int64(1)), fock_state(3, 1))
        p = ModelParams(**{name: np.float64(value) for name, value in vars(SLOW).items()})
        assert p == SLOW and all(type(value) is float for value in vars(p).values())
        for entry, make in _runs(t_max=np.float64(0.02), dt=np.float64(0.01)).items():
            assert _same(make(), _runs(t_max=0.02)[entry]()), entry


class TestConditionalState:
    """How metrics_series turns one unnormalized state M rho into an outcome's record."""

    @staticmethod
    def record(m, rho):
        """The t = 0 record whose g outcome holds apply_superop(m, rho) and whose e outcome is empty."""
        y = apply_superop(m, rho)[None]
        return metrics_series(state_branch(np.zeros(1), y, np.zeros_like(y)), rho)[0]

    def test_identity_map_returns_input(self):
        rec = self.record(np.eye(9), maximally_mixed(3))
        assert rec.p_g == pytest.approx(1.0, abs=1e-15)
        assert rec.defined_g is True
        assert rec.s_g == pytest.approx(np.log2(3), abs=1e-15)
        assert rec.i_g == pytest.approx(0.0, abs=1e-15)
        assert rec.f_g == pytest.approx(1.0, abs=1e-15)

    def test_zero_map_is_undefined(self):
        rec = self.record(np.zeros((9, 9)), maximally_mixed(3))
        assert rec.p_g == 0.0
        assert rec.defined_g is False
        assert rec.i_g is None and rec.f_g is None and rec.s_g is None

    def test_jump_map_on_one_photon(self):
        a = annihilation_op(2)
        rec = self.record(_sandwich_superop(a, a.conj().T), fock_state(2, 1))
        assert rec.p_g == pytest.approx(1.0, abs=1e-15)
        assert rec.s_g == pytest.approx(0.0, abs=1e-15)
        # the state moved to |0><0|, orthogonal to the input |1><1|
        assert rec.f_g == pytest.approx(0.0, abs=1e-15)

    def test_negative_probability_raises(self):
        with pytest.raises(PositivityError):
            self.record(-np.eye(4), maximally_mixed(2))

    def test_result_is_rehermitized(self):
        skew = np.array([[0.0, 1e-12 + 2e-12j], [-1e-12 + 2e-12j, 0.0]])
        target = maximally_mixed(2) + skew  # traceless skew part, real trace
        rec = self.record(np.outer(vec(target), vec(np.eye(2))), maximally_mixed(2))
        assert rec.p_g == pytest.approx(1.0, abs=1e-14)
        assert rec.s_g == pytest.approx(1.0, abs=1e-11)
        assert rec.f_g == pytest.approx(1.0, abs=1e-11)
