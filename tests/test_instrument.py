import numpy as np
import pytest

from cavityprobe import instrument
from cavityprobe.fock import InvalidStateError, TruncationMode, fock_state, maximally_mixed
from cavityprobe.instrument import (
    DivergenceError,
    ModelParams,
    Preparation,
    _dense,
    _slots,
    build_block_generator,
    conditional_trajectories,
    integrate_instrument,
)
from cavityprobe.metrics import PositivityError, metrics_series
from cavityprobe.oracle import extract_instrument_oracle
from cavityprobe.superop import apply_superop, choi_matrix, sandwich_superop, unvec, vec
from cavityprobe.fock import annihilation_op, quadratic_ops

STRONG = ModelParams(omega=0.7, delta=0.5, gamma_big=2.0, gamma_ge=0.1, gamma_eg=1.0)
WEAK = ModelParams(omega=0.7, delta=0.5, gamma_big=2.0, gamma_ge=0.0, gamma_eg=0.01)


def rand_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def total_probability(branch, rho):
    return np.array(
        [np.trace(apply_superop(mg + me, rho)).real for mg, me in zip(branch.m_g, branch.m_e)]
    )


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
        number = sandwich_superop(n_op, np.eye(d)) - sandwich_superop(np.eye(d), n_op)
        g_gg = -(rate * 0.5 * (sandwich_superop(n_op, np.eye(d)) + sandwich_superop(np.eye(d), n_op))
                 - 1j * p.kappa * p.delta * number + p.gamma_ge * ident)
        g_ee = -(rate * 0.5 * (sandwich_superop(aad_op, np.eye(d)) + sandwich_superop(np.eye(d), aad_op))
                 + 1j * p.kappa * p.delta * number + p.gamma_eg * ident)
        g_ge = rate * sandwich_superop(a.conj().T, a) + p.gamma_eg * ident
        g_eg = rate * sandwich_superop(a, a.conj().T) + p.gamma_ge * ident
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
        branch = integrate_instrument(STRONG, 3, Preparation.GROUND, 5.0, 0.01, stride=50)
        for maps in (branch.m_g, branch.m_e):
            for m in maps:
                c = choi_matrix(m)
                assert np.max(np.abs(c - c.conj().T)) < 1e-10
                assert np.linalg.eigvalsh(0.5 * (c + c.conj().T)).min() >= -1e-8

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
            records.append(metrics_series(*conditional_trajectories(p, 4, Preparation.GROUND, rho, 3.0, 0.01, stride=30), rho))
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

    def test_propagates_only_the_occupied_blocks(self, monkeypatch):
        """A state is propagated on the coherence blocks it occupies, the maps on all d."""
        sizes = []

        def recording(matrix, *args):
            sizes.append(len(matrix))
            return rk4_sampled(matrix, *args)

        rk4_sampled = instrument._rk4_sampled
        monkeypatch.setattr(instrument, "_rk4_sampled", recording)
        d = 5
        for rho, blocks in (
            (fock_state(d, 2), 1),
            (maximally_mixed(d), 1),
            (rand_density(np.random.default_rng(3), d), d),
        ):
            sizes.clear()
            conditional_trajectories(STRONG, d, Preparation.GROUND, rho, 0.1, 0.01)
            assert sizes == [blocks]
        sizes.clear()
        integrate_instrument(STRONG, d, Preparation.GROUND, 0.1, 0.01)
        assert sizes == [d]

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
            rho = rand_density(np.random.default_rng(d), d)
            # columns: the identity map, then the state, on the prepared branch
            field = np.column_stack([np.eye(d * d), vec(rho)])
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
            assert np.max(np.abs(branch.m_g - g[..., :-1])) < 1e-13
            assert np.max(np.abs(branch.m_e - e[..., :-1])) < 1e-13
            times, y_g, y_e = conditional_trajectories(STRONG, d, prep, rho, n_steps * dt, dt, mode, stride)
            assert np.array_equal(times, branch.times)
            assert np.max(np.abs(y_g - unvec(g[..., -1]))) < 1e-13
            assert np.max(np.abs(y_e - unvec(e[..., -1]))) < 1e-13

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
            lambda t_max: conditional_trajectories(unstable, 4, Preparation.GROUND, rho, t_max, 0.01, stride=10)[1],
        ):
            with pytest.raises(DivergenceError) as err:
                run(3.0)
            assert err.value.t == 1.0
            assert np.all(np.isfinite(run(0.9)))

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

    def test_time_grid_checked_before_any_generator_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generator built before the time grid was checked")

        monkeypatch.setattr("cavityprobe.instrument.build_block_generator", refuse)
        monkeypatch.setattr("cavityprobe.oracle._liouvillian", refuse)
        # dt_limit(slow) = 0.01, so the oracle's step-size check lets dt = 0.01 through
        slow = ModelParams(omega=0.1, delta=0.0, gamma_big=1.0, gamma_ge=0.0, gamma_eg=0.5)
        rho = maximally_mixed(2)
        for t_max, stride in ((0.015, 1), (0.02, 0)):
            with pytest.raises(ValueError):
                integrate_instrument(slow, 2, Preparation.GROUND, t_max, 0.01, stride=stride)
            with pytest.raises(ValueError):
                conditional_trajectories(slow, 2, Preparation.GROUND, rho, t_max, 0.01, stride=stride)
            with pytest.raises(ValueError):
                extract_instrument_oracle(slow, 2, Preparation.GROUND, t_max, 0.01, stride=stride)


class TestConditionalState:
    """How metrics_series turns one unnormalized state M rho into an outcome's record."""

    @staticmethod
    def record(m, rho):
        """The t = 0 record whose g outcome holds apply_superop(m, rho) and whose e outcome is empty."""
        y = apply_superop(m, rho)[None]
        return metrics_series(np.zeros(1), y, np.zeros_like(y), rho)[0]

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
        rec = self.record(sandwich_superop(a, a.conj().T), fock_state(2, 1))
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
