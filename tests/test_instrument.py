import numpy as np
import pytest

from cavityprobe.fock import InvalidStateError, TruncationMode, fock_state, maximally_mixed
from cavityprobe.instrument import (
    DivergenceError,
    ModelParams,
    PositivityError,
    Preparation,
    build_block_generator,
    conditional_trajectories,
    integrate_instrument,
)
from cavityprobe.metrics import metrics_series
from cavityprobe.superop import apply_superop, choi_matrix, identity_superop, sandwich_superop, vec
from cavityprobe.fock import annihilation_op

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
        g_gg, g_ge, g_eg, g_ee = build_block_generator(p, 1)
        assert np.all(g_gg == 0)
        assert np.all(g_eg == 0)
        # excited branch decays and only the atomic channel flows back
        assert abs(g_ge[0, 0] - p.gamma_eg) < 1e-15
        assert abs(g_ee[0, 0] + (p.field_rate + p.gamma_eg)) < 1e-15

    def test_blocks_real_on_diagonal_operands(self):
        rng = np.random.default_rng(5)
        d = 5
        blocks = build_block_generator(STRONG, d)
        diag = np.diag(rng.uniform(size=d)).astype(complex)
        for block in blocks:
            image = apply_superop(block, diag)
            assert np.max(np.abs(image.imag)) < 1e-15
            assert np.max(np.abs(image - np.diag(np.diag(image)))) < 1e-15

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            build_block_generator(STRONG, 0)


class TestIntegration:
    def test_initial_condition_is_exact(self):
        for prep, first, other in (
            (Preparation.GROUND, "m_g", "m_e"),
            (Preparation.EXCITED, "m_e", "m_g"),
        ):
            branch = integrate_instrument(STRONG, 3, prep, 0.1, 0.01)
            assert np.array_equal(getattr(branch, first)[0], identity_superop(3))
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

    def test_final_step_always_sampled(self):
        branch = integrate_instrument(STRONG, 2, Preparation.GROUND, 0.25, 0.01, stride=10)
        assert branch.times[-1] == pytest.approx(0.25)
        assert len(branch.times) == 4  # t = 0, 0.1, 0.2, 0.25

    def test_divergence_raises_with_time(self):
        p = ModelParams(omega=0.7, delta=0.5, gamma_big=2.0, gamma_ge=0.1, gamma_eg=1.0)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            integrate_instrument(p, 6, Preparation.GROUND, 4000.0, 2.0, stride=100)
        assert err.value.t > 0

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


class TestConditionalState:
    """How metrics_series turns one unnormalized state M rho into an outcome's record."""

    @staticmethod
    def record(m, rho):
        """The t = 0 record whose g outcome holds apply_superop(m, rho) and whose e outcome is empty."""
        y = apply_superop(m, rho)[None]
        return metrics_series(np.zeros(1), y, np.zeros_like(y), rho)[0]

    def test_identity_map_returns_input(self):
        rec = self.record(identity_superop(3), maximally_mixed(3))
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
            self.record(-identity_superop(2), maximally_mixed(2))

    def test_result_is_rehermitized(self):
        skew = np.array([[0.0, 1e-12 + 2e-12j], [-1e-12 + 2e-12j, 0.0]])
        target = maximally_mixed(2) + skew  # traceless skew part, real trace
        rec = self.record(np.outer(vec(target), vec(np.eye(2))), maximally_mixed(2))
        assert rec.p_g == pytest.approx(1.0, abs=1e-14)
        assert rec.s_g == pytest.approx(1.0, abs=1e-11)
        assert rec.f_g == pytest.approx(1.0, abs=1e-11)
