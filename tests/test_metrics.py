import numpy as np
import pytest

from cavityprobe.fock import InvalidStateError, fock_state, maximally_mixed
from cavityprobe.instrument import ModelParams, Preparation, conditional_trajectories
from cavityprobe.metrics import (
    metrics_series,
    sqrtm_psd,
    uhlmann_fidelity,
    von_neumann_entropy,
)

STRONG = ModelParams(omega=0.7, delta=0.5, gamma_big=2.0, gamma_ge=0.1, gamma_eg=1.0)


def rand_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def pure_state(vecs):
    v = np.asarray(vecs, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


class TestEntropy:
    def test_pure_states_have_zero_entropy(self):
        for d, n in ((2, 0), (5, 3)):
            assert von_neumann_entropy(fock_state(d, n)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d, expected", [(2, 1.0), (4, 2.0), (8, 3.0)])
    def test_mixed_state_entropy_in_bits(self, d, expected):
        assert von_neumann_entropy(maximally_mixed(d)) == pytest.approx(expected, abs=1e-12)

    def test_natural_log_base(self):
        assert von_neumann_entropy(maximally_mixed(2), base=np.e) == pytest.approx(np.log(2), abs=1e-12)

    @pytest.mark.parametrize("base", [1.0, 0.0, -2.0, np.nan, np.inf])
    def test_rejects_log_bases_without_a_finite_logarithm(self, base):
        with pytest.raises(ValueError, match="log base"):
            von_neumann_entropy(maximally_mixed(2), base=base)
        times, y_g, y_e = conditional_trajectories(STRONG, 2, Preparation.GROUND, maximally_mixed(2), 0.1, 0.01)
        with pytest.raises(ValueError, match="log base"):
            metrics_series(times, y_g, y_e, maximally_mixed(2), base=base)

    def test_entropy_bounds_on_random_states(self):
        rng = np.random.default_rng(50)
        for d in (2, 3, 6):
            s = von_neumann_entropy(rand_density(rng, d))
            assert -1e-10 <= s <= np.log2(d) + 1e-10

    def test_rejects_deeply_negative_eigenvalues(self):
        with pytest.raises(InvalidStateError):
            von_neumann_entropy(np.diag([1.1, -0.1]))

    def test_rejects_nan_eigenvalues(self):
        with pytest.raises(InvalidStateError):
            von_neumann_entropy(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_clamps_roundoff_negatives(self):
        rho = np.diag([1.0, -5e-11])
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-8)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(60)
        for d in (2, 4):
            rho = rand_density(rng, d)
            assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pure_states(self):
        assert uhlmann_fidelity(fock_state(2, 0), fock_state(2, 1)) == pytest.approx(0.0, abs=1e-9)

    def test_mixed_versus_pure_value(self):
        got = uhlmann_fidelity(maximally_mixed(2), fock_state(2, 0))
        assert got == pytest.approx(1.0 / np.sqrt(2), abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(61)
        for d in (2, 3, 5):
            rho, sigma = rand_density(rng, d), rand_density(rng, d)
            assert abs(uhlmann_fidelity(rho, sigma) - uhlmann_fidelity(sigma, rho)) < 1e-9

    def test_pure_state_shortcut(self):
        rng = np.random.default_rng(62)
        d = 4
        for _ in range(5):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi = pure_state(v)
            sigma = rand_density(rng, d)
            shortcut = np.sqrt((v.conj() / np.linalg.norm(v)) @ sigma @ (v / np.linalg.norm(v))).real
            assert abs(uhlmann_fidelity(psi, sigma) - shortcut) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            uhlmann_fidelity(maximally_mixed(2), maximally_mixed(3))

    def test_rejects_non_psd_input(self):
        with pytest.raises(InvalidStateError):
            uhlmann_fidelity(np.diag([1.2, -0.2]), maximally_mixed(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("side", ["rho", "sigma"])
    def test_rejects_non_finite_input(self, bad, entry, side):
        """eigvalsh turns [[nan, 0], [0, 1]] into [0, -0], so the entries are checked first."""
        broken = maximally_mixed(2)
        broken[entry] = bad
        args = (broken, maximally_mixed(2)) if side == "rho" else (maximally_mixed(2), broken)
        with pytest.raises(InvalidStateError, match="non-finite"):
            uhlmann_fidelity(*args)


class TestMatrixRoot:
    def test_square_of_root_recovers_matrix(self):
        rng = np.random.default_rng(63)
        for d in (2, 3, 6):
            rho = rand_density(rng, d)
            root = sqrtm_psd(rho)
            assert np.max(np.abs(root @ root - rho)) < 1e-10
            assert np.max(np.abs(root - root.conj().T)) < 1e-12


class TestMetricsSeries:
    def test_time_zero_record_ground_prep(self):
        rho = maximally_mixed(3)
        rec = metrics_series(*conditional_trajectories(STRONG, 3, Preparation.GROUND, rho, 1.0, 0.01, stride=10), rho)[0]
        assert rec.t == 0.0
        assert rec.p_g == pytest.approx(1.0, abs=1e-10)
        assert rec.i_g == pytest.approx(0.0, abs=1e-10)
        assert rec.f_g == pytest.approx(1.0, abs=1e-10)
        assert rec.p_e == pytest.approx(0.0, abs=1e-12)
        assert rec.defined_e is False
        assert rec.i_e is None and rec.f_e is None and rec.s_e is None

    def test_pure_initial_state_never_gains_information(self):
        rho = fock_state(4, 3)
        records = metrics_series(*conditional_trajectories(STRONG, 4, Preparation.GROUND, rho, 5.0, 0.01, stride=25), rho)
        for rec in records:
            for gain in (rec.i_g, rec.i_e):
                if gain is not None:
                    assert gain <= 1e-10

    def test_mixed_initial_state_gain_equals_entropy_drop(self):
        d = 4
        rho = maximally_mixed(d)
        records = metrics_series(*conditional_trajectories(STRONG, d, Preparation.GROUND, rho, 3.0, 0.01, stride=30), rho)
        for rec in records:
            for gain, entropy in ((rec.i_g, rec.s_g), (rec.i_e, rec.s_e)):
                if gain is not None:
                    assert abs(gain - (np.log2(d) - entropy)) < 1e-10

    def test_rejects_non_density_input(self):
        # Hermitian part is a valid state, so only the entry check catches it
        trajectories = conditional_trajectories(STRONG, 2, Preparation.GROUND, maximally_mixed(2), 0.1, 0.01)
        with pytest.raises(InvalidStateError, match="Hermitian"):
            metrics_series(*trajectories, np.array([[0.5, 0.1j], [0.1j, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "coherence"])
    def test_rejects_non_finite_states(self, bad, entry):
        """A nan trace must not pass as an undefined outcome, nor a nan entry as a finite spectrum."""
        rho = maximally_mixed(2)
        times, y_g, y_e = conditional_trajectories(STRONG, 2, Preparation.GROUND, rho, 0.1, 0.01)
        y_e[-1][entry] = bad
        with pytest.raises(InvalidStateError, match="non-finite"):
            metrics_series(times, y_g, y_e, rho)

    def test_probabilities_lie_in_unit_interval(self):
        rho = maximally_mixed(3)
        for rec in metrics_series(*conditional_trajectories(STRONG, 3, Preparation.EXCITED, rho, 8.0, 0.01, stride=40), rho):
            assert -1e-12 <= rec.p_g <= 1 + 1e-9
            assert -1e-12 <= rec.p_e <= 1 + 1e-9

    def test_records_do_not_depend_on_input_strides(self):
        rho = maximally_mixed(4)
        times, y_g, y_e = conditional_trajectories(STRONG, 4, Preparation.GROUND, rho, 10.0, 0.01, stride=10)

        def time_innermost(y):
            out = np.moveaxis(np.ascontiguousarray(np.moveaxis(y, 0, -1)), -1, 0)
            assert np.array_equal(out, y) and out.strides[0] == out.itemsize
            return out

        assert metrics_series(times, time_innermost(y_g), time_innermost(y_e), rho) == \
            metrics_series(times, y_g, y_e, rho)

    def test_each_conditional_state_is_decomposed_twice(self, monkeypatch):
        """Entropy and fidelity need one eigendecomposition of each state and one of
        root @ state @ root; the states' PSD check rides on the first.  Only the
        square root of rho_f needs eigenvectors."""
        import cavityprobe.metrics as metrics

        decomposed = []
        with_vectors = []
        checked_eig = metrics._checked_eig

        def counting(rho, vectors=False):
            size = int(np.prod(np.shape(rho)[:-2]))
            (with_vectors if vectors else decomposed).append(size)
            return checked_eig(rho, vectors)

        monkeypatch.setattr(metrics, "_checked_eig", counting)
        rho = maximally_mixed(3)
        records = metrics_series(*conditional_trajectories(STRONG, 3, Preparation.GROUND, rho, 2.0, 0.01, stride=20), rho)
        states = sum(rec.defined_g + rec.defined_e for rec in records)
        # plus one decomposition of rho_f for its entropy and one for its square root
        assert sum(decomposed) + sum(with_vectors) == 2 * states + 2
        assert with_vectors == [1]
