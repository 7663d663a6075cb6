import re
from dataclasses import replace

import numpy as np
import pytest

from cavityprobe.fock import InvalidStateError, fock_state, maximally_mixed
from cavityprobe.instrument import ModelParams, Preparation, conditional_trajectories, integrate_instrument
from cavityprobe.metrics import (
    PositivityError,
    metrics_series,
    sqrtm_psd,
    uhlmann_fidelity,
    von_neumann_entropy,
)
from dense_ops import state_branch

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

    @pytest.mark.parametrize("base", [1.0, 0.0, -2.0, np.nan, np.inf, "e", None, 2 + 0j,
                                      pytest.param(10**400, id="10**400")])
    def test_rejects_log_bases_without_a_finite_logarithm(self, base):
        with pytest.raises(ValueError, match="log base"):
            von_neumann_entropy(maximally_mixed(2), base=base)
        branch = conditional_trajectories(STRONG, 2, Preparation.GROUND, maximally_mixed(2), 0.1, 0.01)
        with pytest.raises(ValueError, match="log base"):
            metrics_series(branch, maximally_mixed(2), base=base)

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

    def test_rejects_fidelity_above_one(self):
        # eye(2) has trace 2, so its fidelity with eye(2) / 2 is sqrt(2)
        with pytest.raises(InvalidStateError, match="fidelity 1.414.* exceeds one"):
            uhlmann_fidelity(np.eye(2), np.eye(2) / 2)

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


@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (4, 2, 3)])
@pytest.mark.parametrize("call", [von_neumann_entropy, sqrtm_psd, lambda rho: uhlmann_fidelity(rho, rho)],
                         ids=["entropy", "root", "fidelity"])
def test_non_square_input_names_the_required_shape(call, shape):
    with pytest.raises(ValueError, match=re.escape(f"need a (d, d) matrix or a (..., d, d) stack, got shape {shape}")):
        call(np.ones(shape))


class TestMetricsSeries:
    def test_time_zero_record_ground_prep(self):
        rho = maximally_mixed(3)
        rec = metrics_series(conditional_trajectories(STRONG, 3, Preparation.GROUND, rho, 1.0, 0.01, stride=10), rho)[0]
        assert rec.t == 0.0
        assert rec.p_g == pytest.approx(1.0, abs=1e-10)
        assert rec.i_g == pytest.approx(0.0, abs=1e-10)
        assert rec.f_g == pytest.approx(1.0, abs=1e-10)
        assert rec.p_e == pytest.approx(0.0, abs=1e-12)
        assert rec.defined_e is False
        assert rec.i_e is None and rec.f_e is None and rec.s_e is None

    def test_pure_initial_state_never_gains_information(self):
        rho = fock_state(4, 3)
        records = metrics_series(conditional_trajectories(STRONG, 4, Preparation.GROUND, rho, 5.0, 0.01, stride=25), rho)
        for rec in records:
            for gain in (rec.i_g, rec.i_e):
                if gain is not None:
                    assert gain <= 1e-10

    def test_mixed_initial_state_gain_equals_entropy_drop(self):
        d = 4
        rho = maximally_mixed(d)
        records = metrics_series(conditional_trajectories(STRONG, d, Preparation.GROUND, rho, 3.0, 0.01, stride=30), rho)
        for rec in records:
            for gain, entropy in ((rec.i_g, rec.s_g), (rec.i_e, rec.s_e)):
                if gain is not None:
                    assert abs(gain - (np.log2(d) - entropy)) < 1e-10

    def test_rejects_non_density_input(self):
        # Hermitian part is a valid state, so only the entry check catches it
        branch = conditional_trajectories(STRONG, 2, Preparation.GROUND, maximally_mixed(2), 0.1, 0.01)
        with pytest.raises(InvalidStateError, match="Hermitian"):
            metrics_series(branch, np.array([[0.5, 0.1j], [0.1j, 0.5]]))

    def test_rejects_mismatched_shapes_and_imaginary_trace(self):
        """An imaginary trace is refused on both paths: a branch of block 0's slots and one of all d^2 slots."""
        rho = maximally_mixed(2)
        branch = conditional_trajectories(STRONG, 2, Preparation.GROUND, rho, 0.1, 0.01)
        times, y_g, y_e = branch
        with pytest.raises(ValueError, match=re.escape("branch states have shape (2, 2), but rho_f has shape (3, 3)")):
            metrics_series(state_branch(times, y_g, y_e), maximally_mixed(3))
        y_e[-1] += 1e-6j * np.eye(2)
        shifted = branch.entries + 0j
        shifted[-1, 0, 2:] += 1e-6j  # the e slots of block 0, the diagonal
        for imaginary in (state_branch(times, y_g, y_e), replace(branch, entries=shifted)):
            with pytest.raises(PositivityError, match="imaginary part"):
                metrics_series(imaginary, rho)

    @pytest.mark.parametrize("make, message", [
        (lambda: conditional_trajectories(STRONG, 2, Preparation.GROUND, maximally_mixed(2), 0.1, 0.01),
         "branch states have shape (2, 2), but rho_f has shape (3, 3)"),
        (lambda: integrate_instrument(STRONG, 3, Preparation.GROUND, 0.1, 0.01),
         "branch states have shape (9, 9), but rho_f has shape (3, 3)"),
    ], ids=["state-of-another-d", "maps"])
    def test_rejects_a_branch_whose_states_do_not_match_rho_f(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            metrics_series(make(), maximally_mixed(3))

    @pytest.mark.parametrize("times", [np.zeros((1, 1)), np.array([0j]), np.array([True]), np.array(["0"])],
                             ids=["2-D", "complex", "bool", "str"])
    def test_rejects_times_that_are_not_a_real_vector(self, times):
        """times is checked before any state is read, so a run whose states fit its length is refused too."""
        y = np.ones((1, 1, 1))
        branch = state_branch(times, y, y)
        for bad in (branch, replace(branch, positions=None, entries=None)):
            with pytest.raises(ValueError, match=r"times must be a 1-D array of real numbers, got shape \(1,"):
                metrics_series(bad, np.eye(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "coherence"])
    def test_rejects_non_finite_states(self, bad, entry):
        """A nan trace must not pass as an undefined outcome, nor a nan entry as a finite spectrum."""
        rho = maximally_mixed(2)
        times, y_g, y_e = conditional_trajectories(STRONG, 2, Preparation.GROUND, rho, 0.1, 0.01)
        y_e[-1][entry] = bad
        with pytest.raises(InvalidStateError, match="non-finite"):
            metrics_series(state_branch(times, y_g, y_e), rho)

    def test_probabilities_lie_in_unit_interval(self):
        rho = maximally_mixed(3)
        for rec in metrics_series(conditional_trajectories(STRONG, 3, Preparation.EXCITED, rho, 8.0, 0.01, stride=40), rho):
            assert -1e-12 <= rec.p_g <= 1 + 1e-9
            assert -1e-12 <= rec.p_e <= 1 + 1e-9

    def test_records_do_not_depend_on_input_strides(self):
        """On the diagonal and the dense path alike, entries stored time-innermost give the same records."""
        for rho in (maximally_mixed(4), rand_density(np.random.default_rng(65), 4)):
            branch = conditional_trajectories(STRONG, 4, Preparation.GROUND, rho, 10.0, 0.01, stride=10)
            time_innermost = np.asfortranarray(branch.entries)
            assert time_innermost.strides[0] == time_innermost.itemsize
            assert metrics_series(replace(branch, entries=time_innermost), rho) == metrics_series(branch, rho)

    @staticmethod
    def count_decompositions(monkeypatch):
        """Lists that record the stack size of each call of _checked_eig (no eigenvectors) and of sqrtm_psd (with them)."""
        import cavityprobe.metrics as metrics

        decomposed = []
        with_vectors = []

        def counting(record, decompose):
            def wrapper(rho):
                record.append(int(np.prod(np.shape(rho)[:-2])))
                return decompose(rho)
            return wrapper

        monkeypatch.setattr(metrics, "_checked_eig", counting(decomposed, metrics._checked_eig))
        monkeypatch.setattr(metrics, "sqrtm_psd", counting(with_vectors, metrics.sqrtm_psd))
        return decomposed, with_vectors

    def test_each_conditional_state_is_decomposed_twice(self, monkeypatch):
        """For a state with coherences, entropy and fidelity need one eigendecomposition
        of each state and one of root @ state @ root; the states' PSD check rides on the
        first.  Only the square root of rho_f needs eigenvectors."""
        decomposed, with_vectors = self.count_decompositions(monkeypatch)
        rho = rand_density(np.random.default_rng(64), 3)
        records = metrics_series(conditional_trajectories(STRONG, 3, Preparation.GROUND, rho, 2.0, 0.01, stride=20), rho)
        states = sum(rec.defined_g + rec.defined_e for rec in records)
        # plus one decomposition of rho_f for its entropy and one for its square root
        assert sum(decomposed) + sum(with_vectors) == 2 * states + 2
        assert with_vectors == [1]

    @pytest.mark.parametrize("d, rho", [(3, maximally_mixed(3)), (20, fock_state(20, 2))], ids=["mixed-d3", "fock2-d20"])
    def test_diagonal_states_are_never_decomposed(self, monkeypatch, d, rho):
        """A state without coherences keeps none, so its spectra are read from its diagonals."""
        decomposed, with_vectors = self.count_decompositions(monkeypatch)
        records = metrics_series(conditional_trajectories(STRONG, d, Preparation.GROUND, rho, 2.0, 0.01, stride=20), rho)
        assert any(rec.defined_g for rec in records) and any(rec.defined_e for rec in records)
        assert decomposed == [] and with_vectors == []

    def test_coherent_initial_state_takes_the_dense_path(self, monkeypatch):
        """The path follows the positions, not the values: diagonal slots take the diagonal path unless rho_f has a
        coherence, and a branch that holds the off-diagonal slots takes the dense path even where they are 0."""
        branch = conditional_trajectories(STRONG, 3, Preparation.GROUND, maximally_mixed(3), 1.0, 0.01, stride=50)
        assert np.array_equal(branch.positions, [[0, 4, 8, 9, 13, 17]])  # block 0: o d^2 + i d + i, g then e
        coherent = maximally_mixed(3) + 0.1 * (np.eye(3, k=1) + np.eye(3, k=-1))
        decomposed, with_vectors = self.count_decompositions(monkeypatch)
        for states, rho, dense in ((branch, coherent, True), (state_branch(*branch), maximally_mixed(3), True),
                                   (branch, maximally_mixed(3), False)):
            decomposed.clear()
            with_vectors.clear()
            metrics_series(states, rho)
            assert with_vectors == ([1] if dense else []) and bool(decomposed) == dense

    def test_diagonal_path_sums_probabilities_as_the_trace_does(self):
        """Only block 0's entries are read, in complex, and their sums round as np.trace of the dense states
        (d >= 8 sums pairwise).  The run is real, so a float64 sum would round differently."""
        rho = maximally_mixed(20)
        branch = conditional_trajectories(STRONG, 20, Preparation.EXCITED, rho, 2.0, 0.01, stride=20)
        assert branch.entries.shape == (len(branch.times), 1, 40) and branch.entries.dtype == np.float64
        records = metrics_series(branch, rho)
        assert "dense" not in vars(branch)
        assert [rec.p_g for rec in records] == np.trace(branch.m_g, axis1=1, axis2=2).real.tolist()
        assert [rec.p_e for rec in records] == np.trace(branch.m_e, axis1=1, axis2=2).real.tolist()

    def test_diagonal_path_rejects_negative_populations_as_the_dense_path_does(self, monkeypatch):
        """A population below -1e-8 p gives the dense path's eigenvalue message, with no decomposition."""
        y_g = np.diag([0.5 + 1e-6, -1e-6, 0.0]).astype(complex)[None]  # p_g = 0.5, so the state has -2e-6
        full = state_branch([0.0], y_g, np.zeros_like(y_g))
        with pytest.raises(InvalidStateError, match="eigenvalue -2.000e-06 below") as dense:
            metrics_series(full, maximally_mixed(3))
        on_diagonal = np.isin(full.positions % 9, (0, 4, 8))
        diagonal = replace(full, positions=full.positions[on_diagonal], entries=full.entries[:, on_diagonal])
        decomposed, with_vectors = self.count_decompositions(monkeypatch)
        with pytest.raises(InvalidStateError) as raised:
            metrics_series(diagonal, maximally_mixed(3))
        assert str(raised.value) == str(dense.value)
        assert decomposed == [] and with_vectors == []
