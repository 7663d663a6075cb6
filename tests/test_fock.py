import numpy as np
import pytest

from cavityprobe.fock import (
    InvalidStateError,
    TruncationMode,
    annihilation_op,
    check_density_matrix,
    fock_state,
    maximally_mixed,
    quadratic_ops,
)


def test_annihilation_small_dims():
    assert np.array_equal(annihilation_op(1), np.zeros((1, 1)))
    a2 = annihilation_op(2)
    expected2 = np.zeros((2, 2))
    expected2[0, 1] = 1.0
    assert np.array_equal(a2, expected2)
    a3 = annihilation_op(3)
    assert a3[0, 1] == 1.0
    assert abs(a3[1, 2] - np.sqrt(2)) < 1e-15
    assert np.count_nonzero(a3) == 2


def test_annihilation_lowers_fock_levels():
    d = 9
    a = annihilation_op(d)
    for n in range(1, d):
        ket = np.zeros(d)
        ket[n] = 1.0
        image = a @ ket
        expected = np.zeros(d)
        expected[n - 1] = np.sqrt(n)
        assert np.allclose(image, expected, atol=0, rtol=0)


@pytest.mark.parametrize("make", [annihilation_op, quadratic_ops, lambda d: fock_state(d, 0), maximally_mixed],
                         ids=["annihilation_op", "quadratic_ops", "fock_state", "maximally_mixed"])
def test_invalid_dimension_rejected(make):
    with pytest.raises(ValueError, match=r"^dimension must be a positive integer, got 0$"):
        make(0)


def test_quadratic_ops_strict_vs_closure():
    n_op, aad = quadratic_ops(2, TruncationMode.STRICT)
    assert np.array_equal(n_op, np.diag([0.0, 1.0]))
    assert np.array_equal(aad, np.diag([1.0, 0.0]))
    _, aad_c = quadratic_ops(2, TruncationMode.ALGEBRAIC_CLOSURE)
    assert np.array_equal(aad_c, np.diag([1.0, 2.0]))
    n1, aad1 = quadratic_ops(1, TruncationMode.ALGEBRAIC_CLOSURE)
    assert np.array_equal(n1, np.zeros((1, 1)))
    assert np.array_equal(aad1, np.ones((1, 1)))


@pytest.mark.parametrize("d", range(1, 13))
def test_closure_commutator_identity_exact(d):
    n_op, aad = quadratic_ops(d, TruncationMode.ALGEBRAIC_CLOSURE)
    assert np.array_equal(aad - n_op, np.eye(d))


def test_fock_state_values():
    assert np.array_equal(fock_state(2, 1), np.diag([0.0, 1.0]))
    rho = fock_state(6, 5)
    assert rho[5, 5] == 1.0
    assert np.count_nonzero(rho) == 1
    with pytest.raises(ValueError):
        fock_state(2, 2)


def test_maximally_mixed_values():
    assert np.array_equal(maximally_mixed(1), np.ones((1, 1)))
    assert np.array_equal(maximally_mixed(2), np.diag([0.5, 0.5]))
    assert np.array_equal(maximally_mixed(4), np.eye(4) / 4)


@pytest.mark.parametrize("rho", [fock_state(5, 3), maximally_mixed(6), fock_state(1, 0)])
def test_states_pass_density_checks(rho):
    check_density_matrix(rho)


def test_density_checks_reject_bad_matrices():
    with pytest.raises(InvalidStateError):
        check_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(InvalidStateError):
        check_density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(InvalidStateError):
        check_density_matrix(np.diag([0.7, 0.7]))
    with pytest.raises(InvalidStateError):
        check_density_matrix(np.ones((2, 3)))


def test_density_check_rejects_nan():
    # every comparison with NaN is false, so only an explicit finiteness check catches it
    with pytest.raises(InvalidStateError, match="non-finite"):
        check_density_matrix(np.array([[np.nan, 0.0], [0.0, np.nan]]))


@pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "dense"])
def test_density_check_reads_the_same_spectrum_with_and_without_coherences(rotated):
    """A diagonal matrix's spectrum is read from its diagonal, a dense one's from eigvalsh, with one threshold:
    an eigenvalue at -2e-10 is refused and one at -5e-11 passes, whether or not the spectrum is rotated."""
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)) + 1j * np.random.default_rng(6).normal(size=(4, 4)))
    for low, refused in ((-2e-10, True), (-5e-11, False)):
        spectrum = np.array([low, 0.25, 0.35, 0.4 - low])
        rho = q @ np.diag(spectrum) @ q.conj().T if rotated else np.diag(spectrum).astype(complex)
        rho = 0.5 * (rho + rho.conj().T)
        assert np.count_nonzero(rho - np.diag(rho.diagonal())) == (16 - 4 if rotated else 0)
        if refused:
            with pytest.raises(InvalidStateError, match=r"not positive semidefinite \(min eigenvalue -2.000e-10\)"):
                check_density_matrix(rho)
        else:
            check_density_matrix(rho)
