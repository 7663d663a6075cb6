"""Tests of the dense reference helpers in dense_ops.py: vec, unvec, apply_superop, choi_matrix, _sandwich_superop.

The file keeps the name of the superop module those helpers came from, so that its test IDs stay as recorded.
"""

import numpy as np
import pytest

from cavityprobe.fock import TruncationMode, annihilation_op, fock_state, maximally_mixed, quadratic_ops
from dense_ops import _sandwich_superop, apply_superop, choi_matrix, unvec, vec


def rand_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_vec_is_column_stacking():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(x), [1.0, 3.0, 2.0, 4.0])
    assert np.array_equal(unvec(vec(x)), x)


def test_unvec_rejects_non_square_lengths():
    with pytest.raises(ValueError):
        unvec(np.zeros(5))
    with pytest.raises(ValueError):
        unvec(np.zeros((3, 5)))


def test_unvec_of_a_stack_is_the_stack_of_unvecs():
    rng = np.random.default_rng(8)
    d = 3
    stack = rng.normal(size=(3, d * d)) + 1j * rng.normal(size=(3, d * d))
    assert np.array_equal(unvec(stack), np.stack([unvec(v) for v in stack]))


def test_identity_sandwich_is_identity_matrix():
    eye = np.eye(2, dtype=complex)
    assert np.array_equal(_sandwich_superop(eye, eye), np.eye(4))


def test_sandwich_ladder_actions_d2():
    a = annihilation_op(2)
    adag = a.conj().T
    one = fock_state(2, 1)
    down = apply_superop(_sandwich_superop(a, adag), one)
    assert np.allclose(down, fock_state(2, 0), atol=1e-15)
    up = apply_superop(_sandwich_superop(adag, a), one)
    assert np.allclose(up, np.zeros((2, 2)), atol=1e-15)


def test_sandwich_dimension_mismatch():
    with pytest.raises(ValueError):
        _sandwich_superop(np.eye(2), np.eye(3))


def test_apply_identity_and_zero():
    rng = np.random.default_rng(3)
    x = rand_matrix(rng, 4)
    assert np.allclose(apply_superop(np.eye(16), x), x, atol=0)
    assert np.array_equal(apply_superop(np.zeros((16, 16)), x), np.zeros((4, 4)))


def test_apply_sandwich_on_mixed_state():
    a = annihilation_op(2)
    result = apply_superop(_sandwich_superop(a, a.conj().T), maximally_mixed(2))
    assert np.allclose(result, 0.5 * fock_state(2, 0), atol=1e-16)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_sandwich_representation_faithful(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(5):
        a, b, x = (rand_matrix(rng, d) for _ in range(3))
        direct = a @ x @ b
        via_superop = apply_superop(_sandwich_superop(a, b), x)
        assert np.max(np.abs(direct - via_superop)) < 1e-12


def test_apply_is_linear():
    rng = np.random.default_rng(17)
    d = 5
    s = rand_matrix(rng, d * d)
    x, y = rand_matrix(rng, d), rand_matrix(rng, d)
    al, be = 0.7 - 0.2j, -1.3 + 0.5j
    lhs = apply_superop(s, al * x + be * y)
    rhs = al * apply_superop(s, x) + be * apply_superop(s, y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def ladder_superops(d):
    """K0 X = (a+a X + X a a+)/2 with a a+ = a+a + 1, K+ X = a+ X a, K- X = a X a+, and N X = [a+a, X]."""
    a = annihilation_op(d)
    n_op, aad_op = quadratic_ops(d, TruncationMode.ALGEBRAIC_CLOSURE)
    eye = np.eye(d, dtype=complex)
    k0 = 0.5 * (_sandwich_superop(n_op, eye) + _sandwich_superop(eye, aad_op))
    n_comm = _sandwich_superop(n_op, eye) - _sandwich_superop(eye, n_op)
    return k0, _sandwich_superop(a.conj().T, a), _sandwich_superop(a, a.conj().T), n_comm


def test_su11_pointwise_actions():
    k0, kplus, kminus, n_comm = ladder_superops(2)
    vac = fock_state(2, 0)
    assert np.allclose(apply_superop(k0, vac), 0.5 * vac, atol=1e-15)
    assert np.allclose(apply_superop(kminus, fock_state(2, 1)), vac, atol=1e-15)
    for d in (2, 4, 5):
        _, _, _, n_comm = ladder_superops(d)
        rng = np.random.default_rng(d)
        diag = np.diag(rng.normal(size=d)).astype(complex)
        assert np.max(np.abs(apply_superop(n_comm, diag))) < 1e-15


@pytest.mark.parametrize("d", [4, 6])
def test_su11_commutation_on_interior_support(d):
    """[K+, K-] = -2 K0' and [K0', K+] = K+ on operands clear of the cutoff,
    where K0' X = (nX + Xn)/2 + X/2."""
    k0_prime = None
    k0, kplus, kminus, _ = ladder_superops(d)
    n_op, _ = quadratic_ops(d)
    eye = np.eye(d, dtype=complex)
    k0_prime = 0.5 * (_sandwich_superop(n_op, eye) + _sandwich_superop(eye, n_op)) + 0.5 * np.eye(d * d)

    rng = np.random.default_rng(d * 11)
    x = np.zeros((d, d), dtype=complex)
    interior = d - 2
    x[:interior, :interior] = rng.normal(size=(interior, interior)) + 1j * rng.normal(size=(interior, interior))

    comm_pm = kplus @ kminus - kminus @ kplus
    assert np.max(np.abs(apply_superop(comm_pm, x) - apply_superop(-2 * k0_prime, x))) < 1e-12
    comm_0p = k0_prime @ kplus - kplus @ k0_prime
    assert np.max(np.abs(apply_superop(comm_0p, x) - apply_superop(kplus, x))) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_trace_identities(d):
    a = annihilation_op(d)
    adag = a.conj().T
    k0, kplus, kminus, n_comm = ladder_superops(d)
    rng = np.random.default_rng(40 + d)
    for _ in range(4):
        y = rand_matrix(rng, d)
        assert abs(np.trace(apply_superop(kminus, y)) - np.trace(y @ adag @ a)) < 1e-12
        assert abs(np.trace(apply_superop(kplus, y)) - np.trace(y @ a @ adag)) < 1e-12
        assert abs(np.trace(apply_superop(n_comm, y))) < 1e-12


def test_choi_of_identity_map():
    c = choi_matrix(np.eye(4))
    eigs = np.sort(np.linalg.eigvalsh(c))
    assert np.allclose(eigs, [0.0, 0.0, 0.0, 2.0], atol=1e-14)


def test_choi_of_single_kraus_map_is_rank_one_psd():
    a = annihilation_op(2)
    c = choi_matrix(_sandwich_superop(a, a.conj().T))
    eigs = np.sort(np.linalg.eigvalsh(0.5 * (c + c.conj().T)))
    assert eigs[0] > -1e-12
    assert np.sum(eigs > 1e-12) == 1


def test_choi_detects_transpose_map_not_cp():
    d = 2
    s = np.zeros((d * d, d * d), dtype=complex)
    for m in range(d):
        for n in range(d):
            s[m * d + n, n * d + m] = 1.0  # maps |m><n| to |n><m|
    x = np.array([[1.0, 2.0 + 1j], [0.5j, -1.0]])
    assert np.allclose(apply_superop(s, x), x.T, atol=0)
    eigs = np.linalg.eigvalsh(choi_matrix(s))
    assert abs(eigs.min() + 1.0) < 1e-14


@pytest.mark.parametrize("d", [2, 4])
def test_choi_of_kraus_sums_and_compositions_psd(d):
    rng = np.random.default_rng(900 + d)
    maps = []
    for _ in range(2):
        s = np.zeros((d * d, d * d), dtype=complex)
        for _ in range(3):
            kraus = rand_matrix(rng, d)
            s += _sandwich_superop(kraus, kraus.conj().T)
        maps.append(s)
    for s in (maps[0], maps[1], maps[1] @ maps[0]):
        low = np.linalg.eigvalsh(choi_matrix(s)).min()
        assert low > -1e-10
