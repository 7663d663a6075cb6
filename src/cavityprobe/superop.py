"""Dense superoperators on column-stacked operators.

A linear map S acting on d-dimensional operators is stored as a d^2 x d^2
complex matrix in the column-stacking convention: vec(X) stacks the columns
of X, so the map X -> A X B has matrix kron(B.T, A).  The convention is
fixed package-wide, which makes superoperator algebra (sums, scalar
multiples, composition) ordinary matrix arithmetic on these arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import TruncationMode, annihilation_op, quadratic_ops

__all__ = [
    "vec",
    "unvec",
    "superop_dim",
    "identity_superop",
    "sandwich_superop",
    "apply_superop",
    "su11_generators",
    "choi_matrix",
]


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
    v = np.asarray(v)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a stacked square matrix")
    return v.reshape((d, d), order="F")


def superop_dim(s: np.ndarray) -> int:
    """Operator dimension d of a d^2 x d^2 superoperator matrix."""
    s = np.asarray(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"superoperator must be a square matrix, got shape {s.shape}")
    d = math.isqrt(s.shape[0])
    if d * d != s.shape[0]:
        raise ValueError(f"superoperator size {s.shape[0]} is not a perfect square")
    return d


def identity_superop(d: int) -> np.ndarray:
    return np.eye(d * d, dtype=complex)


def sandwich_superop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of the map X -> A X B."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError(f"operands must be square and equal-sized, got {a.shape} and {b.shape}")
    return np.kron(b.T, a)


def apply_superop(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply a superoperator to an operator."""
    d = superop_dim(s)
    x = np.asarray(x)
    if x.shape != (d, d):
        raise ValueError(f"operand shape {x.shape} does not match superoperator dimension {d}")
    return unvec(s @ vec(x))


def su11_generators(
    d: int, mode: TruncationMode = TruncationMode.ALGEBRAIC_CLOSURE
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """SU(1,1) generator superoperators (K0, K+, K-, N) on a d-level ladder.

    K0 X = (a+a X + X a a+)/2, K+ X = a+ X a, K- X = a X a+, and
    N X = [a+a, X], with a a+ realized per the truncation mode.
    """
    a = annihilation_op(d)
    adag = a.conj().T
    n_op, aad_op = quadratic_ops(d, mode)
    eye = np.eye(d, dtype=complex)
    k0 = 0.5 * (sandwich_superop(n_op, eye) + sandwich_superop(eye, aad_op))
    kplus = sandwich_superop(adag, a)
    kminus = sandwich_superop(a, adag)
    n_comm = sandwich_superop(n_op, eye) - sandwich_superop(eye, n_op)
    return k0, kplus, kminus, n_comm


def choi_matrix(s: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) S(|i><j|) of a superoperator.

    The map is completely positive iff the result is positive semidefinite.
    """
    d = superop_dim(s)
    return np.asarray(s).reshape(d, d, d, d).swapaxes(0, 3).reshape(d * d, d * d)
