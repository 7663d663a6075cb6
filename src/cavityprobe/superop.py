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

__all__ = [
    "vec",
    "unvec",
    "superop_dim",
    "identity_superop",
    "sandwich_superop",
    "apply_superop",
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


def choi_matrix(s: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) S(|i><j|) of a superoperator.

    The map is completely positive iff the result is positive semidefinite.
    """
    d = superop_dim(s)
    return np.asarray(s).reshape(d, d, d, d).swapaxes(0, 3).reshape(d * d, d * d)
