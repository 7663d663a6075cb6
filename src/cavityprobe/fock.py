"""Truncated Fock-space operators and initial field states."""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = [
    "InvalidStateError",
    "TruncationMode",
    "annihilation_op",
    "quadratic_ops",
    "fock_state",
    "maximally_mixed",
    "check_density_matrix",
]


class InvalidStateError(ValueError):
    """Raised when a matrix fails the density-operator checks."""


class TruncationMode(Enum):
    """How the product a a+ is realized on a finite ladder.

    ALGEBRAIC_CLOSURE replaces a a+ by a+a + 1, so the canonical commutation
    relation holds exactly despite the cutoff and generators built on top of
    it conserve probability sharply.  STRICT keeps the plain product of the
    truncated matrices, which vanishes on the top level.
    """

    ALGEBRAIC_CLOSURE = "algebraic_closure"
    STRICT = "strict"


def _check_dimension(d: int) -> None:
    """The one rule for a truncation d: a positive Python or numpy integer, never a bool."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")


def _check_level(d: int, n: int) -> None:
    """The one rule for a Fock level n of a d-level ladder: an integer, never a bool, with 0 <= n < d."""
    _check_dimension(d)
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 0 <= n < d:
        raise ValueError(f"Fock level n must be an integer with 0 <= n < d={d}, got {n!r}")


def annihilation_op(d: int) -> np.ndarray:
    """Annihilation operator on the levels |0>..|d-1>, a|n> = sqrt(n)|n-1>."""
    _check_dimension(d)
    return np.diag(np.sqrt(np.arange(1, d)), k=1).astype(complex)


def quadratic_ops(
    d: int, mode: TruncationMode = TruncationMode.ALGEBRAIC_CLOSURE
) -> tuple[np.ndarray, np.ndarray]:
    """Return the pair (a+a, a a+) with a a+ realized per truncation mode.

    Both are diagonal with integer entries, so they are built exactly rather
    than through the numerical products (sqrt(n)^2 is not always n in floats).
    """
    _check_dimension(d)
    levels = np.arange(d, dtype=float)
    n_op = np.diag(levels).astype(complex)
    if TruncationMode(mode) is TruncationMode.STRICT:
        aad_op = np.diag(np.concatenate([levels[1:], [0.0]])).astype(complex)
    else:
        aad_op = n_op + np.eye(d, dtype=complex)
    return n_op, aad_op


def fock_state(d: int, n: int) -> np.ndarray:
    """Density matrix |n><n| on a d-level ladder."""
    _check_level(d, n)
    rho = np.zeros((d, d), dtype=complex)
    rho[n, n] = 1.0
    return rho


def maximally_mixed(d: int) -> np.ndarray:
    """Completely mixed state, identity over d."""
    _check_dimension(d)
    return np.eye(d, dtype=complex) / d


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise InvalidStateError unless rho is finite, Hermitian (1e-12), PSD (-1e-10) and of unit trace (1e-12)."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"density matrix must be square, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise InvalidStateError("matrix has non-finite entries")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm >= 1e-12:
        raise InvalidStateError(f"matrix is not Hermitian (max deviation {herm:.3e})")
    diagonal = np.count_nonzero(rho) == np.count_nonzero(rho.diagonal())  # then eigvalsh returns the real diagonal
    low = (rho.diagonal().real if diagonal else np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))).min()
    if low < -1e-10:
        raise InvalidStateError(f"matrix is not positive semidefinite (min eigenvalue {low:.3e})")
    tr_err = abs(np.trace(rho) - 1.0)
    if tr_err >= 1e-12:
        raise InvalidStateError(f"trace differs from one by {tr_err:.3e}")
