"""Information characteristics of the measurement: probability, gain, fidelity.

Entropies are reported in bits by default; pass base=np.e for nats.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fock import InvalidStateError, check_density_matrix
from .instrument import InstrumentBranch, _number

__all__ = [
    "PositivityError",
    "MetricsRecord",
    "von_neumann_entropy",
    "uhlmann_fidelity",
    "sqrtm_psd",
    "metrics_series",
]

_P_FLOOR = 1e-12


class PositivityError(RuntimeError):
    """An outcome probability came out significantly negative."""


def _hermitian(rho: np.ndarray) -> np.ndarray:
    """The Hermitian part of a matrix or a (..., d, d) stack; ValueError for any other shape.

    A non-finite entry is an error, checked first: eigvalsh can map a nan to a finite spectrum."""
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"need a (d, d) matrix or a (..., d, d) stack, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise InvalidStateError("matrix has a non-finite entry")
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def _checked_eig(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues, through _clamped, of a Hermitian PSD matrix or a (..., d, d) stack."""
    return _clamped(np.linalg.eigvalsh(_hermitian(rho)))


def _clamped(vals: np.ndarray) -> np.ndarray:
    """Spectra with round-off negatives down to -1e-8 set to zero; anything lower is a bug in the caller."""
    low = vals.min(initial=np.inf)
    if not low >= -1e-8:
        raise InvalidStateError(f"matrix has eigenvalue {low:.3e} below the error threshold")
    return np.clip(vals, 0.0, None)


def von_neumann_entropy(rho: np.ndarray, base: float = 2.0):
    """Entropy -sum(lam log lam) of a density matrix, with 0 log 0 = 0; a library convenience.

    A (..., d, d) stack gives an array of shape (...).  base must be a real number, not a bool, that is
    finite, positive and not 1.  metrics_series does not call this; it computes the same entropy inline.
    """
    base = _log_base(base)
    return _entropy(_checked_eig(rho), base)


def _log_base(base) -> float:
    """base as a float; ValueError unless it is a real number, not a bool, finite, positive and not 1."""
    base = _number("log base", base)
    if not (np.isfinite(base) and base > 0 and base != 1):
        raise ValueError(f"log base must be finite, positive and not 1, got {base!r}")
    return base


def _entropy(vals: np.ndarray, base: float):
    """-sum(lam log lam) over the last axis of clamped spectra."""
    vals = np.clip(vals, 0.0, 1.0)
    logs = np.log(vals, out=np.zeros_like(vals), where=vals > 0.0)
    entropy = -np.sum(vals * logs, axis=-1) / np.log(base)
    return entropy if entropy.ndim else float(entropy)


def sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix, or of each matrix of a stack, via eigendecomposition."""
    vals, vecs = np.linalg.eigh(_hermitian(rho))
    return (vecs * np.sqrt(_clamped(vals))[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray):
    """Fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)) between density matrices; a library convenience.

    Either argument may be a (..., d, d) stack; the result then has the broadcast shape (...).
    metrics_series does not call this; it computes the same fidelity inline for its stacks.
    """
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    if rho.shape[-2:] != sigma.shape[-2:]:
        raise ValueError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    _checked_eig(sigma)
    root = sqrtm_psd(rho)
    return _root_sum(_checked_eig(root @ sigma @ root))


def _root_sum(vals: np.ndarray):
    """Fidelity sum(sqrt(lam)) from the clamped spectra of root sigma root, capped at one.

    Values below 1e-12 * max are dropped first: the root would amplify the eps-level junk of rank-deficient
    inputs to ~1e-8.  True small values go too, so the sum can be low by up to about d * 1e-6 * sqrt(max)."""
    vals[vals < vals.max(axis=-1, keepdims=True) * 1e-12] = 0.0
    fid = np.sum(np.sqrt(vals), axis=-1)
    high = fid.max(initial=0.0)
    if high > 1.0 + 1e-9:
        raise InvalidStateError(f"fidelity {high} exceeds one beyond tolerance")
    fid = np.minimum(fid, 1.0)
    return fid if fid.ndim else float(fid)


class MetricsRecord(NamedTuple):
    """Per-time-point metrics; fields for an outcome are None when its
    probability sits below the floor and the conditional state is undefined.
    Fields are declared in CSV column order."""

    t: float
    p_g: float
    p_e: float
    i_g: float | None
    i_e: float | None
    f_g: float | None
    f_e: float | None
    s_g: float | None
    s_e: float | None
    defined_g: bool
    defined_e: bool


def metrics_series(branch: InstrumentBranch, rho_f: np.ndarray, base: float = 2.0) -> list[MetricsRecord]:
    """Probability, information gain and fidelity at each time for the density matrix rho_f.

    branch holds the unnormalized conditional states M_g(t) rho_f and
    M_e(t) rho_f, as returned by conditional_trajectories; its states must
    have rho_f's shape.  branch.times must be 1-D and real, checked before
    any state is read.
    """
    base = _log_base(base)
    times = np.asarray(branch.times)
    if times.ndim != 1 or times.dtype.kind not in "iuf":
        raise ValueError(f"times must be a 1-D array of real numbers, got shape {times.shape} and dtype {times.dtype}")
    rho_f = np.asarray(rho_f, dtype=complex)
    if branch.shape != rho_f.shape:
        raise ValueError(f"branch states have shape {branch.shape}, but rho_f has shape {rho_f.shape}")
    check_density_matrix(rho_f)
    if not np.isfinite(branch.entries).all():  # a nan trace would otherwise pass as an undefined outcome
        raise InvalidStateError("conditional states have a non-finite entry")
    # Without coherence (every Fock or mixed input) the branch holds only diagonal slots, and only the (T, 2, d)
    # diagonals are read, in complex as np.trace of the dense states would sum them.
    d = len(rho_f)
    outcome, slot = np.divmod(branch.positions, d * d)
    dense = np.any(slot % (d + 1)) or np.any(rho_f[~np.eye(d, dtype=bool)])
    if dense:
        y = branch.dense
        p = np.trace(y, axis1=-2, axis2=-1)
    else:
        y = np.zeros((len(times), 2, d), dtype=complex)
        y.reshape(len(times), -1)[:, outcome * d + slot // (d + 1)] = branch.entries
        p = y.sum(axis=-1)
    if np.any(np.abs(p.imag) >= 1e-10):
        raise PositivityError(f"outcome probability has imaginary part {np.abs(p.imag).max():.3e}")
    p = p.real
    if np.any(p < -1e-8):
        raise PositivityError(f"outcome probability {p.min():.3e} is significantly negative")
    p = np.where(p < 0.0, 0.0, p)
    # Outcomes at or below the floor stay undefined rather than amplifying noise by normalizing.
    defined = p > _P_FLOOR
    if dense:
        y = y[defined]
        states = 0.5 * (y + y.conj().swapaxes(-1, -2)) / p[defined][:, None, None]
        vals = _checked_eig(states)  # also the PSD check of the states that the products rely on
        initial = _checked_eig(rho_f)
        root = sqrtm_psd(rho_f)
        products = _checked_eig(root @ states @ root)
    else:  # no coherence (every Fock or mixed input): each spectrum is a diagonal, sorted as eigvalsh sorts it
        r, s = _clamped(np.diagonal(rho_f).real), _clamped(y[defined].real / p[defined][:, None])
        vals, initial, products = np.sort(s), np.sort(r), np.sort(r * s)
    entropy = _entropy(vals, base)
    # Each cell list holds a (T, 2) column transposed: its g and then its e values.
    cells = {"p": p.T.tolist(), "defined": defined.T.tolist()}
    for name, values in (("s", entropy), ("i", _entropy(initial, base) - entropy), ("f", _root_sum(products))):
        column = np.full(p.shape, None, dtype=object)
        column[defined] = values
        cells[name] = column.T.tolist()
    return list(map(MetricsRecord, np.asarray(times, dtype=float).tolist(), *cells["p"], *cells["i"],
                    *cells["f"], *cells["s"], *cells["defined"]))
