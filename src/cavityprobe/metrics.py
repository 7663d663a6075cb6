"""Information characteristics of the measurement: probability, gain, fidelity.

Entropies are reported in bits by default; pass base=np.e for nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import InvalidStateError, check_density_matrix

__all__ = [
    "P_FLOOR",
    "PositivityError",
    "MetricsRecord",
    "von_neumann_entropy",
    "uhlmann_fidelity",
    "sqrtm_psd",
    "metrics_series",
]

P_FLOOR = 1e-12


class PositivityError(RuntimeError):
    """An outcome probability came out significantly negative."""


def _checked_eig(rho: np.ndarray, vectors: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """(eigenvalues, eigenvectors or None) of a Hermitian PSD matrix, or a (..., d, d) stack, with tolerance policy.

    Negative eigenvalues down to -1e-8 are round-off and are clamped to zero;
    anything below -1e-8, or a non-finite entry (checked first: eigvalsh can
    map a nan to a finite spectrum), is treated as a bug in the caller.
    """
    rho = np.asarray(rho)
    if not np.isfinite(rho).all():
        raise InvalidStateError("matrix has a non-finite entry")
    hermitian = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    vals, vecs = np.linalg.eigh(hermitian) if vectors else (np.linalg.eigvalsh(hermitian), None)
    low = vals.min(initial=np.inf)
    if not low >= -1e-8:
        raise InvalidStateError(f"matrix has eigenvalue {low:.3e} below the error threshold")
    return np.clip(vals, 0.0, None), vecs


def von_neumann_entropy(rho: np.ndarray, base: float = 2.0):
    """Entropy -sum(lam log lam) of a density matrix, with 0 log 0 = 0.

    A (..., d, d) stack gives an array of shape (...).  base must be finite,
    positive and not 1.
    """
    if not (np.isfinite(base) and base > 0 and base != 1):
        raise ValueError(f"log base must be finite, positive and not 1, got {base!r}")
    vals, _ = _checked_eig(rho)
    vals = np.clip(vals, 0.0, 1.0)
    logs = np.log(vals, out=np.zeros_like(vals), where=vals > 0.0)
    entropy = -np.sum(vals * logs, axis=-1) / np.log(base)
    return entropy if entropy.ndim else float(entropy)


def sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix, or of each matrix of a stack, via eigendecomposition."""
    vals, vecs = _checked_eig(rho, vectors=True)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray):
    """Fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)) between density matrices.

    Either argument may be a (..., d, d) stack; the result then has the
    broadcast shape (...).
    """
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape[-2:] != sigma.shape[-2:]:
        raise ValueError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    _checked_eig(sigma)
    return _fidelity(sqrtm_psd(rho), sigma)


def _fidelity(root: np.ndarray, sigma: np.ndarray):
    """Fidelity Tr sqrt(root sigma root) from root = sqrt(rho) and a sigma that _checked_eig has accepted."""
    vals, _ = _checked_eig(root @ sigma @ root)
    # Rank-deficient inputs leave eps-level junk in the spectrum that the
    # square root would amplify to ~1e-8; drop it before rooting.
    vals[vals < vals.max(axis=-1, keepdims=True) * 1e-12] = 0.0
    fid = np.sum(np.sqrt(vals), axis=-1)
    high = fid.max(initial=0.0)
    if high > 1.0 + 1e-9:
        raise InvalidStateError(f"fidelity {high} exceeds one beyond tolerance")
    fid = np.minimum(fid, 1.0)
    return fid if fid.ndim else float(fid)


@dataclass(frozen=True)
class MetricsRecord:
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


def metrics_series(
    times: np.ndarray,
    y_g: np.ndarray,
    y_e: np.ndarray,
    rho_f: np.ndarray,
    base: float = 2.0,
) -> list[MetricsRecord]:
    """Probability, information gain and fidelity at each time for the density matrix rho_f.

    y_g and y_e are the unnormalized conditional states M_g(t) rho_f and
    M_e(t) rho_f at `times`, as returned by conditional_trajectories.
    """
    rho_f = np.asarray(rho_f, dtype=complex)
    check_density_matrix(rho_f)
    # C order first, so the rounding of every later step does not depend on the inputs' strides.
    y = np.ascontiguousarray(np.stack([y_g, y_e], axis=1))
    if y.shape != (len(times), 2, *rho_f.shape):
        raise ValueError(f"y_g and y_e must have shape {(len(times), *rho_f.shape)}, got {np.shape(y_g)}")
    if not np.isfinite(y).all():  # a nan trace would otherwise pass as an undefined outcome
        raise InvalidStateError("conditional states have a non-finite entry")
    p = np.trace(y, axis1=-2, axis2=-1)
    if np.any(np.abs(p.imag) >= 1e-10):
        raise PositivityError(f"outcome probability has imaginary part {np.abs(p.imag).max():.3e}")
    p = p.real
    if np.any(p < -1e-8):
        raise PositivityError(f"outcome probability {p.min():.3e} is significantly negative")
    p = np.where(p < 0.0, 0.0, p)
    # Outcomes at or below the floor stay undefined rather than amplifying noise by normalizing.
    defined = p > P_FLOOR
    y = y[defined]
    states = 0.5 * (y + y.conj().swapaxes(-1, -2)) / p[defined][:, None, None]
    entropy = von_neumann_entropy(states, base)  # also the PSD check of states that _fidelity relies on
    # Each cell list holds a (T, 2) column transposed: its g and then its e values.
    cells = {"p": p.T.tolist(), "defined": defined.T.tolist()}
    for name, values in (("s", entropy), ("i", von_neumann_entropy(rho_f, base) - entropy),
                         ("f", _fidelity(sqrtm_psd(rho_f), states))):
        column = np.full(p.shape, None, dtype=object)
        column[defined] = values
        cells[name] = column.T.tolist()
    return list(map(MetricsRecord, np.asarray(times, dtype=float).tolist(), *cells["p"], *cells["i"],
                    *cells["f"], *cells["s"], *cells["defined"]))
