"""Information characteristics of the measurement: probability, gain, fidelity.

Entropies are reported in bits by default; pass base=np.e for nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import InvalidStateError, check_density_matrix
from .instrument import InstrumentBranch, conditional_state

__all__ = [
    "MetricsRecord",
    "von_neumann_entropy",
    "info_gain",
    "uhlmann_fidelity",
    "sqrtm_psd",
    "metrics_series",
]

_EIG_ERROR = -1e-8


def _checked_eigh(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian PSD matrix with tolerance policy.

    Negative eigenvalues down to -1e-8 are round-off and are clamped to zero;
    anything below -1e-8 is treated as a bug in the caller, not as data.
    """
    rho = np.asarray(rho)
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    low = vals.min()
    if low < _EIG_ERROR:
        raise InvalidStateError(f"matrix has eigenvalue {low:.3e} below the error threshold")
    return np.clip(vals, 0.0, None), vecs


def von_neumann_entropy(rho: np.ndarray, base: float = 2.0) -> float:
    """Entropy -sum(lam log lam) of a density matrix, with 0 log 0 = 0."""
    vals, _ = _checked_eigh(rho)
    vals = np.clip(vals, 0.0, 1.0)
    nz = vals[vals > 0.0]
    return float(-np.sum(nz * np.log(nz)) / np.log(base))


def info_gain(rho_before: np.ndarray, rho_after: np.ndarray, base: float = 2.0) -> float:
    """Entropy of the input minus entropy of the output (positive = sharpening)."""
    return von_neumann_entropy(rho_before, base) - von_neumann_entropy(rho_after, base)


def sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix via eigendecomposition."""
    vals, vecs = _checked_eigh(rho)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)) between density matrices."""
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    _checked_eigh(sigma)
    root = sqrtm_psd(rho)
    inner = root @ sigma @ root
    vals, _ = _checked_eigh(inner)
    # Rank-deficient inputs leave eps-level junk in the spectrum that the
    # square root would amplify to ~1e-8; drop it before rooting.
    vals[vals < vals.max() * 1e-12] = 0.0
    fid = float(np.sum(np.sqrt(vals)))
    if fid > 1.0 + 1e-9:
        raise InvalidStateError(f"fidelity {fid} exceeds one beyond tolerance")
    return min(fid, 1.0)


@dataclass(frozen=True)
class MetricsRecord:
    """Per-time-point metrics; fields for an outcome are None when its
    probability sits below the floor and the conditional state is undefined."""

    t: float
    p_g: float
    p_e: float
    defined_g: bool
    defined_e: bool
    i_g: float | None
    i_e: float | None
    f_g: float | None
    f_e: float | None
    s_g: float | None
    s_e: float | None


def metrics_series(
    branch: InstrumentBranch,
    rho_f: np.ndarray,
    base: float = 2.0,
) -> list[MetricsRecord]:
    """Probability, information gain and fidelity along a branch for the density matrix rho_f."""
    rho_f = np.asarray(rho_f, dtype=complex)
    check_density_matrix(rho_f)
    s_initial = von_neumann_entropy(rho_f, base)
    records = []
    for k, t in enumerate(branch.times):
        values: dict[str, float | bool | None] = {}
        for label, maps in (("g", branch.m_g), ("e", branch.m_e)):
            rho_r, p_r = conditional_state(maps[k], rho_f)
            values[f"p_{label}"] = p_r
            if rho_r is None:
                values[f"defined_{label}"] = False
                values[f"i_{label}"] = None
                values[f"f_{label}"] = None
                values[f"s_{label}"] = None
            else:
                s_r = von_neumann_entropy(rho_r, base)
                values[f"defined_{label}"] = True
                values[f"s_{label}"] = s_r
                values[f"i_{label}"] = s_initial - s_r
                values[f"f_{label}"] = uhlmann_fidelity(rho_f, rho_r)
        records.append(MetricsRecord(t=float(t), **values))
    return records
