"""Outcome-resolved measurement maps for the dissipatively probed field mode.

The pointer is a two-level atom that exchanges excitation with the field
while it relaxes and dephases.  Once the fast atomic coherences are slaved
to the populations (decoherence rate much larger than the coupling), the two
outcome-resolved maps M_g, M_e on the field obey the linear block system

    d/dt M_g = G_gg . M_g + G_ge . M_e
    d/dt M_e = G_eg . M_g + G_ee . M_e

with superoperator composition on the right.  Both pointer preparations
evolve under the same blocks; only the initial pair differs, (Id, 0) for a
ground-state pointer and (0, Id) for an excited one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import TruncationMode, annihilation_op, check_density_matrix, quadratic_ops
from .superop import identity_superop, sandwich_superop, vec

__all__ = [
    "DivergenceError",
    "PositivityError",
    "Preparation",
    "ModelParams",
    "InstrumentBranch",
    "P_FLOOR",
    "build_block_generator",
    "integrate_instrument",
    "conditional_trajectories",
]

P_FLOOR = 1e-12


class DivergenceError(RuntimeError):
    """Integration produced non-finite values or lost the conserved trace."""

    def __init__(self, t: float, detail: str = "non-finite values"):
        self.t = t
        super().__init__(f"integration diverged at t={t:.6g}: {detail}")


class PositivityError(RuntimeError):
    """An outcome probability came out significantly negative."""


class Preparation(Enum):
    GROUND = "ground"
    EXCITED = "excited"


@dataclass(frozen=True)
class ModelParams:
    """Physical rates of the atom-field model.

    omega is the coupling strength, delta the detuning, gamma_big the atomic
    decoherence rate and gamma_ge / gamma_eg the upward / downward population
    relaxation rates.  gamma_big may not fall below (gamma_ge + gamma_eg) / 2,
    the decoherence floor set by population relaxation alone.
    """

    omega: float
    delta: float
    gamma_big: float
    gamma_ge: float
    gamma_eg: float

    def __post_init__(self):
        for name in ("omega", "gamma_big", "gamma_ge", "gamma_eg"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be a finite nonnegative rate, got {value}")
        if not np.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        if self.gamma_big < 0.5 * (self.gamma_ge + self.gamma_eg):
            raise ValueError(
                "gamma_big must be at least (gamma_ge + gamma_eg)/2, got "
                f"{self.gamma_big} < {0.5 * (self.gamma_ge + self.gamma_eg)}"
            )
        try:
            finite = np.isfinite(self.kappa)
        except ArithmeticError:  # the denominator underflows to 0 or a square overflows
            finite = False
        if not finite:
            raise ValueError(f"kappa = omega**2 / (gamma_big**2 + delta**2) is not finite for omega={self.omega}, "
                             f"gamma_big={self.gamma_big}, delta={self.delta}")

    @property
    def kappa(self) -> float:
        """Dimensionless saturation parameter |omega|^2 / (gamma_big^2 + delta^2)."""
        return self.omega**2 / (self.gamma_big**2 + self.delta**2)

    @property
    def alpha(self) -> float:
        """kappa * gamma_big, the conventional rate combination."""
        return self.kappa * self.gamma_big

    @property
    def field_rate(self) -> float:
        """Rate of the slaved field channel, 2 * kappa * gamma_big.

        This is the coefficient the block generator actually carries on the
        ladder sandwiches; eliminating the atomic coherence against a decay
        rate gamma_big leaves 2 |omega|^2 gamma_big / (gamma_big^2 + delta^2)
        on the jump terms, twice the alpha combination.
        """
        return 2.0 * self.kappa * self.gamma_big


@dataclass(frozen=True)
class InstrumentBranch:
    """Time series of the outcome maps for one pointer preparation.

    m_g[k] and m_e[k] are the d^2 x d^2 superoperator matrices taking the
    initial field state to the unnormalized conditional state for ground /
    excited readout at times[k].
    """

    prep: Preparation
    times: np.ndarray
    m_g: np.ndarray
    m_e: np.ndarray


def build_block_generator(
    p: ModelParams, d: int, mode: TruncationMode = TruncationMode.ALGEBRAIC_CLOSURE
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Blocks (G_gg, G_ge, G_eg, G_ee) of the outcome-resolved generator.

    With r = 2 * kappa * gamma_big, the ladder sandwiches K+ X = a+ X a and
    K- X = a X a+, and the number commutator N X = [a+a, X]:

        G_gg = -(r {a+a, .}/2 - i kappa delta N + gamma_ge Id)     G_ge = r K+ + gamma_eg Id
        G_eg = r K- + gamma_ge Id       G_ee = -(r {a a+, .}/2 + i kappa delta N + gamma_eg Id)

    with a a+ realized per the truncation mode.  Each branch loses what its
    jump term hands to the other, Tr(a X a+) = Tr(a+a X) and
    Tr(a+ X a) = Tr(a a+ X), so the pair conserves trace wherever the
    realized a a+ is the truncated product; the detuning rotates the two
    branches in opposite senses.
    """
    a = annihilation_op(d)
    n, aad = (op.diagonal() for op in quadratic_ops(d, mode))
    # a+a and a a+ are diagonal, so G_gg and G_ee only scale each X_ij, which
    # sits at column-stacking position i + j d: by (x_i + x_j)/2 for {x, .}/2
    # and by n_i - n_j for N.
    anti_n, anti_aad = (0.5 * np.add.outer(x, x).ravel() for x in (n, aad))
    rotation = 1j * p.kappa * p.delta * np.subtract.outer(n, n).T.ravel()
    rate = p.field_rate
    ident = identity_superop(d)
    g_gg = np.diag(-(rate * anti_n - rotation + p.gamma_ge))
    g_ge = rate * sandwich_superop(a.conj().T, a) + p.gamma_eg * ident
    g_eg = rate * sandwich_superop(a, a.conj().T) + p.gamma_ge * ident
    g_ee = np.diag(-(rate * anti_aad + rotation + p.gamma_eg))
    return g_gg, g_ge, g_eg, g_ee


def _n_steps(t_max: float, dt: float) -> int:
    """Number of RK4 steps of size dt that reach t_max exactly."""
    if not (dt > 0 and t_max > 0 and dt <= t_max):
        raise ValueError(f"need 0 < dt <= t_max, got dt={dt}, t_max={t_max}")
    n_steps = int(round(t_max / dt))
    if abs(n_steps * dt - t_max) > 1e-9 * t_max:
        raise ValueError(f"t_max={t_max} is not a whole number of dt={dt} steps; make t_max a multiple of dt")
    return n_steps


def _rk4_sampled(matrix: np.ndarray, state0: np.ndarray, n_steps: int, dt: float, stride: int):
    """Fixed-step RK4 on d/dt y = matrix @ y, sampling every `stride` steps.

    The final step is always included.  Returns (times, samples).
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    state = state0.astype(complex)
    times = [0.0]
    samples = [state.copy()]
    for k in range(1, n_steps + 1):
        k1 = matrix @ state
        k2 = matrix @ (state + (0.5 * dt) * k1)
        k3 = matrix @ (state + (0.5 * dt) * k2)
        k4 = matrix @ (state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k % stride == 0 or k == n_steps:
            if not np.all(np.isfinite(state.view(float))):
                raise DivergenceError(k * dt)
            times.append(k * dt)
            samples.append(state.copy())
    return np.array(times), np.stack(samples)


def _propagate_blocks(
    p: ModelParams,
    d: int,
    prep: Preparation,
    field0: np.ndarray,
    t_max: float,
    dt: float,
    mode: TruncationMode,
    stride: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RK4 of the block system with field0 (d^2 rows) on the prepared branch.

    Returns (times, g samples, e samples); each sample has field0's shape.
    """
    n_steps = _n_steps(t_max, dt)
    g_gg, g_ge, g_eg, g_ee = build_block_generator(p, d, mode)
    matrix = np.block([[g_gg, g_ge], [g_eg, g_ee]])
    zero = np.zeros_like(field0)
    pair = (field0, zero) if Preparation(prep) is Preparation.GROUND else (zero, field0)
    times, samples = _rk4_sampled(matrix, np.concatenate(pair), n_steps, dt, stride)
    return times, samples[:, : d * d], samples[:, d * d :]


def integrate_instrument(
    p: ModelParams,
    d: int,
    prep: Preparation,
    t_max: float,
    dt: float,
    mode: TruncationMode = TruncationMode.ALGEBRAIC_CLOSURE,
    stride: int = 1,
) -> InstrumentBranch:
    """Integrate the outcome maps from the identity/zero initial pair.

    Classical fixed-step RK4; deterministic for fixed inputs.  t_max must be
    a whole number of steps of size dt.
    """
    times, m_g, m_e = _propagate_blocks(p, d, prep, identity_superop(d), t_max, dt, mode, stride)
    return InstrumentBranch(prep=Preparation(prep), times=times, m_g=m_g, m_e=m_e)


def conditional_trajectories(
    p: ModelParams,
    d: int,
    prep: Preparation,
    rho_f: np.ndarray,
    t_max: float,
    dt: float,
    mode: TruncationMode = TruncationMode.ALGEBRAIC_CLOSURE,
    stride: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unnormalized conditional states (M_g rho, M_e rho) along the run.

    Same dynamics as :func:`integrate_instrument` applied to a fixed initial
    field state, propagating d x d matrices instead of full maps.  Returns
    (times, y_g, y_e) with y_* of shape (T, d, d).  rho_f must be a density
    matrix; anything else raises InvalidStateError before integrating.
    """
    rho_f = np.asarray(rho_f, dtype=complex)
    if rho_f.shape != (d, d):
        raise ValueError(f"initial state shape {rho_f.shape} does not match d={d}")
    check_density_matrix(rho_f)
    times, v_g, v_e = _propagate_blocks(p, d, prep, vec(rho_f), t_max, dt, mode, stride)
    return times, v_g.reshape(-1, d, d).transpose(0, 2, 1), v_e.reshape(-1, d, d).transpose(0, 2, 1)

