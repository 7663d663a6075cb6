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

The generator never links coherence orders q = i - j: a+a and a a+ only
scale the matrix unit |i><j|, and the ladder sandwiches a+ X a and a X a+
move it along its diagonal.  The 2 d^2 system therefore splits into
independent sectors, one per order q = 1 - d .. d - 1, of 2 (d - |q|)
entries (X_g, X_e)_ij each.  The orders b and b - d (b = 0 .. d - 1) fill
exactly d slots together, so they share block b: slot j of the block is the
entry X_ij with i = (j + b) mod d, the g slots come first and the e slots
follow at offset d.  _slots states this rule, and every index of the layout
derives from it.  The ladder weight sqrt(i) sqrt(j) between slots j - 1 and
j vanishes where i wraps to 0, which is exactly where the two orders meet,
so they stay unlinked inside the block.  The whole generator is one
(d, 2d, 2d) array on which matrix products broadcast, with no padding.
A block that starts at zero stays at zero, so one state's cost scales
with the blocks its nonzero entries occupy: conditional_trajectories
propagates only those, and a diagonal state (Fock, mixed, thermal) needs
block 0 alone.  The maps start from the identity, which occupies all d.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import TruncationMode, check_density_matrix, quadratic_ops
from .superop import unvec

__all__ = [
    "DivergenceError",
    "Preparation",
    "ModelParams",
    "InstrumentBranch",
    "build_block_generator",
    "integrate_instrument",
    "conditional_trajectories",
]


class DivergenceError(RuntimeError):
    """Integration produced non-finite values or lost the conserved trace."""

    def __init__(self, t: float, detail: str = "non-finite values"):
        self.t = t
        super().__init__(f"integration diverged at t={t:.6g}: {detail}")


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


def _slots(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The slot rule as (i, j), i[b, j] = (j + b) mod d and j = arange(d): X[i, j][b, j] is slot j of block b."""
    j = np.arange(d)
    return (j + j[:, None]) % d, j


def _dense(blocks: np.ndarray) -> np.ndarray:
    """Dense matrices from a (..., d, 2d, n) stack of blocks, n = d or 2d; entries across blocks are 0.

    The rows of block b are its g and then its e slots in the stacked pair
    (vec X_g, vec X_e), and its columns are the first n of those.  The
    matrices are scattered one at a time, so each write lands in the one
    matrix being filled rather than striding across the leading axes.
    """
    d, n = blocks.shape[-3], blocks.shape[-1]
    position = unvec(np.arange(d * d))[_slots(d)]
    pair = np.hstack((position, d * d + position))
    flat = (pair[:, :, None] * (n * d) + pair[:, None, :n]).ravel()
    out = np.zeros((*blocks.shape[:-3], 2 * d * d, n * d), dtype=complex)
    for dst, src in zip(out.reshape(-1, 2 * d * d * n * d), blocks.reshape(-1, flat.size)):
        dst[flat] = src
    return out


def build_block_generator(
    p: ModelParams, d: int, mode: TruncationMode = TruncationMode.ALGEBRAIC_CLOSURE,
    blocks: slice | np.ndarray = slice(None),
) -> np.ndarray:
    """The generator [[G_gg, G_ge], [G_eg, G_ee]] on (vec M_g, vec M_e) as its (d, 2d, 2d) stack of coherence blocks.

    With r = 2 * kappa * gamma_big, the ladder sandwiches K+ X = a+ X a and
    K- X = a X a+, and the number commutator N X = [a+a, X]:

        G_gg = -(r {a+a, .}/2 - i kappa delta N + gamma_ge Id)     G_ge = r K+ + gamma_eg Id
        G_eg = r K- + gamma_ge Id       G_ee = -(r {a a+, .}/2 + i kappa delta N + gamma_eg Id)

    with a a+ realized per the truncation mode.  Each branch loses what its
    jump term hands to the other, Tr(a X a+) = Tr(a+a X) and
    Tr(a+ X a) = Tr(a a+ X), so the pair conserves trace wherever the
    realized a a+ is the truncated product; the detuning rotates the two
    branches in opposite senses.  Row or column j < d of block b is slot j
    (see _slots) of the g branch, and d + j is the same slot of the e
    branch; _dense scatters the stack into the 2 d^2 x 2 d^2 matrix.
    Only the blocks that `blocks` indexes along the first axis are built.
    """
    n, aad = (op.diagonal() for op in quadratic_ops(d, mode))
    i, j = _slots(d)
    i = i[blocks]
    # a+a and a a+ are diagonal, so G_gg and G_ee only scale each X_ij: by
    # (x_i + x_j)/2 for {x, .}/2 and by n_i - n_j for N.
    rotation = 1j * p.kappa * p.delta * (n[i] - n[j])
    rate = p.field_rate
    # a+ X a carries X_{i-1,j-1} (slot j - 1) to X_ij (slot j) with weight
    # sqrt(i) sqrt(j), and a X a+ carries it back with the same weight.  The
    # weight is 0 where i = 0, so the two orders of a block stay unlinked.
    root = np.sqrt(j)
    ladder = rate * (root[j] * root[i])
    stack = np.zeros((len(i), 2 * d, 2 * d), dtype=complex)
    stack[:, j, j] = -(rate * (0.5 * (n[i] + n[j])) - rotation + p.gamma_ge)
    stack[:, d + j, d + j] = -(rate * (0.5 * (aad[i] + aad[j])) + rotation + p.gamma_eg)
    stack[:, j, d + j] = p.gamma_eg
    stack[:, d + j, j] = p.gamma_ge
    stack[:, j[1:], d + j[:-1]] = ladder[:, 1:]
    stack[:, d + j[:-1], j[1:]] = ladder[:, 1:]
    return stack


def _sample_steps(t_max: float, dt: float, stride: int) -> int:
    """Number of RK4 steps in the run, after checking the time grid and the stride.

    t_max must be a finite whole number (below 2**63) of steps of size dt, and
    stride a positive integer; the run is sampled every stride steps and at
    its final step.
    """
    t_max, dt = float(t_max), float(dt)
    if not (dt > 0 and dt <= t_max < np.inf and t_max / dt < 2**63):
        raise ValueError(f"need finite 0 < dt <= t_max with t_max / dt < 2**63 steps, got dt={dt}, t_max={t_max}")
    n_steps = int(round(t_max / dt))
    if abs(n_steps * dt - t_max) > 1e-9 * t_max:
        raise ValueError(f"t_max={t_max} is not a whole number of dt={dt} steps; make t_max a multiple of dt")
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride!r}")
    return n_steps


def _check_fits(d: int, t_max: float, dt: float, stride: int) -> None:
    """Check the time grid and that a one-state run fits numpy's size limit, counting its arrays without allocating them.

    They are the (d, 2d, 2d) block generator and the (samples, d, 2d) state buffer.
    """
    n_steps = _sample_steps(t_max, dt, stride)
    max_entries = np.iinfo(np.intp).max // 16  # complex entries in numpy's largest array
    if 4 * d**3 > max_entries:
        raise ValueError("d is too large for the block generator to fit one numpy array; lower d")
    samples = -(-n_steps // stride) + 1
    if 2 * samples * d * d > max_entries:
        raise ValueError(f"{samples} samples at d={d} do not fit one numpy array; "
                         "lower d or the sample count t_max/(dt*stride)")


def _rk4_sampled(matrix: np.ndarray, state0: np.ndarray, dt: float, n_steps: int, stride: int):
    """Fixed-step RK4 on d/dt y = matrix @ y, sampled every stride steps and at step n_steps.

    One step is P(M) = I + M (I + M (I + M (I + M/4)/3)/2) with M = dt
    matrix, the degree-4 Taylor polynomial that is classical RK4 for a
    constant generator, so c steps are exactly P^c.  P is formed once, its
    power once for each distinct gap between samples (stride, and the
    remainder that ends at n_steps), and each sample costs one product.
    matrix may be a (..., n, n) stack with state0 (..., n, k); products
    broadcast over the stack.  Returns (times, samples); the run goes to its
    horizon and then raises DivergenceError at the first non-finite sample.
    """
    steps = np.append(np.arange(0, n_steps, stride), n_steps)
    gaps = np.diff(steps)
    m = dt * matrix
    eye = np.eye(m.shape[-1])
    samples = np.empty((len(steps), *state0.shape), dtype=complex)
    samples[0] = state = state0
    with np.errstate(over="ignore", invalid="ignore"):
        step = eye + m @ (eye + m @ (eye + m @ (eye + m / 4) / 3) / 2)
        powers = {gap: np.linalg.matrix_power(step, gap) for gap in {gaps[0], gaps[-1]}}
        for k, gap in enumerate(gaps, 1):
            samples[k] = state = powers[gap] @ state
    finite = np.isfinite(samples).reshape(len(steps), -1).all(axis=1)
    if not finite.all():
        raise DivergenceError(steps[np.argmin(finite)] * dt)
    return steps * dt, samples


def _propagate_blocks(
    p: ModelParams,
    d: int,
    prep: Preparation,
    field0: np.ndarray,
    t_max: float,
    dt: float,
    mode: TruncationMode,
    stride: int,
    blocks: slice | np.ndarray = slice(None),
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 of the n blocks of the stack that blocks selects (all d by default) from field0.

    field0 holds the prepared branch's slots, (n, d, k), or (d, k) for each
    selected block.  Returns (times, samples) with samples of shape
    (T, n, 2d, k): the g and then the e slots of each selected block of each
    sample.
    """
    n_steps = _sample_steps(t_max, dt, stride)
    generator = build_block_generator(p, d, mode, blocks)
    state0 = np.zeros((len(generator), 2 * d, field0.shape[-1]), dtype=complex)
    offset = 0 if Preparation(prep) is Preparation.GROUND else d
    state0[:, offset : offset + d] = field0
    return _rk4_sampled(generator, state0, dt, n_steps, stride)


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
    times, samples = _propagate_blocks(p, d, prep, np.eye(d), t_max, dt, mode, stride)
    maps = _dense(samples)
    return InstrumentBranch(prep=Preparation(prep), times=times, m_g=maps[:, : d * d], m_e=maps[:, d * d :])


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
    field state, propagating d x d matrices instead of full maps.  Only the
    coherence blocks that hold a nonzero entry of rho_f are propagated: the
    generator never links blocks, so the others stay exactly 0 and are
    returned as 0 without being integrated.  A diagonal state (Fock, mixed,
    thermal) occupies block 0 alone.  An unoccupied block therefore never
    raises DivergenceError, even where its own RK4 step would overflow.
    Returns (times, y_g, y_e) with y_* of shape (T, d, d).  rho_f must be a
    density matrix; anything else raises InvalidStateError before
    integrating.
    """
    rho_f = np.asarray(rho_f, dtype=complex)
    if rho_f.shape != (d, d):
        raise ValueError(f"initial state shape {rho_f.shape} does not match d={d}")
    check_density_matrix(rho_f)
    i, j = _slots(d)
    live = np.flatnonzero(rho_f[i, j].any(axis=1))
    i = i[live]
    times, samples = _propagate_blocks(p, d, prep, rho_f[i, j, None], t_max, dt, mode, stride, live)
    y_g, y_e = np.zeros((2, len(times), d, d), dtype=complex)
    y_g[:, i, j] = samples[..., :d, 0]
    y_e[:, i, j] = samples[..., d:, 0]
    return times, y_g, y_e

