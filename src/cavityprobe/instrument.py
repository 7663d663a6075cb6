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
block 0 alone.  The maps start from the identity, which occupies all d, and
preserve Hermiticity, M(X^H) = M(X)^H: block d - b holds block b's conjugated
entries, each slot's X_ij read as X_ji, so only blocks 0 .. d // 2 are propagated.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property, lru_cache, wraps

import numpy as np

from .fock import TruncationMode, _check_dimension, check_density_matrix, quadratic_ops

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


def _number(key: str, value) -> float:
    """The one rule for a real input named key: value as a float; ValueError unless it is a number, never a bool, that fits one."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} is an integer too large for a float") from None


class Preparation(Enum):
    GROUND = "ground"
    EXCITED = "excited"


@dataclass(frozen=True)
class ModelParams:
    """Physical rates of the atom-field model.

    omega is the coupling strength, delta the detuning, gamma_big the atomic
    decoherence rate and gamma_ge / gamma_eg the upward / downward population
    relaxation rates, each stored as a float.  gamma_big may not fall below
    (gamma_ge + gamma_eg) / 2, the decoherence floor set by population
    relaxation alone.
    """

    omega: float
    delta: float
    gamma_big: float
    gamma_ge: float
    gamma_eg: float

    def __post_init__(self):
        for field in fields(self):
            object.__setattr__(self, field.name, _number(field.name, getattr(self, field.name)))
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
    """Time series of the outcome maps, or of one conditional state, for one pointer preparation.

    A solver computes only some entries of the dense pair (M_g, M_e) of
    shape (2, *shape): entries[k], of shape positions.shape, holds them at
    times[k], at the row-major flat `positions` of that pair, and m_g and
    m_e are scattered once, on first access.  For maps, shape is (d^2, d^2): m_g[k] and m_e[k] take the
    initial field state to the unnormalized conditional state for ground /
    excited readout at times[k].  They act on column-stacked operators:
    X[i, j] sits at vec position i + d j, so the map X -> A X B has matrix
    kron(B.T, A).  About half the entries are the conjugates of others at
    the transposed positions.  For a state, shape is (d, d): m_g[k] and
    m_e[k] are M_g(t) rho and M_e(t) rho, and X_ij of outcome o sits at
    o d^2 + i d + j.  Either form unpacks as times, m_g, m_e = branch.
    """

    prep: Preparation
    times: np.ndarray
    d: int
    positions: np.ndarray
    entries: np.ndarray
    shape: tuple[int, int]
    m_g = property(lambda self: self.dense[:, 0])
    m_e = property(lambda self: self.dense[:, 1])

    def __iter__(self):
        return iter((self.times, self.m_g, self.m_e))

    @cached_property
    def dense(self) -> np.ndarray:
        """(M_g, M_e) at each time, (T, 2, *shape), scattered sample by sample so that each write lands in the one filled."""
        dense = np.zeros((len(self.times), 2, *self.shape), dtype=complex)
        for dst, src in zip(dense.reshape(len(self.times), -1), self.entries):
            dst[self.positions] = src
        return dense


def _cached(build):
    """build, cached for its latest arguments alone (a sweep over d holds one layout), with its arrays read-only."""
    @lru_cache(maxsize=1)
    @wraps(build)
    def frozen(*args):
        value = build(*args)
        for array in value if isinstance(value, tuple) else (value,):
            array.flags.writeable = False
        return value
    return frozen


@_cached
def _slots(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The slot rule as (i, j), i[b, j] = (j + b) mod d and j = arange(d): X[i, j][b, j] is slot j of block b."""
    j = np.arange(d)
    return (j + j[:, None]) % d, j


@_cached
def _positions(d: int) -> np.ndarray:
    """Flat positions in (M_g; M_e) of the maps' entries, (d, 2 d^2): block by block, column by column, the g and
    then the e slots of each column."""
    i, j = _slots(d)
    position = i + d * j
    position[d // 2 + 1 :] = (j + d * i)[(d - 1) // 2 : 0 : -1]  # block t > d // 2: X_ji for block d - t's X_ij
    return (np.hstack((position, d * d + position))[:, None, :] * (d * d) + position[:, :, None]).reshape(d, -1)


@_cached
def _diagonals(d: int, mode: TruncationMode) -> tuple[np.ndarray, np.ndarray]:
    return tuple(op.diagonal().copy() for op in quadratic_ops(d, mode))  # a+a and a a+, as realized per mode


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
    branch.  Only the blocks that `blocks` indexes along the first axis are built.
    """
    _check_dimension(d)
    d = int(d)
    n, aad = _diagonals(d, TruncationMode(mode))
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


_MAX_ENTRIES = np.iinfo(np.intp).max // 16  # complex entries in numpy's largest array
# Largest stack squaring, in real multiply-adds (complex x4) per propagated column, that sampling by doubling pays for.
_DOUBLING_MADDS = 2**18


def _sample_steps(d: int, t_max: float, dt: float, stride: int) -> range:
    """The one gate on a run's inputs: the RK4 steps it samples before its final one.

    d must pass fock's dimension rule, and t_max and dt the number rule.
    t_max must be a finite whole number n_steps (below 2**63) of steps of
    size dt, and stride a positive integer.  The run samples range(0,
    n_steps, stride) and then step n_steps, the range's stop.  The
    one-state arrays, the (d, 2d, 2d) block generator and the
    (d, samples, 2d) state buffer, must each fit one numpy array.  All of
    this is arithmetic: no array is allocated, and len() counts a huge grid.
    """
    _check_dimension(d)
    t_max, dt = _number("t_max", t_max), _number("dt", dt)
    if not (dt > 0 and dt <= t_max < np.inf and t_max / dt < 2**63):
        raise ValueError(f"need finite 0 < dt <= t_max with t_max / dt < 2**63 steps, got dt={dt}, t_max={t_max}")
    n_steps = int(round(t_max / dt))
    if abs(n_steps * dt - t_max) > 1e-9 * t_max:
        raise ValueError(f"t_max={t_max} is not a whole number of dt={dt} steps; make t_max a multiple of dt")
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride!r}")
    grid = range(0, n_steps, stride)
    d = int(d)  # numpy integers would wrap in the counts below
    if 4 * d**3 > _MAX_ENTRIES:
        raise ValueError("d is too large for the block generator to fit one numpy array; lower d")
    if 2 * (len(grid) + 1) * d * d > _MAX_ENTRIES:
        raise ValueError(f"{len(grid) + 1} samples at d={d} do not fit one numpy array; "
                         "lower d or the sample count t_max/(dt*stride)")
    return grid


def _rk4_sampled(matrix: np.ndarray, state0: np.ndarray, dt: float, grid: range, mirrored: int = 0):
    """Fixed-step RK4 on d/dt y = matrix @ y, sampled at each step of grid and at its final step grid.stop.

    One step is P(M) = I + M (I + M (I + M (I + M/4)/3)/2) with M = dt matrix, the degree-4 Taylor polynomial
    that is classical RK4 for a constant generator, so c steps are exactly P^c.  P is formed once, its power
    once for each distinct gap between samples (grid.step, and the remainder that ends at grid.stop), and each
    sample costs one product, or, where squaring is cheap and while Q = P^(grid.step s) is finite, one product
    per block takes samples 0 .. s - 1 by Q to s .. 2s - 1.
    matrix is a (B, n, n) stack and state0 its (B, k, n) rows, each a column y that a step takes to y P^T,
    or a bare (n, n) matrix and (k, n) rows.  The run is real, at a quarter of the complex flops, when
    neither matrix nor state0 has a nonzero imaginary part (a diagonal state on block 0, the maps at
    delta = 0), and complex otherwise.  Samples are written once into one block-major (B + mirrored, T, k, n)
    buffer, so that block b's are the rows of one (T k, n) matrix.  Returns (times, samples), samples its
    (T, B + mirrored, k, n) view; the run goes to its horizon and then raises DivergenceError at the first
    non-finite sample.  Blocks B .. B + mirrored - 1 are written in place as the conjugates of blocks mirrored .. 1.
    """
    if matrix.ndim == 2:  # a bare matrix is a stack of one block
        times, samples = _rk4_sampled(matrix[None], state0[None], dt, grid)
        return times, samples[:, 0]
    dt = float(dt)  # numpy cannot convert an integer dt beyond int64
    last = grid.stop - grid[-1]
    first = grid.step if len(grid) > 1 else last  # every gap but the last is grid.step
    steps = grid.start + first * np.arange(len(grid) + 1)
    steps[-1] = grid.stop
    real = not (np.any(matrix.imag) or np.any(state0.imag))
    m = dt * (matrix.real if real else matrix)
    blocks, k, n = state0.shape
    eye = np.eye(n)
    buffer = np.empty((blocks + mirrored, len(steps), k, n), dtype=float if real else complex)
    propagated = buffer[:blocks]
    rows = propagated.reshape(blocks, -1, n)  # block b's samples as the rows of one (T k, n) matrix
    propagated[:, 0] = state0.real if real else state0
    with np.errstate(over="ignore", invalid="ignore"):
        step = eye + m @ (eye + m @ (eye + m @ (eye + m / 4) / 3) / 2)
        powers = {gap: np.linalg.matrix_power(step, gap) for gap in {first, last}}
        power, span = powers[first], 1
        end = len(grid) if m.size * n * (1 if real else 4) <= _DOUBLING_MADDS * k else 1
        while span < end and np.isfinite(power).all():  # P^(gap span) takes samples :span to span:2 span
            take = min(span, end - span)
            np.matmul(rows[:, : take * k], power.swapaxes(1, 2), out=rows[:, span * k : (span + take) * k])
            if (span := span + take) < end:
                power = power @ power
        for t in range(span, len(steps)):
            power = powers[first if t < len(grid) else last]
            np.matmul(propagated[:, t - 1], power.swapaxes(1, 2), out=propagated[:, t])
        if not np.isfinite(propagated.view(float).sum()):  # no temporary; NaN, inf or an overflow scan the samples
            finite = np.isfinite(propagated.view(float)).reshape(blocks, len(steps), -1).all(axis=(0, 2))
            if not finite.all():
                raise DivergenceError(steps[np.argmin(finite)] * dt)
    if mirrored:
        np.conjugate(buffer[mirrored:0:-1], out=buffer[blocks:])
    return steps * dt, buffer.swapaxes(0, 1)


def _propagate_blocks(
    p: ModelParams,
    d: int,
    prep: Preparation,
    field0: np.ndarray,
    dt: float,
    grid: range,
    mode: TruncationMode,
    blocks: slice | np.ndarray = slice(None),
    mirrored: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 on grid (from _sample_steps) of the n blocks of the stack that blocks selects (all d by default) from field0.

    field0 holds the prepared branch's slots as rows, (n, k, d) or (k, d).  Returns (times, samples), samples
    (T, n + mirrored, k, 2d): each row the g, then the e slots of one column, selected blocks, then mirrors.
    """
    offset = 0 if Preparation(prep) is Preparation.GROUND else d
    generator = build_block_generator(p, d, mode, blocks)
    state0 = np.zeros((len(generator), field0.shape[-2], 2 * d), dtype=complex)
    state0[..., offset : offset + d] = field0
    return _rk4_sampled(generator, state0, dt, grid, mirrored)


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
    grid = _sample_steps(d, t_max, dt, stride)
    times, samples = _propagate_blocks(p, d, prep, np.eye(d), dt, grid, mode, slice(d // 2 + 1), (d - 1) // 2)
    entries = samples.reshape(len(times), d, -1)  # a view: each block's (k, n) rows are contiguous
    return InstrumentBranch(Preparation(prep), times, d, _positions(int(d)), entries, (d * d, d * d))


def conditional_trajectories(
    p: ModelParams,
    d: int,
    prep: Preparation,
    rho_f: np.ndarray,
    t_max: float,
    dt: float,
    mode: TruncationMode = TruncationMode.ALGEBRAIC_CLOSURE,
    stride: int = 1,
) -> InstrumentBranch:
    """Unnormalized conditional states (M_g rho, M_e rho) along the run, as a state branch of shape (d, d).

    Same dynamics as :func:`integrate_instrument` applied to a fixed initial
    field state, propagating d x d matrices instead of full maps.  Only the
    coherence blocks that hold a nonzero entry of rho_f are propagated: the
    generator never links blocks, so the others stay exactly 0, and the
    branch holds the live blocks' entries alone.  A diagonal state (Fock,
    mixed, thermal) occupies block 0 alone, the diagonal slots.  An
    unoccupied block therefore never raises DivergenceError, even where its
    own RK4 step would overflow.  The branch unpacks as times, y_g, y_e
    with y_* of shape (T, d, d), built on first access.  rho_f must be a
    density matrix; anything else raises InvalidStateError before
    integrating.
    """
    grid = _sample_steps(d, t_max, dt, stride)
    rho_f = np.asarray(rho_f, dtype=complex)
    if rho_f.shape != (d, d):
        raise ValueError(f"initial state shape {rho_f.shape} does not match d={d}")
    check_density_matrix(rho_f)
    i, j = _slots(int(d))
    live = np.flatnonzero(rho_f[i, j].any(axis=1))
    i = i[live]
    times, samples = _propagate_blocks(p, d, prep, rho_f[i, j][:, None], dt, grid, mode, live)
    positions = np.hstack((i * d + j, d * d + i * d + j))  # (live, 2d): g, then e slots
    return InstrumentBranch(Preparation(prep), times, d, positions, samples.reshape(len(times), len(live), -1), (d, d))
