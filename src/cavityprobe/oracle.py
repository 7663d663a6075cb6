"""Full joint atom-field Lindblad solver used to validate the reduced maps.

No elimination of the atomic coherences here: the joint density matrix on
pointer (x) field evolves under the exchange Hamiltonian plus the atomic
dissipator, and the outcome maps are recovered by projecting the pointer
after the fact.  Agreement with the block-system integration improves as
gamma_big / omega grows; the residual between the two is the quantitative
check.

The lab-frame Hamiltonian depends on time through e^{+-i delta t}.  In the
frame V = exp(-i delta t |e><e|) it does not: there it is the constant
joint_hamiltonian(p, d, 0) + delta |e><e|, whose Liouvillian (built by the
same code as joint_liouvillian) the same fixed-step RK4 kernel as the reduced
model integrates.  The frame only rotates the atomic coherences, so the gg
and ee blocks (and with them the outcome maps) are unchanged.

The atomic dissipator carries the two population channels at gamma_ge and
gamma_eg plus a pure dephasing channel sized so the total coherence decay
rate equals gamma_big: population relaxation alone only contributes
(gamma_ge + gamma_eg) / 2, and the reduced model treats gamma_big as an
independent parameter.  With the effective Hamiltonian K = -i H - sum rate
J^dagger J / 2 over these jumps J, the generator is rho -> K rho + rho K^dagger
+ sum rate J rho J^dagger (Dalibard, Castin & Molmer, PRL 68, 580 (1992)).

The generator conserves q = N(x) - N(y) for each joint matrix unit |x><y|,
with N = |e><e| + a+a: H trades one excitation between atom and field, and
each jump shifts both sides of J rho J^dagger alike.  Order q holds 4d - 2
units at q = 0, 4 (d - |q|) at 0 < |q| < d and one at |q| = d, so each class
q mod d fills exactly 4d: the orders q and q - d, or 0 and +-d.  The oracle
integrates the generator as the stack of these blocks (_units) for classes
0 .. d // 2: it preserves Hermiticity, so class d - t holds the conjugates of
class t's entries, at the transposed units |y><x|.
"""

from __future__ import annotations

import numpy as np

from .fock import TruncationMode, annihilation_op
from .instrument import (
    DivergenceError,
    InstrumentBranch,
    ModelParams,
    Preparation,
    _rk4_sampled,
    _sample_steps,
    integrate_instrument,
)

__all__ = [
    "dt_limit",
    "joint_hamiltonian",
    "joint_liouvillian",
    "extract_instrument_oracle",
    "secular_residual",
]

# Atom basis order (|g>, |e>); sigma+ = |e><g| drives g -> e.
_SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
_SIGMA_MINUS = _SIGMA_PLUS.conj().T
_SIGMA_Z = np.diag([-1.0, 1.0]).astype(complex)


def _joint(atom: np.ndarray, field: np.ndarray) -> np.ndarray:
    """The operator atom (x) field, atom index major as in np.kron."""
    return (atom[:, None, :, None] * field[None, :, None, :]).reshape(2 * len(field), 2 * len(field))


def _pure_dephasing_rate(p: ModelParams) -> float:
    """Dephasing needed beyond population relaxation to reach gamma_big."""
    return p.gamma_big - 0.5 * (p.gamma_ge + p.gamma_eg)


def joint_hamiltonian(p: ModelParams, d: int, t: float) -> np.ndarray:
    """Exchange Hamiltonian sigma+ a e^{i delta t} + h.c. on atom (x) field."""
    a = annihilation_op(d)
    coupling = p.omega * _joint(_SIGMA_PLUS, a)
    return coupling * np.exp(1j * p.delta * t) + coupling.conj().T * np.exp(-1j * p.delta * t)


def _jump_ops(p: ModelParams, d: int) -> list[tuple[np.ndarray, float]]:
    eye_f = np.eye(d, dtype=complex)
    jumps = [
        (_joint(_SIGMA_MINUS, eye_f), p.gamma_eg),
        (_joint(_SIGMA_PLUS, eye_f), p.gamma_ge),
        (_joint(_SIGMA_Z, eye_f), 0.5 * _pure_dephasing_rate(p)),
    ]
    return [(op, rate) for op, rate in jumps if rate > 0.0]


def joint_liouvillian(p: ModelParams, d: int, t: float) -> np.ndarray:
    """Superoperator matrix of the joint generator at time t (dimension (2d)^2)."""
    return _liouvillian(p, d, joint_hamiltonian(p, d, t), np.arange(4 * d * d))


def _units(d: int) -> np.ndarray:
    """The vec positions x + 2d y of the joint units |x><y| as (d, 4d): row b holds, in vec order, those with q = b mod d."""
    a = annihilation_op(d)
    charge = np.diagonal(_joint(_SIGMA_PLUS @ _SIGMA_MINUS, np.eye(d)) + _joint(np.eye(2), a.conj().T @ a)).real.round()
    y, x = np.divmod(np.arange(4 * d * d), 2 * d)
    return np.argsort((charge[x] - charge[y]) % d, kind="stable").reshape(d, 4 * d)


def _liouvillian(p: ModelParams, d: int, h: np.ndarray, units: np.ndarray) -> np.ndarray:
    """The joint generator with Hamiltonian h, built through K as stated above, on the units at the (..., n) vec positions."""
    y, x = np.divmod(units, 2 * d)
    def sandwich(a, b):  # entries of X -> A X B between the units |x><y|: [..., r, c] = A[x_r, x_c] B[y_c, y_r]
        return a[x[..., :, None], x[..., None, :]] * b[y[..., None, :], y[..., :, None]]
    eye = np.eye(2 * d, dtype=complex)
    jumps = _jump_ops(p, d)
    k = -1j * h - 0.5 * sum(rate * op.conj().T @ op for op, rate in jumps)
    lv = sandwich(k, eye) + sandwich(eye, k.conj().T)
    for op, rate in jumps:
        lv += rate * sandwich(op, op.conj().T)
    return lv


def dt_limit(p: ModelParams) -> float:
    """Largest step the joint solver accepts for these rates."""
    return 0.01 / max(abs(p.delta), p.omega, p.gamma_big, 1.0)


def extract_instrument_oracle(
    p: ModelParams, d: int, prep: Preparation, t_max: float, dt: float, stride: int = 1
) -> InstrumentBranch:
    """Recover the outcome maps from the full joint evolution.

    Each field matrix unit |m><n|, paired with the pointer preparation, is
    evolved jointly; projecting the pointer on |g> / |e> and tracing it out
    yields one column of the corresponding map.  Linearity of the evolution
    makes the column-by-column assembly exact.  Raises ValueError when dt
    exceeds dt_limit(p), and DivergenceError when a column's trace drifts by
    more than 1e-9.
    """
    grid = _sample_steps(d, t_max, dt, stride)
    prep = Preparation(prep)
    limit = dt_limit(p)
    if dt > limit * (1 + 1e-12):
        raise ValueError(f"dt={dt} too coarse for these rates; need dt <= {limit:.6g}")
    half, units = d // 2 + 1, _units(d)
    y, x = np.divmod(units, 2 * d)
    x[half:], y[half:] = y[d - half : 0 : -1], x[d - half : 0 : -1]  # class t > d // 2: class d - t transposed
    atom, field = x // d, x % d + d * (y % d)  # field: the vec position of the unit's field part
    # Column k of block b, the kernel's row k, starts at the block's k-th unit |a, m><a, n| of
    # the prepared pointer a; the gg and ee units are rows atom d^2 + field of (M_g; M_e).
    start = np.nonzero((atom == (prep is Preparation.EXCITED)) & (y // d == atom))
    columns = np.zeros((d, d, 4 * d), dtype=complex)
    columns[start[0], np.arange(d * d) % d, start[1]] = 1.0
    frame_hamiltonian = joint_hamiltonian(p, d, 0.0) + p.delta * _joint(np.diag([0.0, 1.0]), np.eye(d))
    times, samples = _rk4_sampled(_liouvillian(p, d, frame_hamiltonian, units[:half]), columns[:half], dt, grid)
    samples = samples.swapaxes(2, 3)  # (T, half, 4d, d): unit, then column
    traces = samples[:, (x == y)[:half]].sum(axis=1)
    drift = np.abs(traces - traces[0]).max(axis=1)
    bad = np.flatnonzero(drift > 1e-9)
    if bad.size:
        raise DivergenceError(times[bad[0]], f"trace drifted by {drift[bad[0]]:.3e}")
    read = np.nonzero(y // d == atom)
    entries = np.empty((len(times), d, 2 * d, d), dtype=complex)
    entries[:, :half] = samples[:, np.arange(half)[:, None], read[1].reshape(d, 2 * d)[:half]]
    np.conjugate(entries[:, d - half : 0 : -1], out=entries[:, half:])
    positions = (atom * d * d + field)[read][:, None] * (d * d) + field[start].reshape(d, d)[read[0]]
    return InstrumentBranch(prep, times, d, positions.ravel(), entries.reshape(len(times), -1), (d * d, d * d))


def secular_residual(
    p: ModelParams,
    d: int,
    prep: Preparation,
    t_max: float,
    dt: float,
    stride: int = 1,
    mode: TruncationMode = TruncationMode.ALGEBRAIC_CLOSURE,
) -> dict[str, float]:
    """Max-abs-entry gap between the joint-model maps and the reduced maps.

    Both solvers run on the identical time grid; the result has one scalar
    per outcome.  The gap is taken on the entries either branch holds, an
    entry that only one holds against 0, so no dense map is built.
    """
    oracle_branch = extract_instrument_oracle(p, d, prep, t_max, dt, stride)
    reduced = integrate_instrument(p, d, prep, t_max, dt, mode, stride)
    positions = np.sort(np.concatenate((oracle_branch.positions.ravel(), reduced.positions.ravel())))
    positions = positions[np.diff(positions, prepend=-1) > 0]  # the union; np.union1d would import numpy.ma
    at_o, at_r = (np.searchsorted(positions, branch.positions.ravel()) for branch in (oracle_branch, reduced))
    g, worst = np.searchsorted(positions, d**4), np.zeros(2)  # M_g's d^2 rows come first
    chunk = max(1, 2**16 // len(positions))  # samples per pass, so that no temporary holds the whole run
    for t in range(0, len(reduced.times), chunk):
        gap = np.zeros((len(reduced.times[t : t + chunk]), len(positions)), dtype=complex)
        gap[:, at_o] = oracle_branch.entries[t : t + chunk].reshape(len(gap), -1)
        gap[:, at_r] -= reduced.entries[t : t + chunk].reshape(len(gap), -1)
        worst = np.maximum(worst, [np.abs(gap[:, :g]).max(initial=0.0), np.abs(gap[:, g:]).max(initial=0.0)])
    return {"g": float(worst[0]), "e": float(worst[1])}
