"""Dense forms that only the tests build, as references for the block and map code of the package.

Maps act on column-stacked operators, as InstrumentBranch states: X[i, j]
sits at vec position i + d j, and the map X -> A X B has matrix kron(B.T, A).
"""

import math

import numpy as np

from cavityprobe.instrument import InstrumentBranch, Preparation, _slots


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of vec; a (..., d^2) stack gives (..., d, d)."""
    v = np.asarray(v)
    d = math.isqrt(v.shape[-1])
    return v.reshape(*v.shape[:-1], d, d).swapaxes(-1, -2)


def apply_superop(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The image of the operator x under the d^2 x d^2 map matrix s."""
    return unvec(s @ vec(x))


def state_branch(times, y_g, y_e) -> InstrumentBranch:
    """A ground-pointer state branch that holds all d^2 slots of the hand-made (T, d, d) states y_g and y_e."""
    y = np.stack((y_g, y_e), axis=1)
    d = y.shape[-1]
    return InstrumentBranch(Preparation.GROUND, np.asarray(times), d, np.arange(2 * d * d), y.reshape(len(y), -1), (d, d))


def choi_matrix(s: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) S(|i><j|) of a d^2 x d^2 map matrix: C[(i,k),(j,l)] = <k|S(|i><j|)|l>.

    The map is completely positive iff the result is positive semidefinite.
    """
    d = math.isqrt(len(s))
    return np.asarray(s).reshape(d, d, d, d).swapaxes(0, 3).reshape(d * d, d * d)


def block_choi_certificate(branch) -> tuple[np.ndarray, np.ndarray]:
    """(largest Hermiticity deviation, smallest eigenvalue) of the Choi matrix of each sampled M_g and M_e, each (T, 2).

    Reads only the branch's entries and positions; m_g and m_e are never
    built.  An order-preserving map links C[(i,k),(j,l)] = <k|M(|i><j|)|l>
    only where m = k - i = l - j, so C splits into 2d - 1 blocks m of size
    d - |m|, whose rows and columns are min(i, k) and min(j, l).  The other
    entries a branch stores, the slots that link order b to order b - d in
    each coherence block, are asserted to be exact zeros.  The deviation is
    the largest |C - C^H| entry; the eigenvalues are those of (C + C^H)/2.
    """
    d, entries = branch.d, branch.entries
    row, col = np.divmod(branch.positions, d * d)  # row: the output's position in (vec X_g, vec X_e)
    outcome, out = np.divmod(row, d * d)
    (l, k), (j, i) = np.divmod(out, d), np.divmod(col, d)
    m = k - i
    linked = m == l - j
    assert not entries[:, ~linked].any(), "a slot linking two coherence orders is nonzero"
    a, b = np.minimum(i, k), np.minimum(j, l)
    deviation = np.zeros((len(entries), 2))
    lowest = np.full((len(entries), 2), np.inf)
    for block in range(1 - d, d):
        take = linked & (m == block)
        n = d - abs(block)
        c = np.zeros((len(entries), 2, n, n), dtype=entries.dtype)
        c[:, outcome[take], a[take], b[take]] = entries[:, take]
        adjoint = c.conj().swapaxes(-1, -2)
        deviation = np.maximum(deviation, np.abs(c - adjoint).max(axis=(-1, -2)))
        lowest = np.minimum(lowest, np.linalg.eigvalsh(0.5 * (c + adjoint))[..., 0])
    return deviation, lowest


def _dense(blocks: np.ndarray) -> np.ndarray:
    """Dense matrices from a (..., d, 2d, n) stack of blocks, n = d or 2d; entries across blocks are 0.

    The rows of block b are its g and then its e slots in the stacked pair
    (vec X_g, vec X_e), and its columns are the first n of those.
    """
    d, n = blocks.shape[-3], blocks.shape[-1]
    i, j = _slots(d)
    position = i + d * j
    pair = np.hstack((position, d * d + position))
    flat = (pair[:, :, None] * (n * d) + pair[:, None, :n]).ravel()
    out = np.zeros((*blocks.shape[:-3], 2 * d * d, n * d), dtype=complex)
    out.reshape(-1, 2 * d * d * n * d)[:, flat] = blocks.reshape(-1, flat.size)
    return out


def _sandwich_superop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of the map X -> A X B."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError(f"operands must be square and equal-sized, got {a.shape} and {b.shape}")
    return np.kron(b.T, a)
