"""Finite-volume 7-point discretisation of div(c grad u) on a voxel grid.

The heat, capacitance and conduction solves share this one operator; c
is kappa, eps or 1/rho. The conductance of the face between two cells
is A / (d1/c1 + d2/c2) with d the centre-to-face distances, which is
exact for layered media and reduces to the harmonic mean on a uniform
grid. A face held at a fixed value u_f couples its cell through the
half conductance A / (d/c + r_surface), where r_surface is a series
surface resistance (1/h for a convective face).

`assemble` returns the operator A over the active cells and a coupling
matrix B with one column per fixed value, so that A u = B u_fixed + s
for a source s. A is symmetric positive definite as soon as one fixed
face touches every connected part of the active set.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .errors import ConvergenceError

NM = 1e-9  # grid coordinates are in nm


def _geometry(grid, axis):
    """Face areas normal to `axis` and centre-to-face distances, in m.

    Both broadcast against the cell arrays: the areas have length 1
    along `axis`, the distances length 1 along the other two.
    """
    w = np.ix_(*(grid.widths(a) * NM for a in range(3)))
    a, b = (x for x in range(3) if x != axis)
    return w[a] * w[b], w[axis] / 2


def face_pairs(axis):
    """Index tuples selecting the low and the high cell of each interior face."""
    lo = [slice(None)] * 3
    hi = [slice(None)] * 3
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return tuple(lo), tuple(hi)


def face_conductances(grid, coeff: np.ndarray) -> Iterator[np.ndarray]:
    """Interior face conductances, one axis at a time, shaped like the cells
    less one along that axis."""
    for axis in range(3):
        area, half = _geometry(grid, axis)
        r = half / coeff
        lo, hi = face_pairs(axis)
        yield area / (r[lo] + r[hi])


def half_conductance(grid, coeff: np.ndarray, cells: np.ndarray, axis: int,
                     r_surface: float = 0.0) -> np.ndarray:
    """Conductance from the centres of flat `cells` to their faces normal to `axis`."""
    area, half = _geometry(grid, axis)
    area = np.broadcast_to(area, grid.dims).ravel()[cells]
    half = np.broadcast_to(half, grid.dims).ravel()[cells]
    return area / (half / coeff.ravel()[cells] + r_surface)


def assemble(grid, coeff: np.ndarray, active: np.ndarray, fixed, ncols: int):
    """(A, B) over the active cells; `fixed` lists (flat cells, g, column) faces.

    `column` is one index for all the faces of an entry, or one per face.
    B[i, j] is the conductance from active cell i to fixed value j, and
    the diagonal of A holds every face conductance of its cell. Faces
    between active and inactive cells that `fixed` does not name carry
    no flux.
    """
    n = int(active.sum())
    dof = np.full(grid.dims, -1, dtype=np.int64)
    dof[active] = np.arange(n)
    diag = np.zeros(n)
    rows, cols, vals = [], [], []
    for axis, g in enumerate(face_conductances(grid, coeff)):
        lo, hi = (dof[s] for s in face_pairs(axis))
        both = (lo >= 0) & (hi >= 0)
        lo, hi, g = lo[both], hi[both], g[both]
        rows += [lo, hi]
        cols += [hi, lo]
        vals += [-g, -g]
        np.add.at(diag, lo, g)
        np.add.at(diag, hi, g)

    b_rows, b_cols, b_vals = [], [], []
    for cells, g, column in fixed:
        d = dof.ravel()[cells]
        np.add.at(diag, d, g)
        b_rows.append(d)
        b_cols.append(np.broadcast_to(column, d.shape))
        b_vals.append(g)

    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag)
    a_mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    b_mat = sparse.coo_matrix(
        (np.concatenate(b_vals), (np.concatenate(b_rows), np.concatenate(b_cols))),
        shape=(n, ncols)).tocsr()
    return a_mat, b_mat


def boundary_flux(b_mat, u: np.ndarray, u_fixed: np.ndarray) -> np.ndarray:
    """Flux from each fixed value into the domain: colsum(B) u_fixed - B^T u.

    `u` and `u_fixed` may carry one solution per trailing column.
    """
    colsum = np.asarray(b_mat.sum(axis=0)).ravel()
    if u_fixed.ndim == 2:
        colsum = colsum[:, None]
    return colsum * u_fixed - b_mat.T @ u


def solve_spd(a_mat, rhs: np.ndarray, tol: float, grid, x0=None,
              name: str = "linear solve") -> np.ndarray:
    """Jacobi-preconditioned CG to relative residual `tol`.

    The iteration limit grows with the longest grid axis, along which
    Jacobi-PCG needs the most iterations. A stall raises
    ConvergenceError naming the solve and carrying its residual.
    """
    max_iter = 40 * max(grid.dims) + 2000
    d = a_mat.diagonal()
    precond = spla.LinearOperator(a_mat.shape, matvec=lambda v: v / d)
    x, info = spla.cg(a_mat, rhs, x0=x0, rtol=tol, atol=0.0, maxiter=max_iter, M=precond)
    if info != 0:
        resid = float(np.linalg.norm(rhs - a_mat @ x) / max(np.linalg.norm(rhs), 1e-300))
        raise ConvergenceError(
            f"{name} stalled after {max_iter} iterations (residual {resid:.3g})",
            residual=resid)
    return x
