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

`solve_spd` solves it by conjugate gradients preconditioned with an
aggregation-multigrid cycle (`multigrid`), built once per operator and
reused for each of its right-hand sides. The iteration count does not
grow as the mesh is refined.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .errors import ConvergenceError

NM = 1e-9  # grid coordinates are in nm
MAX_ITER = 200  # CG iterations before a solve counts as stalled
COARSEST = 3000  # unknowns at or below which the multigrid solves directly
# smoother polynomial p(t) = C0 - C1 t: 1 - t p(t) is the Chebyshev T2 on
# [2/30, 2] (centre 31/30, half-width 29/30), scaled to 1 at t = 0
CHEB_C0, CHEB_C1 = 4 * 31 * 30 / 1081, 2 * 900 / 1081


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


def outer_face(axis, side):
    """Index tuple selecting the cells on the low (side 0) or high (side 1)
    outer face normal to `axis`."""
    face = [slice(None)] * 3
    face[axis] = -side
    return tuple(face)


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


def multigrid(a_mat, active: np.ndarray) -> spla.LinearOperator:
    """Aggregation-multigrid V(1,1) preconditioner for an `assemble` operator.

    Each coarser level aggregates the active cells of the 2x2x2 blocks of
    the level below; the prolongation is piecewise constant on the
    aggregates and the coarse operator the Galerkin product P^T A P.
    Coarsening stops at `COARSEST` unknowns, which a sparse LU solves
    exactly. Every level is a diagonally dominant M-matrix, so the
    spectrum of D^-1 A lies in (0, 2] and the degree-2 Chebyshev smoother
    targets [2/30, 2]. Pre- and post-smoother are the same polynomial, so
    the cycle is symmetric and CG applies.
    """
    shape, dims = a_mat.shape, active.shape
    coords = np.nonzero(active)  # C order, the dof order of `assemble`
    levels = []  # (A, 1/diag A, aggregate of each unknown, aggregate count)
    while a_mat.shape[0] > COARSEST:
        dims = tuple((d + 1) // 2 for d in dims)
        blocks, agg = np.unique(
            np.ravel_multi_index(tuple(c // 2 for c in coords), dims), return_inverse=True)
        coords = np.unravel_index(blocks, dims)
        n, n_coarse = a_mat.shape[0], blocks.size
        agg = agg.astype(a_mat.indices.dtype)  # the column indices of A P below
        levels.append((a_mat, 1.0 / a_mat.diagonal(), agg, n_coarse))
        # P^T (A P) with A P sharing the values and row pointers of A
        p_t = sparse.csr_matrix((np.ones(n), (agg, np.arange(n))), shape=(n_coarse, n))
        a_mat = p_t @ sparse.csr_matrix((a_mat.data, agg[a_mat.indices], a_mat.indptr),
                                        shape=(n, n_coarse))
    coarsest = spla.splu(a_mat.tocsc())
    # the lambda holds the hierarchy without a reference cycle, so the
    # hierarchy is freed with its last user, not at the next garbage collection
    return spla.LinearOperator(shape, matvec=lambda b: _cycle(levels, coarsest, b), dtype=float)


def _smooth(a, dinv, b, x=None):
    """x + p(D^-1 A) D^-1 (b - A x), the Chebyshev smoother; x = None is 0."""
    z = dinv * (b if x is None else b - a @ x)
    step = CHEB_C0 * z - CHEB_C1 * dinv * (a @ z)
    return step if x is None else x + step


def _cycle(levels, coarsest, b):
    """One V(1,1) cycle for A x = b from x = 0; `levels[0]` is the finest."""
    if not levels:
        return coarsest.solve(b)
    (a, dinv, agg, n_coarse), coarser = levels[0], levels[1:]
    x = _smooth(a, dinv, b)
    x += _cycle(coarser, coarsest, np.bincount(agg, b - a @ x, n_coarse))[agg]
    return _smooth(a, dinv, b, x)


def solve_spd(a_mat, rhs: np.ndarray, tol: float, precond, x0=None,
              name: str = "linear solve") -> np.ndarray:
    """CG preconditioned by `precond` (a `multigrid`) to relative residual `tol`.

    With the multigrid cycle the iteration count does not grow with the
    mesh, so the fixed limit `MAX_ITER` is a real stall signal: it raises
    ConvergenceError naming the solve and carrying its residual.

    cg stops on its recursively updated residual, which keeps falling
    after the true one has levelled off at rounding level. So a reported
    success is checked on the true residual |b - A x| / |b|; above `tol`
    cg restarts once from x, and if the true residual is still above
    `tol` after that, `tol` is out of reach and ConvergenceError says so.
    """
    norm_b = max(np.linalg.norm(rhs), 1e-300)
    x = x0
    for _ in range(2):
        x, info = spla.cg(a_mat, rhs, x0=x, rtol=tol, atol=0.0, maxiter=MAX_ITER, M=precond)
        resid = float(np.linalg.norm(rhs - a_mat @ x) / norm_b)
        if info != 0:
            raise ConvergenceError(
                f"{name} stalled after {MAX_ITER} iterations (residual {resid:.3g})",
                residual=resid)
        if resid <= tol:
            return x
    raise ConvergenceError(
        f"{name} cannot reach tolerance {tol:.3g}: true residual {resid:.3g} "
        f"after a restart", residual=resid)
