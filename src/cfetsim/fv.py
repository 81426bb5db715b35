"""Finite-volume 7-point discretisation of div(c grad u) on a voxel grid.

The heat, capacitance and conduction solves share this one operator; c
is kappa, eps or 1/rho. The conductance of the face between two cells
is A / (d1/c1 + d2/c2) with d the centre-to-face distances, which is
exact for layered media and reduces to the harmonic mean on a uniform
grid. A face held at a fixed value u_f couples its cell through the
half conductance A / (d/c + r_surface), where r_surface is a series
surface resistance (1/h for a convective face). Callers select the fixed
faces with `outer_faces` and `interfaces`; `assemble` computes every
conductance.

`assemble` returns the operator A over the active cells and a coupling
matrix B with one column per fixed value, so that A u = B u_fixed + s
for a source s. A is symmetric positive definite as soon as one fixed
face touches every connected part of the active set.

`solve_spd` solves it by conjugate gradients preconditioned with an
aggregation-multigrid cycle (`multigrid`), built once per operator and
reused for each of its right-hand sides. The iteration count is not
mesh-independent: each coarsening level that a refinement adds costs a
few more iterations (on the sample cell, 24-26 per capacitance solve at
3 nm with two coarsenings, 31-33 at 2 nm with three).
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
# damped-Jacobi weight: D^-1 A lies in (0, 2], so any weight below 1 damps
# every mode; 0.8-0.94 give the same iteration counts, 1.0 stalls
JACOBI_W = 0.9


def widths(grid):
    """Cell widths in m per axis, shaped by np.ix_ to broadcast against the cells."""
    return np.ix_(*(grid.widths(a) * NM for a in range(3)))


def _geometry(grid, axis):
    """Face areas normal to `axis` and centre-to-face distances, in m.

    Both broadcast against the cell arrays: the areas have length 1
    along `axis`, the distances length 1 along the other two.
    """
    w = widths(grid)
    a, b = (x for x in range(3) if x != axis)
    return w[a] * w[b], w[axis] / 2


def face_pairs(axis):
    """Index tuples selecting the low and the high cell of each interior face."""
    lo = [slice(None)] * 3
    hi = [slice(None)] * 3
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return tuple(lo), tuple(hi)


def outer_faces(mask: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """(axis, side, flat cells) of the `mask` cells on each outer face, axis
    by axis, the low (side 0) face first; cells in C order, possibly none."""
    flat = np.arange(mask.size).reshape(mask.shape)
    for axis in range(3):
        for side in (0, 1):
            face = tuple(-side if a == axis else slice(None) for a in range(3))
            yield axis, side, flat[face][mask[face]]


def interfaces(inner: np.ndarray, outer: np.ndarray) -> Iterator[tuple]:
    """(axis, side, inner cells, outer cells) of the faces between an `inner`
    cell and an `outer` neighbour, flat indices in C order: axis by axis,
    side 1 of the inner cell (the lower of the pair) first, then side 0."""
    flat = np.arange(inner.size).reshape(inner.shape)
    for axis in range(3):
        lo, hi = face_pairs(axis)
        for a, b, side in ((lo, hi, 1), (hi, lo, 0)):
            m = inner[a] & outer[b]
            yield axis, side, flat[a][m], flat[b][m]


def _half_conductance(grid, coeff, cells, axis, r_surface):
    """Conductance from the centres of flat `cells` to their faces normal to
    `axis`, with `r_surface` in series."""
    area, half = _geometry(grid, axis)
    area = np.broadcast_to(area, grid.dims).ravel()[cells]
    half = np.broadcast_to(half, grid.dims).ravel()[cells]
    return area / (half / coeff.ravel()[cells] + r_surface)


def assemble(grid, coeff: np.ndarray, active: np.ndarray, fixed, r_surface):
    """(A, B) over the active cells, with one column of B per fixed value.

    `fixed` lists (axis, flat cells, column) groups of faces normal to
    `axis` on active cells, `column` one index for the group or one per
    cell; each couples through its half conductance with `r_surface[column]`
    in series. B[i, j] is the conductance from active cell i to fixed value
    j, and the diagonal of A holds every face conductance of its cell.
    Faces between active and inactive cells that `fixed` does not name
    carry no flux.
    """
    r_surface = np.asarray(r_surface, dtype=float)
    n = int(active.sum())
    dof = np.full(grid.dims, -1, dtype=np.int64)
    dof[active] = np.arange(n)
    diag = np.zeros(n)
    rows, cols, vals = [], [], []
    for axis in range(3):  # interior faces: A / (d_lo / c_lo + d_hi / c_hi)
        area, half = _geometry(grid, axis)
        r = half / coeff
        s_lo, s_hi = face_pairs(axis)
        g = area / (r[s_lo] + r[s_hi])
        lo, hi = dof[s_lo], dof[s_hi]
        both = (lo >= 0) & (hi >= 0)
        lo, hi, g = lo[both], hi[both], g[both]
        rows += [lo, hi]
        cols += [hi, lo]
        vals += [-g, -g]
        np.add.at(diag, lo, g)
        np.add.at(diag, hi, g)

    b_rows, b_cols, b_vals = [], [], []
    for axis, cells, column in fixed:
        g = _half_conductance(grid, coeff, cells, axis, r_surface[column])
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
        shape=(n, r_surface.size)).tocsr()
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
    the level below; the prolongation P is piecewise constant on the
    aggregates and the coarse operator the Galerkin product P^T A P.
    Coarsening stops at `COARSEST` unknowns, which a sparse LU solves
    exactly. Every level is a diagonally dominant M-matrix, so the
    spectrum of D^-1 A lies in (0, 2] and one damped-Jacobi sweep at
    weight `JACOBI_W` < 1 smooths it. The same sweep runs before and after
    the coarse correction, so the cycle is symmetric and CG applies.

    Each level keeps A, w D^-1, the restriction P^T built for the Galerkin
    product and the aggregate of each unknown, which indexes the
    prolongation.
    """
    shape, dims = a_mat.shape, active.shape
    coords = np.nonzero(active)  # C order, the dof order of `assemble`
    levels = []  # finest first
    while a_mat.shape[0] > COARSEST:
        dims = tuple((d + 1) // 2 for d in dims)
        blocks, agg = np.unique(
            np.ravel_multi_index(tuple(c // 2 for c in coords), dims), return_inverse=True)
        coords = np.unravel_index(blocks, dims)
        n, n_coarse = a_mat.shape[0], blocks.size
        agg = agg.astype(a_mat.indices.dtype)  # the column indices of A P below
        # each row of P^T lists its unknowns in ascending order, so P^T r
        # adds the same terms in the same order as np.bincount(agg, r)
        p_t = sparse.csr_matrix((np.ones(n), (agg, np.arange(n))), shape=(n_coarse, n))
        levels.append((a_mat, JACOBI_W / a_mat.diagonal(), p_t, agg))
        # P^T (A P) with A P sharing the values and row pointers of A
        a_mat = p_t @ sparse.csr_matrix((a_mat.data, agg[a_mat.indices], a_mat.indptr),
                                        shape=(n, n_coarse))
    coarsest = spla.splu(a_mat.tocsc())
    # the lambda holds the hierarchy without a reference cycle, so the
    # hierarchy is freed with its last user, not at the next garbage collection
    return spla.LinearOperator(shape, matvec=lambda b: _cycle(levels, coarsest, b), dtype=float)


def _cycle(levels, coarsest, b):
    """One V(1,1) cycle for A x = b from x = 0; `levels[0]` is the finest.

    Both smoothers are x + w D^-1 (b - A x), the pre-smoother from x = 0.
    Each step updates an array it has just allocated, never `b`, and the
    iterates are bit-identical to the plain expressions.
    """
    if not levels:
        return coarsest.solve(b)
    (a, wdinv, p_t, agg), coarser = levels[0], levels[1:]
    x = wdinv * b
    r = a @ x
    np.subtract(b, r, out=r)
    x += np.take(_cycle(coarser, coarsest, p_t @ r), agg)
    r = a @ x
    np.subtract(b, r, out=r)
    r *= wdinv
    x += r
    return x


def solve_spd(a_mat, rhs: np.ndarray, tol: float, precond, x0=None,
              name: str = "linear solve") -> np.ndarray:
    """CG preconditioned by `precond` (a `multigrid`) to relative residual `tol`.

    With the multigrid cycle each coarsening level adds only a few
    iterations (the sample cell's solves take at most 38 at 2 nm), so the
    fixed limit `MAX_ITER` is a real stall signal: it raises
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
