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
face touches every connected part of the active set. A is written
straight into CSR, each row in column order; no triplet list is built or
sorted, and its arrays scale with the active cells and their bounding
box, not with the grid.

`solve_spd` solves it by conjugate gradients preconditioned with an
aggregation-multigrid AMLI cycle (`multigrid`), built once per operator
and reused for each of its right-hand sides. The cycle corrects twice
from each coarser level and weights the two corrections by a degree-2
Chebyshev polynomial, so a refinement that adds a coarsening level costs
no iterations (on the sample cell, 20-21 per cold capacitance solve at
3 nm with two coarsenings, 18-19 at 2 nm with three).
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
# lower end of the interval [lambda, 1] on which the AMLI weights are the
# degree-2 Chebyshev polynomial; 1 gives the plain W-cycle. The cycle's
# spectrum stays in (0, 1 + delta] with delta = (1 - lambda)^2 / D, so it is
# SPD at every depth while delta < lambda, i.e. lambda > 0.236; counts are
# flat over 0.2-0.5 and at 0.1 the solves stop converging
AMLI_LAMBDA = 0.3
_AMLI_D = AMLI_LAMBDA ** 2 + 6 * AMLI_LAMBDA + 1
AMLI_E1, AMLI_E2 = 8 * AMLI_LAMBDA / _AMLI_D, 8 / _AMLI_D  # weights of e1 and e2


def widths(grid):
    """Cell widths in m per axis, shaped by np.ix_ to broadcast against the cells."""
    return np.ix_(*(grid.widths(a) * NM for a in range(3)))


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


def _box(active: np.ndarray) -> tuple[slice, ...]:
    """Slices of the smallest box that holds every active cell."""
    box = []
    for axis in range(3):
        hit = np.flatnonzero(active.any(axis=tuple(a for a in range(3) if a != axis)))
        box.append(slice(hit.min(initial=0), hit.max(initial=-1) + 1))
    return tuple(box)


def assemble(grid, coeff: np.ndarray, active: np.ndarray, fixed, r_surface):
    """(A, B) over the active cells, with one column of B per fixed value.

    `fixed` lists (axis, flat cells, column) groups of faces normal to
    `axis` on active cells, `column` one index for the group or one per
    cell; each couples through its half conductance with `r_surface[column]`
    in series. B[i, j] is the conductance from active cell i to fixed value
    j, and the diagonal of A holds every face conductance of its cell.
    Faces between active and inactive cells that `fixed` does not name
    carry no flux.

    The unknowns follow the C order of the active cells, so each row of A
    lists its columns in ascending order: the -x, -y and -z neighbours, the
    cell, the +z, +y and +x neighbours. Each unknown gets these 7 slots,
    gathered from per-axis face arrays over the bounding box of `active`,
    and one keep-mask drops the slots of absent neighbours. The diagonal
    adds each cell's faces in a fixed order: per axis the high face, then
    the low one, then the fixed faces in the order given.
    """
    r_surface = np.asarray(r_surface, dtype=float)
    box = _box(active)
    act, c = active[box], coeff[box]
    flat = np.flatnonzero(act)  # box-flat index of each unknown
    n = flat.size
    index = np.int32 if 7 * n <= np.iinfo(np.int32).max else np.int64
    dof = np.full(act.shape, -1, dtype=index)
    dof[act] = np.arange(n, dtype=index)
    w = np.ix_(*(grid.widths(a)[s] * NM for a, s in enumerate(box)))
    strides = (act.shape[1] * act.shape[2], act.shape[2], 1)
    # row i's slot `axis` holds its low neighbour along `axis`, slot 3 the
    # cell and slot 6 - axis its high neighbour
    keep = np.empty((n, 7), dtype=bool)
    vals = np.empty((n, 7))
    cols = np.empty((n, 7), dtype=index)
    keep[:, 3] = True
    cols[:, 3] = np.arange(n, dtype=index)
    diag = np.zeros(n)
    for axis in range(3):  # interior faces: A / (d_lo / c_lo + d_hi / c_hi)
        a, b = (x for x in range(3) if x != axis)
        r = w[axis] / 2 / c
        s_lo, s_hi = face_pairs(axis)
        # each face between two active cells, stored at its low cell, so the
        # high layer along `axis` holds none; one stride below a cell of the
        # low layer lies in that high layer (wrapping below index 0), so an
        # absent low neighbour reads no face. The column gathers read any
        # dof there, which the keep-mask drops.
        both = np.zeros(act.shape, dtype=bool)
        np.logical_and(act[s_lo], act[s_hi], out=both[s_lo])
        g = np.zeros(act.shape)
        np.divide(w[a] * w[b], r[s_lo] + r[s_hi], out=g[s_lo], where=both[s_lo])
        low = flat - strides[axis]
        g_hi, g_lo = g.take(flat), g.take(low, mode="wrap")
        diag += g_hi
        diag += g_lo
        np.negative(g_hi, out=vals[:, 6 - axis])
        np.negative(g_lo, out=vals[:, axis])
        keep[:, 6 - axis] = both.take(flat)
        keep[:, axis] = both.take(low, mode="wrap")
        cols[:, 6 - axis] = dof.take(flat + strides[axis], mode="wrap")
        cols[:, axis] = dof.take(low, mode="wrap")
    del flat, r, both, g, low, g_hi, g_lo  # not alive at the compression's peak

    b_rows, b_cols, b_vals = [], [], []
    w = [x.ravel() for x in w]
    for axis, cells, column in fixed:  # half conductances A / (d / c + r_surface)
        idx = tuple(i - s.start for i, s in zip(np.unravel_index(cells, grid.dims), box))
        a, b = (x for x in range(3) if x != axis)
        g = w[a][idx[a]] * w[b][idx[b]] / (w[axis][idx[axis]] / 2 / c[idx] + r_surface[column])
        d = dof[idx]
        np.add.at(diag, d, g)
        b_rows.append(d)
        b_cols.append(np.broadcast_to(column, d.shape))
        b_vals.append(g)

    vals[:, 3] = diag
    # both compressed arrays are allocated before the staging is freed:
    # after it, glibc would place them on its heap, whose freed memory stays
    # with the process (6 MB more peak RSS on a 233k-cell thermal run)
    data = vals[keep]
    indices = cols[keep]
    del vals, cols
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    a_mat = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
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
    """Aggregation-multigrid AMLI(1,1) preconditioner for an `assemble` operator.

    Each coarser level aggregates the active cells of the 2x2x2 blocks of
    the level below; the prolongation P is piecewise constant on the
    aggregates and the coarse operator the Galerkin product P^T A P.
    Coarsening stops at `COARSEST` unknowns, which a sparse LU solves
    exactly. Every level is a diagonally dominant SPD M-matrix, so the LU
    orders A + A^T and keeps the diagonal pivots, and the spectrum of
    D^-1 A lies in (0, 2], so one damped-Jacobi sweep at weight
    `JACOBI_W` < 1 smooths it. The same sweep runs before and after the
    coarse correction, so the cycle is symmetric and CG applies. Each
    level whose coarser level is not the LU corrects twice, with the AMLI
    weights (`_cycle`).

    Each level keeps A, w D^-1, the restriction P^T built for the Galerkin
    product and the prolongation P, a CSC view of P^T's arrays; no aggregates.
    """
    shape, dims = a_mat.shape, active.shape
    coords = np.nonzero(active)  # C order, the dof order of `assemble`
    levels = []  # finest first
    while a_mat.shape[0] > COARSEST:
        dims = tuple((d + 1) // 2 for d in dims)
        # the occupied blocks in ascending order and the rank of each
        # unknown's block among them, without sorting the unknowns
        key = np.ravel_multi_index(tuple(c // 2 for c in coords), dims)
        hit = np.zeros(np.prod(dims), dtype=bool)
        hit[key] = True
        blocks = np.flatnonzero(hit)
        # in the index dtype of A: the column indices of A P below
        agg = (np.cumsum(hit, dtype=a_mat.indices.dtype) - 1)[key]
        coords = np.unravel_index(blocks, dims)
        n, n_coarse = a_mat.shape[0], blocks.size
        # each row of P^T lists its unknowns in ascending order, so P^T r
        # adds the same terms in the same order as np.bincount(agg, r)
        p_t = sparse.csr_matrix((np.ones(n), (agg, np.arange(n))), shape=(n_coarse, n))
        levels.append((a_mat, JACOBI_W / a_mat.diagonal(), p_t, p_t.T))
        # P^T (A P) with A P sharing the values and row pointers of A
        a_mat = p_t @ sparse.csr_matrix((a_mat.data, agg[a_mat.indices], a_mat.indptr),
                                        shape=(n, n_coarse))
    coarsest = spla.splu(a_mat.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    # the lambda holds the hierarchy without a reference cycle, so the
    # hierarchy is freed with its last user, not at the next garbage collection
    return spla.LinearOperator(shape, matvec=lambda b: _cycle(levels, coarsest, b), dtype=float)


def _cycle(levels, coarsest, b):
    """One AMLI(1,1) cycle for A x = b from x = 0; `levels[0]` is the finest.

    Both smoothers are x + w D^-1 (b - A x), the pre-smoother from x = 0.
    The coarse correction solves A_c e = P^T r: e1 is one cycle on the
    level below and e2 one cycle on the residual P^T r - A_c e1, and
    e = E1 e1 + E2 e2 with the degree-2 Chebyshev weights on
    [`AMLI_LAMBDA`, 1] (Axelsson and Vassilevski, SIAM J. Numer. Anal. 27,
    1990). The cycle applies a fixed polynomial in a symmetric operator,
    so it stays linear and symmetric and plain CG applies; E2 scales the
    residual before the second cycle, so e2 is never held beside e.
    Each step updates an array it has just allocated, never `b`, and the
    iterates are bit-identical to the plain expressions (P e adds each
    e[agg] once to a zero). The residual is released once restricted.
    """
    if not levels:
        return coarsest.solve(b)
    (a, wdinv, p_t, p), coarser = levels[0], levels[1:]
    x = wdinv * b
    r = a @ x
    np.subtract(b, r, out=r)
    rc = p_t @ r
    del r
    e = _cycle(coarser, coarsest, rc)
    if coarser:  # a second correction, unless the first was the exact LU solve
        rc -= coarser[0][0] @ e
        rc *= AMLI_E2
        e *= AMLI_E1
        e += _cycle(coarser, coarsest, rc)
    x += p @ e
    r = a @ x
    np.subtract(b, r, out=r)
    r *= wdinv
    x += r
    return x


def solve_spd(a_mat, rhs: np.ndarray, tol: float, precond, x0=None,
              name: str = "linear solve") -> np.ndarray:
    """CG preconditioned by `precond` (a `multigrid`) to relative residual `tol`.

    With the multigrid AMLI cycle a coarsening level adds no iterations, so
    the fixed limit `MAX_ITER` is a real stall signal: it raises
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
