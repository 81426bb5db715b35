import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as spla

from cfetsim import cli, fv
from cfetsim.config import load_config
from cfetsim.device import ThermalContext
from cfetsim.geometry import RAIL_NAMES, Region, VoxelGrid, voxelize
from cfetsim.materials import default_library
from cfetsim.parasitics import boundary_port_faces, extract_capacitance, extract_resistance
from cfetsim.thermal import assemble, default_bc


SAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "sample_2tier.ini"


def two_material_grid(resolution=1.5):
    """Non-uniform grid: two dielectrics around a two-metal wire A and a plate B."""
    regions = [
        Region(((0, 20), (0, 10), (0, 10)), "sio2"),
        Region(((0, 20), (0, 10), (5.5, 10)), "hfo2"),
        Region(((0, 8.5), (3, 7), (2, 4)), "interconnect_metal", label="A"),
        Region(((8.5, 20), (3, 7), (2, 4)), "gate_metal", label="A"),
        Region(((3, 17), (2.5, 7.5), (6.5, 8.25)), "interconnect_metal", label="B"),
    ]
    grid = voxelize(regions, resolution)
    assert all(np.ptp(grid.widths(a)) > 0 for a in range(3))
    return grid


def run_thermal(grid, lib):
    assemble(grid, lib, default_bc())


def run_capacitance(grid, lib):
    extract_capacitance(grid, lib, ["A", "B"])


def run_conduction(grid, lib):
    faces = boundary_port_faces(grid, "A")
    terminals = {"a": [g for g in faces if g[:2] == (0, 0)],
                 "b": [g for g in faces if g[:2] == (0, 1)]}
    extract_resistance(grid, lib, pairs=[("a", "b")], terminals=terminals)


@pytest.mark.parametrize("run", [run_thermal, run_capacitance, run_conduction],
                         ids=["thermal", "capacitance", "conduction"])
def test_constant_field_is_exact(run, monkeypatch):
    """A u = B u_fixed holds for u = 1 everywhere: no face is dropped or double counted."""
    systems = []
    real = fv.assemble

    def recording(*args, **kwargs):
        systems.append(real(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(fv, "assemble", recording)
    run(two_material_grid(), default_library())
    assert len(systems) == 1
    a_mat, b_mat = systems[0]
    assert b_mat.nnz > 0
    lhs = a_mat @ np.ones(a_mat.shape[0])
    rhs = b_mat @ np.ones(b_mat.shape[1])
    assert np.abs(lhs - rhs).max() <= 1e-12 * a_mat.diagonal().max()


def plain_assemble(grid, coeff, active, fixed, r_surface):
    """`fv.assemble` as COO triplets that scipy sums into CSR: the interior
    faces axis by axis, each added to the diagonal at its low cell and then
    its high cell, then the fixed faces in the order given."""
    r_surface = np.asarray(r_surface, dtype=float)
    n = int(active.sum())
    dof = np.full(grid.dims, -1)
    dof[active] = np.arange(n)
    w = fv.widths(grid)
    diag = np.zeros(n)
    rows, cols, vals = [], [], []
    for axis in range(3):
        a, b = (x for x in range(3) if x != axis)
        r = w[axis] / 2 / coeff
        lo, hi = fv.face_pairs(axis)
        g = w[a] * w[b] / (r[lo] + r[hi])
        both = (dof[lo] >= 0) & (dof[hi] >= 0)
        i, j, g = dof[lo][both], dof[hi][both], g[both]
        rows += [i, j]
        cols += [j, i]
        vals += [-g, -g]
        np.add.at(diag, i, g)
        np.add.at(diag, j, g)
    b_rows, b_cols, b_vals = [], [], []
    for axis, cells, column in fixed:
        a, b = (x for x in range(3) if x != axis)
        area = np.broadcast_to(w[a] * w[b], grid.dims).ravel()[cells]
        half = np.broadcast_to(w[axis] / 2, grid.dims).ravel()[cells]
        g = area / (half / coeff.ravel()[cells] + r_surface[column])
        d = dof.ravel()[cells]
        np.add.at(diag, d, g)
        b_rows.append(d)
        b_cols.append(np.broadcast_to(column, d.shape))
        b_vals.append(g)
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag)
    a_mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    b_mat = sparse.coo_matrix(
        (np.concatenate(b_vals), (np.concatenate(b_rows), np.concatenate(b_cols))),
        shape=(n, r_surface.size))
    return a_mat.tocsr(), b_mat.tocsr()


def assert_csr_identical(given, plain):
    for key in ("indptr", "indices", "data"):
        assert getattr(given, key).dtype == getattr(plain, key).dtype, key
        assert np.array_equal(getattr(given, key), getattr(plain, key)), key


@pytest.mark.parametrize("run", [run_thermal, run_capacitance, run_conduction],
                         ids=["thermal", "capacitance", "conduction"])
def test_assemble_equals_the_coo_build_bitwise(run, monkeypatch):
    """Held and convective sinks on the full grid (thermal), a masked domain
    with one interface column per cell (capacitance) and a small conductor
    between terminal faces (conduction)."""
    calls = []
    real = fv.assemble

    def recording(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(fv, "assemble", recording)
    run(two_material_grid(), default_library())
    [(args, given)] = calls
    for mat, plain in zip(given, plain_assemble(*args)):
        assert_csr_identical(mat, plain)


@pytest.mark.parametrize("seed", range(4))
def test_assemble_equals_the_coo_build_on_a_scattered_domain(seed):
    """Active cells scattered over a box inside the grid, so rows miss
    neighbours in every slot, at the box edges too; fixed faces on the
    outer and the inner boundary, some held and some behind a surface
    resistance."""
    grid = two_material_grid()
    rng = np.random.default_rng(seed)
    active = np.zeros(grid.dims, dtype=bool)
    inside = (slice(1, -2), slice(2, None), slice(None, -1))  # clear of three grid faces
    active[inside] = rng.random(active[inside].shape) < 0.6
    coeff = rng.uniform(0.5, 2.0, grid.dims)
    fixed = [(axis, cells, 0) for axis, _, cells in fv.outer_faces(active)]
    fixed += [(axis, cells, 1 + side) for axis, side, cells, _ in fv.interfaces(active, ~active)]
    r_surface = [0.0, 3e8, 1e9]
    given = fv.assemble(grid, coeff, active, fixed, r_surface)
    for mat, plain in zip(given, plain_assemble(grid, coeff, active, fixed, r_surface)):
        assert_csr_identical(mat, plain)


def test_assemble_peak_memory_is_within_three_operators():
    """numpy reports its buffers to tracemalloc: one all-active assembly
    allocates at most 3 times the bytes of A's CSR arrays at its peak (the
    COO build peaked at 4.1 times)."""
    grid = two_material_grid(0.3)  # 68 x 36 x 35 cells
    active = np.ones(grid.dims, dtype=bool)
    coeff = np.random.default_rng(1).uniform(0.5, 2.0, grid.dims)
    fixed = [(axis, cells, 0) for axis, _, cells in fv.outer_faces(active)]
    fv.assemble(grid, coeff, active, fixed, [0.0])  # imports and caches first
    tracemalloc.start()
    try:
        a_mat, _ = fv.assemble(grid, coeff, active, fixed, [0.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (a_mat.data.nbytes + a_mat.indices.nbytes + a_mat.indptr.nbytes)


def test_boundary_flux_is_the_face_sum():
    grid = two_material_grid()
    kappa = np.full(grid.dims, 2.0)
    cells = np.arange(grid.dims[1] * grid.dims[2])  # the x_min face
    wx, wy, wz = (grid.widths(a) * fv.NM for a in range(3))
    g = (np.outer(wy, wz) / (wx[0] / 2 / 2.0)).ravel()  # area / (d / kappa)
    a_mat, b_mat = fv.assemble(grid, kappa, np.ones(grid.dims, dtype=bool),
                               [(0, cells, 0)], [0.0])
    u = np.random.default_rng(3).random(grid.n_cells)
    flux = fv.boundary_flux(b_mat, u, np.array([0.5]))
    assert flux[0] == pytest.approx((g * (0.5 - u[cells])).sum(), rel=1e-12)


MASK_CASES = [(seed, shape) for seed in range(3) for shape in ((4, 5, 3), (3, 1, 4))]


def neighbour(shape, cell, axis, side):
    """Flat index of the face neighbour of `cell` on `side` of `axis`, or None."""
    idx = list(np.unravel_index(cell, shape))
    idx[axis] += 1 if side else -1
    return int(np.ravel_multi_index(idx, shape)) if 0 <= idx[axis] < shape[axis] else None


@pytest.mark.parametrize("seed, shape", MASK_CASES)
def test_outer_faces_match_a_cell_by_cell_search(seed, shape):
    mask = np.random.default_rng(seed).random(shape) < 0.5
    groups = list(fv.outer_faces(mask))
    assert [g[:2] for g in groups] == [(a, s) for a in range(3) for s in (0, 1)]
    brute = [(axis, side, cell) for axis in range(3) for side in (0, 1)
             for cell in range(mask.size)
             if mask.flat[cell] and neighbour(shape, cell, axis, side) is None]
    assert [(a, s, int(c)) for a, s, cells in groups for c in cells] == brute


@pytest.mark.parametrize("seed, shape", MASK_CASES)
def test_interfaces_match_a_cell_by_cell_search(seed, shape):
    inner, outer = np.random.default_rng(seed).random((2, *shape)) < 0.5
    groups = list(fv.interfaces(inner, outer))
    assert [g[:2] for g in groups] == [(a, s) for a in range(3) for s in (1, 0)]
    brute = []
    for axis in range(3):
        for side in (1, 0):
            for cell in range(inner.size):
                other = neighbour(shape, cell, axis, side)
                if inner.flat[cell] and other is not None and outer.flat[other]:
                    brute.append((axis, side, cell, other))
    assert [(a, s, int(c), int(o)) for a, s, cells, others in groups
            for c, o in zip(cells, others, strict=True)] == brute


def recorded_multigrids(monkeypatch):
    """Patch `fv.multigrid` to record the (A, preconditioner) of each hierarchy."""
    built = []
    real = fv.multigrid

    def recording(a_mat, active):
        built.append((a_mat, real(a_mat, active)))
        return built[-1][1]

    monkeypatch.setattr(fv, "multigrid", recording)
    return built


def one_multigrid(run, monkeypatch, resolution=0.6):
    """The one hierarchy `run` builds; at 0.6 nm, 35 x 19 x 19 cells, above the
    coarsening threshold."""
    built = recorded_multigrids(monkeypatch)
    run(two_material_grid(resolution), default_library())
    [(a_mat, precond)] = built
    return a_mat, precond


@pytest.mark.parametrize("run", [run_thermal, run_capacitance], ids=["thermal", "capacitance"])
def test_multigrid_solve_matches_direct(run, monkeypatch):
    """Robin sink faces (thermal) and inactive conductor cells (capacitance)."""
    a_mat, precond = one_multigrid(run, monkeypatch)
    assert a_mat.shape[0] > fv.COARSEST
    b = np.random.default_rng(5).random(a_mat.shape[0]) * a_mat.diagonal()
    # 1e-11, not 1e-12: the thermal system's rounding floor is about 2e-12
    # (sparse LU reaches 2.5e-12), and solve_spd checks the true residual
    x = fv.solve_spd(a_mat, b, 1e-11, precond)
    exact = spla.spsolve(a_mat.tocsc(), b)
    assert np.linalg.norm(x - exact) <= 1e-9 * np.linalg.norm(exact)


@pytest.mark.parametrize("run", [run_thermal, run_capacitance], ids=["thermal", "capacitance"])
def test_multigrid_cycle_is_symmetric(run, monkeypatch):
    a_mat, precond = one_multigrid(run, monkeypatch)
    x, y = np.random.default_rng(7).standard_normal((2, a_mat.shape[0]))
    mx, my = precond @ x, precond @ y
    assert abs(mx @ y - x @ my) <= 1e-12 * np.linalg.norm(mx) * np.linalg.norm(y)


def plain_multigrid(a_mat, active):
    """`fv.multigrid`'s AMLI(1,1) cycle in its plain expressions: aggregates
    by np.unique, the smoother x + w D^-1 (b - A x) written out, restriction
    by np.bincount and prolongation by fancy indexing. Above a level that is
    not the LU the coarse correction runs twice, the second on the residual
    of the first, and the two are summed with the weights E1 and E2."""
    levels, coords, dims = [], np.nonzero(active), active.shape
    while a_mat.shape[0] > fv.COARSEST:
        dims = tuple((d + 1) // 2 for d in dims)
        blocks, agg = np.unique(
            np.ravel_multi_index(tuple(c // 2 for c in coords), dims), return_inverse=True)
        coords = np.unravel_index(blocks, dims)
        n, n_coarse = a_mat.shape[0], blocks.size
        agg = agg.astype(a_mat.indices.dtype)
        levels.append((a_mat, fv.JACOBI_W / a_mat.diagonal(), agg, n_coarse))
        p_t = sparse.csr_matrix((np.ones(n), (agg, np.arange(n))), shape=(n_coarse, n))
        a_mat = p_t @ sparse.csr_matrix((a_mat.data, agg[a_mat.indices], a_mat.indptr),
                                        shape=(n, n_coarse))
    coarsest = spla.splu(a_mat.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})

    def smooth(a, wdinv, b, x):
        return x + wdinv * (b - a @ x)

    def cycle(level, b):
        if level == len(levels):
            return coarsest.solve(b)
        a, wdinv, agg, n_coarse = levels[level]
        x = smooth(a, wdinv, b, np.zeros_like(b))
        rc = np.bincount(agg, b - a @ x, n_coarse)
        e = cycle(level + 1, rc)
        if level + 1 < len(levels):
            e2 = cycle(level + 1, fv.AMLI_E2 * (rc - levels[level + 1][0] @ e))
            e = fv.AMLI_E1 * e + e2
        x = x + e[agg]
        return smooth(a, wdinv, b, x)
    return lambda b: cycle(0, b)


@pytest.mark.parametrize("run", [run_thermal, run_capacitance], ids=["thermal", "capacitance"])
def test_multigrid_cycle_equals_its_plain_expressions_bitwise(run, monkeypatch):
    built = []
    real = fv.multigrid

    def recording(a_mat, active):
        built.append((a_mat, active, real(a_mat, active)))
        return built[-1][2]

    monkeypatch.setattr(fv, "multigrid", recording)
    run(two_material_grid(0.45), default_library())  # 46 x 25 x 25: two levels above the LU
    [(a_mat, active, precond)] = built
    plain = plain_multigrid(a_mat, active)
    for b in np.random.default_rng(11).standard_normal((3, a_mat.shape[0])):
        given = b.copy()
        assert np.array_equal(precond @ b, plain(b))
        assert np.array_equal(b, given)  # the cycle leaves its input alone


def amli_weights(lam):
    """(E1, E2, delta) of the degree-2 Chebyshev weights on [lam, 1]."""
    d = lam ** 2 + 6 * lam + 1
    return 8 * lam / d, 8 / d, (1 - lam) ** 2 / d


def test_amli_constants_keep_every_level_spd():
    """The cycle's spectrum stays in (0, 1 + delta]; the next level's
    weights keep it positive only on (0, 1 + lambda), so delta < lambda."""
    e1, e2, delta = amli_weights(fv.AMLI_LAMBDA)
    assert (fv.AMLI_E1, fv.AMLI_E2) == pytest.approx((e1, e2), rel=1e-15)
    assert delta < fv.AMLI_LAMBDA
    assert amli_weights(1.0)[:2] == (1.0, 1.0)  # lambda = 1 is the W-cycle


def a_power_iteration(a_mat, op, iters=100, seed=13):
    """Rayleigh quotient of `op` in the A inner product after `iters` steps."""
    v = np.random.default_rng(seed).standard_normal(a_mat.shape[0])
    for _ in range(iters):
        av = a_mat @ v
        w = op(v)
        mu = (w @ av) / (v @ av)
        v = w / np.sqrt(w @ (a_mat @ w))
    return mu


@pytest.mark.parametrize("lam", [fv.AMLI_LAMBDA, 0.1])
def test_amli_cycle_spectrum_lies_in_its_bound(lam, monkeypatch):
    """Power iterations in the A inner product find the spectrum of M A
    inside (0, 1 + delta] when delta < lambda, and outside it at
    lambda = 0.1. With `COARSEST` at 100 the 0.45 nm grid has three levels
    above the LU, so two of them weight their corrections."""
    e1, e2, delta = amli_weights(lam)
    monkeypatch.setattr(fv, "AMLI_E1", e1)
    monkeypatch.setattr(fv, "AMLI_E2", e2)
    monkeypatch.setattr(fv, "COARSEST", 100)
    a_mat, precond = one_multigrid(run_thermal, monkeypatch, 0.45)
    top = a_power_iteration(a_mat, lambda v: precond @ (a_mat @ v))
    shift = 1 + delta  # (1 + delta) I - M A finds the low end
    low = shift - a_power_iteration(a_mat, lambda v: shift * v - precond @ (a_mat @ v))
    assert (0 < low and top <= 1 + delta) == (delta < lam), (low, top, delta)


def test_small_system_preconditioner_is_the_direct_solve(monkeypatch):
    a_mat, precond = one_multigrid(run_thermal, monkeypatch, 1.5)
    assert a_mat.shape[0] <= fv.COARSEST
    b = np.random.default_rng(9).random(a_mat.shape[0])
    exact = spla.spsolve(a_mat.tocsc(), b)
    assert np.linalg.norm(precond @ b - exact) <= 1e-12 * np.linalg.norm(exact)


def test_one_hierarchy_per_operator(tmp_path, monkeypatch):
    """extract builds one; delay with parasitics and SHE one capacitance and one heat."""
    built = recorded_multigrids(monkeypatch)
    config = tmp_path / "run.ini"
    config.write_text(SAMPLE_CONFIG.read_text().replace("resolution = 3nm", "resolution = 4nm")
                      .replace("dt_fs = 5", "dt_fs = 10"))
    assert cli.main(["extract", str(config), "--design", "2tier",
                     "--out", str(tmp_path / "ex")]) == 0
    assert len(built) == 1
    built.clear()
    assert cli.main(["delay", str(config), "--design", "2tier", "--parasitics", "on",
                     "--she", "on", "--out", str(tmp_path / "delay")]) == 0
    assert len(built) == 2


@pytest.fixture(scope="module")
def sample_cell():
    """The sample config and its 2-tier inverter grid (3 nm, 38 x 25 x 76 cells)."""
    config = load_config(str(SAMPLE_CONFIG))
    return config, cli.build_inverter_grid(config, "2tier")[0]


def counting_cg(monkeypatch):
    """Patch `spla.cg` to record the iterations of each call, as perfbench counts them."""
    counts = []
    real = spla.cg

    def cg(*args, callback=None, **kwargs):
        counts.append(0)

        def counting(xk):
            counts[-1] += 1
        return real(*args, callback=counting, **kwargs)

    monkeypatch.setattr(spla, "cg", cg)
    return counts


def cold_starts(monkeypatch):
    """Patch `fv.solve_spd` to ignore any starting guess."""
    real = fv.solve_spd
    monkeypatch.setattr(fv, "solve_spd", lambda *args, x0=None, **kwargs: real(*args, **kwargs))


def test_last_capacitance_solve_starts_from_the_sum_rule(sample_cell, monkeypatch):
    config, grid = sample_cell
    counts = counting_cg(monkeypatch)
    warm = extract_capacitance(grid, config.library, list(RAIL_NAMES))
    cold_starts(monkeypatch)
    cold = extract_capacitance(grid, config.library, list(RAIL_NAMES))
    assert len(counts) == 8  # four solves each, none restarted
    assert counts[3] <= counts[0] / 4
    assert np.abs(warm.c - cold.c).max() <= 1e-9 * np.abs(cold.c).max()


def cold_sample_solves(config, grid):
    """Every capacitance solve and both unit heat solves of the sample cell on
    `grid`, after `counting_cg` and `cold_starts`: six CG calls."""
    extract_capacitance(grid, config.library, list(RAIL_NAMES))
    for tier in (0, 1):
        ThermalContext(grid, config.library, config.bc, f"tier{tier}.channel",
                       **config.heat).prepare()


def test_sample_solves_stay_within_the_iteration_budget(sample_cell, monkeypatch):
    """Each cold capacitance solve and each unit heat solve of the sample cell
    converges in at most 40 CG iterations, far inside `MAX_ITER`."""
    counts = counting_cg(monkeypatch)
    cold_starts(monkeypatch)
    cold_sample_solves(*sample_cell)
    assert len(counts) == 6
    assert max(counts) <= 40


def test_refining_to_2nm_costs_no_iterations(sample_cell, monkeypatch):
    """Refining the sample cell from 3 nm to 2 nm adds a coarsening level;
    with the AMLI weights each cold 2 nm solve still takes no more
    iterations than its 3 nm counterpart (the W-cycle took up to one more,
    a V-cycle 7 more per capacitance solve and 9 more per heat solve)."""
    config, grid = sample_cell
    fine_config = dataclasses.replace(config, mesh_resolution=2.0)
    fine_grid = cli.build_inverter_grid(fine_config, "2tier")[0]  # 52 x 33 x 108 cells
    counts = counting_cg(monkeypatch)
    cold_starts(monkeypatch)
    cold_sample_solves(config, grid)
    cold_sample_solves(fine_config, fine_grid)
    assert len(counts) == 12
    coarse, fine = counts[:6], counts[6:]
    assert all(f <= c for f, c in zip(fine, coarse)), (coarse, fine)


# Order of accuracy by a manufactured solution (Roache, J. Fluids Eng. 124,
# 2002): u = (1 + sin kx)(1 + sin ky) Z(z) on a 10 nm cube, k = pi / L, with
# c = 1 below a layer face at z = 4 nm and 7 above it. Z is linear below the
# face and quadratic above, with u and c dZ/dz continuous across it. Z is
# straight at the held z = 0 face because a curvature there adds an
# h^2 log h term to the flux through it (with d2Z/dz2 = 0.2 below the face,
# the flux order on this grid reads 1.67, 1.74, 1.79 and 1.82 over levels
# 0-4), which no affordable level separates from a lower order.
MMS_L, MMS_Z0, MMS_C = 10.0, 4.0, (1.0, 7.0)
MMS_K = np.pi / MMS_L
MMS_A, MMS_B = 0.3, 0.02  # dZ/dz below the layer face, half of d2Z/dz2 above it


def mms_z(z):
    """Z, dZ/dz, d2Z/dz2 and c at heights z in nm."""
    below = z < MMS_Z0
    t = z - MMS_Z0
    slope = MMS_A * MMS_C[0] / MMS_C[1]  # dZ/dz just above the face
    return (np.where(below, 1 + MMS_A * z, 1 + MMS_A * MMS_Z0 + slope * t + MMS_B * t ** 2),
            np.where(below, MMS_A, slope + 2 * MMS_B * t),
            np.where(below, 0.0, 2 * MMS_B),
            np.where(below, *MMS_C))


def mms_fields(x, y, z):
    """u, grad u (nm^-1), div(c grad u) (nm^-2) and c at points in nm."""
    xv, yv = 1 + np.sin(MMS_K * x), 1 + np.sin(MMS_K * y)
    dx, dy = MMS_K * np.cos(MMS_K * x), MMS_K * np.cos(MMS_K * y)
    zv, dz, d2z, c = mms_z(z)
    grad = (dx * yv * zv, xv * dy * zv, xv * yv * dz)
    lap = -MMS_K ** 2 * (xv - 1) * yv * zv - MMS_K ** 2 * xv * (yv - 1) * zv + xv * yv * d2z
    return xv * yv * zv, grad, c * lap, c


def mms_grid(level):
    """5 x 5 x 6 cells with widths in a 1:3 range and the layer face on an
    edge, every cell halved `level` times."""
    rng = np.random.default_rng(19)

    def spans(lo, hi, n):
        w = rng.uniform(1.0, 3.0, n)
        return lo + (hi - lo) * np.concatenate([[0.0], np.cumsum(w) / w.sum()])

    edges = []
    for e in (spans(0, MMS_L, 5), spans(0, MMS_L, 5),
              np.concatenate([spans(0, MMS_Z0, 2), spans(MMS_Z0, MMS_L, 4)[1:]])):
        parts = [np.linspace(a, b, 2 ** level + 1)[:-1] for a, b in zip(e[:-1], e[1:])]
        edges.append(np.concatenate(parts + [e[-1:]]))
    dims = tuple(len(e) - 1 for e in edges)
    return VoxelGrid(*edges, np.zeros(dims, dtype=np.int16), np.full(dims, -1, dtype=np.int16),
                     ["sio2"], [])


def mms_errors(level, r_surface_nm):
    """(L2 error of u, relative error of the flux in through z = 0) on one level.

    Every outer face is its own fixed value, behind `r_surface_nm` (in nm per
    unit c): the exact u at the face centre when 0 (held), else the ambient
    value whose surface flux equals the exact conductive one (convective).
    """
    grid = mms_grid(level)
    centres = np.meshgrid(*(grid.centers(a) for a in range(3)), indexing="ij")
    u, _, div, c = mms_fields(*centres)
    active = np.ones(grid.dims, dtype=bool)
    fixed, u_fixed, bottom = [], [], []
    for axis, side, cells in fv.outer_faces(active):
        point = [p.ravel()[cells] for p in centres]
        point[axis] = np.full(cells.size, MMS_L * side)
        u_face, grad, _, c_face = mms_fields(*point)
        outward = grad[axis] if side else -grad[axis]
        columns = np.arange(len(u_fixed), len(u_fixed) + cells.size)
        if (axis, side) == (2, 0):
            bottom = columns
        fixed.append((axis, cells, columns))
        u_fixed.extend(u_face + r_surface_nm * c_face * outward)
    u_fixed = np.asarray(u_fixed)
    # conductances scale by NM, so r_surface and the source do too
    a_mat, b_mat = fv.assemble(grid, c, active, fixed, np.full(u_fixed.size, r_surface_nm * fv.NM))
    vol = grid.cell_volumes().ravel()
    u_h = spla.spsolve(a_mat.tocsc(), b_mat @ u_fixed - div.ravel() * vol * fv.NM)
    l2 = np.sqrt((vol * (u_h - u.ravel()) ** 2).sum() / vol.sum())
    # exact flux in through z = 0: -c dZ/dz(0) times the integral of X Y
    exact = -MMS_C[0] * MMS_A * (MMS_L + 2 / MMS_K) ** 2 * fv.NM
    flux = fv.boundary_flux(b_mat, u_h, u_fixed)[bottom].sum()
    return l2, abs(flux - exact) / abs(exact)


@pytest.mark.parametrize("r_surface_nm", [0.0, 0.5], ids=["held", "convective"])
def test_operator_is_second_order_on_a_layered_nonuniform_grid(r_surface_nm):
    """On 150, 1,200 and 9,600 cells, the L2 error of u and the error of the
    flux through one face each fall at observed order 1.9 or more."""
    errors = np.array([mms_errors(level, r_surface_nm) for level in range(3)])
    orders = np.log2(errors[:-1] / errors[1:])
    assert (orders >= 1.9).all(), (errors, orders)
