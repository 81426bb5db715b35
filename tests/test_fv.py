from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import linalg as spla

from cfetsim import cli, fv
from cfetsim.geometry import Region, voxelize
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
    faces = [f for f in boundary_port_faces(grid, "A") if f[1] == 0]
    terminals = {"a": [f for f in faces if f[2] == 0], "b": [f for f in faces if f[2] == 1]}
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


def test_boundary_flux_is_the_face_sum():
    grid = two_material_grid()
    kappa = np.full(grid.dims, 2.0)
    cells = np.arange(grid.dims[1] * grid.dims[2])  # the x_min face
    g = fv.half_conductance(grid, kappa, cells, 0)
    a_mat, b_mat = fv.assemble(grid, kappa, np.ones(grid.dims, dtype=bool),
                               [(cells, g, 0)], 1)
    u = np.random.default_rng(3).random(grid.n_cells)
    flux = fv.boundary_flux(b_mat, u, np.array([0.5]))
    assert flux[0] == pytest.approx((g * (0.5 - u[cells])).sum(), rel=1e-12)


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
