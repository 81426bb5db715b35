import numpy as np
import pytest

from cfetsim import fv
from cfetsim.geometry import Region, voxelize
from cfetsim.materials import default_library
from cfetsim.parasitics import boundary_port_faces, extract_capacitance, extract_resistance
from cfetsim.thermal import assemble, default_bc


def two_material_grid():
    """Non-uniform grid: two dielectrics around a two-metal wire A and a plate B."""
    regions = [
        Region(((0, 20), (0, 10), (0, 10)), "sio2"),
        Region(((0, 20), (0, 10), (5.5, 10)), "hfo2"),
        Region(((0, 8.5), (3, 7), (2, 4)), "interconnect_metal", label="A"),
        Region(((8.5, 20), (3, 7), (2, 4)), "gate_metal", label="A"),
        Region(((3, 17), (2.5, 7.5), (6.5, 8.25)), "interconnect_metal", label="B"),
    ]
    grid = voxelize(regions, 1.5)
    assert all(np.ptp(grid.widths(a)) > 0 for a in range(3))
    return grid


def run_thermal(grid, lib):
    assemble(grid, lib, default_bc())


def run_capacitance(grid, lib):
    extract_capacitance(grid, lib, ["A", "B"])


def run_capacitance_shield(grid, lib):
    extract_capacitance(grid, lib, ["A", "B"], shield=True)


def run_conduction(grid, lib):
    faces = [f for f in boundary_port_faces(grid, "A") if f[1] == 0]
    terminals = {"a": [f for f in faces if f[2] == 0], "b": [f for f in faces if f[2] == 1]}
    extract_resistance(grid, lib, pairs=[("a", "b")], terminals=terminals)


@pytest.mark.parametrize("run", [run_thermal, run_capacitance, run_capacitance_shield,
                                 run_conduction],
                         ids=["thermal", "capacitance", "capacitance-shield", "conduction"])
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
