import copy

import numpy as np
import pytest

from cfetsim.errors import MaterialError
from cfetsim.materials import Material, default_library, lookup, override, per_cell


def test_insulators_below_bulk_silicon(library):
    assert lookup(library, "sio2").kappa < lookup(library, "silicon_bulk").kappa
    assert lookup(library, "hfo2").kappa < lookup(library, "silicon_bulk").kappa


def test_nanosheet_below_bulk(library):
    # thin-film phonon boundary scattering: roughly an order of magnitude down
    ratio = lookup(library, "silicon_nanosheet").kappa / lookup(library, "silicon_bulk").kappa
    assert ratio < 0.2


def test_unknown_material_raises(library):
    with pytest.raises(MaterialError):
        lookup(library, "unobtainium")


def test_override_round_trip(library):
    lib2 = override(library, "sio2", "kappa", 1.4)
    assert lookup(lib2, "sio2").kappa == 1.4
    # original untouched
    assert lookup(library, "sio2").kappa == default_library()["sio2"].kappa


def test_override_invalid_value(library):
    with pytest.raises(MaterialError):
        override(library, "sio2", "kappa", -1.0)


def test_override_twice_last_wins(library):
    lib2 = override(override(library, "sio2", "kappa", 2.0), "sio2", "kappa", 3.0)
    assert lookup(lib2, "sio2").kappa == 3.0


def test_conductor_needs_resistivity():
    with pytest.raises(MaterialError):
        Material("m", "conductor", kappa=10.0)


def test_dielectric_rejects_resistivity():
    with pytest.raises(MaterialError):
        Material("m", "dielectric", kappa=1.0, eps_r=3.9, rho_e=1e-8)


def test_dielectric_needs_permittivity():
    with pytest.raises(MaterialError):
        Material("m", "dielectric", kappa=1.0)
    with pytest.raises(MaterialError):
        Material("m", "dielectric", kappa=1.0, eps_r=0.5)


def test_library_covers_every_grid_material(library, inverter_grid2):
    used = np.unique(inverter_grid2.material)
    for name in [inverter_grid2.material_names[c] for c in used if c >= 0]:
        assert lookup(library, name) is not None


def test_per_cell_maps_each_cell_to_its_material(library, device_grid2):
    kappa = per_cell(device_grid2, library, lambda m: m.kappa)
    assert kappa.shape == device_grid2.dims
    for code, name in enumerate(device_grid2.material_names):
        cells = device_grid2.material == code
        assert (kappa[cells] == library[name].kappa).all()


def test_per_cell_rejects_unassigned_cells(library, device_grid2):
    grid = copy.deepcopy(device_grid2)
    grid.material[0, 0, 0] = -1
    with pytest.raises(MaterialError, match="unassigned"):
        per_cell(grid, library, lambda m: m.kappa)
