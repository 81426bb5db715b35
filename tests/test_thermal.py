import math
import tracemalloc

import numpy as np
import pytest

from cfetsim.errors import (
    ConfigurationError,
    RegionNotFoundError,
    SingularSystemError,
)
from cfetsim.geometry import Region, VoxelGrid, voxelize
from cfetsim.materials import Material, default_library
from cfetsim.thermal import (
    FACE_KEYS,
    ThermalBC,
    assemble,
    default_bc,
    drain_hotspot_source,
    energy_balance,
    export_heatmap,
    format_reprs,
    solve_steady,
)

NM = 1e-9


def sinks(ambient=300.0, **h):
    """The named faces at the given h, every other face adiabatic."""
    return ThermalBC(dict.fromkeys(FACE_KEYS, 0.0) | h, ambient)


def all_dirichlet(t=300.0):
    return ThermalBC(dict.fromkeys(FACE_KEYS, math.inf), t)


def bar_bc(t=300.0):
    return sinks(t, x_min=math.inf, x_max=math.inf)


def uniform_source(grid, q):
    return np.full(grid.dims, q)


def slab_grid(n=64, length=64.0, side=4.0, material="silicon_bulk"):
    return voxelize([Region(((0.0, length), (0.0, side), (0.0, side)), material)],
                    length / n)


def test_all_adiabatic_is_singular():
    with pytest.raises(SingularSystemError):
        ThermalBC(dict.fromkeys(FACE_KEYS, 0.0), 300.0)


@pytest.mark.parametrize("h", [-1.0, -math.inf, math.nan])
def test_bc_rejects_negative_or_nan_h(h):
    with pytest.raises(ConfigurationError, match="h must be"):
        sinks(x_min=math.inf, z_max=h)


@pytest.mark.parametrize("ambient", [0.0, -300.0, math.nan, math.inf])
def test_bc_rejects_ambient_not_positive_and_finite(ambient):
    with pytest.raises(ConfigurationError, match="ambient"):
        sinks(ambient, x_min=math.inf)


def test_interior_row_sums_vanish(library):
    grid = voxelize([Region(((0, 8), (0, 8), (0, 8)), "silicon_bulk")], 1.0)
    op = assemble(grid, library, all_dirichlet())
    sums = np.asarray(op.matrix.sum(axis=1)).ravel().reshape(grid.dims)
    interior = sums[1:-1, 1:-1, 1:-1]
    assert np.abs(interior).max() < 1e-12 * op.matrix.diagonal().max()


def test_operator_symmetric(library):
    grid = voxelize([Region(((0, 6), (0, 5), (0, 4)), "silicon_bulk"),
                     Region(((0, 3), (0, 5), (0, 4)), "sio2")], 1.0)
    op = assemble(grid, library, default_bc())
    asym = abs(op.matrix - op.matrix.T)
    assert asym.max() == 0.0


def test_interface_conductance_harmonic_mean():
    lib = {
        "a": Material("a", "dielectric", kappa=1.0, eps_r=1.0),
        "b": Material("b", "dielectric", kappa=4.0, eps_r=1.0),
    }
    regions = [Region(((0, 1), (0, 1), (0, 1)), "a"),
               Region(((1, 2), (0, 1), (0, 1)), "b")]
    grid = voxelize(regions, 1.0)
    op = assemble(grid, lib, sinks(x_min=math.inf))
    # face area 1 nm^2, half-widths 0.5 nm: g = A/(d1/k1 + d2/k2) = 1.6 * A/h * k_low
    expected = 1.6 * (1e-18 / 1e-9) * 1.0
    assert -op.matrix[0, 1] == pytest.approx(expected, rel=1e-12)


def test_zero_source_gives_ambient(library):
    grid = voxelize([Region(((0, 8), (0, 8), (0, 8)), "silicon_bulk")], 1.0)
    op = assemble(grid, library, all_dirichlet(300.0))
    temps = solve_steady(op, uniform_source(grid, 0.0), tol=1e-12)
    assert np.abs(temps - 300.0).max() < 1e-9
    assert temps.max() - 300.0 == pytest.approx(0.0, abs=1e-9)


def test_1d_slab_analytic_profile(library):
    """T(x) = T0 + q x (L - x) / (2 kappa), peak q L^2 / (8 kappa)."""
    n, length = 64, 64.0
    kappa = default_library()["silicon_bulk"].kappa
    grid = slab_grid(n, length)
    op = assemble(grid, library, bar_bc(300.0))
    q = 1e18  # W/m^3
    temps = solve_steady(op, uniform_source(grid, q), tol=1e-12)
    x = grid.centers(0) * NM
    length_m = length * NM
    expected = 300.0 + q * x * (length_m - x) / (2 * kappa)
    profile = temps[:, 0, 0]
    rise = expected - 300.0
    assert np.abs(profile - expected).max() / rise.max() < 0.01
    peak = q * length_m**2 / (8 * kappa)
    assert temps.max() - 300.0 == pytest.approx(peak, rel=0.01)


def test_1d_convective_face_analytic_profile(library):
    """x_min held, x_max convective with h = kappa/L (Biot number 1).

    T - T0 = x (c - q x / 2) / kappa with c = q L (1 + Bi/2) / (1 + Bi),
    peak c^2 / (2 q kappa) at x = c / q = 3L/4: between the two-sided held
    bar (q L^2 / 8 kappa) and the one-sided one (q L^2 / 2 kappa).
    """
    n, length = 64, 64.0
    kappa = library["silicon_bulk"].kappa
    grid = slab_grid(n, length)
    length_m = length * NM
    h = kappa / length_m
    op = assemble(grid, library, sinks(x_min=math.inf, x_max=h))
    q = 1e18
    src = uniform_source(grid, q)
    temps = solve_steady(op, src, tol=1e-12)
    c = q * length_m * 1.5 / 2.0
    peak = c**2 / (2 * q * kappa)
    x = grid.centers(0) * NM
    expected = 300.0 + x * (c - q * x / 2) / kappa
    # second-order discretisation error: 1.1e-4 of the peak at 64 cells
    assert np.abs(temps[:, 0, 0] - expected).max() / peak < 2e-4
    assert temps.max() - 300.0 == pytest.approx(peak, rel=2e-4)
    assert energy_balance(op, temps, src)[2] < 1e-6


def test_finite_h_converges_to_held_face(library):
    grid = slab_grid(32)
    src = uniform_source(grid, 1e18)
    held = solve_steady(assemble(grid, library, bar_bc()), src, tol=1e-12)
    gaps = []
    for h in (1e10, 1e14, 1e18, 1e30):
        op = assemble(grid, library, sinks(x_min=math.inf, x_max=h))
        temps = solve_steady(op, src, tol=1e-12)
        gaps.append(np.abs(temps - held).max() / (held.max() - 300.0))
    assert all(b < a / 100 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-12


def test_energy_balance_tight(library):
    grid = slab_grid(64)
    op = assemble(grid, library, bar_bc())
    src = uniform_source(grid, 1e18)
    temps = solve_steady(op, src, tol=1e-12)
    p_in, p_out, rel = energy_balance(op, temps, src)
    assert rel < 1e-6


def test_superposition_and_scaling(library):
    grid = slab_grid(32)
    op = assemble(grid, library, bar_bc())
    rng = np.random.default_rng(11)
    q1 = rng.random(grid.dims) * 1e17
    q2 = rng.random(grid.dims) * 1e17
    f1 = solve_steady(op, q1, tol=1e-12)
    f2 = solve_steady(op, q2, tol=1e-12)
    f12 = solve_steady(op, q1 + q2, tol=1e-12)
    joint = f1 + f2 - 300.0
    scale = max(f12.max() - 300.0, 1e-30)
    assert np.abs(f12 - joint).max() / scale < 1e-8

    f3 = solve_steady(op, 3.0 * q1, tol=1e-12)
    assert np.abs((f3 - 300.0) - 3.0 * (f1 - 300.0)).max() / scale < 1e-8


def test_discrete_maximum_principle(library):
    grid = voxelize([Region(((0, 10), (0, 6), (0, 6)), "silicon_bulk"),
                     Region(((2, 5), (1, 4), (2, 5)), "sio2")], 1.0)
    op = assemble(grid, library, default_bc())
    rng = np.random.default_rng(5)
    src = rng.random(grid.dims) * 1e17
    temps = solve_steady(op, src, tol=1e-12)
    assert temps.min() >= 300.0 - 1e-6


def test_sink_distance_monotonicity(library):
    """Source moved away from the single sink never cools the peak."""
    grid = slab_grid(32, 32.0)
    op = assemble(grid, library, sinks(x_min=math.inf))
    peaks = []
    for i in (4, 12, 20, 28):
        q = np.zeros(grid.dims)
        q[i, :, :] = 1e18
        temps = solve_steady(op, q, tol=1e-12)
        peaks.append(temps.max() - 300.0)
    assert all(b >= a - 1e-9 for a, b in zip(peaks, peaks[1:]))


def test_mirror_symmetric_source_gives_mirror_field(library):
    grid = slab_grid(32, 32.0)
    op = assemble(grid, library, bar_bc())
    q = np.zeros(grid.dims)
    q[10, :, :] = 1e18
    q[21, :, :] = 1e18
    temps = solve_steady(op, q, tol=1e-12)
    flipped = temps[::-1, :, :]
    assert np.abs(temps - flipped).max() / (temps.max() - 300.0) < 1e-7


def power_of(q, grid):
    """The watts of a W/m^3 source over the grid's cells."""
    return float((q * grid.cell_volumes() * NM**3).sum())


def test_hotspot_source_integrates_exactly(device_grid2):
    total = 7.5e-6
    src = drain_hotspot_source(device_grid2, "tier0.channel", total, concentration=0.7)
    assert power_of(src, device_grid2) == pytest.approx(total, rel=1e-12)


def test_hotspot_concentration_split(device_grid2):
    grid = device_grid2
    total, conc = 1e-5, 0.7
    src = drain_hotspot_source(grid, "tier0.channel", total, concentration=conc)
    mask = grid.cells_of_label("tier0.channel")
    xc = grid.centers(0)
    ix = np.nonzero(mask.any(axis=(1, 2)))[0]
    x_mid = 0.5 * (grid.x_edges[ix[0]] + grid.x_edges[ix[-1] + 1])
    drain_half = mask & (xc[:, None, None] > x_mid)
    vols = grid.cell_volumes() * NM**3
    drain_power = float((src * vols)[drain_half].sum())
    assert drain_power == pytest.approx(conc * total, rel=1e-12)


def test_hotspot_concentration_one(device_grid2):
    src = drain_hotspot_source(device_grid2, "tier0.channel", 1e-6, concentration=1.0)
    assert power_of(src, device_grid2) == pytest.approx(1e-6, rel=1e-12)


def test_hotspot_zero_power(device_grid2):
    src = drain_hotspot_source(device_grid2, "tier0.channel", 0.0, concentration=0.7)
    assert not src.any()


def test_hotspot_unknown_region(device_grid2):
    with pytest.raises(RegionNotFoundError):
        drain_hotspot_source(device_grid2, "tier9.channel", 1e-6, concentration=0.7)


def test_heatmap_csv_round_trip(tmp_path, library):
    grid = voxelize([Region(((0, 2), (0, 2), (0, 2)), "silicon_bulk")], 1.0)
    op = assemble(grid, library, all_dirichlet())
    temps = solve_steady(op, uniform_source(grid, 1e18), tol=1e-12)
    path = tmp_path / "map.csv"
    export_heatmap(format_reprs(temps), grid, path, "csv")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (8, 4)
    assert np.allclose(data[:, 3], temps.ravel())


def test_heatmap_vtk_header(tmp_path, library):
    grid = voxelize([Region(((0, 2), (0, 2), (0, 2)), "silicon_bulk")], 1.0)
    op = assemble(grid, library, all_dirichlet())
    temps = solve_steady(op, uniform_source(grid, 0.0), tol=1e-12)
    path = tmp_path / "map.vtk"
    export_heatmap(format_reprs(temps), grid, path, "vtk_legacy")
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile Version")
    assert "DATASET STRUCTURED_GRID" in text
    assert any(line.startswith("SCALARS temperature") for line in text)


def _per_cell_csv(temps, grid):
    # one f-string per cell: the bytes the slab-wise CSV writer must reproduce
    xc, yc, zc = (grid.centers(a) for a in range(3))
    lines = ["x_nm,y_nm,z_nm,T_K"]
    for i in range(len(xc)):
        for j in range(len(yc)):
            for k in range(len(zc)):
                lines.append(f"{float(xc[i])!r},{float(yc[j])!r},{float(zc[k])!r},{float(temps[i, j, k])!r}")
    return "\n".join(lines) + "\n"


def _per_cell_vtk(temps, grid):
    # one f-string per cell: the bytes the slab-wise VTK writer must reproduce
    nx, ny, nz = grid.dims
    xc, yc, zc = (grid.centers(a) for a in range(3))
    out = ["# vtk DataFile Version 3.0", "temperature field", "ASCII",
           "DATASET STRUCTURED_GRID", f"DIMENSIONS {nx} {ny} {nz}",
           f"POINTS {nx * ny * nz} double"]
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                out.append(f"{float(xc[i])!r} {float(yc[j])!r} {float(zc[k])!r}")
    out += [f"POINT_DATA {nx * ny * nz}", "SCALARS temperature double 1", "LOOKUP_TABLE default"]
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                out.append(f"{float(temps[i, j, k])!r}")
    return "\n".join(out) + "\n"


def test_heatmap_writers_match_per_cell_formatter(tmp_path):
    rng = np.random.default_rng(7)
    edges = [np.array([0.0, 0.5, 1.7, 4.0, 4.1]),
             np.array([-3.0, -1.25, 0.1, 2.0 / 3.0]),
             np.array([0.0, 1e-3, 2.5, 2.6, 7.0, 30.0])]
    dims = tuple(len(e) - 1 for e in edges)
    grid = VoxelGrid(*edges, np.zeros(dims, dtype=int), np.full(dims, -1), ["silicon_bulk"], [])
    values = 300.0 + rng.random(dims) * rng.choice([0.0, 1e-9, 1e-3, 1.0, 1e4], dims)
    values.reshape(-1)[:3 * len(FALLBACK_VALUES):3] = FALLBACK_VALUES  # the per-value repr path
    writers = (("csv", _per_cell_csv), ("vtk_legacy", _per_cell_vtk))
    # both formats from one set of strings, in either order
    for order in (writers, writers[::-1]):
        reprs = format_reprs(values)
        for fmt, reference in order:
            path = tmp_path / f"map.{fmt}"
            export_heatmap(reprs, grid, path, fmt)
            assert path.read_bytes() == reference(values, grid).encode()


# one of each kind of value the integer kernel leaves to repr (below 1, zero,
# negative, subnormal, 2**53 and above, non-finite, and an exact tie between
# the two shortest decimals, 2**50 + 0.25), and powers of two, whose rounding
# interval is narrower below them
FALLBACK_VALUES = [0.5, -3.0, 0.0, -0.0, 5e-324, 2.0**-3, 2.0**53, 2.0**53 + 2.0, 1e300,
                   math.inf, -math.inf, math.nan, -312.25, 0.1, 2.0**50 + 0.25,
                   1.0, 2.0, 512.0, 2.0**52]


def test_format_reprs_is_repr_on_a_million_values():
    rng = np.random.default_rng(24)
    blocks = [np.exp(rng.random(500_000) * math.log(2.0**53)),  # log-uniform over [1, 2**53)
              np.array(FALLBACK_VALUES + [2.0**k for k in range(-8, 64)])]
    for places in range(17):  # short decimals, where the fewest digits read back
        blocks.append(np.round(300.0 + 600.0 * rng.random(20_000), places))
    short = np.round(1.0 + 1000.0 * rng.random(80_000), 3)
    blocks += [np.nextafter(short, 0.0), np.nextafter(short, np.inf)]  # their neighbours
    values = np.concatenate(blocks)
    assert values.size >= 1_000_000
    got = format_reprs(values)
    assert got.dtype == "S25" and got.shape == values.shape
    mismatches = [(v, g) for v, g in zip(values.tolist(), got.tolist()) if g != repr(v).encode()]
    assert mismatches == []


def test_heatmap_export_peak_memory_is_within_two_formatted_fields(tmp_path):
    """numpy reports its buffers to tracemalloc: formatting a field and
    writing both heatmaps from it allocates at most twice the bytes of the
    field's S25 strings at its peak (one Python string per cell peaked at
    4.4 times)."""
    dims = (60, 30, 40)
    edges = [np.cumsum(np.r_[0.0, np.random.default_rng(a).uniform(0.5, 2.0, d)])
             for a, d in enumerate(dims)]
    grid = VoxelGrid(*edges, np.zeros(dims, dtype=int), np.full(dims, -1), ["silicon_bulk"], [])
    values = 300.0 + np.random.default_rng(7).random(dims)
    export_heatmap(format_reprs(values), grid, tmp_path / "warm.csv")  # imports first
    tracemalloc.start()
    try:
        reprs = format_reprs(values)
        for fmt in ("csv", "vtk_legacy"):
            export_heatmap(reprs, grid, tmp_path / f"map.{fmt}", fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 25 * values.size
    assert reprs.dtype == "S25" and reprs.shape == dims


def test_heat_solve_peak_memory_is_within_nine_and_a_half_vectors(library, device_grid2):
    """numpy reports its buffers to tracemalloc: one heat solve on the 3 nm
    device grid allocates at most 9.5 vectors of 8 bytes per unknown at its
    peak. It reads 8.28: the right-hand side, cg's own vectors and two of
    the finest cycle level's. It read 11.28 with one vector more for each
    of a full start vector beside cg's copy, the residual each level held
    through its coarse correction, and the intp copy of the aggregate
    indices that np.take made to prolong."""
    op = assemble(device_grid2, library, default_bc())
    src = drain_hotspot_source(device_grid2, "tier0.channel", 1e-5, 0.7)
    solve_steady(op, src, 1e-8)  # imports and caches first
    tracemalloc.start()
    try:
        solve_steady(op, src, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.5 * 8 * op.matrix.shape[0]


def test_source_validation(device_grid2):
    for power in (-1.0, math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="total_power"):
            drain_hotspot_source(device_grid2, "tier0.channel", power, concentration=0.7)
    with pytest.raises(ConfigurationError):
        drain_hotspot_source(device_grid2, "tier0.channel", 1e-6, concentration=0.0)
