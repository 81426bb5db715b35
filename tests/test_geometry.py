import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from cfetsim import cli
from cfetsim.config import load_config
from cfetsim.errors import (
    ConfigurationError,
    GeometryError,
    IntegrityError,
    RefinementError,
)
from cfetsim.geometry import (
    RAIL_NAMES,
    BeolSpec,
    DeviceSpec,
    Region,
    build_cfet_stack,
    VoxelGrid,
    build_inverter_cell,
    default_stack,
    face_components,
    regions_csv,
    voxelize,
    wired_tiers,
)
from cfetsim.parasitics import contact_faces


def cells_of_material(grid, name):
    return grid.material == grid.material_names.index(name)


def box_volume(box):
    return np.prod([hi - lo for lo, hi in box])


def test_device_spec_invariants():
    with pytest.raises(ConfigurationError):
        DeviceSpec(gate_length=-1.0)
    with pytest.raises(ConfigurationError):
        DeviceSpec(eot=7.0, sheet_thickness=6.0)


@pytest.mark.parametrize("key", ["gate_length", "sheet_width", "sheet_thickness", "eot",
                                 "spacer_thickness", "gate_metal_thickness"])
def test_device_spec_names_the_bad_length(key):
    with pytest.raises(ConfigurationError,
                       match=f"^{key} must be positive and finite, got 0.0$"):
        DeviceSpec(**{key: 0.0})


def test_stack_tier_count():
    with pytest.raises(ConfigurationError):
        default_stack(3)


def test_two_tier_stack_has_two_channels(device_spec):
    regions = build_cfet_stack(device_spec, default_stack(2))
    channels = [r for r in regions if r.material == "silicon_nanosheet"]
    assert len(channels) == 2


def test_gate_wraps_channel_all_sides(device_spec):
    """Every channel neighbor across y and z faces must be gate oxide."""
    regions = build_cfet_stack(device_spec, default_stack(2))
    grid = voxelize(regions, 2.0)
    ch = cells_of_material(grid, "silicon_nanosheet")
    ox = cells_of_material(grid, "hfo2")
    for axis in (1, 2):
        for shift in (1, -1):
            moved = np.roll(ch, shift, axis=axis)
            outside = moved & ~ch
            assert (outside <= ox).all(), f"channel exposed along axis {axis}"


def test_four_tier_taller_than_two_tier(device_spec):
    r2 = build_cfet_stack(device_spec, default_stack(2))
    r4 = build_cfet_stack(device_spec, default_stack(4))
    top2 = max(r.box[2][1] for r in r2 if r.material == "gate_metal")
    top4 = max(r.box[2][1] for r in r4 if r.material == "gate_metal")
    assert top4 > top2


def test_channel_thickness_exact(device_spec):
    regions = build_cfet_stack(device_spec, default_stack(2))
    for r in regions:
        if r.material == "silicon_nanosheet":
            z0, z1 = r.box[2]
            assert z1 - z0 == pytest.approx(6.0)


def test_inverter_has_four_rail_conductors(device_spec):
    regions = build_inverter_cell(device_spec, default_stack(2), BeolSpec())
    rails = {r.label for r in regions if r.label in RAIL_NAMES}
    assert rails == set(RAIL_NAMES)


def test_output_touches_both_drains(inverter_grid2):
    assert contact_faces(inverter_grid2, "Output", ["tier0.drain"])
    assert contact_faces(inverter_grid2, "Output", ["tier1.drain"])


def test_top_variant_power_vias_longer(device_spec):
    stack = default_stack(4)
    beol = BeolSpec()

    def rail_z_span(variant, name):
        regions = build_inverter_cell(device_spec, stack, beol, variant)
        boxes = [r.box for r in regions if r.label == name]
        return max(b[2][1] for b in boxes) - min(b[2][0] for b in boxes)

    for rail in ("Power", "Ground"):
        assert rail_z_span("top", rail) > rail_z_span("bottom", rail)


def test_buried_rails_extend_below_devices(device_spec):
    regions = build_inverter_cell(device_spec, default_stack(2),
                                  BeolSpec(buried_power_rail=True))
    device_z0 = min(r.box[2][0] for r in regions if r.material == "gate_metal")
    for rail in ("Power", "Ground"):
        rail_z0 = min(r.box[2][0] for r in regions if r.label == rail)
        assert rail_z0 < device_z0
        assert rail_z0 < 0.0


def test_top_routed_power_without_bpr(device_spec):
    regions = build_inverter_cell(device_spec, default_stack(2),
                                  BeolSpec(buried_power_rail=False))
    rail_z0 = min(r.box[2][0] for r in regions if r.label == "Power")
    assert rail_z0 >= 0.0


def test_blocked_routing_raises(device_spec):
    # a tiny source/drain extension puts the output strap inside the spacer
    spec = DeviceSpec(sd_extension=2.0)
    with pytest.raises(GeometryError):
        build_inverter_cell(spec, default_stack(2), BeolSpec())


def test_wired_tiers_variants():
    stack = default_stack(4)
    assert wired_tiers(stack, "bottom") == (0, 1)
    assert wired_tiers(stack, "top") == (2, 3)
    with pytest.raises(ConfigurationError):
        wired_tiers(stack, "middle")


def test_wired_tiers_two_tier_stack(device_spec):
    for variant in ("bottom", "top"):
        assert wired_tiers(default_stack(2), variant) == (0, 1)
        assert wired_tiers(default_stack(2, order="np"), variant) == (1, 0)
    for tiers in (2, 4):
        with pytest.raises(ConfigurationError, match="unknown inverter variant"):
            wired_tiers(default_stack(tiers), "sideways")
    with pytest.raises(ConfigurationError, match="unknown inverter variant"):
        build_inverter_cell(device_spec, default_stack(2), BeolSpec(), "sideways")


def test_voxelize_unit_cube():
    grid = voxelize([Region(((0, 10), (0, 10), (0, 10)), "sio2")], 1.0)
    assert grid.dims == (10, 10, 10)
    assert (grid.material == grid.material_names.index("sio2")).all()


def test_voxelize_oxide_refinement(device_spec):
    regions = build_cfet_stack(device_spec, default_stack(2))
    grid = voxelize(regions, 2.0, refinement={"hfo2": 0.5})
    ox = cells_of_material(grid, "hfo2")
    # at least one full cell layer of oxide above and below each channel
    assert ox.any()
    widths = grid.widths(2)
    kz = np.nonzero(ox.any(axis=(0, 1)))[0]
    assert (widths[kz] <= 0.5 + 1e-9).all()


def test_last_writer_wins():
    a = Region(((0, 10), (0, 10), (0, 10)), "sio2")
    b = Region(((5, 10), (0, 10), (0, 10)), "hfo2")
    grid = voxelize([a, b], 1.0)
    assert grid.material[7, 5, 5] == grid.material_names.index("hfo2")
    assert grid.material[2, 5, 5] == grid.material_names.index("sio2")


def test_refinement_error_on_sliver():
    sliver = Region(((0, 10), (0, 10), (0, 0.01)), "sio2")
    base = Region(((0, 10), (0, 10), (0, 10)), "sio2")
    with pytest.raises(RefinementError):
        voxelize([base, sliver], 1.0)


def test_refinement_unknown_target():
    base = Region(((0, 10), (0, 10), (0, 10)), "sio2")
    with pytest.raises(RefinementError):
        voxelize([base], 1.0, refinement={"nothing": 0.5})


@pytest.mark.parametrize("target", [0.0, -1.0])
def test_refinement_target_must_be_positive(device_spec, target):
    regions = build_cfet_stack(device_spec, default_stack(2))
    with pytest.raises(RefinementError, match=f"'hfo2' must be positive, got {target}"):
        voxelize(regions, 3.0, refinement={"hfo2": target})


def test_grid_conductors_inverter(inverter_grid2):
    conds = inverter_grid2.conductors
    for rail in RAIL_NAMES:
        assert rail in conds
        assert len(conds[rail]) > 0


def test_grid_conductors_severed(inverter_grid2):
    grid = inverter_grid2
    cut = grid.label.copy()
    code = grid.label_code("Output")
    mask = cut == code
    kz = np.nonzero(mask.any(axis=(0, 1)))[0]
    mid = kz[len(kz) // 2]
    # clearing one full z-slice of the via splits the conductor
    cut[:, :, mid][mask[:, :, mid]] = -1
    from dataclasses import replace

    severed = replace(grid, label=cut)
    with pytest.raises(IntegrityError):
        severed.conductors
    # a property that raises caches nothing, so a second read raises again
    with pytest.raises(IntegrityError):
        severed.conductors


def test_grid_conductors_empty():
    grid = voxelize([Region(((0, 4), (0, 4), (0, 4)), "sio2")], 1.0)
    assert grid.conductors == {}


def test_material_volume_exact_at_any_resolution(device_spec):
    regions = build_cfet_stack(device_spec, default_stack(2))
    analytic = 2 * 15.0 * 16.0 * 6.0  # two channels
    for res in (4.0, 2.0):
        grid = voxelize(regions, res)
        volume = grid.cell_volumes()[cells_of_material(grid, "silicon_nanosheet")].sum()
        assert volume == pytest.approx(analytic, rel=1e-12)


def test_cell_centers_match_region_assignment(device_spec):
    regions = build_cfet_stack(device_spec, default_stack(2))
    grid = voxelize(regions, 2.0)
    xc, yc, zc = (grid.centers(a) for a in range(3))
    rng = np.random.default_rng(7)
    nx, ny, nz = grid.dims
    for _ in range(200):
        i, j, k = rng.integers(nx), rng.integers(ny), rng.integers(nz)
        point = (xc[i], yc[j], zc[k])
        expected = None
        for r in regions:
            if all(lo <= c <= hi for c, (lo, hi) in zip(point, r.box)):
                expected = r.material  # last writer wins
        assert grid.material_names[grid.material[i, j, k]] == expected


def test_stack_mirror_symmetric_in_materials(device_spec):
    """Before doping labels, the stack is symmetric about the gate midplane."""
    regions = build_cfet_stack(device_spec, default_stack(2))
    grid = voxelize(regions, 2.0)
    assert np.array_equal(grid.material, grid.material[::-1, :, :])


def test_degenerate_region_rejected():
    with pytest.raises(GeometryError):
        Region(((0, 0), (0, 1), (0, 1)), "sio2")


def test_regions_csv_dump(device_spec):
    from cfetsim.geometry import regions_csv

    regions = build_cfet_stack(device_spec, default_stack(2))
    text = regions_csv(regions)
    lines = text.strip().splitlines()
    assert lines[0] == "label,material,x0_nm,x1_nm,y0_nm,y1_nm,z0_nm,z1_nm"
    assert len(lines) == len(regions) + 1
    assert any(line.startswith("tier0.channel,silicon_nanosheet,") for line in lines)


SAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "sample_2tier.ini"


@pytest.mark.parametrize("design, digest", [
    ("2tier", "4da8d9d11a941132dc16fca2b376ae49d6795a5725f580c7b7d503559676d47a"),
    ("4tier-bottom", "dcacf42f8a44b538da51cde1b58104e435fdbd7bd42aef53949330dc33838e62"),
    ("4tier-top", "624981fc1455f2808ee7e0da4cdf627230530c64a782ae09f115dc6017e18abd"),
])
def test_sample_inverter_regions_are_unchanged(design, digest):
    # float box arithmetic only, so the bytes hold on any platform
    config = load_config(str(SAMPLE_CONFIG))
    stack, variant = cli._design_stack(config, design)
    regions = build_inverter_cell(config.device, stack, config.beol, variant)
    assert hashlib.sha256(regions_csv(regions).encode()).hexdigest() == digest


@pytest.mark.parametrize("via_cross_section", [38, 40, 41, 45, 48])
def test_off_lattice_via_is_rasterized_at_its_own_width(via_cross_section, tmp_path):
    # sqrt(v) is off the 1e-6 nm lattice: the via's far face is placed on
    # the grid line of its own rounded cut, not one cell past it
    path = tmp_path / "via.ini"
    path.write_text(SAMPLE_CONFIG.read_text().replace(
        "via_cross_section = 36", f"via_cross_section = {via_cross_section}"))
    config = load_config(str(path))
    assert config.beol.via_cross_section == via_cross_section
    grid = cli.build_inverter_grid(config, "2tier")[0]
    cols = np.flatnonzero(grid.cells_of_label("Input").any(axis=(1, 2)))
    x0, x1 = grid.x_edges[cols[0]], grid.x_edges[cols[-1] + 1]
    # the Input via starts 2 nm past the 10 nm source extension
    assert x0 == 12.0
    assert x1 - x0 == pytest.approx(round(12.0 + math.sqrt(via_cross_section), 6) - 12.0,
                                    rel=0, abs=1e-12)


def test_off_lattice_refined_region_is_refined_from_its_own_cut():
    lo = 2.0 + math.sqrt(2.0) / 10.0
    base = Region(((0.0, 10.0), (0.0, 4.0), (0.0, 4.0)), "sio2")
    fine = Region(((lo, 10.0), (0.0, 4.0), (0.0, 4.0)), "hfo2")
    grid = voxelize([base, fine], 2.0, refinement={"hfo2": 0.5})
    cols = np.flatnonzero(cells_of_material(grid, "hfo2").any(axis=(1, 2)))
    assert len(cols) == 16
    assert grid.x_edges[cols[0]] == round(lo, 6) == 2.141421
    assert (grid.widths(0)[cols] <= 0.5).all()


@pytest.mark.parametrize("seed", range(12))
def test_off_lattice_boxes_land_on_their_own_grid_lines(seed):
    rng = np.random.default_rng(seed)
    regions = [Region(((0.0, 20.0),) * 3, "sio2")]
    for i in range(int(rng.integers(2, 6))):
        lo = rng.uniform(0.0, 14.0, 3)
        hi = lo + rng.uniform(0.5, 6.0, 3)
        regions.append(Region(tuple(zip(lo.tolist(), hi.tolist())), "hfo2", label=f"box{i}"))
    grid = voxelize(regions, 1.5, refinement={"hfo2": 0.7})
    edges = (grid.x_edges, grid.y_edges, grid.z_edges)
    for r in regions:
        for e, (lo, hi) in zip(edges, r.box):
            for c in (lo, hi):
                # a grid edge, up to the rounding of the edge arithmetic
                assert np.abs(e - round(c, 6)).min() <= 1e-12
    # each cell carries the label of the last box whose rounded extent
    # holds its centre, so no box is shifted by a cell
    centres = [grid.centers(a) for a in range(3)]
    expected = np.full(grid.dims, -1)
    for r in regions[1:]:
        inside = [(round(lo, 6) < c) & (c < round(hi, 6)) for c, (lo, hi) in zip(centres, r.box)]
        expected[np.ix_(*inside)] = grid.label_code(r.label)
    assert np.array_equal(grid.label, expected)


# scipy.ndimage with the 6-neighbour structure is the reference for the
# face connectivity in geometry
FACE = ndimage.generate_binary_structure(3, 1)


def random_labels(seed, n_labels=3):
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(1, 10, size=3))
    unlabelled = rng.random(shape) < rng.uniform(0.1, 0.8)
    return np.where(unlabelled, -1, rng.integers(0, n_labels, size=shape))


def ndimage_components(labels):
    out = np.full(labels.shape, -1)
    offset = 0
    for code in np.unique(labels[labels >= 0]):
        parts, n = ndimage.label(labels == code, structure=FACE)
        out[parts > 0] = parts[parts > 0] - 1 + offset
        offset += n
    return out


@pytest.mark.parametrize("seed", range(12))
def test_face_components_match_ndimage_label(seed):
    labels = random_labels(seed)
    got, ref = face_components(labels), ndimage_components(labels)
    assert np.array_equal(got < 0, ref < 0)
    # the same partition: every component of one is exactly one of the other
    pairs = np.unique(np.stack([got.ravel(), ref.ravel()]), axis=1)
    assert pairs.shape[1] == np.unique(got).size == np.unique(ref).size


def dilation_touching(grid, name_a, name_b):
    a = grid.cells_of_label(name_a)
    b = grid.cells_of_label(name_b)
    if not a.any() or not b.any():
        return False
    return bool((ndimage.binary_dilation(a, structure=FACE) & b).any())


@pytest.mark.parametrize("seed", range(12))
def test_touching_labels_matches_dilation(seed):
    names = ["a", "b", "c", "d", "absent"]
    labels = random_labels(seed, n_labels=4)
    edges = [np.arange(n + 1, dtype=float) for n in labels.shape]
    grid = VoxelGrid(*edges, np.zeros(labels.shape, dtype=np.int16),
                     labels.astype(np.int16), ["sio2"], names)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert bool(contact_faces(grid, a, [b])) == dilation_touching(grid, a, b)
            assert bool(contact_faces(grid, b, [a])) == dilation_touching(grid, a, b)
