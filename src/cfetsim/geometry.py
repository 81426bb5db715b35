"""Parameterized 3D models of stacked CFET devices and inverter cells.

Axis convention: x runs from source to drain, y across the sheet width,
z is the vertical stacking direction. All coordinates are nanometers.
Regions are axis-aligned boxes rasterized onto a boundary-aligned voxel
grid with last-writer-wins semantics, so a gate stack is emitted largest
box first (metal, then oxide, then channel) and the channel ends up fully
wrapped, matching a gate-all-around cross section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fv
from .errors import (
    POSITIVE,
    ConfigurationError,
    GeometryError,
    IntegrityError,
    RefinementError,
    check_rules,
)

RAIL_NAMES = ("Input", "Output", "Power", "Ground")

# coarsest cell target allowed, as a multiple of a region's thinnest extent
MAX_ASPECT = 50.0

FILL_MARGIN = 15.0  # nm of dielectric fill around a bare device stack

Box = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]


# field of each spec below, or [stack] key -> (test, rule stated in the error)
_RULES = {
    **dict.fromkeys(("gate_length", "sheet_width", "sheet_thickness", "eot",
                     "spacer_thickness", "gate_metal_thickness", "vdd"), POSITIVE),
    "sd_extension": (lambda v: v is None or POSITIVE[0](v), POSITIVE[1]),
    "tier_count": (lambda v: v in (2, 4), "must be 2 or 4"),
    **dict.fromkeys(("tier_gap", "pair_gap", "standoff", "gap_below", "substrate_thickness",
                     "via_cross_section", "metal_thickness", "bpr_thickness", "margin"),
                    POSITIVE),
    "bpr_depth": (lambda v: v >= 0, "must be non-negative"),
    "mol_standoff": (lambda v: 0 <= v < math.inf, "must be non-negative and finite"),
    "polarity": (lambda v: v in ("n", "p"), "must be n or p"),
}


@dataclass(frozen=True)
class DeviceSpec:
    """Per-transistor dimensions and the supply voltage."""

    gate_length: float = 15.0  # nm
    sheet_width: float = 16.0  # nm
    sheet_thickness: float = 6.0  # nm
    eot: float = 0.9  # nm
    spacer_thickness: float = 5.0  # nm
    vdd: float = 0.75  # V
    sd_extension: float | None = None  # nm, defaults to 2x spacer_thickness
    gate_metal_thickness: float = 3.0  # nm

    def __post_init__(self):
        check_rules(_RULES, vars(self))
        if not self.eot < self.sheet_thickness:
            raise ConfigurationError(
                f"eot must be smaller than sheet_thickness = {self.sheet_thickness}, "
                f"got {self.eot}")

    @property
    def extension(self) -> float:
        return self.sd_extension if self.sd_extension is not None else 2.0 * self.spacer_thickness


@dataclass(frozen=True)
class TierSpec:
    polarity: str  # "n" or "p"
    gap_below: float  # nm of dielectric between this tier's solids and the one below

    def __post_init__(self):
        check_rules(_RULES, vars(self))


@dataclass(frozen=True)
class StackConfig:
    tiers: tuple[TierSpec, ...]  # bottom-up
    substrate_thickness: float = 200.0  # nm
    inter_tier_dielectric: str = "interlayer_dielectric"

    def __post_init__(self):
        check_rules(_RULES, {"tier_count": self.tier_count,
                             "substrate_thickness": self.substrate_thickness})

    @property
    def tier_count(self) -> int:
        return len(self.tiers)


def default_stack(tier_count=2, tier_gap=10.0, pair_gap=None, standoff=20.0,
                  substrate_thickness=200.0, inter_tier_dielectric="interlayer_dielectric",
                  order=None) -> StackConfig:
    """Stack with p below n per pair, tiers bottom-up, unless `order` is given.

    `pair_gap` (default `tier_gap`) separates the two pairs of a 4-tier stack.
    Each gap is checked by its own name, whatever the tier count.
    """
    pair_gap = tier_gap if pair_gap is None else pair_gap
    check_rules(_RULES, {"tier_count": tier_count, "tier_gap": tier_gap,
                         "pair_gap": pair_gap, "standoff": standoff})
    order = "pnpn"[:tier_count] if order is None else order
    if len(order) != tier_count or any(c not in "np" for c in order):
        raise ConfigurationError(f"order must be {tier_count} chars of n/p, got {order!r}")
    gaps = [standoff] + [pair_gap if i == 2 else tier_gap for i in range(1, tier_count)]
    return StackConfig(tuple(TierSpec(c, gap) for c, gap in zip(order, gaps)),
                       substrate_thickness, inter_tier_dielectric)


@dataclass(frozen=True)
class BeolSpec:
    """Interconnect stack: signal rails on top metal, power rails buried or on top."""

    via_cross_section: float = 36.0  # nm^2, square vias
    metal_thickness: float = 20.0  # nm, the first metal level
    mol_standoff: float = 10.0  # nm between stack top and first metal level
    buried_power_rail: bool = True
    bpr_depth: float = 10.0  # nm below the substrate surface to the rail top
    bpr_thickness: float = 20.0
    conductor_material: str = "interconnect_metal"
    margin: float = 20.0  # dielectric guard around the cell

    def __post_init__(self):
        check_rules(_RULES, vars(self))

    @property
    def via_side(self) -> float:
        return math.sqrt(self.via_cross_section)


@dataclass(frozen=True)
class Region:
    box: Box
    material: str
    label: str | None = None

    def __post_init__(self):
        for lo, hi in self.box:
            if not hi > lo:
                raise GeometryError(f"degenerate box {self.box} in region {self.label or self.material}")

    def thinnest_extent(self) -> float:
        return min(hi - lo for lo, hi in self.box)

    def overlaps(self, other: "Region") -> bool:
        return all(lo < ohi and hi > olo for (lo, hi), (olo, ohi) in zip(self.box, other.box))


def _box(x0, x1, y0, y1, z0, z1) -> Box:
    return ((float(x0), float(x1)), (float(y0), float(y1)), (float(z0), float(z1)))


@dataclass
class _TierFrame:
    """Resolved z-coordinates of one tier, all in nm."""

    index: int
    sheet_z0: float
    sheet_z1: float
    shell_z0: float  # bottom of the gate metal
    shell_z1: float  # top of the gate metal


def _tier_frames(spec: DeviceSpec, config: StackConfig) -> list[_TierFrame]:
    shell = spec.eot + spec.gate_metal_thickness
    frames = []
    prev_top = 0.0  # substrate surface
    for i, tier in enumerate(config.tiers):
        shell_z0 = prev_top + tier.gap_below
        sheet_z0 = shell_z0 + shell
        sheet_z1 = sheet_z0 + spec.sheet_thickness
        shell_z1 = sheet_z1 + shell
        frames.append(_TierFrame(i, sheet_z0, sheet_z1, shell_z0, shell_z1))
        prev_top = shell_z1
    return frames


def build_cfet_stack(spec: DeviceSpec, config: StackConfig) -> list[Region]:
    """Device regions for every tier plus substrate and dielectric fill.

    Each tier gets a silicon sheet split into source / channel / drain along
    x, a gate oxide and gate metal shell wrapping the channel, and spacers
    flanking the gate. Labels follow the pattern ``tier<i>.<part>``.
    """
    lx = 2.0 * spec.extension + spec.gate_length
    frames = _tier_frames(spec, config)
    return _stack_regions(spec, config, frames, (-FILL_MARGIN, lx + FILL_MARGIN),
                          (-FILL_MARGIN, spec.sheet_width + FILL_MARGIN),
                          frames[-1].shell_z1 + FILL_MARGIN)


def _stack_regions(spec: DeviceSpec, config: StackConfig, frames: list[_TierFrame],
                   fill_x, fill_y, top) -> list[Region]:
    """Dielectric fill over the (fill_x, fill_y) box up to `top`, the
    substrate under it, then the regions of every tier."""
    ext = spec.extension
    lg = spec.gate_length
    lx = 2.0 * ext + lg
    w = spec.sheet_width
    tsp = spec.spacer_thickness
    shell1 = spec.eot
    shell2 = spec.eot + spec.gate_metal_thickness
    regions = [
        Region(_box(*fill_x, *fill_y, -config.substrate_thickness, top),
               config.inter_tier_dielectric),
        Region(_box(*fill_x, *fill_y, -config.substrate_thickness, 0.0), "silicon_bulk"),
    ]

    prev_top = 0.0
    for f in frames:
        regions.append(Region(
            _box(0.0, lx, -shell2, w + shell2, prev_top, f.shell_z0),
            config.inter_tier_dielectric,
        ))
        prev_top = f.shell_z1
        # spacers flank the gate along x and share the gate shell cross section
        for x0, x1, tag in ((ext - tsp, ext, "spacer_s"), (ext + lg, ext + lg + tsp, "spacer_d")):
            regions.append(Region(
                _box(x0, x1, -shell2, w + shell2, f.shell_z0, f.shell_z1),
                "spacer_dielectric",
            ))
        regions.append(Region(
            _box(ext, ext + lg, -shell2, w + shell2, f.shell_z0, f.shell_z1),
            "gate_metal", label=f"tier{f.index}.gate",
        ))
        regions.append(Region(
            _box(ext, ext + lg, -shell1, w + shell1, f.sheet_z0 - shell1, f.sheet_z1 + shell1),
            "hfo2",
        ))
        regions.append(Region(
            _box(0.0, ext, 0.0, w, f.sheet_z0, f.sheet_z1),
            "silicon_sd", label=f"tier{f.index}.source",
        ))
        regions.append(Region(
            _box(ext, ext + lg, 0.0, w, f.sheet_z0, f.sheet_z1),
            "silicon_nanosheet", label=f"tier{f.index}.channel",
        ))
        regions.append(Region(
            _box(ext + lg, lx, 0.0, w, f.sheet_z0, f.sheet_z1),
            "silicon_sd", label=f"tier{f.index}.drain",
        ))
    return regions


def wired_tiers(config: StackConfig, variant: str = "bottom") -> tuple[int, int]:
    """Tier indices (p_tier, n_tier) of the inverter pair to wire up."""
    if variant not in ("bottom", "top"):
        raise ConfigurationError(f"unknown inverter variant {variant!r}")
    pair = (2, 3) if variant == "top" and config.tier_count == 4 else (0, 1)
    pols = {config.tiers[i].polarity for i in pair}
    if pols != {"n", "p"}:
        raise ConfigurationError(f"wired pair {pair} is not complementary")
    p_tier = pair[0] if config.tiers[pair[0]].polarity == "p" else pair[1]
    n_tier = pair[1] if p_tier == pair[0] else pair[0]
    return p_tier, n_tier


def build_inverter_cell(spec: DeviceSpec, config: StackConfig, beol: BeolSpec,
                        variant: str = "bottom") -> list[Region]:
    """Device stack plus labeled Input/Output/Power/Ground conductors.

    Signal rails run on the first metal level above the stack and drop vias
    to the wired pair; power rails are buried below the substrate surface
    (or routed from the top when buried_power_rail is off). In 4-tier mode
    ``variant`` selects whether the bottom or the top complementary pair is
    wired, which sets the via lengths.
    """
    bpr_bottom = beol.bpr_depth + beol.bpr_thickness
    if beol.buried_power_rail and bpr_bottom > config.substrate_thickness:
        raise ConfigurationError(
            f"bpr_depth + bpr_thickness must not exceed substrate_thickness "
            f"{config.substrate_thickness}, got {bpr_bottom}")
    frames = _tier_frames(spec, config)
    p_tier, n_tier = wired_tiers(config, variant)
    fp, fn = frames[p_tier], frames[n_tier]
    lower, upper = (fp, fn) if fp.sheet_z0 < fn.sheet_z0 else (fn, fp)

    ext = spec.extension
    lg = spec.gate_length
    lx = 2.0 * ext + lg
    w = spec.sheet_width
    shell2 = spec.eot + spec.gate_metal_thickness
    wv = beol.via_side
    metal = beol.conductor_material

    stack_top = frames[-1].shell_z1
    m1_z0 = stack_top + beol.mol_standoff
    m1_z1 = m1_z0 + beol.metal_thickness

    # the fill reaches past the rails, so they land on the domain boundary
    regions = _stack_regions(
        spec, config, frames,
        (-beol.margin - 2.0 * wv, lx + beol.margin + 2.0 * wv),
        (-beol.margin, w + beol.margin), m1_z1 + beol.margin)
    (x_min, _), (y_min, y_max), _ = regions[0].box

    conductors: list[Region] = []

    def rail(name, *boxes):
        for b in boxes:
            conductors.append(Region(b, metal, label=name))

    # Input: via flush against the +y face of both wired gate shells, rail to y_max
    xg0 = ext + 2.0
    rail("Input",
         _box(xg0, xg0 + wv, w + shell2, w + shell2 + wv, lower.shell_z0, m1_z1),
         _box(xg0, xg0 + wv, w + shell2, y_max, m1_z0, m1_z1))

    # Output: via past the drain end with a contact strap into each wired drain
    xo0 = lx + 2.0
    yo0 = w / 2.0 - wv / 2.0
    out_boxes = [
        _box(xo0, xo0 + wv, yo0, yo0 + wv, lower.sheet_z0, m1_z1),
        _box(xo0, xo0 + wv, yo0, y_max, m1_z0, m1_z1),
    ]
    for f in (lower, upper):
        out_boxes.append(_box(lx - 4.0, xo0 + wv, yo0, yo0 + wv, f.sheet_z0, f.sheet_z1))
    rail("Output", *out_boxes)

    # Power / Ground: source-side vertical runs outside the device footprint
    def source_route(name, f, y0, rail_y_end):
        y1 = y0 + wv
        xv0 = -6.0 - wv
        strap = _box(xv0, 4.0, y0, y1, f.sheet_z0, f.sheet_z1)
        if beol.buried_power_rail:
            rail(name,
                 _box(x_min, 0.0, y0, y1, -bpr_bottom, -beol.bpr_depth),
                 _box(xv0, -6.0, y0, y1, -beol.bpr_depth, f.sheet_z1),
                 strap)
        else:
            ry0, ry1 = min(y0, rail_y_end), max(y1, rail_y_end)
            rail(name,
                 _box(xv0, -6.0, y0, y1, f.sheet_z0, m1_z1),
                 _box(xv0, -6.0, ry0, ry1, m1_z0, m1_z1),
                 strap)

    source_route("Power", fp, 1.0, y_min)
    source_route("Ground", fn, w - 1.0 - wv, y_max)

    _check_routing(conductors, regions, frames, p_tier, n_tier)
    return regions + conductors


def _check_routing(conductors, device_regions, frames, p_tier, n_tier):
    """Reject conductor boxes that cut through device solids they may not touch."""
    allowed_silicon = {
        "Output": {f"tier{p_tier}.drain", f"tier{n_tier}.drain"},
        "Power": {f"tier{p_tier}.source"},
        "Ground": {f"tier{n_tier}.source"},
        "Input": set(),
    }
    blocking = [r for r in device_regions
                if r.material in ("silicon_nanosheet", "hfo2", "gate_metal",
                                  "spacer_dielectric", "silicon_sd")]
    for cond in conductors:
        for solid in blocking:
            if not cond.overlaps(solid):
                continue
            if solid.material == "silicon_sd" and solid.label in allowed_silicon[cond.label]:
                continue
            raise GeometryError(
                f"rail {cond.label} routing blocked by {solid.label or solid.material}")
    for i, a in enumerate(conductors):
        for b in conductors[i + 1:]:
            if a.label != b.label and a.overlaps(b):
                raise GeometryError(f"rails {a.label} and {b.label} overlap")


@dataclass
class VoxelGrid:
    """Structured grid of material-labeled cells.

    Edge arrays have one more entry than the cell count along each axis.
    ``material`` and ``label`` hold integer codes into the name lists;
    label code -1 means unlabeled.
    """

    x_edges: np.ndarray
    y_edges: np.ndarray
    z_edges: np.ndarray
    material: np.ndarray
    label: np.ndarray
    material_names: list[str]
    label_names: list[str]

    def __post_init__(self):
        for e in (self.x_edges, self.y_edges, self.z_edges):
            if not np.all(np.diff(e) > 0):
                raise GeometryError("grid coordinates must be strictly increasing")
        if self.material.shape != self.dims or self.label.shape != self.dims:
            raise GeometryError("cell array shape does not match grid dims")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (len(self.x_edges) - 1, len(self.y_edges) - 1, len(self.z_edges) - 1)

    @property
    def n_cells(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def widths(self, axis: int) -> np.ndarray:
        return np.diff((self.x_edges, self.y_edges, self.z_edges)[axis])

    def centers(self, axis: int) -> np.ndarray:
        e = (self.x_edges, self.y_edges, self.z_edges)[axis]
        return 0.5 * (e[:-1] + e[1:])

    def cell_volumes(self) -> np.ndarray:
        """Cell volumes in nm^3, shaped like the cell arrays."""
        wx, wy, wz = (self.widths(a) for a in range(3))
        return wx[:, None, None] * wy[None, :, None] * wz[None, None, :]

    def label_code(self, name: str) -> int:
        try:
            return self.label_names.index(name)
        except ValueError:
            return -1

    def cells_of_label(self, name: str) -> np.ndarray:
        code = self.label_code(name)
        if code < 0:
            return np.zeros(self.dims, dtype=bool)
        return self.label == code

    @cached_property
    def conductors(self) -> dict[str, np.ndarray]:
        """Map every label to its flat cell indices, checking face connectivity.

        One `face_components` pass covers all labels; a label whose cells
        fall into more than one component raises IntegrityError. Computed
        once per grid, so `label` must not change after the first read.
        """
        parts = face_components(self.label).ravel()
        labelled = parts >= 0
        _, first = np.unique(parts[labelled], return_index=True)
        n_parts = np.bincount(self.label.ravel()[labelled][first],
                              minlength=len(self.label_names))
        out = {}
        for code, name in enumerate(self.label_names):
            if n_parts[code] == 0:
                continue
            if n_parts[code] != 1:
                raise IntegrityError(f"conductor {name!r} splits into {n_parts[code]} parts")
            out[name] = np.flatnonzero(self.label.ravel() == code)
        return out


def voxelize(regions: list[Region], resolution: float,
             refinement: dict[str, float] | None = None) -> VoxelGrid:
    """Rasterize regions onto a boundary-aligned grid, last writer wins.

    Every box coordinate is placed on the 1e-6 nm lattice, and the distinct
    values along an axis are its cuts, each one a grid line. A region covers
    the cells between the lines of its own two cuts, so boxes that meet at a
    computed coordinate share one line and per-material volumes are exact up
    to the lattice. ``refinement`` maps a label or material name to a finer
    cell target; the gap between two cuts takes the finest target of the
    regions spanning it.
    """
    if not regions:
        raise GeometryError("no regions to voxelize")
    check_rules({"resolution": POSITIVE}, {"resolution": resolution}, GeometryError)
    refinement = dict(refinement or {})
    for key, target in refinement.items():
        if not any(key in (r.label, r.material) for r in regions):
            raise RefinementError(f"refinement target {key!r} matches no region")
        if not target > 0:
            raise RefinementError(f"refinement target {key!r} must be positive, got {target}")

    targets = []
    for r in regions:
        key = r.label if r.label in refinement else r.material
        target = min(resolution, refinement.get(key, resolution))
        targets.append(target)
        thin = r.thinnest_extent()
        if target > MAX_ASPECT * thin:
            raise RefinementError(
                f"resolution {target} nm too coarse for region "
                f"{r.label or r.material} ({thin} nm thin)")

    edges, spans = [], []
    for axis in range(3):
        snapped = [tuple(round(c, 6) for c in r.box[axis]) for r in regions]
        cuts = sorted({c for pair in snapped for c in pair})
        index = {c: i for i, c in enumerate(cuts)}
        cut_spans = [(index[lo], index[hi]) for lo, hi in snapped]
        gap_targets = np.full(len(cuts) - 1, resolution, dtype=float)
        for (i0, i1), target in zip(cut_spans, targets):
            gap_targets[i0:i1] = np.minimum(gap_targets[i0:i1], target)
        axis_edges, lines = [cuts[0]], [0]
        for a, b, target in zip(cuts[:-1], cuts[1:], gap_targets):
            n = max(1, int(math.ceil((b - a) / target - 1e-9)))
            axis_edges.extend(a + (b - a) * k / n for k in range(1, n + 1))
            lines.append(len(axis_edges) - 1)
        edges.append(np.asarray(axis_edges, dtype=float))
        spans.append([slice(lines[i0], lines[i1]) for i0, i1 in cut_spans])

    dims = tuple(len(e) - 1 for e in edges)
    if math.prod(dims) > 20_000_000:
        raise GeometryError(f"grid of {dims} cells is beyond desk scale")

    material_names: list[str] = []
    label_names: list[str] = []
    mat = np.full(dims, -1, dtype=np.int16)
    lab = np.full(dims, -1, dtype=np.int16)

    def code(names, name):
        if name not in names:
            names.append(name)
        return names.index(name)

    for r, *cells in zip(regions, *spans):
        mat[tuple(cells)] = code(material_names, r.material)
        if r.label is not None:
            lab[tuple(cells)] = code(label_names, r.label)

    if (mat < 0).any():
        raise GeometryError("regions do not cover their bounding box")
    return VoxelGrid(*edges, mat, lab, material_names, label_names)


def face_components(labels: np.ndarray) -> np.ndarray:
    """Face-connected components of equal labels, one index per cell.

    Two face neighbours join when they carry the same label >= 0. Each
    component is numbered by the lowest flat index of its cells; cells with
    a negative label get -1.

    Every cell starts as its own root. Each round hooks the larger root of
    every joined face pair under the smaller one, then jumps pointers until
    every cell points at its root (after Shiloach and Vishkin, J. Algorithms
    3, 1982); pairs whose roots agree are dropped, and the rounds end when
    none is left. A cell's parent always has a lower index, so no hook makes
    a cycle, and each component's root is its lowest cell.
    """
    flat = np.arange(labels.size).reshape(labels.shape)
    lows, highs = [], []
    for axis in range(3):
        lo, hi = fv.face_pairs(axis)
        same = (labels[lo] == labels[hi]) & (labels[lo] >= 0)
        lows.append(flat[lo][same])
        highs.append(flat[hi][same])
    a, b = np.concatenate(lows), np.concatenate(highs)
    root = np.arange(labels.size)
    while a.size:
        ra, rb = root[a], root[b]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        apart = root[a] != root[b]
        a, b = a[apart], b[apart]
    return np.where(labels >= 0, root.reshape(labels.shape), -1)


def regions_csv(regions: list[Region]) -> str:
    """One row per region: label, material, and the six box extents in nm."""
    lines = ["label,material,x0_nm,x1_nm,y0_nm,y1_nm,z0_nm,z1_nm"]
    for r in regions:
        (x0, x1), (y0, y1), (z0, z1) = r.box
        lines.append(f"{r.label or ''},{r.material},"
                     f"{x0!r},{x1!r},{y0!r},{y1!r},{z0!r},{z1!r}")
    return "\n".join(lines) + "\n"
