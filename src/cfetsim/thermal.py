"""Steady-state heat conduction on a voxel grid.

div(kappa grad T) + q = 0 on the finite-volume operator of `fv`. Each
outer face carries one heat-transfer coefficient h to the one ambient
temperature, and each face with h > 0 is one sink column of its
coupling matrix: the cell half conductance with 1/h in series, so
h = inf holds the face at ambient. The operator is symmetric positive
definite as soon as one face has h > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import fv
from .errors import (
    POSITIVE,
    ConfigurationError,
    RegionNotFoundError,
    SingularSystemError,
    check_rules,
)
from .fv import NM
from .geometry import VoxelGrid
from .materials import Material, per_cell
from .output import atomic_write

FACE_KEYS = ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max")


@dataclass(frozen=True)
class ThermalBC:
    """Heat-transfer coefficient h per face, W/(m^2 K), to one ambient in K.

    h = 0 is adiabatic, h = inf holds the face at ambient and any other h
    is convective to ambient. Every sink sits at ambient, so the field is
    ambient plus a rise linear in the sources.
    """

    h: dict[str, float]
    ambient: float

    def __post_init__(self):
        if set(self.h) != set(FACE_KEYS):
            raise ConfigurationError(f"BC must cover faces {FACE_KEYS}")
        if not all(h >= 0 for h in self.h.values()):
            raise ConfigurationError(f"h must be >= 0 on every face, got {self.h}")
        check_rules(THERMAL_RULES, {"ambient": self.ambient})
        if not any(self.h.values()):
            raise SingularSystemError("all faces adiabatic: steady problem is singular")


def default_bc(ambient: float = 300.0, top_h: float = 5e4) -> ThermalBC:
    """Substrate bottom held at ambient, weak egress on top."""
    h = dict.fromkeys(FACE_KEYS, 0.0)
    h["z_min"] = math.inf
    h["z_max"] = top_h
    return ThermalBC(h, ambient)


# [thermal] setting or hotspot total_power -> (test, rule stated in the error)
THERMAL_RULES = {
    "ambient": POSITIVE,
    "top_h": (lambda v: v > 0, "must be positive"),  # inf holds the top face at ambient
    "tol": (lambda v: 0 < v < 1, "must lie in (0, 1)"),
    "concentration": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    "total_power": (lambda v: 0 <= v < math.inf, "must be finite and non-negative"),
}


@dataclass
class ThermalOperator:
    """A T = q V + B T_sink on `grid`: `matrix` A, `boundary` B (a column per sink
    face), sinks at `ambient` K, `precond` the multigrid of A; V is formed per solve."""

    matrix: sparse.csr_matrix
    boundary: sparse.csr_matrix
    grid: VoxelGrid
    ambient: float
    precond: sparse.linalg.LinearOperator


def assemble(grid: VoxelGrid, materials: dict[str, Material], bc: ThermalBC) -> ThermalOperator:
    """Build the conduction operator A with A T = q V + B T_sink."""
    k = per_cell(grid, materials, lambda m: m.kappa)
    everywhere = np.ones(grid.dims, dtype=bool)
    sinks, r_sink = [], []  # FACE_KEYS follow the order of fv.outer_faces
    for key, (axis, _, cells) in zip(FACE_KEYS, fv.outer_faces(everywhere)):
        if bc.h[key]:
            sinks.append((axis, cells, len(r_sink)))
            r_sink.append(1.0 / bc.h[key])
    mat, boundary = fv.assemble(grid, k, everywhere, sinks, r_sink)
    return ThermalOperator(mat, boundary, grid, bc.ambient, fv.multigrid(mat, everywhere))


def solve_steady(op: ThermalOperator, q: np.ndarray, tol: float) -> np.ndarray:
    """Temperatures in K per cell for the source `q` in W/m^3 per cell, by
    CG preconditioned by the operator's multigrid; deterministic for fixed
    inputs at a fixed BLAS thread count. The reference to `q` is dropped
    once the right-hand side is formed, so from Python 3.11, where a call
    hands its arguments over, a source the caller does not keep is freed
    before the solve."""
    ambient = np.full(op.boundary.shape[1], op.ambient)  # every sink
    wx, wy, wz = fv.widths(op.grid)
    b = op.boundary @ ambient + q.ravel() * (wx * wy * wz).ravel()
    del q
    x0 = np.broadcast_to(op.ambient, b.shape)  # cg copies it into its own iterate
    x = fv.solve_spd(op.matrix, b, tol, op.precond, x0=x0, name="thermal solve")
    return x.reshape(op.grid.dims)


def energy_balance(op: ThermalOperator, temps: np.ndarray,
                   q: np.ndarray) -> tuple[float, float, float]:
    """(power in, boundary flux out, relative mismatch) of converged
    temperatures `temps` under the source `q`."""
    p_in = float((q * op.grid.cell_volumes() * NM**3).sum())
    # the flux of the rise over ambient into the sinks, without cancelling ~300 K
    rise = temps.ravel() - op.ambient
    p_out = float((op.boundary.T @ rise).sum())
    rel = abs(p_in - p_out) / max(abs(p_in), abs(p_out), 1e-30)
    return p_in, p_out, rel


def drain_hotspot_source(grid: VoxelGrid, device_region: str, total_power: float,
                         concentration: float) -> np.ndarray:
    """W/m^3 per cell that deposit power in a channel, biased toward its drain-side half.

    x runs from source to drain (see `geometry`), so the drain-side half
    is the part of the channel above its x midplane. ``concentration`` of
    the power lands uniformly in that half, the rest uniformly in the
    other half. The source integrates to total_power exactly.
    """
    check_rules(THERMAL_RULES, {"total_power": total_power, "concentration": concentration})
    mask = grid.cells_of_label(device_region)
    if not mask.any():
        raise RegionNotFoundError(f"no cells labeled {device_region!r}")

    ix = np.nonzero(mask.any(axis=(1, 2)))[0]
    x_mid = 0.5 * (grid.x_edges[ix[0]] + grid.x_edges[ix[-1] + 1])
    high = grid.centers(0)[:, None, None] > x_mid
    near = mask & high
    far = mask & ~high
    if not near.any() or not far.any():
        raise ConfigurationError(f"channel {device_region!r} too thin to split at midplane")

    vols = grid.cell_volumes() * NM**3
    q = np.zeros(grid.dims)
    q[near] = concentration * total_power / vols[near].sum()
    q[far] = (1.0 - concentration) * total_power / vols[far].sum()
    return q


def export_heatmap(reprs: np.ndarray, grid: VoxelGrid, path, fmt: str = "csv"):
    """Write temperatures, given as their `format_reprs` strings, as CSV rows
    or a legacy ASCII VTK structured grid."""
    if reprs.shape != grid.dims:
        raise ConfigurationError("field and grid dims differ")
    if fmt == "csv":
        chunks = _heatmap_csv(reprs, grid)
    elif fmt == "vtk_legacy":
        chunks = _heatmap_vtk(reprs, grid)
    else:
        raise ConfigurationError(f"unknown heatmap format {fmt!r}")
    atomic_write(path, chunks)


# The shortest round-trip digits of a double in [1, 2**53) by integer
# arithmetic (the digit loop of Steele and White, PLDI 1990, which Python's
# `repr` runs on bignums). Write v = M * 2**-s with M < 2**53 and 0 <= s <= 52:
# the integer part is M >> s and the fraction is F / 2**s with F = M % 2**s.
# After k steps of F <- 10 F, D <- 10 D + (F >> s), F <- F % 2**s, the value is
# (D + F / 2**s) / 10**k, and the k-place decimals D / 10**k and (D + 1) / 10**k
# read back as v when they lie within half an ulp (2**-s / 2) of it: when
# 2 F < 10**k, or 2 (2**s - F) < 10**k. The first such k gives repr's digits,
# and of the two the nearer. No decimal that short sits on the boundary of the
# rounding interval, because v itself has s decimal places; so the narrower
# interval below a power of two never matters either (those are integers
# here, F = 0 at k = 0). Every integer stays below 2**63, so uint64 is exact.
# An exact tie (2 F = 2**s) is left to repr's rounding rule: it and every
# value outside [1, 2**53) are formatted by `repr`.

REPR_BLOCK = 4096  # values per kernel pass; bounds its scratch arrays
_POW10 = np.array([10**k for k in range(19)], dtype=np.uint64)
_HALF_POW10 = _POW10 // np.uint64(2)
# uint64 scalars, so that numpy 1.x value-based casting never goes to float64
_ONE, _NINE, _TEN, _THOUSAND = (np.uint64(p) for p in (1, 9, 10, 1000))
# the 4 ASCII digits of 0000 to 9999, each read as one uint32
_QUADS = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                              indexing="ij"), -1).view(np.uint32).ravel()
_KEEP = np.where(np.arange(18) < np.arange(19)[:, None], 255, 0).astype(np.uint8)  # row L keeps L


def format_reprs(values: np.ndarray) -> np.ndarray:
    """`repr(float(v))` of each value as ASCII bytes, NUL-padded in an S25
    array shaped like `values` (no float's repr is longer than 24
    characters). Values in [1, 2**53) are formatted in integer arithmetic,
    REPR_BLOCK at a time; every other value (below 1, zero, negative, 2**53
    and up, inf, nan) and every exact tie is formatted by `repr` itself."""
    flat = np.ravel(values)
    out = np.zeros(flat.size, dtype="S25")
    chars = out.view(np.uint8).reshape(-1, 25)
    for start in range(0, flat.size, REPR_BLOCK):
        block = flat[start:start + REPR_BLOCK]
        slow = np.flatnonzero(_format_block(block, chars[start:start + REPR_BLOCK]))
        out[start + slow] = [repr(v) for v in block[slow].tolist()]
    return out.reshape(np.shape(values))


def _format_block(v: np.ndarray, chars: np.ndarray) -> np.ndarray:
    """Write the repr of each fast-path value into its zeroed row of `chars`;
    return the mask of the values left for `repr`."""
    mant, exp = np.frexp(v)
    fast = (v >= 1.0) & (v < 2.0**53)
    # a stand-in 1.5 for the other values keeps their arithmetic in range
    mant = np.ldexp(np.where(fast, mant, 0.75), 53).astype(np.uint64)
    digits, places, ok = _shortest(mant, np.where(fast, 53 - exp, 52).astype(np.uint64))
    ok &= fast
    chars[ok, :18] = _write_decimal(digits[ok], places[ok])
    return ~ok


def _shortest(mant: np.ndarray, s: np.ndarray):
    """(D, k, ok) for each M * 2**-s: repr's value is D / 10**k where ok; ok is
    False for a tie between the two k-digit candidates."""
    scale = _ONE << s
    low = scale - _ONE

    def step(digits, frac, p):  # log10(p) places further
        frac = frac * p
        return digits * p + (frac >> s), frac & low

    def hits(frac, k):  # 2 F < 10**k or 2 (2**s - F) < 10**k, for k >= 1
        return (frac + _HALF_POW10[k]) & low < _POW10[k]

    digits, frac = mant >> s, mant & low
    out_d, out_k = digits.copy(), np.zeros(len(mant), np.int64)
    found = frac == 0  # k = 0: only 2 F < 1 can hold, and no digits are shorter
    tie = np.zeros(len(mant), bool)
    # A value that reads back at k places does so at every k after it, so
    # step three places at a time, and where one hits, look at the first two
    # of the three. Every value hits by 17 significant digits (k <= 16); past
    # its hit a value's integers may wrap, but it is masked out by then.
    k = 0
    while k < 16 and not found.all():
        ahead, frac3 = step(digits, frac, _THOUSAND)
        new = hits(frac3, k + 3) & ~found
        if new.any():
            d1, f1 = step(digits, frac, _TEN)
            d2, f2 = step(d1, f1, _TEN)
            h1, h2 = hits(f1, k + 1), hits(f2, k + 2)  # h1 implies h2
            f = np.where(h1, f1, np.where(h2, f2, frac3))
            twice = f << _ONE
            np.copyto(out_d, np.where(h1, d1, np.where(h2, d2, ahead)) + (twice > scale),
                      where=new)  # the nearer of the two candidates
            np.copyto(out_k, k + 3 - h1.astype(np.int64) - h2, where=new)
            np.copyto(tie, twice == scale, where=new)
            found |= new
        digits, frac, k = ahead, frac3, k + 3
    return out_d, out_k, found & ~tie


def _write_decimal(digits: np.ndarray, places: np.ndarray) -> np.ndarray:
    """D / 10**k as repr writes it for 1 <= D / 10**k < 2**53 (the integer
    part, '.', the k places or '0'), one NUL-padded uint8 row of 18 each."""
    n = np.searchsorted(_POW10, digits, side="right")  # digits of D
    whole = n - places  # digits before the point
    # D's digits left-aligned in 18, with a 0 put in after the integer part:
    # the place of the point, or the 0 of "I.0"
    cut = _POW10[17 - whole]
    spread = digits * _POW10[17 - n]
    spread += spread // cut * cut * _NINE
    top = spread // _POW10[16]
    rest = spread - top * _POW10[16]
    high = rest // _POW10[8]
    low = rest - high * _POW10[8]
    quads = np.empty((len(digits), 5), np.intp)  # intp: the fast gather
    quads[:, 0] = top
    for col, half in ((1, high), (3, low)):
        quads[:, col] = upper = half // _POW10[4]
        quads[:, col + 1] = half - upper * _POW10[4]
    text = _QUADS[quads].view(np.uint8)[:, 2:]  # the 18 characters
    text[np.arange(len(digits)), whole] = ord(".")
    text &= _KEEP.take(n + 1 + (places == 0), axis=0)  # NULs after the last one
    return text


def _centers(grid) -> list[list[bytes]]:
    """The reprs of the cell centres along each axis, as ASCII bytes."""
    return [format_reprs(grid.centers(a)).tolist() for a in range(3)]


def _rows(strings) -> np.ndarray:
    """The bytes of fixed-width strings (an S-array, or a list made into
    one), one NUL-padded uint8 row per string."""
    strings = np.asarray(strings)
    return strings.view(np.uint8).reshape(strings.shape + (strings.itemsize,))


def _lines(shape: tuple, *columns: np.ndarray) -> bytes:
    """One line per cell of `shape`, in C order: the uint8 columns side by
    side, each broadcast to `shape` plus its width, then "\n". One mask
    drops the NUL padding of every column."""
    block = np.empty(shape + (sum(c.shape[-1] for c in columns) + 1,), np.uint8)
    at = 0
    for c in columns:
        block[..., at:at + c.shape[-1]] = c
        at += c.shape[-1]
    block[..., at] = ord("\n")
    m = block.reshape(-1)
    return m[m != 0].tobytes()


# The writers yield one slab of lines at a time as bytes, so neither a
# heatmap nor one Python bytes object per cell sits in memory.

def _heatmap_csv(reprs, grid):
    xs, ys, zs = _centers(grid)
    ys, zs, comma = _rows(ys)[:, None], _rows(zs), np.frombuffer(b",", np.uint8)
    yield b"x_nm,y_nm,z_nm,T_K\n"
    for x, slab in zip(xs, _rows(reprs)):  # rows in C order: z varies fastest
        yield _lines(slab.shape[:2], np.frombuffer(x + b",", np.uint8), ys, comma, zs, comma, slab)


def _heatmap_vtk(reprs, grid):
    nx, ny, nz = grid.dims
    xs, ys, zs = _centers(grid)
    yield ("# vtk DataFile Version 3.0\n"
           "temperature field\n"
           "ASCII\n"
           "DATASET STRUCTURED_GRID\n"
           f"DIMENSIONS {nx} {ny} {nz}\n"
           f"POINTS {nx * ny * nz} double\n").encode()
    # VTK point order: x varies fastest
    for z in zs:
        yield b"".join((s + b"\n").join(xs) + s + b"\n" for s in (b" %s %s" % (y, z) for y in ys))
    yield (f"POINT_DATA {nx * ny * nz}\n"
           "SCALARS temperature double 1\n"
           "LOOKUP_TABLE default\n").encode()
    # the C-order strings through a transposed view: one z slab at a time
    for slab in _rows(reprs).transpose(2, 1, 0, 3):
        yield _lines(slab.shape[:2], slab)
