"""The benchmark's workloads and the configs they run on.

Each workload is one `cfetsim` CLI invocation on a config generated from
`configs/sample_2tier.ini` by overriding keys. Seed 0 is the workload
exactly as documented in NOTES.md. Every other seed shifts a non-empty,
seed-chosen subset of six dimensions by one whole nanometre. Each shift
is one the boundary-aligned voxelizer absorbs without changing the grid
dimensions, for every subset (test_perfbench.py checks all of them), so
a held-out seed reruns the same amount of work on a different input.
"""

from __future__ import annotations

import configparser
import io
import random
from dataclasses import dataclass, field

SAMPLE_CONFIG = "configs/sample_2tier.ini"

# (section, key) -> shift in nm that keeps the grid dimensions at 2 nm ...
_SHIFTS_2NM = {
    ("device", "gate_length"): 1,
    ("device", "sheet_thickness"): -1,
    ("device", "spacer_thickness"): 1,
    ("stack", "tier_gap"): -1,
    ("stack", "standoff"): -1,
    ("beol", "metal_thickness"): -1,
}
# ... and at the sample's 3 nm, where a thinner tier gap adds a z layer
_SHIFTS_3NM = {**_SHIFTS_2NM, ("stack", "tier_gap"): 1}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    args: tuple[str, ...]  # CLI arguments after the config path, before --out
    design: str  # the inverter design whose grid the command builds
    overrides: dict = field(default_factory=dict)  # section -> {key: value}
    shifts: dict = field(default_factory=dict)  # (section, key) -> nm


WORKLOADS = {w.name: w for w in (
    Workload("extract-2nm", "extract", ("--design", "2tier"), "2tier",
             {"mesh": {"resolution": "2nm"}}, _SHIFTS_2NM),
    Workload("pipeline-she", "delay",
             ("--design", "2tier", "--parasitics", "on", "--she", "on"), "2tier",
             {}, _SHIFTS_3NM),
    Workload("thermal-4tier", "thermal", ("--device", "3:n"), "4tier-top",
             {"stack": {"tier_count": "4", "order": "pnpn"},
              "thermal": {"power": "auto"}, "mesh": {"resolution": "2nm"}},
             _SHIFTS_2NM),
)}


def seed_shifts(workload: Workload, seed: int) -> dict:
    """The shifts seed `seed` applies: none for seed 0, else a non-empty subset."""
    if seed == 0:
        return {}
    rng = random.Random(f"{workload.name}/{seed}")
    while True:
        chosen = {k: v for k, v in sorted(workload.shifts.items()) if rng.random() < 0.5}
        if chosen:
            return chosen


def _nm(text: str) -> float:
    return float(text.strip().removesuffix("nm"))


def build_config(workload: Workload, sample_text: str,
                 shifts: dict | None = None) -> str:
    """INI text of the workload's config, with `shifts` applied in nm."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_string(sample_text)
    for section, values in workload.overrides.items():
        if not cp.has_section(section):
            cp.add_section(section)
        for key, value in values.items():
            cp[section][key] = value
    for (section, key), delta in (shifts or {}).items():
        cp[section][key] = f"{_nm(cp[section][key]) + delta:g}nm"
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def config_for_seed(workload: Workload, sample_text: str, seed: int) -> str:
    return build_config(workload, sample_text, seed_shifts(workload, seed))


def cli_argv(workload: Workload, config_path: str, out_dir: str) -> list[str]:
    return [workload.command, config_path, *workload.args, "--out", out_dir]
