"""Output checks of one benchmark run.

On seed 0 the reports are compared with `references.json`, written by
`make_references.py`. Every seed must satisfy the invariants: a Maxwell
matrix with positive diagonal, non-positive couplings and a small
asymmetry, positive resistances, delays and temperature rises, and an
energy balance within `BALANCE_MAX`. Byte identity of repeated runs is
checked by the caller, which compares `digest` values.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

C_TOL = 1e-6  # Maxwell matrix, relative to its largest entry
R_TOL = 1e-9  # resistances, relative
DT_TOL = 1e-6  # temperature rises and the thermal power, relative
TP_TOL = 2.5e-3  # delays, relative to the fixed-step dt = 1 fs reference
BALANCE_MAX = 1e-4
ASYMMETRY_MAX = 1e-6


def load_references(path=REFERENCES) -> dict:
    with open(path) as f:
        return json.load(f)


def read_kv(path) -> dict[str, str]:
    with open(path) as f:
        return dict(line.strip().split("=", 1) for line in f if "=" in line)


def read_capacitance(path):
    with open(path) as f:
        rows = [line.strip().split(",") for line in f if line.strip()]
    return rows[0][1:], [[float(v) for v in r[1:]] for r in rows[1:]]


def read_resistance(path) -> dict[str, float]:
    with open(path) as f:
        rows = [line.strip().split(",") for line in f if line.strip()]
    return {f"{a}/{b}": float(r) for a, b, r in rows[1:]}


def digest(out_dir) -> str:
    """sha256 over the names and bytes of every file the run wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _rel(got, ref):
    return abs(got / ref - 1.0)


def check_extract(out_dir, ref, problems, values):
    names, cmat = read_capacitance(os.path.join(out_dir, "capacitance.csv"))
    n = len(names)
    if any(cmat[i][i] <= 0 for i in range(n)):
        problems.append("capacitance diagonal not positive")
    if any(cmat[i][j] > 0 for i in range(n) for j in range(n) if i != j):
        problems.append("positive capacitance coupling")
    asym = float(read_kv(os.path.join(out_dir, "diagnostics.txt"))["asymmetry_rel"])
    if not asym <= ASYMMETRY_MAX:
        problems.append(f"asymmetry_rel {asym!r} > {ASYMMETRY_MAX}")
    res = read_resistance(os.path.join(out_dir, "resistance.csv"))
    if not all(0 < r < math.inf for r in res.values()):
        problems.append("resistance not positive and finite")
    if ref is None:
        return
    if names != ref["conductors"]:
        problems.append(f"conductors {names} != {ref['conductors']}")
        return
    scale = max(abs(v) for row in ref["capacitance"] for v in row)
    values["check.c_rel_err"] = max(
        abs(a - b) for ra, rb in zip(cmat, ref["capacitance"]) for a, b in zip(ra, rb)) / scale
    if sorted(res) != sorted(ref["resistance"]):
        problems.append(f"resistance pairs {sorted(res)} != {sorted(ref['resistance'])}")
        return
    values["check.r_rel_err"] = max(_rel(res[k], v) for k, v in ref["resistance"].items())
    if not values["check.c_rel_err"] <= C_TOL:
        problems.append(f"capacitance off by {values['check.c_rel_err']!r} of max entry")
    if not values["check.r_rel_err"] <= R_TOL:
        problems.append(f"resistance off by {values['check.r_rel_err']!r}")


def check_delay(out_dir, ref, problems, values):
    rep = read_kv(os.path.join(out_dir, "report.txt"))
    got = {k: float(rep[k]) for k in ("tp_without_ps", "tp_with_ps",
                                      "delta_t_n_K", "delta_t_p_K")}
    if not all(v > 0 for v in got.values()):
        problems.append(f"non-positive delay or temperature rise: {got}")
    if ref is None:
        return
    values["check.tp_rel_err"] = max(_rel(got[k], ref[k + "_dt1fs"])
                                     for k in ("tp_without_ps", "tp_with_ps"))
    values["check.dt_rel_err"] = max(_rel(got[k], ref[k]) for k in ("delta_t_n_K", "delta_t_p_K"))
    if not values["check.tp_rel_err"] <= TP_TOL:
        problems.append(f"delay off the dt = 1 fs reference by {values['check.tp_rel_err']!r}")
    if not values["check.dt_rel_err"] <= DT_TOL:
        problems.append(f"temperature rise off by {values['check.dt_rel_err']!r}")


def check_thermal(out_dir, ref, problems, values):
    summary = read_kv(os.path.join(out_dir, "summary.txt"))
    got = {k: float(summary[k]) for k in ("power_W", "delta_t_max_K", "balance_rel")}
    values["check.balance_rel"] = abs(got["balance_rel"])
    if not values["check.balance_rel"] <= BALANCE_MAX:
        problems.append(f"energy balance {got['balance_rel']!r} > {BALANCE_MAX}")
    if not (got["power_W"] > 0 and got["delta_t_max_K"] > 0):
        problems.append(f"non-positive power or temperature rise: {got}")
    for name in ("heatmap.csv", "heatmap.vtk"):
        if not os.path.getsize(os.path.join(out_dir, name)) > 0:
            problems.append(f"{name} is empty")
    if ref is None:
        return
    values["check.dt_rel_err"] = _rel(got["delta_t_max_K"], ref["delta_t_max_K"])
    power_err = _rel(got["power_W"], ref["power_W"])
    if not max(values["check.dt_rel_err"], power_err) <= DT_TOL:
        problems.append(f"temperature rise or power off by "
                        f"{max(values['check.dt_rel_err'], power_err)!r}")


CHECKS = {"extract": check_extract, "delay": check_delay, "thermal": check_thermal}


def check_outputs(workload, seed: int, out_dir, references: dict):
    """(problems, check.* values) for the reports of one run."""
    problems: list[str] = []
    values: dict[str, float] = {}
    ref = references[workload.name] if seed == 0 else None
    try:
        CHECKS[workload.command](out_dir, ref, problems, values)
    except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems, values
