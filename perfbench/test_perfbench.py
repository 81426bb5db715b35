"""Self-tests of the benchmark harness (not part of the cfetsim suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import instrument  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SAMPLE = (ROOT / workloads.SAMPLE_CONFIG).read_text()


def _owners():
    import scipy.sparse.linalg as spla
    from cfetsim import circuit, cli, device, geometry, parasitics, thermal
    return [cli, geometry, device, device.ThermalContext, thermal, parasitics, spla, circuit]


def test_wrappers_restore_the_original_attributes():
    before = [dict(vars(owner)) for owner in _owners()]
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            instrument.instrument(tracer)
            changed = sum(vars(o)[k] is not v for o, snap in zip(_owners(), before)
                          for k, v in snap.items())
            raise RuntimeError("exit by exception")
    assert tracer.missing == []
    assert changed == 21
    for owner, snap in zip(_owners(), before):
        assert set(vars(owner)) == set(snap)
        assert all(vars(owner)[k] is v for k, v in snap.items())


def test_self_times_sum_to_the_root_span():
    ns = types.SimpleNamespace()

    def leaf():
        time.sleep(0.002)

    def mid():
        ns.leaf()
        time.sleep(0.001)
        ns.leaf()

    def top():
        ns.mid()
        ns.leaf()
        return 7

    ns.leaf, ns.mid = leaf, mid
    with Tracer() as tracer:
        tracer.wrap(ns, "leaf", "leaf")
        tracer.wrap(ns, "mid", "mid", hook=lambda attrs, a, k, r: attrs.update(seen=True))
        assert tracer.call("root", top) == 7
    assert ns.leaf is leaf and ns.mid is mid
    sp = tracer.spans
    root = sp[0]
    assert [s["name"] for s in sp] == ["root", "mid", "leaf", "leaf", "trace.hook", "leaf"]
    assert [s["parent"] for s in sp] == [None, 0, 1, 1, 0, 0]
    assert sp[1]["attrs"] == {"seen": True}
    own = self_times(sp)
    assert sum(own.values()) == pytest.approx(root["end"] - root["start"], rel=1e-9)
    assert own[1] >= 0.001 and all(v >= 0 for v in own.values())


def test_traced_pipeline_attributes_cg_to_its_caller(tmp_path):
    """CG under extract_capacitance and under solve_steady is counted apart."""
    from cfetsim import cli
    argv = ["delay", str(ROOT / workloads.SAMPLE_CONFIG), "--design", "2tier",
            "--parasitics", "on", "--she", "on", "--out", str(tmp_path)]
    with Tracer() as tracer:
        instrument.instrument(tracer)
        assert tracer.call("cli.main", cli.main, (argv,)) == 0
    m = instrument.layer_metrics(tracer.spans, tracer.counts)
    assert m["parasitics.cap_solves"] == 4 and m["thermal.solve_calls"] == 2
    assert m["solver.cg_calls"] == 6
    assert m["parasitics.cap_cg_iters"] + m["thermal.cg_iters"] == m["solver.cg_iters"] > 0
    assert m["circuit.steps"] == 8000 and m["circuit.model_evals"] > 0
    assert m["parasitics.res_solves"] == 4
    assert m["trace.coverage"] > 0.9
    assert m["solver.rel_residual_max"] < 1e-8

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS)
    runs = [{"traced": False, "wall_s": 2.0, "setup_s": 0.5, "maxrss_mb": 9.0, "problems": [],
             "checks": {}},
            {"traced": True, "wall_s": 2.5, "cpu_s": 2.4, "threads_max": 1, "problems": [],
             "checks": {}, "spans": tracer.spans, "counts": tracer.counts}]
    for kind, metrics in (("per_layer", run.per_layer(runs)),
                          ("end_to_end", run.end_to_end(runs))):
        units = run.UNITS if kind == "end_to_end" else {k: instrument.unit_of(k) for k in metrics}
        assert {(d["name"], d["unit"]) for d in declared[kind]} == set(units.items())


def _fake_extract_outputs(out_dir, ref):
    import numpy as np
    from cfetsim import parasitics
    os.makedirs(out_dir)
    cmat = parasitics.CapacitanceMatrix(ref["conductors"], np.array(ref["capacitance"]))
    rrep = parasitics.ResistanceReport([parasitics.ResistanceEntry(*k.split("/"), r)
                                        for k, r in ref["resistance"].items()])
    Path(out_dir, "capacitance.csv").write_text(cmat.to_csv())
    Path(out_dir, "resistance.csv").write_text(rrep.to_csv())
    Path(out_dir, "diagnostics.txt").write_text("cells=1\nasymmetry_rel=0.0\n")


@pytest.mark.parametrize("perturb", [0.0, 1e-3])
def test_perturbed_capacitance_reference_fails_the_run(tmp_path, monkeypatch, perturb):
    refs = checks.load_references()
    good = json.loads(json.dumps(refs["extract-2nm"]))
    refs["extract-2nm"]["capacitance"][0][1] *= 1 + perturb

    def fake_spawn(work, tag, mode, argv):
        _fake_extract_outputs(argv[argv.index("--out") + 1], good)
        return {"exit": 0, "rc": 0, "wall_s": 1.0, "setup_s": 0.5, "maxrss_mb": 1.0}

    monkeypatch.setattr(run, "spawn", fake_spawn)
    wl = workloads.WORKLOADS["extract-2nm"]
    res = run.run_once(tmp_path, wl, 0, tmp_path / "config.ini", 0, False, refs, None)
    if perturb:
        assert res["problems"] and res["checks"]["check.c_rel_err"] > checks.C_TOL
        assert run.end_to_end([res])["pass_frac"] == 0.0
    else:
        assert res["problems"] == [] and res["checks"]["check.c_rel_err"] == 0.0


def test_changed_reports_fail_the_run(tmp_path, monkeypatch):
    refs = checks.load_references()
    monkeypatch.setattr(run, "spawn", lambda work, tag, mode, argv: (
        _fake_extract_outputs(argv[argv.index("--out") + 1], refs["extract-2nm"])
        or {"exit": 0, "rc": 0}))
    wl = workloads.WORKLOADS["extract-2nm"]
    res = run.run_once(tmp_path, wl, 0, tmp_path / "c.ini", 0, False, refs, "0" * 64)
    assert res["problems"] == ["reports differ from the first run's"]


def _grid_dims(text, design, tmp_path):
    from cfetsim import cli, config
    path = tmp_path / "c.ini"
    path.write_text(text)
    grid, _, _, _ = cli.build_inverter_grid(config.load_config(str(path)), design)
    return grid.dims


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_nonzero_seeds_give_valid_different_configs(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    base = workloads.config_for_seed(wl, SAMPLE, 0)
    dims0 = _grid_dims(base, wl.design, tmp_path)
    seen = set()
    for seed in range(1, 9):
        text = workloads.config_for_seed(wl, SAMPLE, seed)
        assert text == workloads.config_for_seed(wl, SAMPLE, seed)
        assert text != base
        assert _grid_dims(text, wl.design, tmp_path) == dims0
        seen.add(text)
    assert len(seen) > 4


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_shift_subset_voxelizes_routes_and_keeps_the_grid(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    dims0 = _grid_dims(workloads.build_config(wl, SAMPLE), wl.design, tmp_path)
    keys = sorted(wl.shifts)
    for r in range(1, len(keys) + 1):
        for subset in itertools.combinations(keys, r):
            text = workloads.build_config(wl, SAMPLE, {k: wl.shifts[k] for k in subset})
            assert _grid_dims(text, wl.design, tmp_path) == dims0, subset


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract-2nm", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
