"""Regenerate references.json from seed 0 of each workload.

    python3 perfbench/make_references.py

Runs each workload once through worker.py with the benchmark's pinned
thread settings and records the values checks.py compares against. The
delay reference is the same pipeline-she config rerun with fixed steps of
dt = 1 fs; the seed's dt = 5 fs must stay within checks.TP_TOL of it.
Regenerate only for a change that is meant to move the outputs, and say
why in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import json
import shutil

import checks
import run
import workloads


def outputs(work, tag, workload, overrides=None):
    """Run `workload` at seed 0 (plus `overrides`) and return its output dir."""
    if overrides:
        workload = dataclasses.replace(workload, overrides={**workload.overrides, **overrides})
    sample = (run.ROOT / workloads.SAMPLE_CONFIG).read_text()
    config = work / f"{tag}.ini"
    config.write_text(workloads.build_config(workload, sample))
    out_dir = work / tag
    res = run.spawn(work, tag, "0", workloads.cli_argv(workload, str(config), str(out_dir)))
    if res["exit"] != 0:
        raise SystemExit(f"{workload.name} failed: {res.get('error')}")
    return out_dir


def main():
    work = run.WORK / "references"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS
    try:
        ext = outputs(work, "extract", wl["extract-2nm"])
        names, cmat = checks.read_capacitance(ext / "capacitance.csv")
        res = checks.read_resistance(ext / "resistance.csv")
        she = checks.read_kv(outputs(work, "she", wl["pipeline-she"]) / "report.txt")
        fine = checks.read_kv(outputs(work, "she-dt1fs", wl["pipeline-she"],
                                      {"experiment": {"dt_fs": "1"}}) / "report.txt")
        thm = checks.read_kv(outputs(work, "thermal", wl["thermal-4tier"]) / "summary.txt")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        run.WORK.rmdir()
    refs = {
        "extract-2nm": {"conductors": names, "capacitance": cmat,
                        "resistance": res},
        "pipeline-she": {
            **{k: float(she[k]) for k in ("delta_t_n_K", "delta_t_p_K",
                                          "tp_without_ps", "tp_with_ps")},
            **{k + "_dt1fs": float(fine[k]) for k in ("tp_without_ps", "tp_with_ps")}},
        "thermal-4tier": {k: float(thm[k]) for k in ("power_W", "delta_t_max_K")},
    }
    with open(checks.REFERENCES, "w") as f:
        json.dump(refs, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
