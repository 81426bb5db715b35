"""Benchmark entry point: one workload, a fixed measuring time, one JSON line.

    python3 perfbench/run.py --workload extract-2nm --seed 0 --seconds 30 --trace 0

Load model: a closed loop with one client. Each cfetsim CLI invocation
runs through `cfetsim.cli.main` in a fresh worker process (worker.py),
started only after the previous one exited, until --seconds have passed
and at least two runs were made. Workers run with the OpenBLAS, OpenMP
and MKL pools pinned to one thread (NOTES.md says why).

Every run's reports are checked (checks.py) and must be byte-identical to
the first run's. A run fails if its worker exits non-zero, raises, or
fails a check. With --trace 0 the runs are untraced and the end-to-end
metrics are reported; with --trace 1 untraced and traced runs alternate
and the per-layer metrics are reported. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the machine is on the line
before it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import instrument
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 120
MIN_RUNS = 2

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "1"}
CHECK_KEYS = ("check.c_rel_err", "check.r_rel_err", "check.tp_rel_err",
              "check.dt_rel_err", "check.balance_rel")


def spawn(work: Path, tag: str, mode: str, argv: list[str]) -> dict:
    """Run worker.py once and return its result, with `exit` and any `error`."""
    result = work / f"{tag}.json"
    env = dict(os.environ, **PINNED, PYTHONPATH=str(ROOT / "src"))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(result), repr(spawned), mode,
             "--", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": None, "error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    try:
        out = json.loads(result.read_text())
    except (OSError, ValueError):
        out = {}
    out["exit"] = proc.returncode
    if proc.returncode != 0:
        out.setdefault("error", proc.stderr[-2000:])
    return out


def run_once(work: Path, workload, seed: int, config_path: Path, index: int,
             traced: bool, references: dict, first_digest: str | None) -> dict:
    """One checked CLI run; `problems` is empty when the run counts as passed."""
    out_dir = work / f"out{index}"
    res = spawn(work, f"run{index}", "1" if traced else "0",
                workloads.cli_argv(workload, str(config_path), str(out_dir)))
    res.update(traced=traced, problems=[], checks={})
    if res["exit"] != 0 or res.get("rc") != 0:
        res["problems"].append(f"exit {res['exit']}, rc {res.get('rc')}: "
                               f"{res.get('error', '')[-500:]}")
    else:
        res["problems"], res["checks"] = checks.check_outputs(
            workload, seed, out_dir, references)
        res["digest"] = checks.digest(out_dir)
        if first_digest is not None and res["digest"] != first_digest:
            res["problems"].append("reports differ from the first run's")
    shutil.rmtree(out_dir, ignore_errors=True)
    return res


def end_to_end(runs: list[dict]) -> dict[str, float]:
    timed = [r for r in runs if "wall_s" in r and not r["traced"]]
    passed = [r for r in timed if not r["problems"]] or timed
    return {
        "wall_s": statistics.median(r["wall_s"] for r in passed),
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in passed),
        "pass_frac": sum(not r["problems"] for r in runs) / len(runs),
    }


def per_layer(runs: list[dict]) -> dict[str, float]:
    traced = [r for r in runs if r["traced"] and "spans" in r]
    passed = [r for r in traced if not r["problems"]] or traced
    layers = [instrument.layer_metrics(r["spans"], r["counts"]) for r in passed]
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["process.cpu_s"] = statistics.median(r["cpu_s"] for r in passed)
    metrics["process.threads_max"] = max(r["threads_max"] for r in passed)
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in passed)
        - end_to_end([r for r in runs if not r["traced"]])["wall_s"])
    for key in CHECK_KEYS:
        metrics[key] = max((r["checks"].get(key, 0.0) for r in runs), default=0.0)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running worker is killed and
    # reaped and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    sample = ROOT / workloads.SAMPLE_CONFIG
    if not (ROOT / "src" / "cfetsim").is_dir() or not sample.is_file():
        print(f"error: no cfetsim sources or {workloads.SAMPLE_CONFIG} under {ROOT}",
              file=sys.stderr)
        return 2
    references = checks.load_references()
    workload = workloads.WORKLOADS[args.workload]

    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.ini"
        config_path.write_text(workloads.config_for_seed(workload, sample.read_text(), args.seed))
        warm = spawn(work, "warm", "warm", [str(config_path)])
        if warm["exit"] != 0:
            print(f"error: the program does not start: {warm.get('error')}", file=sys.stderr)
            return 2

        runs: list[dict] = []
        deadline = time.monotonic() + args.seconds
        while len(runs) < MIN_RUNS or time.monotonic() < deadline:
            traced = args.trace == 1 and len(runs) % 2 == 1
            first = next((r["digest"] for r in runs if "digest" in r), None)
            res = run_once(work, workload, args.seed, config_path, len(runs), traced,
                           references, first)
            runs.append(res)
            print(f"run {len(runs)}: traced={int(traced)} exit={res['exit']} "
                  f"setup_s={res.get('setup_s', float('nan')):.4f} "
                  f"wall_s={res.get('wall_s', float('nan')):.4f} "
                  f"problems={res['problems']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # left in place while another benchmark process uses it
        except OSError:
            pass

    if not any("wall_s" in r and r["traced"] == bool(args.trace) for r in runs):
        print("error: no run produced a timing", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {k: {"value": v, "unit": instrument.unit_of(k)}
                   for k, v in per_layer(runs).items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in end_to_end(runs).items()}
    failed = sum(bool(r["problems"]) for r in runs)
    print("machine " + json.dumps({
        **warm["machine"], "workload": workload.name, "seed": args.seed,
        "shifts_nm": {f"{s}.{k}": d for (s, k), d in workloads.seed_shifts(
            workload, args.seed).items()}}))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
