#!/usr/bin/env python3
"""The nonzero-cycles benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload {sweep,census,obstruction}
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  The run draws its inputs from the
seed, starts the workload in a process of its own (perfbench/worker.py),
checks every operation's output against the independent oracles of
oracle.py, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
the per-layer ones of a separate traced run.  Raw wall-clock figures go to
stderr, and everything the run measured goes to perfbench/out/.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

TIME_LIMIT = 170.0  # seconds for the whole run
SETUP_REPEATS = 3  # set-ups measured per run; the median is reported


def _worker(args, workload, plan_path, workdir, result, deadline, setup_only=False, spans=None):
    os.makedirs(workdir)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--plan", plan_path, "--workdir", workdir,
        "--result", result, "--seconds", str(args.seconds),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    # fixed string hashing, so that set iteration order and with it the
    # traced counts repeat from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def _truths(workload, plan, instances):
    """Oracle answers per slot, read from the instance files."""
    from checks import SlotTruth
    import oracle

    truths, extra, cycles_by_topology = [], [], {}
    for i, slot in enumerate(plan["slots"]):
        try:
            graph = oracle.read_graph(instances[i])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            truths.append(None)
            extra.append([f"cannot read the instance file: {exc}"])
            continue
        problems = []
        if workload == "obstruction":
            truths.append(graph)
            extra.append(problems)
            continue
        key = tuple(sorted((e, frozenset(p)) for e, p in graph.ends.items()))
        if key not in cycles_by_topology:
            cycles_by_topology[key] = oracle.graph_cycles(graph)
        truth = SlotTruth(graph, cycles_by_topology[key])
        if workload == "sweep":
            from checks import check_reduction

            want = {frozenset(p) for p in slot["edges"]}
            if {frozenset(p) for p in graph.ends.values()} != want:
                problems.append("instance edges differ from the plan")
            problems += check_reduction(truth, slot)
        truths.append(truth)
        extra.append(problems)
    return truths, extra


def _check_one(checks, workload, truth, out):
    if truth is None:
        return []
    if workload == "sweep":
        return checks.check_sweep(truth, out)
    if workload == "census":
        return checks.check_census(truth, out)
    if "verify" in out:
        rc, report = out["verify"]
        report = report if rc == 0 and report else {}
    else:
        report = out["report"]
    return checks.check_obstruction(truth, report)


def _check(workload, plan, res):
    """(failed operations, wrong answers, problem samples)."""
    import checks

    truths, extra = _truths(workload, plan, res["instances"])
    failed = wrong = 0
    samples = []
    for i, outputs in enumerate(res["outputs"]):
        for text, count in outputs:
            out = json.loads(text)
            if "error" in out:
                problems, is_wrong = [out["error"]], False
            else:
                try:
                    problems = extra[i] + _check_one(checks, workload, truths[i], out)
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    problems = [f"malformed output: {type(exc).__name__}: {exc}"]
                is_wrong = bool(problems)
            if problems:
                failed += count
                wrong += count if is_wrong else 0
                samples.append({"slot": i, "problems": problems[:3]})
    return failed, wrong, samples


def _timing(values, pct):
    return {
        "ops_per_s": len(values) / sum(values),
        "p50_ms": 1000.0 * statistics.median(values),
        "tail_ms": 1000.0 * statistics.quantiles(values, n=100, method="inclusive")[pct - 1],
        "tail_percentile": pct,
        "samples": len(values),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="nonzero-cycles benchmark")
    ap.add_argument("--workload", required=True, choices=("sweep", "census", "obstruction"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT

    if not os.path.isfile(os.path.join(ROOT, "src", "nonzero_cycles", "cli.py")):
        print("benchmark: no program source under src/nonzero_cycles", file=sys.stderr)
        return 2
    from plan import PLANS, TAIL

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(HERE, "work", f"{tag}-{os.getpid()}")
    phases = {}
    t = time.monotonic()
    try:
        os.makedirs(work)
        plan = PLANS[args.workload](args.seed)
        phases["plan"] = time.monotonic() - t
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        spans = os.path.join(out_dir, f"spans-{tag}.json") if args.trace else None
        res = _worker(args, args.workload, plan_path, os.path.join(work, "run"),
                      os.path.join(work, "run.json"), deadline, spans=spans)
        phases["run"] = time.monotonic() - t - sum(phases.values())
        setups = [res]
        if not args.trace:
            for k in range(1, SETUP_REPEATS):
                setups.append(_worker(args, args.workload, plan_path, os.path.join(work, f"setup{k}"),
                                      os.path.join(work, f"setup{k}.json"), deadline, setup_only=True))
        phases["setups"] = time.monotonic() - t - sum(phases.values())
        failed, wrong, samples = _check(args.workload, plan, res)
        phases["check"] = time.monotonic() - t - sum(phases.values())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    pct = TAIL[args.workload][0]
    cal = _timing(res["cal_s"], pct)
    raw = _timing(res["raw_s"], pct)
    setup_cal = statistics.median(s["setup_cal_s"] for s in setups)
    setup_raw = statistics.median(s["setup_raw_s"] for s in setups)
    if args.trace:
        metrics = {
            name: {"value": value, "unit": _layer_unit(name)}
            for name, value in res["layers"].items()
        }
        for name in res["absent"]:
            print(f"benchmark: {name} is absent from the program", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": setup_cal, "unit": "s"},
            "ops_per_cal_s": {"value": cal["ops_per_s"], "unit": "1/s"},
            "latency_p50_cal_ms": {"value": cal["p50_ms"], "unit": "ms"},
            "latency_tail_cal_ms": {"value": cal["tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "calibrated": cal, "raw": raw,
        "setup_cal_s": [s["setup_cal_s"] for s in setups],
        "setup_raw_s": [s["setup_raw_s"] for s in setups],
        "passes": res["passes"], "pool": res["pool"], "peak_rss_mb": res["peak_rss_mb"],
        "failed": failed, "wrong": wrong, "problems": samples[:20],
        "layers": res.get("layers"), "spans": res.get("spans"), "phases_s": phases,
    }
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(
        f"raw: setup {setup_raw:.3f} s, {raw['ops_per_s']:.3f} ops/s, p50 {raw['p50_ms']:.2f} ms, "
        f"p{raw['tail_percentile']} {raw['tail_ms']:.2f} ms over {raw['samples']} operations "
        f"({res['passes']} passes of {res['pool']}); run phases "
        + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()),
        file=sys.stderr,
    )
    for s in samples[:5]:
        print(f"benchmark: slot {s['slot']}: {'; '.join(s['problems'])}", file=sys.stderr)
    attempted = len(res["cal_s"])
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
