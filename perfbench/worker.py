"""One workload in a process of its own: set-up, warm-up, timed passes.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 perfbench/worker.py --workload W --plan PLAN --workdir DIR
        --result OUT [--seconds S] [--spans FILE] [--setup-only]

The process imports the program from `src/`, writes the instance files of
the plan into DIR (through the program's `gen` and `reduce` commands
where the workload uses them), runs one warm-up operation of each
instance kind, and then runs whole passes over the plan's operations,
one at a time, until S seconds have gone.  Every operation is bracketed
by the reference loop of `calib.py`.  The outputs of each operation are
collected for the oracles in run.py; nothing is checked here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from typing import Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calib import CalibratedClock  # noqa: E402

ROOT = os.path.dirname(HERE)


def run_cli(cli, argv: List[str]):
    """Run one `nonzero-cycles` command in-process; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.  VmHWM starts afresh
    at exec, whereas ru_maxrss keeps the parent's peak from before it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _parsed(rc: int, text: str):
    return json.loads(text) if rc == 0 and text else None


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


class Workload:
    """Instance files plus one callable per slot of the plan."""

    LAP_EVERY = 10  # slots built per calibrated stretch of the set-up

    def __init__(self, workdir: str, clock: CalibratedClock):
        self.workdir = workdir
        self.clock = clock
        self.ops: List[Callable[[], dict]] = []
        self.kinds: List[str] = []
        self.instances: List[str] = []  # the file each operation reads

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def add(self, op: Callable[[], dict], kind: str, instance: str) -> None:
        self.ops.append(op)
        self.kinds.append(kind)
        self.instances.append(instance)
        if len(self.ops) % self.LAP_EVERY == 0:
            self.clock.lap()

    def warmup_slots(self) -> List[int]:
        first: Dict[str, int] = {}
        for i, kind in enumerate(self.kinds):
            first.setdefault(kind, i)
        return sorted(first.values())


def build_sweep(plan: dict, wl: Workload) -> Workload:
    from nonzero_cycles import cli

    n = plan["n"]
    for i, slot in enumerate(plan["slots"]):
        inst = wl.path(f"g{i}.json")
        if slot["kind"] == "z2z3":
            edges = [
                {"id": k, "tail": u, "head": v, "label": lab}
                for k, ((u, v), lab) in enumerate(zip(slot["edges"], slot["labels"]))
            ]
            _write_json(inst, {"group": "sum(z2,z3)", "vertices": list(range(n)), "edges": edges})
        else:
            plain = wl.path(f"plain{i}.json")
            edges = [{"id": k, "tail": u, "head": v, "label": "0"} for k, (u, v) in enumerate(slot["edges"])]
            _write_json(plain, {"group": "z", "vertices": list(range(n)), "edges": edges})
            argv = ["reduce", plain, slot["kind"], "--out", inst]
            if slot["kind"] == "s1s2":
                argv += ["--s1", ",".join(map(str, slot["s1"])), "--s2", ",".join(map(str, slot["s2"]))]
            rc, _ = run_cli(cli, argv)
            if rc != 0:
                raise RuntimeError(f"reduce failed with exit code {rc} on slot {i}")
        pcert, tcert = wl.path(f"pcert{i}.json"), wl.path(f"tcert{i}.json")

        def op(inst=inst, pcert=pcert, tcert=tcert):
            rc, text = run_cli(cli, ["pack", inst])
            doc = _parsed(rc, text)
            out = {"pack": [rc, doc]}
            if doc is None:
                return out
            _write_json(pcert, {"type": "packing", "cycles": doc["packing"], "max_use": 1})
            _write_json(tcert, {"type": "transversal", "vertices": doc["transversal"]})
            rc, text = run_cli(cli, ["verify", inst, pcert])
            out["verify_packing"] = [rc, _parsed(rc, text)]
            rc, text = run_cli(cli, ["verify", inst, tcert])
            out["verify_transversal"] = [rc, _parsed(rc, text)]
            return out

        wl.add(op, slot["kind"], inst)
    return wl


def build_census(plan: dict, wl: Workload) -> Workload:
    from nonzero_cycles import cli

    wall_file = wl.path("wall.json")
    rc, _ = run_cli(cli, ["gen", "wall", "--r", str(plan["r"]), "--out", wall_file])
    if rc != 0:
        raise RuntimeError(f"gen wall failed with exit code {rc}")
    with open(wall_file) as fh:
        wall = json.load(fh)["graph"]
    # edge ids from the program's wall; orientation and labels from the plan
    index = {frozenset(p): k for k, p in enumerate(plan["edges"])}
    for i, slot in enumerate(plan["slots"]):
        edges = []
        for e in wall["edges"]:
            k = index[frozenset((e["tail"], e["head"]))]
            u, v = plan["edges"][k]
            edges.append({"id": e["id"], "tail": u, "head": v, "label": slot["labels"][k]})
        inst = wl.path(f"w{i}.json")
        _write_json(inst, {"group": slot["group"], "vertices": wall["vertices"], "edges": edges})

        def op(inst=inst):
            rc, text = run_cli(cli, ["analyze", inst])
            return {"analyze": [rc, _parsed(rc, text)]}

        wl.add(op, slot["group"], inst)
    return wl


def build_obstruction(plan: dict, wl: Workload) -> Workload:
    from nonzero_cycles import cli, obstructions

    h, eh = plan["h"], plan["escher_h"]
    cert = wl.path("cert.json")
    _write_json(cert, {"type": "obstruction", "h": h})
    escher_file = wl.path("escher.json")
    rc, _ = run_cli(cli, ["gen", "escher", "--h", str(eh), "--out", escher_file])
    if rc != 0:
        raise RuntimeError(f"gen escher failed with exit code {rc}")
    for i, slot in enumerate(plan["slots"]):
        if slot["kind"] == "escher":

            def op():
                return {"report": obstructions.verify_instance(obstructions.escher_instance(eh), eh)}

            inst = escher_file
        else:
            inst = wl.path(f"o{i}.json")
            argv = [
                "gen", "obstruction", "--h", str(h), "--p", slot["p"], "--q", slot["q"],
                "--groups", slot["groups"], "--seed", str(slot["seed"]), "--out", inst,
            ]
            rc, _ = run_cli(cli, argv)
            if rc != 0:
                raise RuntimeError(f"gen obstruction failed with exit code {rc} on slot {i}")

            def op(inst=inst):
                rc, text = run_cli(cli, ["verify", inst, cert])
                return {"verify": [rc, _parsed(rc, text)]}

        wl.add(op, slot["kind"], inst)
    return wl


BUILDERS = {"sweep": build_sweep, "census": build_census, "obstruction": build_obstruction}


def _call(op) -> dict:
    try:
        return op()
    except Exception:  # one failed operation must not end the run
        return {"error": traceback.format_exc()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--plan", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--spans", help="trace the run and write its spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    with open(args.plan) as fh:
        plan = json.load(fh)

    # set-up: import, instance files, warm-up, calibrated stretch by stretch
    tracer = None
    if args.spans:
        from layertrace import Tracer

        tracer = Tracer()
    clock = CalibratedClock(on_lap=tracer.settle if tracer else None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import nonzero_cycles.cli  # noqa: F401
    import nonzero_cycles.obstructions  # noqa: F401

    if tracer:
        tracer.install()
    clock.lap()
    wl = BUILDERS[args.workload](plan, Workload(args.workdir, clock))
    clock.lap()
    if tracer:
        snap_setup = tracer.snapshot()
    for i in wl.warmup_slots():
        _call(wl.ops[i])
        clock.lap()
    result = {"setup_raw_s": clock.raw, "setup_cal_s": clock.cal}
    if tracer:
        snap_warm = tracer.snapshot()

    if not args.setup_only:
        raw: List[float] = []
        cal: List[float] = []
        outputs: List[Dict[str, int]] = [{} for _ in wl.ops]
        passes = 0
        start = time.perf_counter()
        while True:
            for i, op in enumerate(wl.ops):
                if tracer:
                    tracer.op = passes * len(wl.ops) + i
                clock.start()
                out = _call(op)
                dt, f = clock.lap()
                raw.append(dt)
                cal.append(dt * f)
                key = json.dumps(out, sort_keys=True)
                outputs[i][key] = outputs[i].get(key, 0) + 1
            passes += 1
            if passes >= plan["min_passes"] and time.perf_counter() - start >= args.seconds:
                break
        result.update(
            {
                "raw_s": raw,
                "cal_s": cal,
                "passes": passes,
                "pool": len(wl.ops),
                "instances": wl.instances,
                "outputs": [sorted(o.items()) for o in outputs],
                "peak_rss_mb": peak_rss_mb(),
            }
        )
        if tracer:
            from layertrace import diff, layer_metrics

            timed = diff(tracer.snapshot(), snap_warm)
            result["layers"] = layer_metrics(snap_setup, timed, passes)
            result["absent"] = tracer.absent()
            result["spans"] = len(tracer.span_name)
            tracer.write_spans(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
