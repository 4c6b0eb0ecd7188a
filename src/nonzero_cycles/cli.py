"""Command-line interface: generate, analyze, reduce, pack/cover, verify,
and run randomized duality experiments over labeled graphs.

All output is a single JSON document (or plain table for `experiment`) on
stdout unless --out is given.  Exit codes: 0 success, 1 failed
certificate (including an obstruction certificate whose h does not match a
two-linkage instance), 2 parse/parameter error, 3 enumeration limit exceeded
or verification undecided (a routed witness of the wall solver failed its
check; routing itself always decides).
"""

from __future__ import annotations

import argparse
import collections
import functools
import itertools
import json
import random
import sys
from typing import List, Optional, Tuple

from . import cycles, groups, packing, reductions
from .cycles import EnumerationLimitError, LimitFormatError
from .graphs import (
    Edge,
    GraphFormatError,
    LabeledGraph,
    decode_graph,
    encode_graph,
    is_gamma_bipartite,
)
from .linkage import LINKAGE_TYPES
from .obstructions import (
    ObstructionFormatError,
    ObstructionSpec,
    VerificationUndecidedError,
    build_obstruction,
    escher_wall,
    verify_obstruction,
)
from .walls import WallFormatError, elementary_wall, encode_wall

PARSE_ERROR, CERT_ERROR, UNDECIDED = 2, 1, 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _dump(doc, out: Optional[str]) -> None:
    """Write `doc` to the file `out`, or to stdout when there is none: a
    string as it is, anything else as indented JSON."""
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read instance: {exc}", PARSE_ERROR)


def _load_graph(path: str) -> LabeledGraph:
    doc = _load(path)
    if not isinstance(doc, dict):
        raise CliError("bad instance: expected a JSON object", PARSE_ERROR)
    try:
        if "graph" in doc:
            return decode_graph(doc["graph"])
        return decode_graph(doc)
    except (GraphFormatError, groups.GroupParseError, KeyError, ValueError) as exc:
        raise CliError(f"bad instance: {exc}", PARSE_ERROR)


def _descriptor(text: str) -> groups.GroupDescriptor:
    try:
        return groups.parse_descriptor(text)
    except groups.GroupParseError as exc:
        raise CliError(str(exc), PARSE_ERROR)


def _vertex_ids(text: Optional[str], option: str, graph: LabeledGraph) -> list:
    try:
        ids = [groups.as_integer(x) for x in text.split(",")] if text else []
    except ValueError:
        raise CliError(f"{option} takes comma-separated vertex ids, not {text!r}", PARSE_ERROR)
    for v in ids:
        if v not in graph.vertices:
            raise CliError(f"{option} names vertex {v}, which is not in the graph", PARSE_ERROR)
    return ids


def _top_level_parts(text: str) -> List[str]:
    """`text` split at the commas outside parentheses, so that a summand
    such as `sum(z2,z3)` stays whole."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _random_sizes(args) -> Tuple[int, int]:
    """`--max-n` and `--max-m` of `gen random` or `experiment`, checked
    before any graph is drawn."""
    if args.max_n < 2:
        raise CliError("--max-n must be at least 2", PARSE_ERROR)
    if args.max_m < 1:
        raise CliError("--max-m must be at least 1", PARSE_ERROR)
    return args.max_n, args.max_m


def _random_graph(rng: random.Random, desc, max_n: int, max_m: int) -> LabeledGraph:
    n = rng.randint(2, max_n)
    pairs = list(itertools.combinations(range(n), 2))
    m = rng.randint(1, min(max_m, len(pairs)))
    chosen = rng.sample(pairs, m)
    edges = [
        Edge(i, u, v, groups.random_element(desc, rng))
        for i, (u, v) in enumerate(chosen)
    ]
    return LabeledGraph(desc, range(n), edges)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    if args.kind == "wall":
        if args.r is None:
            raise CliError("gen wall needs --r", PARSE_ERROR)
        desc = _descriptor(args.groups) if args.groups else None
        try:
            doc = encode_wall(elementary_wall(args.r, desc))
        except WallFormatError as exc:
            raise CliError(str(exc), PARSE_ERROR)
        doc["kind"] = "wall"
    elif args.kind == "escher":
        if args.h is None:
            raise CliError("gen escher needs --h", PARSE_ERROR)
        try:
            graph = escher_wall(args.h)
        except ObstructionFormatError as exc:
            raise CliError(str(exc), PARSE_ERROR)
        doc = {"kind": "escher", "h": args.h, "graph": encode_graph(graph)}
    elif args.kind == "obstruction":
        if args.h is None or not args.p or not args.q:
            raise CliError("gen obstruction needs --h, --p, --q", PARSE_ERROR)
        names = _top_level_parts(args.groups or "z3,z3")
        if len(names) != 2:
            raise CliError("--groups takes two comma-separated descriptors", PARSE_ERROR)
        g1, g2 = _descriptor(names[0]), _descriptor(names[1])
        rng = random.Random(args.seed)
        def nonzero(name, desc):
            if desc.is_trivial:
                raise CliError(f"--groups summand {name} is the trivial group: it has no nonzero value", PARSE_ERROR)
            while True:
                x = groups.random_element(desc, rng)
                if not groups.is_zero(x):
                    return x
        v1, v2 = nonzero(names[0], g1), nonzero(names[1], g2)
        spec = ObstructionSpec(
            h=args.h,
            p_type=args.p,
            q_type=args.q,
            gamma1=g1,
            gamma2=g2,
            p_values=(v1,) * args.h,
            q_values=(v2,) * args.h,
        )
        try:
            graph = build_obstruction(spec)
        except ObstructionFormatError as exc:
            raise CliError(str(exc), PARSE_ERROR)
        doc = {"kind": "obstruction", "h": args.h, "graph": encode_graph(graph)}
    else:  # random
        desc = _descriptor(args.groups or "sum(z2,z3)")
        graph = _random_graph(random.Random(args.seed), desc, *_random_sizes(args))
        doc = {"kind": "random", "graph": encode_graph(graph)}
    _dump(doc, args.out)
    return 0


def cmd_analyze(args) -> int:
    graph = _load_graph(args.file)
    checks = args.checks.split(",") if args.checks else ["bipartite", "robust", "classify"]
    report = {}
    found = None  # the cycles, enumerated once for robust and classify
    for check in checks:
        if check == "bipartite":
            flat, data = is_gamma_bipartite(graph)
            report["bipartite"] = flat
            if flat:
                report["bipartite_shifts"] = [
                    [v, groups.encode_element(a)] for v, a in data
                ]
            else:
                report["bipartite_witness"] = sorted(data.edges)
        elif check == "robust":
            if found is None:
                found = cycles.enumerate_cycles(graph, limit=args.limit)
            ok, witness = cycles.is_robust(graph, cycles=found)
            report["robust"] = ok
            if witness is not None:
                report["robust_witness"] = {
                    "coordinate": witness.coordinate,
                    "first": sorted(witness.first.edges),
                    "second": sorted(witness.second.edges),
                }
        elif check == "classify":
            if found is None:
                found = cycles.enumerate_cycles(graph, limit=args.limit)
            flags = collections.Counter(c.zero for c in found)  # (zero first, zero second) -> cycles
            report["classify"] = {
                "cycles": len(found),
                "nonzero_first": flags[False, False] + flags[False, True],
                "nonzero_second": flags[False, False] + flags[True, False],
                "doubly_nonzero": flags[False, False],
            }
        else:
            raise CliError(f"unknown check {check!r}", PARSE_ERROR)
    _dump(report, args.out)
    return 0


def _pack_report(graph: LabeledGraph, limit) -> dict:
    report = packing.pack_and_cover(graph, limit=limit)
    return {
        "nu": report.nu,
        "nu_half": report.nu_half,
        "tau": report.tau,
        "packing": [sorted(s) for s in report.packing],
        "half_packing": [sorted(s) for s in report.half_packing],
        "transversal": sorted(report.transversal),
    }


def cmd_pack(args) -> int:
    _dump(_pack_report(_load_graph(args.file), args.limit), args.out)
    return 0


def cmd_cover(args) -> int:
    transversal = packing.min_transversal(_load_graph(args.file), args.limit)
    _dump({"tau": len(transversal), "transversal": sorted(transversal)}, args.out)
    return 0


def cmd_reduce(args) -> int:
    graph = _load_graph(args.file)
    reduction = reductions.REDUCTIONS[args.kind]
    sets = [_vertex_ids(getattr(args, s), f"--{s}", graph) for s in ("s1", "s2")[: reduction.sets]]
    _dump({"kind": f"reduced-{args.kind}", "graph": encode_graph(reduction.reduce(graph, *sets))}, args.out)
    return 0


def _cert_int(value, field: str) -> int:
    """A certificate's integer, read by `groups.as_integer`."""
    try:
        return groups.as_integer(value)
    except ValueError:
        raise CliError(f"bad certificate: {field} entry {value!r} is not an integer", PARSE_ERROR) from None


def _cert_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise CliError(f"bad certificate: {field} {value!r} is not a list", PARSE_ERROR)
    return value


def _cert_ints(values, field: str) -> List[int]:
    return [_cert_int(v, field) for v in _cert_list(values, field)]


def cmd_verify(args) -> int:
    graph = _load_graph(args.file)
    cert = _load(args.certificate)
    if not isinstance(cert, dict):
        raise CliError("bad certificate: expected a JSON object", PARSE_ERROR)
    kind = cert.get("type")
    if kind == "transversal":
        removed = _cert_ints(cert.get("vertices", []), "vertices")
        for v in removed:  # in certificate order
            if v not in graph.vertices:
                raise CliError(f"bad certificate: vertex {v} is not in the graph", PARSE_ERROR)
        missed = packing.missed_cycle(graph, frozenset(removed), args.limit)
        if missed is not None:
            raise CliError(f"transversal misses the doubly nonzero cycle with edges {sorted(missed)}", CERT_ERROR)
        _dump({"verified": True, "type": "transversal"}, args.out)
        return 0
    if kind == "packing":
        edge_sets = [frozenset(_cert_ints(es, "cycles")) for es in _cert_list(cert.get("cycles", []), "cycles")]
        max_use = _cert_int(cert.get("max_use", 1), "max_use")
        if max_use not in (1, 2):
            raise CliError("bad certificate: max_use must be 1 or 2", PARSE_ERROR)
        if not packing.verify_packing(graph, edge_sets, max_use=max_use):
            raise CliError(packing.packing_fault(graph, edge_sets, max_use=max_use), CERT_ERROR)
        _dump({"verified": True, "type": "packing"}, args.out)
        return 0
    if kind == "obstruction":
        h = _cert_int(cert.get("h", 1), "h")
        if h < 1:
            raise CliError("bad certificate: h must be at least 1", PARSE_ERROR)
        try:
            report = verify_obstruction(graph, h, limit=args.limit)
        except ObstructionFormatError as exc:
            raise CliError(str(exc), CERT_ERROR) from None
        if not report["nu_ok"]:
            raise CliError("instance packs more or fewer than one cycle", CERT_ERROR)
        _dump(report, args.out)
        return 0
    raise CliError(f"unknown certificate type {kind!r}", PARSE_ERROR)


def cmd_experiment(args) -> int:
    if args.count < 0:
        raise CliError("--count must be at least 0", PARSE_ERROR)
    desc = _descriptor(args.groups or "sum(z2,z3)")
    sizes = _random_sizes(args)
    rng = random.Random(args.seed)
    lines = []
    best = (0.0, "0/0")
    for i in range(args.count):
        graph = _random_graph(rng, desc, *sizes)
        report = packing.pack_and_cover(graph, limit=args.limit)
        lines.append(
            f"{i}\t{len(graph.vertices)}\t{len(graph.edge_ids())}"
            f"\t{report.nu}\t{report.nu_half}\t{report.tau}"
        )
        if report.nu_half and report.tau / report.nu_half > best[0]:
            best = (report.tau / report.nu_half, f"{report.tau}/{report.nu_half}")
    lines.append(f"max tau/nu_half = {best[1]}")
    _dump("index\tn\tm\tnu\tnu_half\ttau\n" + "\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _limit(text: str) -> int:
    try:
        return cycles.parse_limit(text)
    except LimitFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _integer(text: str) -> int:
    """An integer option, read by `groups.as_integer`, with argparse's
    message for a bad int."""
    try:
        return groups.as_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    on it, and building every subparser costs more than parsing does."""
    parser = argparse.ArgumentParser(
        prog="nonzero-cycles",
        description="generate and analyze doubly-labeled graph instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, limit=True):
        p.add_argument("--out", help="write output to this file instead of stdout")
        if limit:
            p.add_argument("--limit", type=_limit, help="enumeration limit override")

    gen_options = {
        "--r": dict(type=_integer, help="wall size"),
        "--h": dict(type=_integer, help="height"),
        "--p": dict(choices=LINKAGE_TYPES),
        "--q": dict(choices=LINKAGE_TYPES),
        "--groups": dict(help="group descriptor(s)"),
        "--seed": dict(type=_integer, default=0),
        "--max-n": dict(type=_integer, default=7),
        "--max-m": dict(type=_integer, default=12),
    }
    p = sub.add_parser("gen", help="generate an instance")
    p.set_defaults(func=cmd_gen)
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, options in (
        ("wall", ["--r", "--groups"]),
        ("escher", ["--h"]),
        ("obstruction", ["--h", "--p", "--q", "--groups", "--seed"]),
        ("random", ["--groups", "--seed", "--max-n", "--max-m"]),
    ):
        k = kinds.add_parser(kind, allow_abbrev=False)  # else a kind without --h reads it as --help
        for option in options:
            k.add_argument(option, **gen_options[option])
        common(k, limit=False)

    p = sub.add_parser("analyze", help="run checks on an instance")
    p.add_argument("file")
    p.add_argument("--checks", help="comma-separated: bipartite,robust,classify")
    common(p)
    p.set_defaults(func=cmd_analyze)

    for name, func in (("pack", cmd_pack), ("cover", cmd_cover)):
        p = sub.add_parser(name, help=f"exact {name} numbers")
        p.add_argument("file")
        common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("reduce", help="encode a constrained-cycle problem")
    p.add_argument("file")
    p.set_defaults(func=cmd_reduce)
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, reduction in reductions.REDUCTIONS.items():
        k = kinds.add_parser(kind, allow_abbrev=False)
        for s in ("s1", "s2")[: reduction.sets]:
            k.add_argument(f"--{s}", help="comma-separated vertex ids")
        common(k, limit=False)

    p = sub.add_parser("verify", help="check a certificate against an instance")
    p.add_argument("file")
    p.add_argument("certificate")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="randomized duality sweep")
    p.add_argument("--seed", type=_integer, default=1)
    p.add_argument("--count", type=_integer, default=100)
    p.add_argument("--max-n", type=_integer, default=7)
    p.add_argument("--max-m", type=_integer, default=12)
    p.add_argument("--groups", help="group descriptor")
    common(p)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except LimitFormatError as exc:
        print(str(exc), file=sys.stderr)
        return PARSE_ERROR
    except (EnumerationLimitError, VerificationUndecidedError) as exc:
        print(str(exc), file=sys.stderr)
        return UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
