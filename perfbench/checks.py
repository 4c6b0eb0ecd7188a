"""Check each operation's output against the independent oracles.

Every check returns a list of problems; an empty list means the output is
right.  A check reads the instance file the program was given, never a
stored copy of an earlier output.
"""

from __future__ import annotations

from typing import Dict, List

import oracle
from oracle import Graph, OCycle


class SlotTruth:
    """Oracle answers for one instance, computed once per run."""

    def __init__(self, graph: Graph, cycles: List[OCycle]):
        self.graph = graph
        self.cycles = cycles
        self.nonzero = [oracle.nonzero_coords(graph, c) for c in cycles]
        self.hot = [c for c, nz in zip(cycles, self.nonzero) if all(nz)]
        self._numbers = None

    def numbers(self):
        """Exact (ν, ν½, τ) over the doubly non-zero cycles."""
        if self._numbers is None:
            sets = [c.vertex_set for c in self.hot]
            self._numbers = (
                oracle.max_packing(sets, 1),
                oracle.max_packing(sets, 2),
                oracle.min_transversal(sets),
            )
        return self._numbers


def _family(truth: SlotTruth, edge_lists, max_use: int, what: str) -> List[str]:
    """Problems with a claimed family of distinct doubly non-zero cycles
    using every vertex at most `max_use` times."""
    problems, seen, usage = [], set(), {}
    for es in edge_lists:
        cyc = oracle.cycle_from_edge_ids(truth.graph, es)
        if cyc is None:
            problems.append(f"{what}: {es} is not a cycle")
            continue
        if cyc.edge_set in seen:
            problems.append(f"{what}: {es} repeats")
        seen.add(cyc.edge_set)
        if not all(oracle.nonzero_coords(truth.graph, cyc)):
            problems.append(f"{what}: {es} is not doubly non-zero")
        for v in cyc.vertex_set:
            usage[v] = usage.get(v, 0) + 1
    over = sorted(v for v, n in usage.items() if n > max_use)
    if over:
        problems.append(f"{what}: vertices {over} used more than {max_use} times")
    return problems


def check_sweep(truth: SlotTruth, out: dict) -> List[str]:
    rc, doc = out["pack"]
    if rc != 0 or doc is None:
        return [f"pack exited with {rc}"]
    nu, nu_half, tau = truth.numbers()
    problems = []
    for key, want in (("nu", nu), ("nu_half", nu_half), ("tau", tau)):
        if doc[key] != want:
            problems.append(f"{key} = {doc[key]}, oracle says {want}")
    problems += _family(truth, doc["packing"], 1, "packing")
    problems += _family(truth, doc["half_packing"], 2, "half packing")
    if len(doc["packing"]) != doc["nu"] or len(doc["half_packing"]) != doc["nu_half"]:
        problems.append("a certificate's size differs from its number")
    cover = set(doc["transversal"])
    if len(cover) != doc["tau"]:
        problems.append("transversal size differs from tau")
    missed = [c.edges for c in truth.hot if not (c.vertex_set & cover)]
    if missed:
        problems.append(f"transversal misses {len(missed)} doubly non-zero cycles")
    for key, kind in (("verify_packing", "packing"), ("verify_transversal", "transversal")):
        rc, doc_v = out.get(key, (None, None))
        if rc != 0 or doc_v != {"verified": True, "type": kind}:
            problems.append(f"verify {kind} answered {rc} {doc_v}")
    return problems


def check_reduction(truth: SlotTruth, slot: dict) -> List[str]:
    """The reduced instance's doubly non-zero cycles are exactly the
    cycles the encoded problem asks for."""
    if slot["kind"] == "odd":
        want = {c.edge_set for c in truth.cycles if len(c.edges) % 2}
    elif slot["kind"] == "s1s2":
        s1, s2 = set(slot["s1"]), set(slot["s2"])
        want = {c.edge_set for c in truth.cycles if c.vertex_set & s1 and c.vertex_set & s2}
    else:
        return []
    got = {c.edge_set for c in truth.hot}
    return [] if got == want else [f"reduce {slot['kind']}: {len(got ^ want)} cycles misencoded"]


def check_census(truth: SlotTruth, out: dict) -> List[str]:
    rc, doc = out["analyze"]
    if rc != 0 or doc is None:
        return [f"analyze exited with {rc}"]
    problems = []
    want = {
        "cycles": len(truth.cycles),
        "nonzero_first": sum(nz[0] for nz in truth.nonzero),
        "nonzero_second": sum(nz[1] for nz in truth.nonzero),
        "doubly_nonzero": len(truth.hot),
    }
    if doc.get("classify") != want:
        problems.append(f"classify = {doc.get('classify')}, oracle says {want}")
    flat = not any(any(nz) for nz in truth.nonzero)
    if doc.get("bipartite") != flat:
        problems.append(f"bipartite = {doc.get('bipartite')}, oracle says {flat}")
    elif not flat:
        cyc = oracle.cycle_from_edge_ids(truth.graph, doc.get("bipartite_witness", ()))
        if cyc is None or not any(oracle.nonzero_coords(truth.graph, cyc)):
            problems.append("bipartite witness is not a non-zero cycle")
    problems += _check_robust(truth, doc)
    return problems


def _check_robust(truth: SlotTruth, doc: dict) -> List[str]:
    if doc.get("robust") is False:
        w = doc.get("robust_witness") or {}
        coord = w.get("coordinate")
        c1 = oracle.cycle_from_edge_ids(truth.graph, w.get("first", ()))
        c2 = oracle.cycle_from_edge_ids(truth.graph, w.get("second", ()))
        if coord not in (0, 1) or c1 is None or c2 is None:
            return ["robust witness is not two cycles"]
        nonzero = [oracle.nonzero_coords(truth.graph, c)[coord] for c in (c1, c2)]
        zero_set = oracle.zero_edges(truth.cycles, truth.nonzero, coord)
        if not all(nonzero) or not oracle.confusable(truth.graph, c1, c2, zero_set, coord):
            return ["robust witness cycles are not confusable"]
        return []
    if doc.get("robust") is True:
        for coord in (0, 1):
            if oracle.has_confusable_pair(truth.graph, truth.cycles, truth.nonzero, coord):
                return [f"robust = true, but coordinate {coord} has confusable cycles"]
        return []
    return ["robust verdict missing"]


def check_obstruction(graph: Graph, report: Dict) -> List[str]:
    """The paper's ν = 1, and ν ≤ ν½, ν ≤ τ ≤ a first-coordinate cover."""
    problems = []
    nu, nu_half, tau = report.get("nu"), report.get("nu_half"), report.get("tau")
    cover = len(oracle.first_coordinate_cover(graph))
    if nu != 1:
        problems.append(f"nu = {nu}, the paper says 1")
    if not (isinstance(nu_half, int) and nu_half >= (nu or 0)):
        problems.append(f"nu_half = {nu_half} < nu")
    if not (isinstance(tau, int) and (nu or 0) <= tau <= cover):
        problems.append(f"tau = {tau} outside [nu, {cover}]")
    return problems
