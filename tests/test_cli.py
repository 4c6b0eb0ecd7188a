import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nonzero_cycles import cli, cycles, groups, obstructions, packing, reductions
from nonzero_cycles.graphs import Edge, GraphFormatError, LabeledGraph, decode_graph, encode_graph, shift_sequence
from nonzero_cycles.walls import decode_wall, elementary_wall, encode_wall
from test_obstructions import shared_end_graph, wall_with_a_looped_vertex


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_wall_r6_has_96_vertices(tmp_path, capsys):
    out = tmp_path / "w.json"
    code, _, _ = run(["gen", "wall", "--r", "6", "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "wall"
    assert len(doc["graph"]["vertices"]) == 96


def test_gen_wall_missing_r_is_parse_error(capsys):
    code, _, err = run(["gen", "wall"], capsys)
    assert code == 2
    assert "--r" in err


def test_gen_bad_group_descriptor(capsys):
    code, _, _ = run(["gen", "random", "--groups", "zoo(3"], capsys)
    assert code == 2


@pytest.mark.parametrize("text", ["q(a)", "q(2.5)", "q(2,)", "sum(z2,q(x))"])
def test_gen_non_integer_quotient_factor_is_parse_error(text, capsys):
    # exit 2 with a message, not a traceback and the failed-certificate code 1
    code, out, err = run(["gen", "random", "--groups", text], capsys)
    assert (code, out) == (2, "")
    assert "q(...) takes comma-separated integers" in err
    assert "Traceback" not in err


def test_gen_roundtrip_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run(
            ["gen", "random", "--seed", "9", "--out", str(out)], capsys
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    decode_graph(json.loads(a.read_text())["graph"])  # parses back


def test_gen_obstruction_and_verify(tmp_path, capsys):
    inst = tmp_path / "o.json"
    cert = tmp_path / "c.json"
    code, _, _ = run(
        ["gen", "obstruction", "--h", "1", "--p", "nested", "--q", "series",
         "--out", str(inst)],
        capsys,
    )
    assert code == 0
    cert.write_text(json.dumps({"type": "obstruction", "h": 1}))
    code, out, _ = run(["verify", str(inst), str(cert)], capsys)
    assert code == 0
    assert json.loads(out)["nu_ok"] is True


@pytest.mark.parametrize("h", [0, -1])
def test_verify_obstruction_height_below_one_is_parse_error(h, tmp_path, capsys):
    # without the check no wall is recognised and verify falls back to
    # enumerating every cycle of the 4-wall instance
    inst = tmp_path / "o.json"
    cert = tmp_path / "c.json"
    run(["gen", "obstruction", "--h", "1", "--p", "series", "--q", "nested", "--out", str(inst)], capsys)
    cert.write_text(json.dumps({"type": "obstruction", "h": h}))
    code, out, err = run(["verify", str(inst), str(cert)], capsys)
    assert (code, out, err) == (2, "", "bad certificate: h must be at least 1\n")


def test_verify_bad_transversal_names_uncovered_cycle(tmp_path, capsys):
    inst = tmp_path / "e.json"
    cert = tmp_path / "c.json"
    run(["gen", "escher", "--h", "1", "--out", str(inst)], capsys)
    cert.write_text(json.dumps({"type": "transversal", "vertices": []}))
    code, _, err = run(["verify", str(inst), str(cert)], capsys)
    assert code == 1
    assert "misses the doubly nonzero cycle" in err


def test_verify_packing_with_unknown_edge_is_cert_error(tmp_path, capsys):
    inst = tmp_path / "e.json"
    cert = tmp_path / "c.json"
    run(["gen", "escher", "--h", "1", "--out", str(inst)], capsys)
    cert.write_text(json.dumps({"type": "packing", "cycles": [[99999]]}))
    expected = "packing certificate edges [99999] are not one cycle of the graph\n"
    assert run(["verify", str(inst), str(cert)], capsys) == (1, "", expected)


@pytest.mark.parametrize("max_use", [0, 3])
def test_verify_packing_max_use_other_than_one_or_two_is_parse_error(max_use, tmp_path, capsys):
    # three distinct doubly nonzero cycles of the Escher 2-wall: with
    # max_use 3 any three cycles would pass the disjointness check
    inst = tmp_path / "e.json"
    cert = tmp_path / "c.json"
    run(["gen", "escher", "--h", "2", "--out", str(inst)], capsys)
    graph = decode_graph(json.loads(inst.read_text())["graph"])
    found = [c for c in cycles.enumerate_cycles(graph) if c.doubly_nonzero][:3]
    assert len(found) == 3
    cert.write_text(json.dumps({"type": "packing", "cycles": [sorted(c.edges) for c in found], "max_use": max_use}))
    code, out, err = run(["verify", str(inst), str(cert)], capsys)
    assert (code, out, err) == (2, "", "bad certificate: max_use must be 1 or 2\n")


def test_verify_escher_h3_obstruction_by_enumeration(tmp_path, capsys):
    # the Escher wall is not a two-linkage instance, so verify enumerates its
    # 1,016 doubly nonzero cycles and packs them half-integrally
    inst = tmp_path / "e.json"
    cert = tmp_path / "c.json"
    run(["gen", "escher", "--h", "3", "--out", str(inst)], capsys)
    cert.write_text(json.dumps({"type": "obstruction", "h": 3}))
    code, out, _ = run(["verify", str(inst), str(cert)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["nu_ok"] is True
    assert (report["method"], report["nu_half"], report["tau"]) == ("enumeration", 5, 3)
    assert report["nu_half_exact"] is True


def test_verify_attachments_sharing_a_wall_end_by_enumeration(tmp_path, capsys):
    # the chord router assumes distinct attachment ends, so the instance is
    # not taken for a wall instance, and verify enumerates its cycles
    inst = tmp_path / "s.json"
    cert = tmp_path / "c.json"
    inst.write_text(json.dumps({"graph": encode_graph(shared_end_graph())}))
    cert.write_text(json.dumps({"type": "obstruction", "h": 1}))
    code, out, err = run(["verify", str(inst), str(cert), "--limit", "2000"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("more than 2000 cycles")


def test_verify_falls_back_to_enumeration_on_a_vertex_with_only_a_loop(tmp_path, capsys):
    # a degree-2 vertex whose one edge is a non-zero loop is no attachment
    # middle, so the graph is no wall instance and verify enumerates
    inst = tmp_path / "l.json"
    cert = tmp_path / "c.json"
    inst.write_text(json.dumps({"graph": encode_graph(wall_with_a_looped_vertex())}))
    cert.write_text(json.dumps({"type": "obstruction", "h": 1}))
    code, out, err = run(["verify", str(inst), str(cert)], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["method"], report["nu"], report["tau"]) == ("enumeration", 1, 1)


def test_verify_with_no_family_routing_reports_nu_zero(tmp_path, capsys, monkeypatch):
    # the chord router's None is a proof, so a router that never routes
    # means no doubly nonzero cycle: ν = 0 fails the certificate
    inst = tmp_path / "o.json"
    cert = tmp_path / "c.json"
    run(["gen", "obstruction", "--h", "1", "--p", "crossing", "--q", "nested", "--out", str(inst)], capsys)
    cert.write_text(json.dumps({"type": "obstruction", "h": 1}))
    monkeypatch.setattr(obstructions, "_route_chords", lambda *args: None)
    code, out, err = run(["verify", str(inst), str(cert)], capsys)
    assert (code, out, err) == (1, "", "instance packs more or fewer than one cycle\n")


def test_verify_failed_witness_check_exits_3(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "o.json"
    cert = tmp_path / "c.json"
    run(["gen", "obstruction", "--h", "1", "--p", "crossing", "--q", "nested", "--out", str(inst)], capsys)
    cert.write_text(json.dumps({"type": "obstruction", "h": 1}))

    def lost(*args):
        raise obstructions.VerificationUndecidedError("assembled witness lost its value")

    monkeypatch.setattr(obstructions, "_assemble_cycle", lost)
    code, out, err = run(["verify", str(inst), str(cert)], capsys)
    assert (code, out, err) == (3, "", "assembled witness lost its value\n")


@pytest.mark.parametrize(
    "gen, claimed, built",
    [
        (["obstruction", "--h", "2", "--p", "nested", "--q", "series", "--seed", "3"], 1, 2),
        (["obstruction", "--h", "1", "--p", "nested", "--q", "series", "--seed", "3"], 2, 1),
        # no attachments at all, so every one of them is on the top row
        (["wall", "--r", "8", "--groups", "sum(z3,z3)"], 1, 2),
    ],
    ids=["h2_as_h1", "h1_as_h2", "bare_8_wall"],
)
def test_verify_rejects_an_obstruction_certificate_of_another_height(tmp_path, capsys, monkeypatch, gen, claimed, built):
    # a two-linkage instance of height 2 checked against h = 1 used to fall
    # back to enumerating every cycle, without bound on memory
    inst = tmp_path / "o.json"
    cert = tmp_path / "c.json"
    run(["gen", *gen, "--out", str(inst)], capsys)
    cert.write_text(json.dumps({"type": "obstruction", "h": claimed}))

    def no_enumeration(*args, **kwargs):
        raise AssertionError("verify enumerated cycles")

    monkeypatch.setattr(obstructions.packing, "pack_and_cover", no_enumeration)
    code, out, err = run(["verify", str(inst), str(cert)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        f"certificate height {claimed} does not match the instance's height {built} "
        f"(a {4 * built}-wall with its attachments on the top row)\n"
    )


def test_verify_builds_no_wall_for_a_certificate_h_the_graph_cannot_have(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "e.json"
    cert = tmp_path / "c.json"
    run(["gen", "escher", "--h", "2", "--out", str(inst)], capsys)
    cert.write_text(json.dumps({"type": "obstruction", "h": 10**6}))
    built = []

    def spy(r, *args):
        built.append(r)
        raise AssertionError("verify built a wall")

    monkeypatch.setattr(obstructions, "elementary_wall", spy)
    code, out, _ = run(["verify", str(inst), str(cert)], capsys)
    assert (code, built) == (0, [])
    assert json.loads(out)["method"] == "enumeration"


def test_parser_is_built_once_and_reused_after_errors(capsys):
    assert cli._parser() is cli._parser()
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "nosuchkind"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "invalid choice" in errors[0]


def test_verify_good_transversal(tmp_path, capsys):
    inst = tmp_path / "e.json"
    cert = tmp_path / "c.json"
    run(["gen", "escher", "--h", "1", "--out", str(inst)], capsys)
    graph = decode_graph(json.loads(inst.read_text())["graph"])
    # the attachment middle is the degree-2 vertex on a nonzero-labeled edge
    middles = sorted(
        {
            v
            for e in graph.edges.values()
            if not groups.is_zero(e.label)
            for v in (e.tail, e.head)
            if len(graph.incident(v)) == 2
        }
    )
    cert.write_text(json.dumps({"type": "transversal", "vertices": middles}))
    code, out, _ = run(["verify", str(inst), str(cert)], capsys)
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_analyze_reports_all_checks(tmp_path, capsys):
    inst = tmp_path / "r.json"
    run(["gen", "random", "--seed", "3", "--out", str(inst)], capsys)
    code, out, _ = run(["analyze", str(inst)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert {"bipartite", "robust", "classify"} <= set(doc)


def test_analyze_unknown_check(tmp_path, capsys):
    inst = tmp_path / "r.json"
    run(["gen", "random", "--seed", "3", "--out", str(inst)], capsys)
    code, _, _ = run(["analyze", str(inst), "--checks", "nope"], capsys)
    assert code == 2


def test_limit_exceeded_exit_code(tmp_path, capsys):
    inst = tmp_path / "e.json"
    run(["gen", "escher", "--h", "2", "--out", str(inst)], capsys)
    code, _, err = run(
        ["analyze", str(inst), "--checks", "classify", "--limit", "3"], capsys
    )
    assert code == 3
    assert "limit" in err.lower() or "cycles" in err.lower()


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_bad_limit_in_the_environment_is_parse_error(value, tmp_path, capsys, monkeypatch):
    inst = tmp_path / "r.json"
    run(["gen", "random", "--seed", "8", "--out", str(inst)], capsys)
    monkeypatch.setenv("NONZERO_CYCLES_LIMIT", value)
    code, out, err = run(["pack", str(inst)], capsys)
    assert (code, out) == (2, "")
    assert err == f"NONZERO_CYCLES_LIMIT must be a non-negative integer, not {value!r}\n"


def test_negative_limit_option_is_parse_error(tmp_path, capsys):
    inst = tmp_path / "r.json"
    run(["gen", "random", "--seed", "8", "--out", str(inst)], capsys)
    with pytest.raises(SystemExit) as exc:
        cli.main(["pack", str(inst), "--limit", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --limit: must be a non-negative integer, not '-1'" in captured.err


# strings that a bare int() reads but `groups.as_integer` does not
LOOSE_INTEGERS = ["1_0", " 7 ", "\u0663"]
INTEGER_OPTIONS = [
    ["gen", "wall", "--r"],
    ["gen", "obstruction", "--p", "nested", "--q", "series", "--h"],
    ["gen", "random", "--seed"],
    ["gen", "random", "--max-n"],
    ["gen", "random", "--max-m"],
    ["experiment", "--seed"],
    ["experiment", "--count"],
    ["experiment", "--max-n"],
    ["experiment", "--max-m"],
]


@pytest.mark.parametrize("value", LOOSE_INTEGERS)
@pytest.mark.parametrize("argv", INTEGER_OPTIONS, ids=lambda argv: " ".join(argv[:1] + argv[-1:]))
def test_integer_options_follow_the_one_integer_rule(argv, value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-1]}: invalid int value: {value!r}" in captured.err


@pytest.mark.parametrize("value", LOOSE_INTEGERS)
def test_limit_option_follows_the_one_integer_rule(value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["pack", "missing.json", "--limit", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --limit: must be a non-negative integer, not {value!r}" in captured.err


@pytest.mark.parametrize("value", LOOSE_INTEGERS)
def test_limit_in_the_environment_follows_the_one_integer_rule(value, tmp_path, capsys, monkeypatch):
    inst = tmp_path / "r.json"
    run(["gen", "random", "--seed", "8", "--out", str(inst)], capsys)
    monkeypatch.setenv("NONZERO_CYCLES_LIMIT", value)
    code, out, err = run(["pack", str(inst)], capsys)
    assert (code, out) == (2, "")
    assert err == f"NONZERO_CYCLES_LIMIT must be a non-negative integer, not {value!r}\n"


def test_integer_options_read_a_sign_and_ascii_digits(tmp_path, capsys):
    # the same instance from "+8" and "8", and a limit with a leading zero
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    run(["gen", "random", "--seed", "8", "--max-n", "6", "--out", str(first)], capsys)
    run(["gen", "random", "--seed", "+8", "--max-n", "06", "--out", str(second)], capsys)
    assert first.read_text() == second.read_text()
    code, out, _ = run(["pack", str(first), "--limit", "0100000"], capsys)
    assert code == 0 and json.loads(out)["nu"] >= 0


def test_reduce_outputs_decodable_graph(tmp_path, capsys):
    inst = tmp_path / "r.json"
    run(["gen", "random", "--seed", "4", "--out", str(inst)], capsys)
    code, out, _ = run(["reduce", str(inst), "odd"], capsys)
    assert code == 0
    doc = json.loads(out)
    reduced = decode_graph(doc["graph"])
    assert reduced.descriptor.kind == "SUM"


def test_pack_and_cover_agree(tmp_path, capsys):
    inst = tmp_path / "r.json"
    run(["gen", "random", "--seed", "8", "--out", str(inst)], capsys)
    code, out, _ = run(["pack", str(inst)], capsys)
    assert code == 0
    pack_doc = json.loads(out)
    code, out, _ = run(["cover", str(inst)], capsys)
    assert code == 0
    assert json.loads(out)["tau"] == pack_doc["tau"]


@pytest.mark.parametrize("gen", [["random", "--seed", str(s)] for s in range(6)] + [["escher", "--h", "2"]])
def test_cover_prints_the_transversal_of_pack(tmp_path, capsys, gen):
    inst = tmp_path / "g.json"
    run(["gen", *gen, "--out", str(inst)], capsys)
    code, out, _ = run(["pack", str(inst)], capsys)
    assert code == 0
    pack_doc = json.loads(out)
    code, out, _ = run(["cover", str(inst)], capsys)
    assert code == 0
    expected = {"tau": pack_doc["tau"], "transversal": pack_doc["transversal"]}
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("seed", [1, 2])
def test_experiment_deterministic(tmp_path, capsys, seed):
    outs = []
    for name in ("a.txt", "b.txt"):
        path = tmp_path / name
        code, _, _ = run(
            ["experiment", "--seed", str(seed), "--count", "15",
             "--out", str(path)],
            capsys,
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    text = outs[0].decode()
    assert text.startswith("index\tn\tm\tnu\tnu_half\ttau\n")
    assert "max tau/nu_half" in text


ANALYZE_GOLDEN = json.loads((Path(__file__).parent / "data" / "analyze_walls.json").read_text())


@pytest.mark.parametrize("case", ANALYZE_GOLDEN, ids=lambda c: c["name"])
def test_analyze_stdout_on_labelled_3_walls_is_pinned(case, tmp_path, capsys):
    # stdout as the uncompiled arithmetic and enumeration printed it; the
    # sum(free2,free2) witness case compares rooted values root by root
    inst = tmp_path / "w.json"
    inst.write_text(json.dumps(case["graph"]))
    code, out, _ = run(["analyze", str(inst)], capsys)
    assert code == 0
    assert out == case["stdout"]


@pytest.mark.parametrize(
    "cert",
    [
        {"type": "packing", "cycles": [["x"]]},
        {"type": "packing", "cycles": [5]},
        {"type": "packing", "cycles": [[0, 1]], "max_use": "two"},
        {"type": "transversal", "vertices": [0, None]},
        {"type": "obstruction", "h": "x"},
        [{"type": "packing", "cycles": []}],
        # neither read as the integer they truncate to nor as 1 for true
        {"type": "transversal", "vertices": [0.9]},
        {"type": "packing", "cycles": [[0, 1, 12.7]]},
        {"type": "obstruction", "h": 2.9},
        {"type": "packing", "cycles": [], "max_use": True},
        {"type": "transversal", "vertices": [True]},
        # lists only: no number, and no string read digit by digit
        {"type": "packing", "cycles": 5},
        {"type": "packing", "cycles": ["012"]},
        {"type": "transversal", "vertices": "01"},
    ],
)
def test_verify_non_integer_certificate_entries_are_parse_errors(cert, tmp_path, capsys):
    # on the graph of `gen random --seed 2 --max-n 8 --max-m 14`, where {0}
    # is a transversal and [0, 1, 12] a cycle of the packing
    inst = tmp_path / "r.json"
    cfile = tmp_path / "c.json"
    run(["gen", "random", "--seed", "2", "--max-n", "8", "--max-m", "14", "--out", str(inst)], capsys)
    cfile.write_text(json.dumps(cert))
    code, out, err = run(["verify", str(inst), str(cfile)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("bad certificate: ") and err.count("\n") == 1


@pytest.mark.parametrize("vertices, named", [([99, -5], 99), ([0, -5, 99], -5), (["2", 99], 99)])
def test_verify_transversal_naming_a_vertex_not_in_the_graph_is_parse_error(vertices, named, tmp_path, capsys):
    # the first listed vertex the graph lacks is named, as `reduce --s1` does
    inst = tmp_path / "r.json"
    cfile = tmp_path / "c.json"
    run(["gen", "random", "--seed", "4", "--out", str(inst)], capsys)
    cfile.write_text(json.dumps({"type": "transversal", "vertices": vertices}))
    code, out, err = run(["verify", str(inst), str(cfile)], capsys)
    assert (code, out) == (2, "")
    assert err == f"bad certificate: vertex {named} is not in the graph\n"


@pytest.mark.parametrize(
    "cert",
    [
        {"type": "transversal", "vertices": ["0"]},
        {"type": "transversal", "vertices": [0.0]},
        {"type": "packing", "cycles": [["0", 1.0, 12]], "max_use": "1"},
        {"type": "packing", "cycles": [[0, 1, 12], [0, 5, 9, 12]], "max_use": 2.0},
    ],
)
def test_verify_reads_decimal_strings_and_integral_floats_as_integers(cert, tmp_path, capsys):
    # the graph of `gen random --seed 2 --max-n 8 --max-m 14`, where {0}
    # is a transversal and the cycles above are pack's packings
    inst = tmp_path / "r.json"
    cfile = tmp_path / "c.json"
    run(["gen", "random", "--seed", "2", "--max-n", "8", "--max-m", "14", "--out", str(inst)], capsys)
    cfile.write_text(json.dumps(cert))
    code, out, err = run(["verify", str(inst), str(cfile)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"verified": True, "type": cert["type"]}


def test_analyze_leaves_no_descriptor_or_table_to_the_collector(tmp_path, capsys):
    # descriptors are interned, so the descriptor-table reference cycle of
    # each decoded graph is never garbage
    paths = []
    for case in ANALYZE_GOLDEN:
        path = tmp_path / f"{case['name']}.json"
        path.write_text(json.dumps(case["graph"]))
        paths.append(str(path))
        run(["analyze", paths[-1]], capsys)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for i in range(40):
            run(["analyze", paths[i % len(paths)]], capsys)
        gc.collect()
        left = [type(o) for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left.count(groups.GroupDescriptor) == 0
    assert left.count(groups.Table) == 0


TRIANGLE = {
    "group": "z5",
    "vertices": [0, 1, 2],
    "edges": [{"id": i, "tail": i, "head": (i + 1) % 3, "label": 1} for i in range(3)],
}


def _triangle_with(where, value):
    doc = json.loads(json.dumps(TRIANGLE))
    if where == "vertices":
        doc["vertices"] = value
    else:
        field, i = where
        doc["edges"][i][field] = value
    return doc


@pytest.mark.parametrize(
    "where, value",
    [
        ("vertices", [0, 1, 2.9]),
        ("vertices", [0, 1, 2, True]),
        ("vertices", [0, 1, "2.0"]),
        (("id", 0), 0.5),
        (("id", 1), False),
        (("tail", 1), 1.5),
        (("head", 1), 2.2),
        (("label", 0), 2.7),
        (("label", 0), True),
    ],
)
def test_pack_rejects_instance_integers_that_are_not_integers(tmp_path, capsys, where, value):
    # each of these read as the z5 triangle, and `pack` went on, when ids,
    # ends and labels were truncated to integers
    inst = tmp_path / "t.json"
    inst.write_text(json.dumps(_triangle_with(where, value)))
    code, out, err = run(["pack", str(inst)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("bad instance: ") and "is not an integer" in err


@pytest.mark.parametrize(
    "where, value", [("vertices", [0, 1.0, "2"]), (("id", 2), 2.0), (("head", 0), "1"), (("label", 1), 4.0)]
)
def test_pack_reads_integral_floats_and_decimal_strings_in_instances(tmp_path, capsys, where, value):
    inst = tmp_path / "t.json"
    inst.write_text(json.dumps(_triangle_with(where, value)))
    code, out, _ = run(["pack", str(inst)], capsys)
    assert code == 0
    assert json.loads(out)["nu"] == 1


@pytest.mark.parametrize("labels", [[[1, 2, 5], [0, 1], [0, 0]], [[1, 1], "10", [0, 0]], [[1, 2], [1], [0, 0]]])
def test_pack_rejects_malformed_direct_sum_labels(tmp_path, capsys, labels):
    # a sum(z2,z3) triangle with one label of three entries, one string
    # label or one label of one entry
    edges = [{"id": i, "tail": i, "head": (i + 1) % 3, "label": lab} for i, lab in enumerate(labels)]
    inst = tmp_path / "t.json"
    inst.write_text(json.dumps({"group": "sum(z2,z3)", "vertices": [0, 1, 2], "edges": edges}))
    code, out, err = run(["pack", str(inst)], capsys)
    assert code == 2
    assert out == ""
    assert "bad instance" in err


@pytest.mark.parametrize("text", ["5", "null", "true", '"text"', "[1, 2]"])
@pytest.mark.parametrize("command", ["analyze", "pack", "cover", "reduce", "verify"])
def test_an_instance_that_is_no_json_object_is_a_parse_error(tmp_path, capsys, command, text):
    # a number, null or a boolean crashed every command with exit 1, the
    # failed-certificate code
    inst, cert = tmp_path / "x.json", tmp_path / "cert.json"
    inst.write_text(text)
    cert.write_text(json.dumps({"type": "transversal", "vertices": []}))
    extra = {"reduce": ["plain"], "verify": [str(cert)]}.get(command, [])
    code, out, err = run([command, str(inst), *extra], capsys)
    assert (code, out) == (2, "")
    assert "bad instance" in err


NON_STRING_GROUPS = [5, None, 3.0, ["z"], {}]


@pytest.mark.parametrize("group", NON_STRING_GROUPS, ids=repr)
@pytest.mark.parametrize("command", ["analyze", "pack", "cover", "verify"])
def test_a_non_string_group_is_one_parse_error_line(tmp_path, capsys, command, group):
    # a group descriptor that is no string crashed every command with an
    # AttributeError and exit 1, the failed-certificate code
    inst, cert = tmp_path / "x.json", tmp_path / "cert.json"
    inst.write_text(json.dumps({"group": group, "vertices": [0], "edges": []}))
    cert.write_text(json.dumps({"type": "transversal", "vertices": []}))
    extra = [str(cert)] if command == "verify" else []
    code, out, err = run([command, str(inst), *extra], capsys)
    assert (code, out) == (2, "")
    kind = type(group).__name__
    assert err == f"bad instance: malformed graph payload: group descriptor must be a string, not {kind}\n"


@pytest.mark.parametrize("group", NON_STRING_GROUPS, ids=repr)
@pytest.mark.parametrize("decoder", ["graph", "wall", "embedded"])
def test_each_decoder_reads_a_non_string_group_as_its_typed_error(decoder, group):
    graph = {"group": group, "vertices": [0], "edges": []}
    if decoder == "graph":
        decode, data = decode_graph, graph
    elif decoder == "wall":
        data = json.loads(json.dumps(encode_wall(elementary_wall(2))))
        data["graph"]["group"] = group
        decode = decode_wall
    else:
        decode, data = reductions.decode_embedded, {"graph": graph, "rotations": {}}
    with pytest.raises(GraphFormatError) as info:
        decode(data)
    assert str(info.value) == f"malformed graph payload: group descriptor must be a string, not {type(group).__name__}"
    assert isinstance(info.value.__cause__, groups.GroupParseError)


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("gen wall --r 4", "4208eeb9849dd92f10b83f2303a97a269f6fb6371384f86be862b7a67869c632"),
        (
            "gen obstruction --h 2 --p nested --q series --seed 3",
            "7a9a90d13ce1eafc2e2285f4e208846a5e02dd880fa6f7eb78af90a98b039853",
        ),
        ("experiment --seed 1 --count 100", "0b6867f0401b0388b432a17e9a9474f8a129ae940247c1ec94055f9e20ea5679"),
    ],
    ids=["wall_r4", "obstruction_h2_nested_series", "experiment_seed1"],
)
def test_fixed_seed_stdout_is_pinned(argv, digest, capsys):
    code, out, err = run(argv.split(), capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("pair", ["z1,z3", "z3,free0", "za0,z3", "q(),z3", "z3,q(1)"])
def test_gen_obstruction_with_a_trivial_summand_is_parse_error(pair):
    # a trivial group has no nonzero value to draw; in a subprocess, so that
    # a generator that keeps drawing fails the test by timing out
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["gen", "obstruction", "--h", "1", "--p", "series", "--q", "nested", "--groups", pair]
    proc = subprocess.run(
        [sys.executable, "-m", "nonzero_cycles.cli", *argv],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "is the trivial group" in proc.stderr and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv, option",
    [
        ("gen random --max-n 1", "--max-n"),
        ("gen random --max-m 0", "--max-m"),
        ("experiment --max-n 1 --count 1", "--max-n"),
        ("experiment --max-m 0 --count 1", "--max-m"),
        ("experiment --max-n 1 --count 0", "--max-n"),
        ("experiment --max-m 0 --count 0", "--max-m"),
        ("experiment --count -1", "--count"),
    ],
)
def test_random_graph_sizes_out_of_range_are_parse_errors(argv, option, capsys):
    code, out, err = run(argv.split(), capsys)
    assert (code, out) == (2, "")
    assert err.startswith(option) and err.count("\n") == 1


@pytest.mark.parametrize("option", ["--s1", "--s2"])
def test_reduce_non_integer_vertex_ids_are_parse_errors(option, tmp_path, capsys):
    inst = tmp_path / "r.json"
    run(["gen", "random", "--seed", "4", "--out", str(inst)], capsys)
    code, out, err = run(["reduce", str(inst), "s1s2", "--s1", "0", "--s2", "0", option, "a,b"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(option) and err.count("\n") == 1


def test_gen_obstruction_groups_split_only_at_top_level_commas(tmp_path, capsys):
    inst, cert = tmp_path / "o.json", tmp_path / "c.json"
    argv = ["gen", "obstruction", "--h", "2", "--p", "nested", "--q", "series", "--seed", "1"]
    code, _, err = run(argv + ["--groups", "sum(z2,z3),z3", "--out", str(inst)], capsys)
    assert (code, err) == (0, "")
    doc = json.loads(inst.read_text())
    assert doc["graph"]["group"] == "sum(sum(z2,z3),z3)"
    cert.write_text(json.dumps({"type": "obstruction", "h": 2}))
    code, out, _ = run(["verify", str(inst), str(cert)], capsys)
    assert code == 0 and json.loads(out)["method"] == "chords"
    for groups_arg in ("sum(z2,z3)", "z3,z3,z3", "sum(z2,z3),z3,z3"):
        code, out, err = run(argv + ["--groups", groups_arg], capsys)
        assert (code, out, err) == (2, "", "--groups takes two comma-separated descriptors\n")


@pytest.mark.parametrize("text", ["1_0", " 7 ", "\u0661\u0662", "3, 4"])
@pytest.mark.parametrize("option", ["--s1", "--s2"])
def test_reduce_vertex_ids_are_read_by_the_one_integer_rule(option, text, tmp_path, capsys):
    # int() would read these as 10, 7, 12 and 3 and 4; `groups.as_integer` does not
    inst = tmp_path / "r.json"
    run(["gen", "random", "--seed", "4", "--out", str(inst)], capsys)
    code, out, err = run(["reduce", str(inst), "s1s2", "--s1", "0", "--s2", "0", option, text], capsys)
    assert (code, out) == (2, "")
    assert err == f"{option} takes comma-separated vertex ids, not {text!r}\n"


@pytest.mark.parametrize("option", ["--s1", "--s2"])
def test_reduce_unknown_vertex_ids_are_parse_errors(option, tmp_path, capsys):
    inst = tmp_path / "r.json"
    run(["gen", "random", "--seed", "4", "--out", str(inst)], capsys)
    code, out, err = run(["reduce", str(inst), "s1s2", "--s1", "0", "--s2", "0", option, "99"], capsys)
    assert (code, out) == (2, "")
    assert err == f"{option} names vertex 99, which is not in the graph\n"
    code, out, err = run(["reduce", str(inst), "s", "--s1", "99"], capsys)
    assert (code, out) == (2, "")
    assert "vertex 99" in err


# The first instance of each kind in the benchmark's seed-1 `sweep` plan: a
# 9-vertex, 16-edge graph labelled in sum(z2,z3), and two plain graphs
# encoded by `reduce odd` and `reduce s1s2`.  The digests of `pack`'s stdout
# were recorded before the packing search took the transversal as a cover
# bound, which must change no answer; those of `cover`'s stdout, and the
# messages of `verify` on transversals that miss a cycle, before the
# solvers read the vertex masks of the enumerating DFS.
SWEEP_PACK_CASES = {
    "sum_z2_z3": {
        "edges": [[0, 1], [1, 2], [1, 5], [1, 6], [1, 8], [2, 4], [2, 5], [2, 6],
                  [2, 7], [3, 4], [4, 6], [4, 7], [5, 7], [5, 8], [6, 8], [7, 8]],
        "labels": [[0, 1], [0, 2], [0, 1], [0, 1], [1, 2], [0, 2], [1, 1], [1, 1],
                   [1, 0], [1, 1], [0, 0], [0, 2], [0, 0], [1, 0], [0, 0], [0, 1]],
        "reduce": None,
        "digest": "fe145cd7a1568df72cc4c7a9e8cbab900f11badf3fe53806c90e449c3ee8279a",
        "cover_digest": "107ce8515ce3ec95cd7b3b7e61228f62f09d2892235739a94b3b5da74e4a3a5d",
        "missed": {(): [1, 2, 6], (1,): [5, 7, 10]},
    },
    "reduce_odd": {
        "edges": [[0, 1], [0, 4], [0, 7], [1, 2], [1, 3], [1, 4], [1, 6], [1, 7],
                  [2, 3], [2, 5], [2, 6], [2, 8], [3, 5], [4, 8], [5, 7], [6, 7]],
        "reduce": ["odd"],
        "digest": "f2202b7d12672ef677c906a6ce820d66bbb6b904e6ff74d93fa0c11420e9a19f",
        "cover_digest": "8dd7ef1ab62b27d0daa2c7a8a983b0a0ac1c2e7cd658f96c18c99c16aa545fe9",
        "missed": {(): [0, 1, 5], (1,): [8, 9, 12]},
    },
    "reduce_s1s2": {
        "edges": [[0, 4], [0, 5], [0, 8], [1, 3], [2, 3], [2, 4], [2, 5], [2, 6],
                  [2, 7], [3, 4], [3, 5], [3, 6], [3, 7], [4, 6], [5, 8], [7, 8]],
        "reduce": ["s1s2", "--s1", "1,5", "--s2", "0,6"],
        "digest": "191bc2f594ee1e375249f76d75a02eca42a21274efd76a5c780ab2cbe21dd706",
        "cover_digest": "31c8f3bf761b01d5adbbb13423dffc0278afe65904cd0818e451d89353d8ed7e",
        "missed": {(): [1, 2, 14], (1,): [1, 2, 14]},
    },
}


def write_sweep_instance(case, tmp_path, capsys):
    inst = tmp_path / "g.json"
    if case["reduce"] is None:
        edges = [{"id": k, "tail": u, "head": v, "label": lab}
                 for k, ((u, v), lab) in enumerate(zip(case["edges"], case["labels"]))]
        inst.write_text(json.dumps({"group": "sum(z2,z3)", "vertices": list(range(9)), "edges": edges}))
    else:
        plain = tmp_path / "plain.json"
        edges = [{"id": k, "tail": u, "head": v, "label": "0"} for k, (u, v) in enumerate(case["edges"])]
        plain.write_text(json.dumps({"group": "z", "vertices": list(range(9)), "edges": edges}))
        code, _, _ = run(["reduce", str(plain), *case["reduce"], "--out", str(inst)], capsys)
        assert code == 0
    return inst


@pytest.mark.parametrize("name", sorted(SWEEP_PACK_CASES))
def test_pack_stdout_on_sweep_instances_is_pinned(name, tmp_path, capsys):
    case = SWEEP_PACK_CASES[name]
    inst = write_sweep_instance(case, tmp_path, capsys)
    code, out, err = run(["pack", str(inst)], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == case["digest"]


@pytest.mark.parametrize("name", sorted(SWEEP_PACK_CASES))
def test_cover_stdout_on_sweep_instances_is_pinned(name, tmp_path, capsys):
    case = SWEEP_PACK_CASES[name]
    inst = write_sweep_instance(case, tmp_path, capsys)
    code, out, err = run(["cover", str(inst)], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == case["cover_digest"]


@pytest.mark.parametrize("name", sorted(SWEEP_PACK_CASES))
def test_verify_names_the_first_doubly_nonzero_cycle_a_transversal_misses(name, tmp_path, capsys):
    # the first in `enumerate_cycles` order of the graph minus the vertices
    case = SWEEP_PACK_CASES[name]
    inst = write_sweep_instance(case, tmp_path, capsys)
    cert = tmp_path / "c.json"
    for vertices, edges in case["missed"].items():
        cert.write_text(json.dumps({"type": "transversal", "vertices": list(vertices)}))
        code, out, err = run(["verify", str(inst), str(cert)], capsys)
        assert (code, out) == (1, "")
        assert err == f"transversal misses the doubly nonzero cycle with edges {edges}\n"


def test_pack_cover_and_verify_stop_at_the_limit_analyze_stops_at(tmp_path, capsys):
    # five parallel edges labelled 1, 0, 0, 0, 0 in z: ten cycles, and only
    # the four through the edge labelled 1 are non-zero; every cycle counts
    edges = [{"id": i, "tail": 0, "head": 1, "label": str(x)} for i, x in enumerate((1, 0, 0, 0, 0))]
    inst = tmp_path / "b.json"
    inst.write_text(json.dumps({"group": "z", "vertices": [0, 1], "edges": edges}))
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps({"type": "transversal", "vertices": []}))
    argvs = [["analyze", str(inst), "--checks", "classify"], ["pack", str(inst)], ["cover", str(inst)],
             ["verify", str(inst), str(cert)]]
    for limit in (0, 4, 9):
        for argv in argvs:
            code, out, err = run([*argv, "--limit", str(limit)], capsys)
            assert (code, out) == (3, "")
            assert err == f"more than {limit} cycles; raise NONZERO_CYCLES_LIMIT to continue\n"
    codes = [run([*argv, "--limit", "10"], capsys)[0] for argv in argvs]
    assert codes == [0, 0, 0, 1]
    code, out, _ = run(argvs[0], capsys)
    assert json.loads(out)["classify"]["doubly_nonzero"] == 4


# Each `gen` and `reduce` kind takes only the options it reads, and `--out`.
# A valid value for every option, and the options each kind reads.
OPTION_VALUES = {
    "--r": "3", "--h": "1", "--p": "nested", "--q": "series", "--groups": "z3", "--seed": "1",
    "--max-n": "5", "--max-m": "5", "--s1": "0", "--s2": "0", "--limit": "5",
}
GEN_OPTIONS = {
    "wall": ["--r", "--groups"],
    "escher": ["--h"],
    "obstruction": ["--h", "--p", "--q", "--groups", "--seed"],
    "random": ["--groups", "--seed", "--max-n", "--max-m"],
}
REDUCE_OPTIONS = {"plain": [], "odd": [], "s": ["--s1"], "odd_s": ["--s1"], "s1s2": ["--s1", "--s2"]}
UNREAD_OPTIONS = [
    (["gen", kind], option) for kind, read in GEN_OPTIONS.items()
    for option in ["--r", "--h", "--p", "--q", "--groups", "--seed", "--max-n", "--max-m", "--limit"]
    if option not in read
] + [
    (["reduce", "FILE", kind], option) for kind, read in REDUCE_OPTIONS.items()
    for option in ["--s1", "--s2", "--limit"] if option not in read
]


def test_every_gen_and_reduce_kind_is_listed_with_its_options():
    assert len(UNREAD_OPTIONS) == 35
    assert sorted(REDUCE_OPTIONS) == sorted(reductions.REDUCTIONS)
    assert {k: len(v) for k, v in REDUCE_OPTIONS.items()} == {k: r.sets for k, r in reductions.REDUCTIONS.items()}


@pytest.mark.parametrize("kind, option", UNREAD_OPTIONS, ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_an_option_the_kind_does_not_read_is_unrecognized(kind, option, tmp_path, capsys):
    inst = tmp_path / "r.json"
    run(["gen", "random", "--seed", "4", "--out", str(inst)], capsys)
    read = GEN_OPTIONS.get(kind[-1], REDUCE_OPTIONS.get(kind[-1]))
    # obstruction's --groups takes two descriptors
    values = {**OPTION_VALUES, "--groups": "z3,z3"} if kind[-1] == "obstruction" else OPTION_VALUES
    argv = [str(inst) if a == "FILE" else a for a in kind]
    argv += [x for o in read for x in (o, values[o])]
    assert run(argv + ["--out", str(tmp_path / "o.json")], capsys)[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [option, OPTION_VALUES[option]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {option} {OPTION_VALUES[option]}" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("gen wall", "gen wall needs --r"),
        ("gen wall --groups z3", "gen wall needs --r"),
        ("gen escher", "gen escher needs --h"),
        ("gen obstruction --p nested --q series", "gen obstruction needs --h, --p, --q"),
        ("gen obstruction --h 1 --q series", "gen obstruction needs --h, --p, --q"),
        ("gen obstruction --h 1 --p nested", "gen obstruction needs --h, --p, --q"),
    ],
)
def test_gen_without_a_needed_option_is_parse_error(argv, message, capsys):
    assert run(argv.split(), capsys) == (2, "", message + "\n")


@pytest.mark.parametrize("kind", sorted(reductions.REDUCTIONS))
def test_reduce_prints_the_encoding_of_its_table_entry(kind, tmp_path, capsys):
    inst = tmp_path / "r.json"
    run(["gen", "random", "--seed", "2", "--max-n", "8", "--max-m", "14", "--out", str(inst)], capsys)
    reduction = reductions.REDUCTIONS[kind]
    sets = [[0, 3], [1]][: reduction.sets]
    argv = [x for option, s in zip(["--s1", "--s2"], sets) for x in (option, ",".join(map(str, s)))]
    code, out, err = run(["reduce", str(inst), kind, *argv], capsys)
    assert (code, err) == (0, "")
    graph = decode_graph(json.loads(inst.read_text())["graph"])
    reduced = reduction.reduce(graph, *sets)
    assert json.loads(out) == {"kind": f"reduced-{kind}", "graph": encode_graph(reduced)}
    assert reductions.correspondence_check(kind, reduced, *sets)


def test_gen_group_numbers_follow_the_one_integer_rule(capsys):
    # z followed by an Arabic-Indic three: not z3
    code, out, err = run(["gen", "random", "--groups", "z\u0663"], capsys)
    assert (code, out) == (2, "")
    assert err == "trailing characters in group description: '\u0663'\n"


# three triangles through vertex 0 valued (1, 1), and two away from them
# valued (0, 1) and (1, 0), over sum(z2,z3): triangle i has edges 3i..3i+2
def _triangles_graph() -> LabeledGraph:
    desc = groups.parse_descriptor("sum(z2,z3)")
    labels = [(1, 1), (1, 1), (1, 1), (0, 1), (1, 0)]
    triangles = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (7, 8, 9), (10, 11, 12)]
    edges = []
    for (a, b, c), label in zip(triangles, labels):
        for u, v, x in ((a, b, label), (b, c, (0, 0)), (c, a, (0, 0))):
            edges.append(Edge(len(edges), u, v, groups.element(desc, x)))
    return LabeledGraph(desc, range(13), edges)


def test_verify_packing_accepts_triangles_within_their_vertex_uses():
    graph = _triangles_graph()
    assert packing.verify_packing(graph, [frozenset([0, 1, 2])], max_use=1)
    assert packing.verify_packing(graph, [frozenset([0, 1, 2]), frozenset([3, 4, 5])], max_use=2)


OVERUSED = "packing certificate violates disjointness\n"


@pytest.mark.parametrize(
    "edge_sets, max_use, message",
    [
        # one cycle twice, where each vertex may be used twice
        ([[0, 1, 2], [0, 1, 2]], 2, "packing certificate repeats the cycle with edges [0, 1, 2]\n"),
        ([[9, 10, 11]], 1, "packing certificate cycle with edges [9, 10, 11] is zero in coordinate 0\n"),
        ([[12, 13, 14]], 1, "packing certificate cycle with edges [12, 13, 14] is zero in coordinate 1\n"),
        ([[0, 1, 2], [3, 4, 5]], 1, OVERUSED),  # vertex 0 used twice
        ([[0, 1, 2], [3, 4, 5], [6, 7, 8]], 2, OVERUSED),  # vertex 0 used three times
    ],
    ids=["repeated", "zero_first", "zero_second", "overused_once", "overused_twice"],
)
def test_verify_packing_rejects_a_repeated_zero_or_overused_cycle(edge_sets, max_use, message, tmp_path, capsys):
    graph = _triangles_graph()
    assert not packing.verify_packing(graph, [frozenset(es) for es in edge_sets], max_use=max_use)
    inst, cert = tmp_path / "t.json", tmp_path / "c.json"
    inst.write_text(json.dumps(encode_graph(graph)))
    cert.write_text(json.dumps({"type": "packing", "cycles": edge_sets, "max_use": max_use}))
    assert run(["verify", str(inst), str(cert)], capsys) == (1, "", message)


# a null-labelled 2-wall over z5 shifted at vertices 1, 6 and 11: flat, so
# analyze prints shifts that make every label zero
FLAT_WALL_STDOUT = {
    "bipartite": True,
    "bipartite_shifts": [
        [2, 1], [7, 1], [3, 1], [6, 3], [8, 1], [4, 1], [9, 1], [12, 1],
        [14, 1], [5, 1], [10, 1], [13, 1], [15, 1], [11, 4], [16, 1],
    ],
    "classify": {"cycles": 14, "doubly_nonzero": 0, "nonzero_first": 0, "nonzero_second": 0},
    "robust": True,
}


def test_analyze_prints_the_shifts_that_flatten_a_flat_labelling(tmp_path, capsys):
    z5 = groups.cyclic(5)
    wall = elementary_wall(2, z5).graph
    graph = shift_sequence(wall, [(v, groups.element(z5, a)) for v, a in ((1, 1), (6, 3), (11, 2))])
    assert any(not groups.is_zero(e.label) for e in graph.edges.values())
    inst = tmp_path / "flat.json"
    inst.write_text(json.dumps(encode_graph(graph)))
    code, out, err = run(["analyze", str(inst)], capsys)
    assert (code, err) == (0, "")
    assert out == json.dumps(FLAT_WALL_STDOUT, indent=2, sort_keys=True) + "\n"
    shifts = [(v, groups.decode_element(graph.descriptor, a)) for v, a in json.loads(out)["bipartite_shifts"]]
    assert all(groups.is_zero(e.label) for e in shift_sequence(graph, shifts).edges.values())


def test_pack_on_a_missing_file_is_a_parse_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run(["pack", str(missing)], capsys)
    assert (code, out) == (2, "")
    assert err == f"cannot read instance: [Errno 2] No such file or directory: {str(missing)!r}\n"


def test_pack_on_a_file_that_is_not_json_is_a_parse_error(tmp_path, capsys):
    inst = tmp_path / "x.json"
    inst.write_text("not json")
    code, out, err = run(["pack", str(inst)], capsys)
    assert (code, out, err) == (2, "", "cannot read instance: Expecting value: line 1 column 1 (char 0)\n")


def test_pack_on_an_instance_with_a_repeated_edge_id_is_a_parse_error(tmp_path, capsys):
    inst = tmp_path / "x.json"
    edges = [{"id": 0, "tail": 0, "head": 1, "label": 1}, {"id": 0, "tail": 1, "head": 0, "label": 0}]
    inst.write_text(json.dumps({"graph": {"group": "z2", "vertices": [0, 1], "edges": edges}}))
    code, out, err = run(["pack", str(inst)], capsys)
    assert (code, out, err) == (2, "", "bad instance: duplicate edge id 0\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("gen wall --r 1", "wall size must be at least 2"),
        ("gen escher --h 0", "height must be at least 1"),
        ("gen obstruction --h 1 --p nested --q nested", "the two linkages must be of different type"),
    ],
)
def test_gen_out_of_range_sizes_and_equal_linkage_types_are_parse_errors(argv, message, capsys):
    code, out, err = run(argv.split(), capsys)
    assert (code, out, err) == (2, "", message + "\n")


def test_verify_an_unknown_certificate_type_is_a_parse_error(tmp_path, capsys):
    inst, cert = tmp_path / "e.json", tmp_path / "c.json"
    run(["gen", "escher", "--h", "1", "--out", str(inst)], capsys)
    cert.write_text(json.dumps({"type": "bogus"}))
    code, out, err = run(["verify", str(inst), str(cert)], capsys)
    assert (code, out, err) == (2, "", "unknown certificate type 'bogus'\n")
