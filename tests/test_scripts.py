"""Smoke tests: each script in scripts/ runs as a program on small input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def start_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def run_script(name, *args):
    proc = start_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_wall_census():
    assert run_script("wall_census.py", "2", "4") == (
        "  r  vertices   edges  bricks  nails\n"
        "  2        16      19       4      6\n"
        "  3        30      38       9     10\n"
        "  4        48      63      16     14\n"
    )


def test_duality_sweep():
    lines = run_script("duality_sweep.py", "--seed", "1", "--count", "5").splitlines()
    assert lines[0] == "index\tn\tm\tnu\tnu_half\ttau"
    assert [line.split("\t")[0] for line in lines[1:-1]] == ["0", "1", "2", "3", "4"]
    assert lines[-1].startswith("max tau/nu_half = ")


def test_obstruction_report_height_two():
    assert run_script("obstruction_report.py", "2") == (
        "height h = 2\n"
        "P-type    Q-type      nu  nu_half  tau\n"
        "series    nested       1        2    2\n"
        "series    crossing     1        2    2\n"
        "nested    series       1        2    2\n"
        "nested    crossing     1        3    2\n"
        "crossing  series       1        2    2\n"
        "crossing  nested       1        3    2\n"
        "escher                 1        3    2\n"
    )


def test_obstruction_report_height_three():
    lines = run_script("obstruction_report.py", "3").splitlines()
    assert lines[:2] == ["height h = 3", "P-type    Q-type      nu  nu_half  tau"]
    assert len(lines) == 9
    # ν is not pinned: two-linkage instances with ν = 2 at h=3 are an open bug
    assert [line.split()[-1] for line in lines[2:]] == ["3"] * 7


@pytest.mark.parametrize("h", ["0", "-1", "x"])
def test_obstruction_report_rejects_a_bad_height(h):
    proc = start_script("obstruction_report.py", h)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "usage: obstruction_report.py [h], with h a positive integer\n"


@pytest.mark.parametrize("args", [["abc"], ["0", "1"], ["1"], ["2", "x"], ["2", "3", "4"]])
def test_wall_census_rejects_bad_sizes(args):
    proc = start_script("wall_census.py", *args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "usage: wall_census.py [r_min] [r_max], with integers r_min >= 2 and r_max\n"


@pytest.mark.parametrize(
    "name, args, usage",
    [
        ("obstruction_report.py", ["1_0"], "usage: obstruction_report.py [h], with h a positive integer\n"),
        ("obstruction_report.py", [" 2 "], "usage: obstruction_report.py [h], with h a positive integer\n"),
        ("wall_census.py", ["٢", "3"], "usage: wall_census.py [r_min] [r_max], with integers r_min >= 2 and r_max\n"),
        ("wall_census.py", ["2", "1_0"], "usage: wall_census.py [r_min] [r_max], with integers r_min >= 2 and r_max\n"),
    ],
)
def test_scripts_read_sizes_by_the_one_integer_rule(name, args, usage):
    # `groups.as_integer` takes an optional sign and ASCII digits only
    proc = start_script(name, *args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", usage)
