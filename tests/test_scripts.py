"""Smoke tests of the scripts in scripts/: each runs as its own process,
exits 0 (2 on a usage error), and prints a few known values."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args, budget=None):
    """stdout of a script run with GIRTHLAB_BUDGET set to budget, or unset
    when budget is None, which must exit 0."""
    proc = run_process(name, *args, budget=budget)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_process(name, *args, budget=None):
    """The finished process of a script run, as run_script runs it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    env.pop("GIRTHLAB_BUDGET", None)
    if budget is not None:
        env["GIRTHLAB_BUDGET"] = str(budget)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], capture_output=True, text=True, env=env)


def rows(stdout):
    """The lines of a table, each split on whitespace."""
    return [line.split() for line in stdout.splitlines()]


def test_zarankiewicz_table():
    table = rows(run_script("zarankiewicz_table.py", "--max-side", "4"))
    assert table[0] == ["forbidden:", "{C4}"]
    (row,) = [r for r in table if r[:2] == ["4", "4"]]
    assert row[2] == "9"


def test_zarankiewicz_table_names_the_bound_ell():
    """The bound holds for ell = 2 or odd, so the table for {C4, C6, C8}
    prints that its bound column takes ell = 3."""
    table = rows(run_script("zarankiewicz_table.py", "--ell", "4",
                            "--max-side", "3"))
    assert table[0] == ["forbidden:", "{C4,", "C6,", "C8}"]
    assert table[1][-3:] == ["ell", "=", "3"]
    (row,) = [r for r in table if r[:2] == ["3", "3"]]
    assert row[2:4] == ["5", "7.33"]


@pytest.mark.parametrize("name", ["zarankiewicz_table.py", "turan_table.py",
                                  "extraction_demo.py"])
def test_ell_below_two_is_a_usage_error(name):
    proc = run_process(name, "--ell", "1")
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].endswith(
        "error: --ell must be at least 2")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, message", [
    (("--q", "3", "--ell", "8"), "error: --ell must be at most 7"),
    (("--delta", "-1"), "error: --delta must be at least 0"),
    (("--q", "6"), "error: argument --q: invalid choice: 6"),
])
def test_extraction_demo_usage_errors(args, message):
    proc = run_process("extraction_demo.py", *args)
    assert proc.returncode == 2
    assert message in proc.stderr.splitlines()[-1]
    assert "Traceback" not in proc.stderr


def test_zarankiewicz_table_truncated():
    """Under a budget of 40 nodes, z(4, 4) stops after 41 and prints its
    lower bound, flagged."""
    table = rows(run_script("zarankiewicz_table.py", "--max-side", "4",
                            budget=40))
    (row,) = [r for r in table if r[:2] == ["4", "4"]]
    assert (row[2], row[4]) == ("7", "41")
    assert row[-1] == "(budget-truncated!)"


def test_turan_table():
    table = rows(run_script("turan_table.py", "--max-n", "6"))
    (row,) = [r for r in table if r[0] == "6"]
    # n, then value, nodes, seconds, truncation for each of three columns
    assert (row[1], row[9]) == ("7", "6")
    assert (row[4], row[8], row[12]) == ("no", "no", "no")


def test_turan_table_truncated():
    """Under a budget of 40 nodes every column stops at n = 7 after 41
    nodes, and z(7; C4) prints its lower bound 6."""
    table = rows(run_script("turan_table.py", "--max-n", "7", budget=40))
    (row,) = [r for r in table if r[0] == "7"]
    assert (row[9], row[10], row[12]) == ("6", "41", "yes")
    assert (row[4], row[8]) == ("yes", "yes")


def test_turan_table_ell_three():
    table = rows(run_script("turan_table.py", "--ell", "3", "--max-n", "8"))
    assert table[0][1::4] == ["ex(n;C4,C6,C7)", "ex(n;C4,C6,C9)",
                              "z(n;C4,C6)"]
    (row,) = [r for r in table if r[0] == "8"]
    # the edge-augmentation reference gives 10 for both odd lengths; C8 is
    # the only {C4, C6}-free bipartite graph on 8 vertices with 8 edges
    assert (row[1], row[5], row[9]) == ("10", "10", "8")
    assert (row[4], row[8], row[12]) == ("no", "no", "no")


def test_pseudorandomness_trend():
    out = run_script("pseudorandomness_trend.py", "--samples", "10",
                     "--orders", "2", "3")
    table = rows(out)
    (row,) = [r for r in table if r[:2] == ["2", "14"]]
    assert row[2] == "1.4142"
    assert any(r[:2] == ["3", "26"] for r in table)


@pytest.mark.parametrize("args, message", [
    (("--samples", "-1"), "error: --samples must be at least 0"),
    (("--orders", "6"), "error: argument --orders: invalid choice: 6"),
    (("--orders", "1"), "error: argument --orders: invalid choice: 1"),
    (("--orders", "2", "16"), "error: argument --orders: invalid choice: 16"),
])
def test_pseudorandomness_trend_usage_errors(args, message):
    proc = run_process("pseudorandomness_trend.py", *args)
    assert proc.returncode == 2
    assert message in proc.stderr.splitlines()[-1]
    assert "Traceback" not in proc.stderr


def test_extraction_demo():
    """The augmented W(3, 3) incidence graph has diameter 4, so layer
    ell + 1 = 3 is nonempty, and the edges between layers 2 and 3 form a
    C4-free subgraph."""
    out = run_script("extraction_demo.py", "--q", "3")
    assert "augmented W(3,q) incidence graph q=3: n=80 m=161" in out
    assert "layer sizes (1, 5, 14, 42)\n" in out
    assert "extracted bipartite subgraph: 56 vertices, 42 edges" in out
    assert "subgraph inherits forbidden-cycle freeness: True" in out
    assert "nothing extracted" not in out


def test_extraction_demo_at_ell_three_and_four():
    """At ell = 3 the edges between layers 3 and 4 form a subgraph free of
    C4 and C6. At ell = 4 the truncation leaves layer 5 empty, and the demo
    says so instead of checking an empty subgraph."""
    out = run_script("extraction_demo.py", "--q", "3", "--ell", "3")
    assert "layer sizes (1, 5, 14, 42, 18)\n" in out
    assert "extracted bipartite subgraph: 60 vertices, 72 edges" in out
    assert "subgraph inherits forbidden-cycle freeness: True" in out
    out = run_script("extraction_demo.py", "--q", "3", "--ell", "4")
    assert "layer sizes (1, 4, 12, 36, 25, 0)\n" in out
    assert "layer 5 is empty: nothing extracted" in out
    assert "forbidden-cycle freeness" not in out
