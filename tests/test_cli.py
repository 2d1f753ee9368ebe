import json
import subprocess
import sys

import pytest

from girthlab.cli import main
from girthlab.formats import graph6_decode, graph6_encode
from girthlab.graph import girth

# golden graph6 strings, pinned after validating the constructions against
# the count/girth oracles in test_geometry
GOLDEN_PG2_Q2 = b"M???AiWKf?HO`_J??\n"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "girthlab", *args], capture_output=True
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestConstruct:
    def test_pg2_graph6_golden(self, tmp_path):
        out = tmp_path / "pg2.g6"
        rc = main(["construct", "pg2", "2", "--out", str(out)])
        assert rc == 0
        data = out.read_bytes()
        assert data == GOLDEN_PG2_Q2
        g = graph6_decode(data)
        assert (g.n, g.m, girth(g)) == (14, 21, 6)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.g6", tmp_path / "b.g6"
        main(["construct", "gq", "2", "--out", str(a)])
        main(["construct", "gq", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert graph6_decode(a.read_bytes()).n == 30

    def test_json_format(self, tmp_path):
        out = tmp_path / "g.json"
        main(["construct", "polarity", "3", "--format", "json",
              "--out", str(out)])
        obj = json.loads(out.read_text())
        assert obj["n"] == 13 and len(obj["edges"]) == 24

    def test_dot_format(self, tmp_path):
        out = tmp_path / "g.dot"
        main(["construct", "pg2", "2", "--format", "dot", "--out", str(out)])
        assert out.read_text().startswith("graph G {")

    def test_augment_kind(self, tmp_path):
        out = tmp_path / "aug.g6"
        main(["construct", "augment", "2", "--out", str(out)])
        g = graph6_decode(out.read_bytes())
        assert (g.n, g.m) == (30, 46)

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        rc = main(["construct", "pg2", "2", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the output")
        assert err.count("\n") == 1

    def test_invalid_order_exit_2(self, tmp_path):
        out = tmp_path / "never.g6"
        rc = main(["construct", "pg2", "6", "--out", str(out)])
        assert rc == 2
        assert not out.exists()


class TestAnalyze:
    def test_heawood_report(self, tmp_path, heawood):
        path = tmp_path / "hw.g6"
        path.write_bytes(graph6_encode(heawood) + b"\n")
        out = tmp_path / "report.json"
        rc = main(["analyze", str(path), "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["girth"] == 6
        assert rep["bipartite"] is True
        assert rep["chromatic_number"] == 2
        assert rep["degree_histogram"] == {"3": 14}

    def test_edge_list_json_input(self, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text('{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}')
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["girth"] == 3 and rep["chromatic_number"] == 3

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_bytes(b"D??\n")  # 5 isolated vertices
        out = tmp_path / "report.json"
        main(["analyze", str(path), "--out", str(out)])
        rep = json.loads(out.read_text())
        assert rep["girth"] is None and rep["edges"] == 0

    def test_malformed_exit_3(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"\x05\x06junk")
        assert main(["analyze", str(path)]) == 3

    def test_missing_file_exit_3(self):
        assert main(["analyze", "/nonexistent/nope.g6"]) == 3

    def test_directory_input_exit_3(self, tmp_path):
        assert main(["analyze", str(tmp_path)]) == 3

    def test_undecodable_json_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"n": 2, "edges": [[0, 1]]}\xff')
        assert main(["analyze", str(path)]) == 3
        assert "bad JSON" in capsys.readouterr().err

    def test_tiny_budget_exit_4(self, tmp_path, heawood):
        path = tmp_path / "hw.g6"
        path.write_bytes(graph6_encode(heawood) + b"\n")
        assert main(["analyze", str(path), "--budget", "1"]) == 4

    def test_negative_budget_exit_2(self, tmp_path, heawood, capsys):
        path = tmp_path / "hw.g6"
        path.write_bytes(graph6_encode(heawood) + b"\n")
        assert main(["analyze", str(path), "--budget", "-1"]) == 2
        assert "--budget must be a node count >= 0, got -1" in \
            capsys.readouterr().err

    def test_budget_bounds_chromatic_number(self, tmp_path, grotzsch):
        """With no cycle spectrum to compute (--lmax 2), only the chromatic
        search of the Grötzsch graph can spend the budget."""
        path = tmp_path / "grotzsch.g6"
        path.write_bytes(graph6_encode(grotzsch) + b"\n")
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "--lmax", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["chromatic_number"] == 4
        assert main(["analyze", str(path), "--lmax", "2", "--budget", "1"]) == 4


class TestVerifyCli:
    def test_geometry_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "geometry", "--seed", "7", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["overall_pass"] is True
        assert rep["wall_time_s"] is None
        assert rep["counts"]["failed"] == 0

    def test_bad_suite_exit_2(self):
        assert main(["verify", "nonsense"]) == 2

    def test_failed_check_exit_1(self, tmp_path, capsys):
        """Seed 10 draws plane-incidence samples whose normalized deviation
        rises from q = 4 to q = 5, so the trend record fails."""
        out = tmp_path / "report.json"
        rc = main(["verify", "spectral", "--seed", "10", "--out", str(out)])
        assert rc == 1
        assert ("FAIL edge-deviation-trend [plane incidence q=2..5]"
                in capsys.readouterr().err)
        assert json.loads(out.read_text())["overall_pass"] is False

    def test_tiny_budget_exit_4(self, tmp_path):
        rc = main(["verify", "search", "--budget", "10",
                   "--out", str(tmp_path / "never.json")])
        assert rc == 4

    def test_negative_budget_exit_2(self, tmp_path, capsys):
        rc = main(["verify", "search", "--budget", "-1",
                   "--out", str(tmp_path / "never.json")])
        assert rc == 2
        assert "--budget must be a node count >= 0, got -1" in \
            capsys.readouterr().err

    def test_env_budget_override(self, monkeypatch):
        from girthlab.budgets import (
            DEFAULT_CYCLE_BUDGET, DEFAULT_SEARCH_BUDGET, node_budget)

        monkeypatch.setenv("GIRTHLAB_BUDGET", "12345")
        assert node_budget(None, DEFAULT_CYCLE_BUDGET) == 12345
        assert node_budget() == 12345
        assert node_budget(99, DEFAULT_CYCLE_BUDGET) == 99
        monkeypatch.delenv("GIRTHLAB_BUDGET")
        assert node_budget(None, DEFAULT_CYCLE_BUDGET) == 100_000_000
        assert node_budget() == DEFAULT_SEARCH_BUDGET == 1_000_000_000

    def test_negative_budget_names_its_source(self, monkeypatch, tmp_path,
                                              capsys):
        from girthlab.budgets import node_budget
        from girthlab.search import FamilySpec, zarankiewicz_ab

        with pytest.raises(ValueError, match=r"^budget must be a node count "
                           r">= 0, got -5$"):
            zarankiewicz_ab(3, 3, FamilySpec.of(4), budget=-5)
        monkeypatch.setenv("GIRTHLAB_BUDGET", "-5")
        with pytest.raises(ValueError, match=r"^GIRTHLAB_BUDGET must be a "
                           r"node count >= 0, got -5$"):
            node_budget()
        rc = main(["verify", "search", "--out", str(tmp_path / "never.json")])
        assert rc == 2
        assert "GIRTHLAB_BUDGET must be a node count >= 0, got -5" in \
            capsys.readouterr().err
        monkeypatch.setenv("GIRTHLAB_BUDGET", "lots")
        with pytest.raises(ValueError, match=r"^GIRTHLAB_BUDGET must be a "
                           r"node count >= 0, got lots$"):
            node_budget()

    def test_subprocess_entry(self):
        rc, stdout, _ = run_cli("construct", "pg2", "2")
        assert rc == 0 and stdout == GOLDEN_PG2_Q2


def test_verify_search_runs_and_passes(tmp_path):
    out = tmp_path / "search.json"
    rc = main(["verify", "search", "--seed", "42", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    names = {r["name"] for r in rep["records"]}
    assert "zarankiewicz-witness" in names
