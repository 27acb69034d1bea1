"""Command line behavior: output shapes, exit codes, stdin, piping."""

import io
import json

import pytest

from powerdom.cli import counterexample_demo, main
from powerdom.families import gen_h_delta, gen_path
from powerdom.graph import parse_graph, write_graph


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(write_graph(gen_path(4)))
    return str(path)


@pytest.fixture
def h9_file(tmp_path):
    path = tmp_path / "h9.txt"
    path.write_text(write_graph(gen_h_delta(9)[0]))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGamma:
    def test_human(self, capsys, p4_file):
        code, out, _ = run(capsys, "gamma", p4_file)
        assert code == 0
        assert "gamma_p = 1" in out
        assert "{1} ppt=2" in out

    def test_json(self, capsys, p4_file):
        code, out, _ = run(capsys, "gamma", p4_file, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["gamma_p"] == 1
        assert data["ppt_graph"] == 2
        assert {"set": [1], "ppt": 2} in data["witnesses"]

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(write_graph(gen_path(3))))
        code, out, _ = run(capsys, "gamma", "-")
        assert code == 0 and "gamma_p = 1" in out


class TestPpt:
    def test_human(self, capsys, p4_file):
        code, out, _ = run(capsys, "ppt", p4_file)
        assert code == 0 and out.strip() == "ppt = 2"

    def test_json(self, capsys, p4_file):
        code, out, _ = run(capsys, "ppt", p4_file, "--json")
        assert json.loads(out) == {"ppt_graph": 2}


class TestPropagate:
    def test_human(self, capsys, tmp_path):
        path = tmp_path / "p3.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        code, out, _ = run(capsys, "propagate", "--set", "1", str(path))
        assert code == 0
        assert "[0] {1}" in out and "[1] {0, 1, 2}" in out
        assert "ppt = 1" in out

    def test_json_round_trip(self, capsys, p4_file):
        code, out, _ = run(capsys, "propagate", "--set", "0,2", p4_file, "--json")
        data = json.loads(out)
        assert data["start"] == [0, 2]
        assert data["complete"] is True
        assert data["layers"][-1] == [0, 1, 2, 3]
        # recompute a derived field from the emitted layers
        labels = data["time_label"]
        for i, layer in enumerate(data["layers"]):
            for v in layer:
                assert labels[v] <= i

    def test_stalled_set(self, capsys, tmp_path):
        path = tmp_path / "star.txt"
        path.write_text("4 3\n0 1\n0 2\n0 3\n")
        code, out, _ = run(capsys, "propagate", "--set", "1", str(path))
        assert code == 0 and "not a power dominating set" in out

    def test_bad_vertex_list(self, capsys, p4_file):
        code, _, err = run(capsys, "propagate", "--set", "1,x", p4_file)
        assert code == 1 and "bad vertex list" in err


class TestLround:
    def test_value(self, capsys, p4_file):
        code, out, _ = run(capsys, "lround", "--l", "1", p4_file)
        assert code == 0 and "= 2" in out

    def test_json(self, capsys, p4_file):
        code, out, _ = run(capsys, "lround", "--l", "3", p4_file, "--json")
        assert json.loads(out) == {"l": 3, "l_round_number": 1}


class TestBounds:
    def test_h9_json(self, capsys, h9_file):
        code, out, _ = run(capsys, "bounds", h9_file, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["refuted_bound_raw"] == {"num": 82, "den": 37}
        assert data["refutation_flag"] is True
        assert data["gamma_p"] == 2

    def test_human_verdict(self, capsys, h9_file):
        code, out, _ = run(capsys, "bounds", h9_file)
        assert code == 0 and "REFUTES" in out

    def test_consistent_verdict(self, capsys, p4_file):
        code, out, _ = run(capsys, "bounds", p4_file)
        assert code == 0 and "[consistent]" in out

    def test_vertex_cap_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("100000000 0"))
        code, out, err = run(capsys, "bounds", "-")
        assert code == 1 and out == "" and "exceeds the limit" in err


GEN_CASES = [
    (["gen", "hdelta", "--delta", "3"], 10, 14, "# family: hdelta delta=3"),
    (["gen", "path", "--n", "6"], 6, 5, "# family: path n=6"),
    (["gen", "cycle", "--n", "5"], 5, 5, "# family: cycle n=5"),
    (["gen", "star", "--k", "4"], 5, 4, "# family: star k=4"),
    (["gen", "complete", "--n", "4"], 4, 6, "# family: complete n=4"),
    (["gen", "spider", "--legs", "3", "--len", "2"], 7, 6, "# family: spider legs=3 len=2"),
    (["gen", "rtree", "--n", "9", "--seed", "4"], 9, 8, "# family: rtree n=9 seed=4"),
]


class TestGen:
    @pytest.mark.parametrize(
        "argv,n,m,header",
        GEN_CASES,
        # ids name the case by index and size only, not by the header text
        ids=[f"argv{i}-{n}-{m}" for i, (_, n, m, _) in enumerate(GEN_CASES)],
    )
    def test_families_emit_parseable_graphs(self, capsys, argv, n, m, header):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == header
        g = parse_graph(out)
        assert (g.n, g.edge_count) == (n, m)

    def test_pipe_composition(self, capsys, monkeypatch):
        main(["gen", "hdelta", "--delta", "9"])
        generated = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(generated))
        code, out, _ = run(capsys, "gamma", "-")
        assert code == 0 and "gamma_p = 2" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "gen", "path", "--n", "3", "--json")
        assert json.loads(out) == {"n": 3, "m": 2, "edges": [[0, 1], [1, 2]]}

    def test_vertex_cap_exits_1(self, capsys):
        code, out, err = run(capsys, "gen", "path", "--n", "100000")
        assert code == 1 and out == "" and "exceeds the limit" in err


class TestTrail:
    def test_human(self, capsys, p4_file):
        code, out, _ = run(capsys, "trail", "--set", "1", "--vertex", "3", p4_file)
        assert code == 0
        assert "trail: 0 1 2 3" in out

    def test_json(self, capsys, p4_file):
        code, out, _ = run(capsys, "trail", "--set", "1", "--vertex", "3", p4_file, "--json")
        data = json.loads(out)
        assert data["vertices"] == [0, 1, 2, 3]
        assert data["time_label"] == 2

    def test_precondition_failure_is_usage_error(self, capsys, p4_file):
        code, _, err = run(capsys, "trail", "--set", "0", "--vertex", "3", p4_file)
        assert code == 1 and "degree" in err


class TestVerifyTree:
    def test_p4(self, capsys, p4_file):
        code, out, _ = run(capsys, "verify-tree", p4_file)
        assert code == 0 and "ppt <= diam-1 holds" in out

    def test_json(self, capsys, p4_file):
        code, out, _ = run(capsys, "verify-tree", p4_file, "--json")
        data = json.loads(out)
        assert data["ppt_repaired"] + 1 <= data["diam"]

    def test_non_tree_exit_one(self, capsys, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
        code, _, err = run(capsys, "verify-tree", str(path))
        assert code == 1 and "tree" in err


class TestDemo:
    def test_table_threshold(self, capsys):
        code, out, _ = run(capsys, "demo", "--from", "3", "--to", "9")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("delta")]
        verdicts = [l.split()[-1] for l in lines]
        assert verdicts == ["consistent"] * 6 + ["REFUTES"]

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "demo", "--from", "8", "--to", "9", "--json")
        rows = json.loads(out)
        assert rows[0]["refuted_bound"] == {"num": 65, "den": 33}
        assert rows[0]["refutation_flag"] is False
        assert rows[1]["refuted_bound"] == {"num": 82, "den": 37}
        assert rows[1]["refutation_flag"] is True

    def test_demo_function_modes(self):
        rows = counterexample_demo(12, 13)
        assert [r["gamma_mode"] for r in rows] == ["exact", "certified"]
        assert all(r["gamma_p"] == 2 for r in rows)

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "demo", "--from", "2", "--to", "4")
        assert code == 1 and "3 <= from" in err

    @pytest.mark.parametrize("first", ["3", "300"])
    def test_vertex_cap_exits_1(self, capsys, first):
        # H_300 has 90,001 vertices; no row is solved before the refusal
        code, out, err = run(capsys, "demo", "--from", first, "--to", "300")
        assert code == 1 and out == "" and "exceeds the limit" in err


class TestExitCodes:
    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nonsense\n")
        code, _, err = run(capsys, "gamma", str(path))
        assert code == 1 and "header" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "gamma", "/definitely/not/here.txt")
        assert code == 1 and err

    def test_budget_exit_two(self, capsys, h9_file):
        code, _, err = run(capsys, "gamma", h9_file, "--limit", "10")
        assert code == 2 and "work limit" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out
