"""Command line behavior: output shapes, exit codes, stdin, piping."""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerdom.cli import _build_parser, counterexample_demo, main
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

    def test_huge_l(self, capsys, p4_file):
        code, out, _ = run(capsys, "lround", "--l", "1000000000", p4_file)
        assert code == 0 and "= 1" in out

    def test_l_past_sys_maxsize(self, capsys, monkeypatch):
        # powerdom gen path --n 5 | powerdom lround --l 99999999999999999999 -
        assert main(["gen", "path", "--n", "5"]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
        code, out, _ = run(capsys, "lround", "--l", "99999999999999999999", "-")
        assert code == 0 and "= 1" in out


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

    def test_edge_cap_exits_1(self, capsys):
        # K_65536 is under the vertex cap but would have 2.1e9 edges
        code, out, err = run(capsys, "gen", "complete", "--n", "65536")
        assert code == 1 and out == "" and "edge count 2147450880 exceeds" in err


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

    def test_long_path(self, capsys, tmp_path):
        path = tmp_path / "p3000.txt"
        path.write_text(write_graph(gen_path(3000)))
        code, out, _ = run(capsys, "trail", "--set", "1", "--vertex", "2999", str(path))
        assert code == 0 and "length 2999" in out

    @pytest.mark.parametrize("vertex", ["9", "-1", "4"])
    def test_out_of_range_vertex_exits_1(self, capsys, p4_file, vertex):
        code, out, err = run(capsys, "trail", "--set", "1", f"--vertex={vertex}", p4_file)
        assert code == 1 and out == ""
        assert err == f"powerdom: vertex {vertex} out of range for n=4\n"


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

    def test_limit_reaches_the_search(self, capsys, monkeypatch):
        main(["gen", "rtree", "--n", "14", "--seed", "3"])
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
        code, out, err = run(capsys, "verify-tree", "--limit", "3", "-")
        assert code == 2 and out == "" and "work limit of 3 exceeded" in err

    # two sparse pool trees whose original set holds leaves; the strings were
    # recorded when the certificate was read off the list of every minimum PDS
    PINNED = {
        "tree-11-1": (
            "ppt = 3, diam = 6: ppt <= diam-1 holds\n"
            "witness set [3, 8] (repaired from [0, 8])\n"
            "witness path: 5 8 4 10 2\n",
            {
                "original_set": [0, 8],
                "repaired_set": [3, 8],
                "ppt_original": 3,
                "ppt_repaired": 3,
                "diam": 6,
                "witness_trail": {"vertices": [5, 8, 4, 10, 2], "edge_labels": [1, 1, 2, 3], "length": 4},
            },
        ),
        "tree-11-15": (
            "ppt = 2, diam = 4: ppt <= diam-1 holds\n"
            "witness set [5, 8, 10] (repaired from [0, 4, 10])\n"
            "witness path: 0 5 7 2\n",
            {
                "original_set": [0, 4, 10],
                "repaired_set": [5, 8, 10],
                "ppt_original": 2,
                "ppt_repaired": 2,
                "diam": 4,
                "witness_trail": {"vertices": [0, 5, 7, 2], "edge_labels": [1, 1, 2], "length": 3},
            },
        ),
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_pinned_output_on_pool_trees(self, capsys, tmp_path, perfbench_sparse, key):
        workloads, _ = perfbench_sparse
        _, n, i = key.split("-")
        path = tmp_path / f"{key}.txt"
        path.write_text(write_graph(workloads.pool_graph("tree", int(n), int(i))))
        text, payload = self.PINNED[key]
        assert run(capsys, "verify-tree", str(path)) == (0, text, "")
        # byte for byte: main prints json.dumps(payload, indent=2)
        assert run(capsys, "verify-tree", str(path), "--json") == (
            0,
            json.dumps(payload, indent=2) + "\n",
            "",
        )


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

    def test_certified_rows_refute_singletons_through_forts(self, kernel_runs):
        rows = counterexample_demo(13, 16)
        assert [r["gamma_mode"] for r in rows] == ["certified"] * 4
        # one run per singleton, 850 in all, without the fort pool
        assert len(kernel_runs) < 100

    def test_exact_rows_stop_at_the_first_hit(self, kernel_runs):
        rows = counterexample_demo(3, 16)
        assert [r["gamma_p"] for r in rows] == [2] * 14
        # listing and running every minimum PDS through delta = 12 took 1,105
        assert len(kernel_runs) < 300

    def test_limit_reaches_the_certified_rows(self, capsys):
        # the search over representatives charges one unit per node, 42 on H_13
        code, out, err = run(capsys, "demo", "--from", "13", "--to", "13", "--limit", "41")
        assert code == 2 and out == "" and "work limit" in err
        code, out, err = run(capsys, "demo", "--from", "13", "--to", "13", "--limit", "42")
        assert code == 0 and "certified" in out and err == ""

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
        for limit in ("10", "0"):
            code, _, err = run(capsys, "gamma", h9_file, "--limit", limit)
            assert code == 2 and "work limit" in err

    @pytest.mark.parametrize("limit", ["-5", "ten"])
    def test_bad_limit_is_a_usage_error(self, capsys, h9_file, limit):
        code, out, err = run(capsys, "gamma", "--limit", limit, h9_file)
        assert code == 1 and out == "" and err.startswith("usage: powerdom gamma")
        assert f"work limit must be a non-negative integer, got {limit!r}" in err

    @pytest.mark.parametrize(
        "argv,expect",
        [
            (
                ["gamma", "--help"],
                (
                    0,
                    "usage: powerdom gamma [-h] [--json] [--limit N] graph\n\n"
                    "positional arguments:\n"
                    "  graph       graph file, or - for stdin\n\n"
                    "options:\n"
                    "  -h, --help  show this help message and exit\n"
                    "  --json      emit JSON\n"
                    "  --limit N   solver work cap in search nodes\n",
                    "",
                ),
            ),
            (
                ["gamma"],
                (
                    1,
                    "",
                    "usage: powerdom gamma [-h] [--json] [--limit N] graph\n"
                    "powerdom gamma: error: the following arguments are required: graph\n",
                ),
            ),
            (
                ["gen", "path", "--n", "4"],
                (0, "# family: path n=4\n4 3\n0 1\n1 2\n2 3\n", ""),
            ),
        ],
        ids=["help", "usage-error", "gen"],
    )
    def test_parser_built_once_gives_the_same_bytes(self, capsys, monkeypatch, argv, expect):
        monkeypatch.setenv("COLUMNS", "80")
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first == expect
        assert _build_parser() is _build_parser()

    def test_top_level_help_matches_a_fresh_parser(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        expect = _build_parser.__wrapped__().format_help()
        assert run(capsys, "--help") == run(capsys, "--help") == (0, expect, "")
        assert "verify-tree" in expect and "demo       counterexample family report" in expect

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["propagate", "--set=--", "-"],
            ["trail", "--set=1", "--vertex=--", "-"],
            ["gen", "path", "--n=--"],
        ],
        ids=["set", "vertex", "gen"],
    )
    def test_option_value_double_dash(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "cannot be '--'" in err

    def test_gen_json_goes_after_the_family(self, capsys):
        code, out, err = run(capsys, "gen", "--json", "path", "--n", "3")
        assert code == 1 and out == "" and "unrecognized arguments: --json" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "path", "--n", "3"],
            ["propagate", "--set", "1", "-"],
            ["trail", "--set", "1", "--vertex", "3", "-"],
        ],
        ids=["gen", "propagate", "trail"],
    )
    def test_limit_only_where_a_search_runs(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("sys.stdin", io.StringIO(write_graph(gen_path(4))))
        code, out, err = run(capsys, *argv, "--limit=5")
        assert code == 1 and out == "" and "unrecognized arguments: --limit=5" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out


def _graph_texts():
    """Valid small graphs, and short texts that are mostly not graphs."""
    valid = st.integers(min_value=0, max_value=6).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=10,
        ).map(lambda edges: f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    )
    junk = st.text(alphabet="0123456789 -#x\n", max_size=24)
    return st.one_of(valid, junk)


_ID = st.one_of(
    st.integers(min_value=-3, max_value=9).map(str),
    st.sampled_from(["", " ", "x", "1.5", "-", "--", "0x1", "99999999999999999999"]),
)
_ID_LIST = st.one_of(
    st.lists(st.integers(min_value=-3, max_value=9), max_size=3).map(
        lambda ids: ",".join(map(str, ids))
    ),
    _ID,
    st.text(alphabet="0123456789, -x", max_size=8),
)


# each family's parameters; values in -3..40 keep every graph small
_GEN_PARAMS = {
    "hdelta": ("delta",),
    "path": ("n",),
    "cycle": ("n",),
    "star": ("k",),
    "complete": ("n",),
    "spider": ("legs", "len"),
    "rtree": ("n", "seed"),
}
_PARAM = st.one_of(
    st.integers(min_value=-3, max_value=40).map(str),
    st.sampled_from(["", "x", "1.5", "--", "99999999999999999999"]),
)


def _run_quiet(argv, text):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            return main(argv)
    finally:
        sys.stdin = saved


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        text=_graph_texts(),
        command=st.sampled_from(["propagate", "trail"]),
        ids=_ID_LIST,
        vertex=_ID,
        as_json=st.booleans(),
    )
    def test_trace_commands_exit_0_or_1(self, text, command, ids, vertex, as_json):
        argv = [command, f"--set={ids}", "-"]
        if command == "trail":
            argv.append(f"--vertex={vertex}")
        if as_json:
            argv.append("--json")
        assert _run_quiet(argv, text) in (0, 1)

    @settings(max_examples=300, deadline=None)
    @given(
        text=_graph_texts(),
        command=st.sampled_from(["gamma", "ppt", "lround", "bounds", "verify-tree"]),
        rounds=_ID,
        as_json=st.booleans(),
    )
    def test_graph_commands_exit_0_1_or_2(self, text, command, rounds, as_json):
        # the small limit makes every example end; running out of it is exit 2
        argv = [command, "--limit=200", "-"]
        if command == "lround":
            argv.append(f"--l={rounds}")
        if as_json:
            argv.append("--json")
        assert _run_quiet(argv, text) in (0, 1, 2)

    @settings(max_examples=200, deadline=None)
    @given(
        family=st.sampled_from(sorted(_GEN_PARAMS)),
        values=st.lists(_PARAM, min_size=2, max_size=2),
        drop=st.booleans(),
        as_json=st.booleans(),
    )
    def test_gen_exits_0_or_1(self, family, values, drop, as_json):
        names = _GEN_PARAMS[family]
        argv = ["gen", family] + [f"--{k}={v}" for k, v in zip(names, values)]
        if drop:
            argv.pop()
        if as_json:
            argv.append("--json")
        assert _run_quiet(argv, "") in (0, 1)

    @settings(max_examples=100, deadline=None)
    @given(
        lo=st.integers(min_value=-2, max_value=8),
        hi=st.integers(min_value=-2, max_value=8),
        as_json=st.booleans(),
    )
    def test_demo_exits_0_or_1(self, lo, hi, as_json):
        argv = ["demo", f"--from={lo}", f"--to={hi}"]
        if as_json:
            argv.append("--json")
        assert _run_quiet(argv, "") in (0, 1)
