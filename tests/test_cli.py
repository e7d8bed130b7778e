import csv
import os

import pytest

from chordalg.cli import main
from chordalg.fileio import (
    coloring_from_text, graph_from_text, graph_to_text, independent_set_from_text,
)
from chordalg import Graph, ParseError, gen_chordal


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CHORDALG_OUT", str(tmp_path))
    return tmp_path


def test_graph_file_roundtrip():
    g = gen_chordal(40, seed=2, max_clique=5)
    g.add_node(999)
    text = graph_to_text(g)
    back = graph_from_text(text)
    assert back.adj == g.adj
    assert "node 999" in text


def test_graph_file_parse_errors():
    with pytest.raises(ParseError):
        graph_from_text("1 2\n")
    with pytest.raises(ParseError):
        graph_from_text("n 3\n1 2\n")  # wrong node count
    with pytest.raises(ParseError):
        graph_from_text("n 2\n1 x\n")


@pytest.mark.parametrize("text", [
    "n 2 extra\n1 2\n",  # header with a third token
    "n 3\n1 2 3\n",  # edge line with a third token
    "n 2\nnode 1 2\nnode 2\n",  # node line with a third token
    "n 2\n1 2\n2 1\n",  # edge listed twice
    "n 1\nnode 1\nnode 1\n",  # node listed twice
    "n 2\nnode 1\n1 2\n",  # node line for a node that has an edge
])
def test_graph_file_rejects_extra_tokens_and_repeats(text):
    with pytest.raises(ParseError):
        graph_from_text(text)


@pytest.mark.parametrize("parse, text", [
    (coloring_from_text, "1 1\n2 1 3\n"),
    (coloring_from_text, "1 1\n2 1\n2 2\n"),
    (independent_set_from_text, "1 3\n"),
    (independent_set_from_text, "1\n3\n1\n"),
])
def test_solution_files_reject_extra_tokens_and_repeats(parse, text):
    with pytest.raises(ParseError):
        parse(text)


# `int` reads each of these numbers: `1_0` as 10, `+2` as 2, `-1` as -1,
# and the Arabic-Indic digit `\u0661` as 1
NOT_PLAIN = ["1_0", "+2", "-1", "\u0661"]


@pytest.mark.parametrize("token", NOT_PLAIN)
def test_graph_reader_takes_only_plain_decimal_numbers(token):
    for text in ("n %s\nnode 1\nnode 2\n" % token, "n 2\n%s 5\n" % token,
                 "n 2\n5 %s\n" % token, "n 1\nnode %s\n" % token):
        with pytest.raises(ParseError):
            graph_from_text(text)
    assert len(graph_from_text("n 2\n1 5\n")) == 2


@pytest.mark.parametrize("token", NOT_PLAIN)
def test_coloring_reader_takes_only_plain_decimal_numbers(token):
    for text in ("%s 3\n" % token, "3 %s\n" % token):
        with pytest.raises(ParseError, match="bad coloring line"):
            coloring_from_text(text)
    assert coloring_from_text("3 1\n") == {3: 1}


@pytest.mark.parametrize("token", NOT_PLAIN)
def test_independent_set_reader_takes_only_plain_decimal_numbers(token):
    with pytest.raises(ParseError, match="bad independent-set line"):
        independent_set_from_text("3\n%s\n" % token)
    assert independent_set_from_text(" 3 \n") == {3}


def test_verify_rejects_a_node_listed_twice(workdir):
    # the last line used to win, so this read as the legal coloring 1 1, 2 2
    (workdir / "p.el").write_text("n 2\n1 2\n")
    (workdir / "twice.sol").write_text("1 1\n2 1\n2 2\n")
    assert main(["verify", "p.el", "twice.sol"]) == 3
    (workdir / "twice.is").write_text("1\n1\n")
    assert main(["verify", "p.el", "twice.is", "--kind", "is"]) == 3
    (workdir / "p3.el").write_text("n 2\n1 2 3\n")
    assert main(["run", "mvc", "central", "p3.el", "--eps", "1.0"]) == 3


def test_gen_idempotent(workdir):
    assert main(["gen", "chordal", "60", "--seed", "21",
                 "--max-clique", "8", "--out", "a.el"]) == 0
    assert main(["gen", "chordal", "60", "--seed", "21",
                 "--max-clique", "8", "--out", "b.el"]) == 0
    assert (workdir / "a.el").read_bytes() == (workdir / "b.el").read_bytes()


def test_gen_path_file(workdir):
    assert main(["gen", "path", "10", "--out", "p.el"]) == 0
    g = graph_from_text((workdir / "p.el").read_text())
    assert g.num_edges == 9


def test_gen_without_out_writes_to_the_output_dir(workdir, monkeypatch, capsys):
    (workdir / "out").mkdir()
    monkeypatch.setenv("CHORDALG_OUT", str(workdir / "out"))
    assert main(["gen", "caterpillar", "--spine", "4", "--legs", "2"]) == 0
    path = workdir / "out" / "caterpillar-12-s0.el"
    assert capsys.readouterr().out == "wrote %s (12 nodes, 11 edges)\n" % path
    g = graph_from_text(path.read_text())
    assert sorted(g.degree(v) for v in range(1, 5)) == [3, 3, 4, 4]


def test_run_mvc_on_clique(workdir):
    # a K20: the coloring must use exactly 20 colors, ratio 1.0
    g = Graph()
    for u in range(1, 21):
        for v in range(u + 1, 21):
            g.add_edge(u, v)
    (workdir / "k20.el").write_text(graph_to_text(g))
    assert main(["run", "mvc", "central", "k20.el", "--eps", "0.5",
                 "--solution", "k20.sol", "--out", "report.csv"]) == 0
    colors = coloring_from_text((workdir / "k20.sol").read_text())
    assert len(set(colors.values())) == 20
    report = (workdir / "report.csv").read_text()
    assert "mvc,20," in report and ",1.0000," in report


def test_run_modes_agree(workdir):
    assert main(["gen", "chordal", "120", "--seed", "21",
                 "--max-clique", "6", "--out", "g.el"]) == 0
    assert main(["run", "mvc", "central", "g.el", "--eps", "0.5",
                 "--solution", "c.sol"]) == 0
    assert main(["run", "mvc", "local", "g.el", "--eps", "0.5",
                 "--solution", "l.sol"]) == 0
    assert (workdir / "c.sol").read_bytes() == (workdir / "l.sol").read_bytes()


def test_run_mis_and_verify(workdir):
    assert main(["gen", "chordal", "150", "--seed", "3",
                 "--max-clique", "6", "--out", "g.el"]) == 0
    assert main(["run", "mis", "central", "g.el", "--eps", "0.4",
                 "--solution", "m.sol"]) == 0
    members = independent_set_from_text((workdir / "m.sol").read_text())
    assert members
    assert main(["verify", "g.el", "m.sol", "--eps", "0.4"]) == 0


@pytest.mark.parametrize("kind,text", [("coloring", "\n1 1\n2 2\n3 1\n"),
                                       ("is", "\n  \n1\n3\n")])
def test_verify_auto_reads_the_first_line_that_is_not_blank(workdir, capsys, kind, text):
    # the readers skip blank lines, and so does the detection of the kind
    assert main(["gen", "path", "3", "--out", "p.el"]) == 0
    (workdir / "lead.sol").write_text(text)
    capsys.readouterr()
    assert main(["verify", "p.el", "lead.sol", "--kind", kind]) == 0
    expected = capsys.readouterr().out
    assert main(["verify", "p.el", "lead.sol"]) == 0
    assert capsys.readouterr().out == expected


def test_verify_catches_conflict(workdir):
    assert main(["gen", "path", "6", "--out", "p.el"]) == 0
    assert main(["run", "mvc", "central", "p.el", "--eps", "1.0",
                 "--solution", "p.sol"]) == 0
    colors = coloring_from_text((workdir / "p.sol").read_text())
    colors[2] = colors[1]  # inject one conflict on edge 1-2
    (workdir / "bad.sol").write_text(
        "".join("%d %d\n" % (v, colors[v]) for v in sorted(colors)))
    assert main(["verify", "p.el", "bad.sol"]) == 8


def test_verify_ratio_limit_at_eps_zero(workdir):
    # a 3-coloring of the path 1-2-3 has ratio 3 / 2 to omega = 2
    (workdir / "p3.el").write_text("n 3\n1 2\n2 3\n")
    (workdir / "three.sol").write_text("1 1\n2 2\n3 3\n")
    assert main(["verify", "p3.el", "three.sol"]) == 0
    assert main(["verify", "p3.el", "three.sol", "--eps", "0.5"]) == 0
    for eps in ("0", "0.1"):
        assert main(["verify", "p3.el", "three.sol", "--eps", eps]) == 8
    assert main(["verify", "p3.el", "three.sol", "--eps", "-0.1"]) == 6


def test_verify_rejects_an_eps_that_is_not_finite(workdir):
    # a legal 40-coloring has ratio 40 / 6 to omega = 6; nan would pass any
    # ratio, as ratio > 1 + nan is false
    assert main(["gen", "chordal", "40", "--seed", "1", "--out", "g.el"]) == 0
    (workdir / "c.sol").write_text("".join("%d %d\n" % (v, v) for v in range(1, 41)))
    assert main(["verify", "g.el", "c.sol"]) == 0
    assert main(["verify", "g.el", "c.sol", "--eps", "0.5"]) == 8
    for eps in ("nan", "inf"):
        assert main(["verify", "g.el", "c.sol", "--eps", eps]) == 6


@pytest.mark.parametrize("argv", [
    ["run", "mvc", "central", "g.el", "--eps", "2"],
    ["run", "mvc", "local", "g.el", "--eps", "2"],
    ["run", "mvc", "central", "g.el", "--eps", "inf"],
    ["run", "mvc", "local", "g.el", "--eps", "nan"],
    ["run", "mis", "central", "g.el", "--eps", "nan"],
    ["run", "mis-interval", "central", "i.el", "--eps", "nan"],
    ["bench", "mvc", "--sizes", "20", "--seeds", "1", "--eps", "2"],
    ["bench", "mis", "--sizes", "20", "--seeds", "1", "--eps", "nan"],
    ["run", "mis", "central", "g.el", "--eps", "1e-300"],
    ["run", "mis", "local", "g.el", "--eps", "1e-300"],
    ["run", "mis-interval", "local", "i.el", "--eps", "1e-300"],
])
def test_eps_out_of_range_is_a_bad_epsilon(workdir, capsys, argv):
    # each of these raised a traceback or was accepted before
    assert main(["gen", "chordal", "40", "--seed", "1", "--out", "g.el"]) == 0
    assert main(["gen", "interval", "40", "--seed", "1", "--out", "i.el"]) == 0
    capsys.readouterr()
    assert main(argv + ["--out", "bad.out"]) == 6
    assert capsys.readouterr().err.startswith("error: ")
    assert not (workdir / "bad.out").exists()


def test_empty_graph_with_nonpositive_eps(workdir):
    (workdir / "empty.el").write_text("n 0\n")
    for eps in ("0", "-0.5"):
        for mode in ("central", "local"):
            assert main(["run", "mvc", mode, "empty.el", "--eps", eps]) == 6


@pytest.mark.parametrize("family", [["path", "1"], ["chordal", "50", "--max-clique", "1"]],
                         ids=["one-node", "fifty-isolated"])
def test_mvc_on_an_edgeless_graph(workdir, family):
    # omega = 1 asks for no eps >= 2/omega; the palette is 1 in both modes
    assert main(["gen", *family, "--out", "g.el"]) == 0
    for eps in ("0.01", "0.5", "1", "1.5", "1.99"):
        for mode in ("central", "local"):
            assert main(["run", "mvc", mode, "g.el", "--eps", eps,
                         "--solution", mode + ".sol", "--out", "r.csv"]) == 0
        assert (workdir / "central.sol").read_text() == (workdir / "local.sol").read_text()
    with open(workdir / "r.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert {(row["result"], row["oracle"]) for row in rows} == {("1", "1")}


@pytest.mark.parametrize("algorithm,mode", [
    ("mis", "central"), ("mis", "local"), ("mis-interval", "local"), ("mvc", "local"),
])
def test_empty_graph_ratio_is_one(workdir, capsys, algorithm, mode):
    # alpha = omega = 0: the empty solution is optimal; an empty coloring
    # file reads as an independent set under --kind auto
    (workdir / "e.el").write_text("n 0\n")
    assert main(["run", algorithm, mode, "e.el", "--eps", "0.4",
                 "--solution", "e.sol", "--out", "e.csv"]) == 0
    with open(workdir / "e.csv") as fh:
        assert [row["ratio"] for row in csv.DictReader(fh)] == ["1.0000"]
    capsys.readouterr()
    assert main(["verify", "e.el", "e.sol", "--eps", "0.4"]) == 0
    assert "ratio=1.0000" in capsys.readouterr().out


def test_exit_codes(workdir, capsys):
    # not chordal
    (workdir / "c4.el").write_text("n 4\n1 2\n1 4\n2 3\n3 4\n")
    assert main(["run", "mvc", "central", "c4.el", "--eps", "0.5"]) == 4
    # not interval (subdivided three-leg star)
    from chordalg import gen_spider
    (workdir / "spider.el").write_text(graph_to_text(gen_spider(3, 2)))
    assert main(["run", "mis-interval", "central", "spider.el", "--eps", "0.4"]) == 5
    # both faults: the epsilon is checked first, as in the library
    for mode in ("central", "local"):
        assert main(["run", "mis-interval", mode, "spider.el", "--eps", "1.5"]) == 6
    # epsilon below 2/omega
    (workdir / "k4.el").write_text("n 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    assert main(["run", "mvc", "central", "k4.el", "--eps", "0.3"]) == 6
    assert main(["run", "mis", "central", "k4.el", "--eps", "0.7"]) == 6
    # parse failure
    (workdir / "junk.el").write_text("hello\n")
    assert main(["run", "mvc", "central", "junk.el", "--eps", "0.5"]) == 3
    # missing file
    assert main(["run", "mvc", "central", "nope.el", "--eps", "0.5"]) == 3
    # bad usage
    assert main(["run", "mvc"]) == 2
    # generator arguments out of range, bad bench sizes
    for argv in (["gen", "chordal", "0"], ["gen", "chordal", "20", "--max-clique", "0"],
                 ["gen", "spider", "--legs", "0"], ["bench", "mis", "--sizes", "0"],
                 ["bench", "mvc", "--sizes", "12,x"]):
        assert main(argv + ["--out", "bad.out"]) == 2, argv
    assert not (workdir / "bad.out").exists()
    # a central run has no transcript to write
    (workdir / "p.el").write_text(graph_to_text(Graph([(1, 2), (2, 3)])))
    for algorithm in ("mvc", "mis"):
        assert main(["run", algorithm, "central", "p.el", "--eps", "0.5",
                     "--transcript", "t.log", "--solution", "p.sol",
                     "--out", "bad.out"]) == 2
    # an independent set naming a node outside the graph
    (workdir / "stray.sol").write_text("1\n99\n")
    capsys.readouterr()
    assert main(["verify", "p.el", "stray.sol", "--kind", "is"]) == 8
    assert "node 99 is not in the graph" in capsys.readouterr().err
    # a coloring that misses a node, and a set that is not independent
    (workdir / "part.sol").write_text("1 1\n2 2\n")
    assert main(["verify", "p.el", "part.sol"]) == 8
    (workdir / "dep.sol").write_text("1\n2\n")
    assert main(["verify", "p.el", "dep.sol", "--kind", "is"]) == 8
    # an empty independent set of a graph with alpha > 0 has ratio inf
    (workdir / "none.sol").write_text("")
    assert main(["verify", "p.el", "none.sol", "--kind", "is", "--eps", "0.4"]) == 8
    # no epsilon of the coloring bench is positive
    for eps in ("0", "-1"):
        assert main(["bench", "mvc", "--sizes", "20", "--seeds", "1",
                     "--eps", eps, "--out", "bad.out"]) == 6
    assert not any((workdir / f).exists() for f in ("t.log", "p.sol", "bad.out"))


def test_arrangement_cap_is_not_reported_as_a_proof(workdir, capsys, monkeypatch):
    # the star K1,5 is interval, but its canonical forest branches, so its
    # clique order is searched for; a tiny cap stops that search
    from chordalg import intervals
    (workdir / "star.el").write_text(graph_to_text(Graph([(1, v) for v in range(2, 7)])))
    assert main(["run", "mis-interval", "central", "star.el", "--eps", "0.4"]) == 0
    monkeypatch.setattr(intervals, "ARRANGE_CAP", 2)
    capsys.readouterr()
    assert main(["run", "mis-interval", "central", "star.el", "--eps", "0.4"]) == 5
    err = capsys.readouterr().err
    assert "cap of 2 steps" in err and "may still be interval" in err


def test_bench_emits_rows_and_slope(workdir, capsys):
    assert main(["bench", "mvc", "--sizes", "40,80", "--eps", "0.5",
                 "--seeds", "2", "--max-clique", "6", "--out", "bench.csv"]) == 0
    out = capsys.readouterr().out
    assert "# slope rounds-vs-log2n" in out
    text = (workdir / "bench.csv").read_text()
    assert text.startswith("algorithm,")
    assert "# slope" in text


def test_bench_mis_emits_rows_and_slope(workdir, capsys):
    assert main(["bench", "mis", "--sizes", "20,40", "--eps", "0.4",
                 "--seeds", "2", "--max-clique", "4"]) == 0
    *rows, summary = capsys.readouterr().out.splitlines()
    table = list(csv.DictReader(rows))
    assert [(r["algorithm"], r["n"]) for r in table] == [
        ("mis", "20"), ("mis", "20"), ("mis", "40"), ("mis", "40")]
    assert all(float(r["ratio"]) <= 1.4 for r in table)
    assert summary.startswith("# slope rounds-vs-n ") and summary.endswith(" over 4 runs")


@pytest.mark.parametrize("suite,eps", [("mvc", "0.5"), ("mis", "0.4")])
def test_bench_default_eps_is_valid_per_suite(workdir, capsys, suite, eps):
    # without --eps each suite runs at its own default, inside its range
    assert main(["bench", suite, "--sizes", "20", "--seeds", "1"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()[:-1]))
    assert [r["eps"] for r in rows] == [eps]


@pytest.mark.parametrize("eps,seeds", [("0.1", "1"), ("0.5", "0")])
def test_bench_without_a_qualifying_instance(workdir, capsys, eps, seeds):
    # eps 0.1 is below 2 / omega on every instance, and no seed runs none
    assert main(["bench", "mvc", "--sizes", "40", "--eps", eps,
                 "--seeds", seeds]) == 0
    out = capsys.readouterr().out
    assert out.startswith("algorithm,")
    assert out.endswith("# slope rounds-vs-log2n 0.0000 over 0 runs\n")


def test_bench_mvc_on_edgeless_graphs(workdir, capsys):
    assert main(["bench", "mvc", "--sizes", "16,32", "--max-clique", "1",
                 "--seeds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "# slope rounds-vs-log2n 0.0000 over 4 runs"
    assert [row.split(",")[4:7] for row in lines[1:-1]] == [["1", "1", "1.0000"]] * 4


def test_bench_mvc_searches_each_instance_once(workdir, capsys, monkeypatch):
    # the pipeline's forest gives omega and the 2/omega skip; no oracle runs
    from chordalg import graphs
    real = graphs.mcs_order
    calls = []
    monkeypatch.setattr(graphs, "mcs_order", lambda h: calls.append(len(h)) or real(h))
    assert main(["bench", "mvc", "--sizes", "20,40", "--seeds", "2"]) == 0
    assert calls == [20, 20, 40, 40]
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()[:-1]))
    assert [int(row["oracle"]) for row in rows] == [
        graphs.omega_oracle(gen_chordal(n, seed, 6)) for n in (20, 40) for seed in (0, 1)]
    # a skipped instance is searched once too
    calls.clear()
    assert main(["bench", "mvc", "--sizes", "40", "--seeds", "1", "--eps", "0.1"]) == 0
    assert calls == [40]


def test_run_mis_interval_local(workdir):
    assert main(["gen", "interval", "80", "--seed", "6", "--out", "i.el"]) == 0
    assert main(["run", "mis-interval", "local", "i.el", "--eps", "0.4",
                 "--solution", "i.sol", "--out", "r.csv"]) == 0
    text = (workdir / "r.csv").read_text()
    row = text.splitlines()[1]
    assert row.split(",")[7] != ""  # rounds recorded for the local mode


@pytest.mark.parametrize("algorithm", ["mvc", "mis"])
def test_run_local_writes_its_transcript(workdir, algorithm):
    assert main(["gen", "chordal", "60", "--seed", "3", "--max-clique", "6",
                 "--out", "g.el"]) == 0
    assert main(["run", algorithm, "local", "g.el", "--eps", "0.4",
                 "--transcript", "t.log", "--out", "r.csv"]) == 0
    rounds = (workdir / "r.csv").read_text().splitlines()[1].split(",")[7]
    first = (workdir / "t.log").read_text().splitlines()[0]
    assert first == "rounds %d" % int(rounds)


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_round_cap_below_one_is_a_bad_spec(workdir, capsys, cap):
    assert main(["gen", "path", "6", "--out", "p.el"]) == 0
    for algorithm in ("mvc", "mis"):
        assert main(["run", algorithm, "local", "p.el", "--eps", "0.4",
                     "--round-cap", cap]) == 2
    assert main(["bench", "mis", "--sizes", "20", "--seeds", "1",
                 "--round-cap", cap]) == 2
    assert "--round-cap must be at least 1" in capsys.readouterr().err
