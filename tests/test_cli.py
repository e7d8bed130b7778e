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


def test_empty_graph_with_nonpositive_eps(workdir):
    (workdir / "empty.el").write_text("n 0\n")
    for eps in ("0", "-0.5"):
        for mode in ("central", "local"):
            assert main(["run", "mvc", mode, "empty.el", "--eps", eps]) == 6


def test_exit_codes(workdir):
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


@pytest.mark.parametrize("eps,seeds", [("0.1", "1"), ("0.5", "0")])
def test_bench_without_a_qualifying_instance(workdir, capsys, eps, seeds):
    # eps 0.1 is below 2 / omega on every instance, and no seed runs none
    assert main(["bench", "mvc", "--sizes", "40", "--eps", eps,
                 "--seeds", seeds]) == 0
    out = capsys.readouterr().out
    assert out.startswith("algorithm,")
    assert out.endswith("# slope rounds-vs-log2n 0.0000 over 0 runs\n")


def test_run_mis_interval_local(workdir):
    assert main(["gen", "interval", "80", "--seed", "6", "--out", "i.el"]) == 0
    assert main(["run", "mis-interval", "local", "i.el", "--eps", "0.4",
                 "--solution", "i.sol", "--out", "r.csv"]) == 0
    text = (workdir / "r.csv").read_text()
    row = text.splitlines()[1]
    assert row.split(",")[7] != ""  # rounds recorded for the local mode


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_round_cap_below_one_is_a_bad_spec(workdir, capsys, cap):
    assert main(["gen", "path", "6", "--out", "p.el"]) == 0
    for algorithm in ("mvc", "mis"):
        assert main(["run", algorithm, "local", "p.el", "--eps", "0.4",
                     "--round-cap", cap]) == 2
    assert main(["bench", "mis", "--sizes", "20", "--seeds", "1",
                 "--round-cap", cap]) == 2
    assert "--round-cap must be at least 1" in capsys.readouterr().err
