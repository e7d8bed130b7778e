"""`tools/ab_calls.py` on tiny graphs: the working tree against itself."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_calls", ROOT / "tools" / "ab_calls.py")
ab_calls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_calls)


def test_working_tree_against_itself(capsys):
    argv = [str(ROOT), str(ROOT), "--nodes", "40", "--seeds", "2", "--rounds", "2"]
    assert ab_calls.main(argv) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert [row[:2] for row in rows] == [[w, c] for w in ab_calls.WORKLOADS
                                         for c in ab_calls.CALLS]
    for _w, _c, a, b, ratio, wins in rows:
        assert min(float(a), float(b), float(ratio)) > 0
        won, pairs = map(int, wins.split("/"))
        assert pairs == 4 and 0 <= won <= pairs


def test_trees_load_under_their_own_names(tmp_path):
    trees = [ab_calls.load_tree(str(ROOT), name, tmp_path) for name in ("ab_x", "ab_y")]
    assert trees[0].lib is not trees[1].lib
    assert [t.lib.graphs.__name__ for t in trees] == ["ab_x.graphs", "ab_y.graphs"]
    # each tree's long_paths generator builds that tree's graphs
    for t in trees:
        g = ab_calls.WORKLOADS["long_paths"].make(t, 30, 1000)
        assert type(g) is t.lib.graphs.Graph


def test_unequal_outputs_stop_the_run(tmp_path, monkeypatch):
    trees = [ab_calls.load_tree(str(ROOT), name, tmp_path) for name in ("ab_x", "ab_y")]
    pipeline = trees[1].lib.mvc.mvc_pipeline

    def recolored(g, eps):
        run = pipeline(g, eps)
        run.final_colors[min(run.final_colors)] += 1
        return run

    monkeypatch.setattr(trees[1].lib.mvc, "mvc_pipeline", recolored)
    with pytest.raises(SystemExit, match="mvc_central differs"):
        ab_calls.compare("random_trees", 1, 1, trees, nodes=30)
