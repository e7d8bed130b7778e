"""Tests of the long_paths workload generator.

    python3 -m pytest perfbench/test_longpaths.py -q
"""

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from chordalg.fileio import graph_to_text  # noqa: E402
from chordalg.graphs import is_chordal, omega_oracle  # noqa: E402
from longpaths import gen_long_paths  # noqa: E402

# sha256 of graph_to_text(gen_long_paths(300, 7, 8)); the workload's inputs
# must not change under a later change to the benchmark or the library
PINNED_300_7 = "dd380497bd8a528d76fd6f7b9850ba00e210b4a44f6d43775703b2bdf2f08c53"


@pytest.mark.parametrize("n,seed", [(1, 0), (50, 3), (4096, 1)])
def test_same_arguments_give_identical_edge_list(n, seed):
    assert graph_to_text(gen_long_paths(n, seed)) == graph_to_text(gen_long_paths(n, seed))


@pytest.mark.parametrize("seed", range(6))
def test_chordal_connected_and_clique_bounded(seed):
    g = gen_long_paths(1500, seed, max_clique=8)
    assert len(g) == 1500
    assert is_chordal(g)
    assert len(g.connected_components()) == 1
    assert omega_oracle(g) <= 8


def test_seeds_differ():
    assert graph_to_text(gen_long_paths(500, 0)) != graph_to_text(gen_long_paths(500, 1))


def test_pinned_instance():
    text = graph_to_text(gen_long_paths(300, 7, 8))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_300_7


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gen_long_paths(0, 1)
    with pytest.raises(ValueError):
        gen_long_paths(10, 1, max_clique=1)
