import pytest

from chordalg import (
    gen_caterpillar, gen_chordal, gen_interval, gen_path, gen_spider,
    is_chordal, omega_oracle,
)
from chordalg.fileio import graph_to_text
from chordalg.intervals import _component_strips


def test_path_edges():
    g = gen_path(4)
    assert sorted(g.edges()) == [(1, 2), (2, 3), (3, 4)]


def test_spider_shape():
    g = gen_spider(3, 10)
    assert len(g) == 31
    assert sum(1 for v in g.nodes if g.degree(v) == 3) == 1


def test_caterpillar_is_chordal_tree():
    g = gen_caterpillar(6, 2)
    assert len(g) == 6 + 12 and g.num_edges == len(g) - 1
    assert is_chordal(g)


def test_chordal_generator_always_chordal():
    g = gen_chordal(50, seed=9, max_clique=5)
    assert is_chordal(g)
    assert omega_oracle(g) <= 5


def test_chordal_generator_deterministic():
    a = gen_chordal(80, seed=4, max_clique=6)
    b = gen_chordal(80, seed=4, max_clique=6)
    assert graph_to_text(a) == graph_to_text(b)
    c = gen_chordal(80, seed=5, max_clique=6)
    assert graph_to_text(a) != graph_to_text(c)


def test_interval_generator_deterministic():
    a = gen_interval(60, seed=2)
    b = gen_interval(60, seed=2)
    assert graph_to_text(a) == graph_to_text(b)


def test_interval_generator_is_interval():
    for seed in (2, 6, 13):
        _component_strips(gen_interval(30, seed=seed))


def test_chordal_generator_with_cliques_of_one_is_edgeless():
    g = gen_chordal(5, seed=3, max_clique=1)
    assert g.sorted_nodes() == [1, 2, 3, 4, 5]
    assert g.num_edges == 0 and omega_oracle(g) == 1


def test_single_node():
    g = gen_chordal(1, seed=3)
    assert len(g) == 1 and is_chordal(g) and omega_oracle(g) == 1


def test_bad_sizes():
    with pytest.raises(ValueError):
        gen_path(0)
    with pytest.raises(ValueError):
        gen_spider(0, 3)
    with pytest.raises(ValueError):
        gen_chordal(0, seed=1)
    with pytest.raises(ValueError):
        gen_interval(0, seed=1)
    with pytest.raises(ValueError):
        gen_caterpillar(0, 2)


def test_edge_list_format_frozen():
    g = gen_path(3)
    g.add_node(9)
    assert graph_to_text(g) == "n 4\nnode 9\n1 2\n2 3\n"
