import random
from collections import Counter

import pytest

from conftest import make_chain, make_star, random_tree
from tabletriples.errors import EmptyTreeError
from tabletriples.rng import derive_rng
from tabletriples.sampling import SamplerConfig, sample_component, sample_for_table
from tabletriples.tables import ROOT, OntologyTree


def fixed(size: int, p: float, seed: int = 0) -> SamplerConfig:
    return SamplerConfig(size_min=size, size_max=size, p_min=p, p_max=p, seed=seed)


def parent_closed(tree: OntologyTree, nodes: frozenset) -> bool:
    """Every member's parent is a member or the root: the component plus the
    root induces a connected subtree."""
    return all(tree.parent[n] in nodes or tree.parent[n] == ROOT for n in nodes)


def test_chain_dfs_when_p_is_one():
    tree = make_chain(4)
    comp = sample_component(tree, fixed(3, 1.0), random.Random(5))
    assert comp.node_ids == frozenset({0, 1, 2})


def test_star_bfs_when_p_is_zero():
    tree = make_star(3)
    comp = sample_component(tree, fixed(3, 0.0), random.Random(5))
    assert comp.node_ids == frozenset({0, 1, 2})


def test_chain_descends_even_at_p_zero():
    # no siblings exist anywhere on a chain, so growth must fall back to children
    tree = make_chain(4)
    comp = sample_component(tree, fixed(3, 0.0), random.Random(5))
    assert comp.size == 3


def test_small_tree_clamps_to_everything():
    tree = make_chain(2)
    config = SamplerConfig(size_min=2, size_max=5, p_min=0.5, p_max=0.7, seed=0)
    comp = sample_component(tree, config, random.Random(1))
    assert comp.node_ids == frozenset({0, 1})
    assert comp.size == 2


def test_empty_tree_raises():
    tree = OntologyTree(column_nodes={}, parent={})
    with pytest.raises(EmptyTreeError):
        sample_component(tree, fixed(2, 0.5), random.Random(1))


def test_component_records_draws():
    tree = make_chain(6)
    comp = sample_component(tree, SamplerConfig(seed=0), random.Random(3))
    assert 2 <= comp.target_size <= 5
    assert 0.5 <= comp.p_used <= 0.7
    assert comp.size == min(comp.target_size, 6)


def test_determinism_same_stream_position():
    tree = random_tree(random.Random(42), 12)
    config = SamplerConfig(seed=7)
    a = sample_component(tree, config, random.Random(99))
    b = sample_component(tree, config, random.Random(99))
    assert a == b


def test_per_table_streams_independent_of_other_tables():
    tree = random_tree(random.Random(8), 10)
    config = SamplerConfig(seed=21)
    alone = sample_for_table(tree, "tbl-a", [0, 1, 2], config)
    again = sample_for_table(tree, "tbl-a", [0, 1, 2], config)
    assert alone == again
    other = sample_for_table(tree, "tbl-b", [0, 1, 2], config)
    assert other != alone  # different table id, different stream


def test_connectivity_and_clamping_over_random_trees():
    gen = random.Random(2024)
    checked = 0
    for _ in range(150):
        n = gen.randrange(1, 25)
        tree = random_tree(gen, n)
        non_root = len(tree.nodes()) - 1
        for draw in range(14):
            config = SamplerConfig(
                size_min=gen.randrange(1, 4),
                size_max=gen.randrange(4, 9),
                p_min=0.0,
                p_max=1.0,
                seed=0,
            )
            comp = sample_component(tree, config, random.Random(gen.randrange(10**9)))
            assert parent_closed(tree, comp.node_ids)
            assert comp.size == min(comp.target_size, non_root)
            checked += 1
    assert checked == 150 * 14


def test_chain_depth_equals_size_when_p_is_one():
    tree = make_chain(6)
    for target in range(2, 6):
        for seed in range(20):
            comp = sample_component(tree, fixed(target, 1.0), random.Random(seed))
            depths = [tree.depth_of(n) for n in comp.node_ids]
            assert max(depths) == comp.size
            assert comp.node_ids == frozenset(range(target))


def test_star_yields_sibling_sets_when_p_is_zero():
    tree = make_star(9)
    for target in range(2, 6):
        for seed in range(20):
            comp = sample_component(tree, fixed(target, 0.0), random.Random(seed))
            assert comp.size == target
            assert all(tree.parent[n] == ROOT for n in comp.node_ids)


def test_target_size_coverage():
    """Every size in [2, 5] occurs; loose chi-squared sanity on uniformity."""
    tree = random_tree(random.Random(11), 20)
    config = SamplerConfig(seed=33)
    stream = derive_rng(33, "coverage")
    counts = Counter(
        sample_component(tree, config, stream).target_size for _ in range(2000)
    )
    assert set(counts) == {2, 3, 4, 5}
    expected = 2000 / 4
    chi2 = sum((counts[k] - expected) ** 2 / expected for k in counts)
    assert chi2 < 16.27  # df=3 critical value at p=0.001


def test_start_node_is_a_root_child():
    tree = random_tree(random.Random(3), 15)
    top = set(tree.children_of(ROOT))
    stream = random.Random(17)
    for _ in range(50):
        comp = sample_component(tree, fixed(1, 0.5), stream)
        (only,) = comp.node_ids
        assert only in top


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(size_min=0)
    with pytest.raises(ValueError):
        SamplerConfig(size_min=4, size_max=2)
    with pytest.raises(ValueError):
        SamplerConfig(p_min=0.8, p_max=0.2)
    with pytest.raises(ValueError):
        SamplerConfig(p_max=1.5)
