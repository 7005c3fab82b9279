import random
from collections import Counter

import pytest

from conftest import make_chain, make_star, random_tree
from tabletriples.errors import CycleError, EmptyTreeError
from tabletriples.rng import choose, derive_rng, uniform_float, uniform_int
from tabletriples.sampling import Component, SamplerConfig, sample_component, sample_for_table
from tabletriples.tables import ROOT, TITLE, OntologyTree


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


# --- the walk against a reference -----------------------------------------
# The earlier walk, kept verbatim: it rebuilt each node's unvisited children
# and rotated siblings at every step, and resumed until nothing was left. The
# walk in ``sampling`` must grow the same components from the same draws.

def _unvisited_children(tree, node, visited):
    return [c for c in tree.children_of(node) if c not in visited]


def _unvisited_siblings(tree, node, visited):
    sibs = tree.children_of(tree.parent[node])
    i = sibs.index(node)
    rotated = sibs[i + 1 :] + sibs[:i]
    return [s for s in rotated if s not in visited]


def _resume_node(tree, current, visited, order):
    node = tree.parent.get(current)
    while node is not None and node != ROOT:
        if node in visited and _unvisited_children(tree, node, visited):
            return node
        node = tree.parent.get(node)
    for cand in reversed(order):
        if _unvisited_children(tree, cand, visited) or _unvisited_siblings(
            tree, cand, visited
        ):
            return cand
    return None


def reference_component(tree, config, rng):
    top = tree.children_of(ROOT)
    if not top:
        raise EmptyTreeError("tree has no nodes besides the root")

    target = uniform_int(rng, config.size_min, config.size_max)
    p = uniform_float(rng, config.p_min, config.p_max)
    start = choose(rng, top)

    visited = {start}
    order = [start]
    current = start

    while len(visited) < target:
        kids = _unvisited_children(tree, current, visited)
        sibs = _unvisited_siblings(tree, current, visited)
        if kids and sibs:
            descend = rng.random() < p
        elif kids:
            descend = True
        elif sibs:
            descend = False
        else:
            host = _resume_node(tree, current, visited, order)
            if host is None:
                break  # nothing reachable is left
            current = host
            continue
        if descend:
            nxt = kids[0] if len(kids) == 1 else kids[uniform_int(rng, 0, len(kids) - 1)]
        else:
            nxt = sibs[0]
        visited.add(nxt)
        order.append(nxt)
        current = nxt

    return Component(node_ids=frozenset(visited), p_used=p, target_size=target)


def title_as_sole_child(gen: random.Random, n: int) -> OntologyTree:
    """The title is the root's only child; every column hangs below it."""
    parent: dict = {TITLE: ROOT}
    for i in range(n):
        pool = [TITLE, *range(i)]
        parent[i] = pool[gen.randrange(len(pool))]
    return OntologyTree(column_nodes={i: f"c{i}" for i in range(n)}, parent=parent)


def unreachable() -> OntologyTree:
    """3 and 4 sit on a cycle and 5 below a node that does not exist: the root reaches 0-2."""
    return OntologyTree(column_nodes={i: f"c{i}" for i in range(6)},
                        parent={0: ROOT, 1: 0, 2: ROOT, 3: 4, 4: 3, 5: 9})


def walk_trees() -> list[OntologyTree]:
    gen = random.Random(35)
    trees = [random_tree(gen, gen.randrange(1, 15), title_prob=0.5) for _ in range(40)]
    trees += [make_chain(n) for n in (1, 2, 5)] + [make_star(n) for n in (1, 3, 7)]
    trees += [title_as_sole_child(gen, gen.randrange(0, 10)) for _ in range(12)]
    trees.append(unreachable())
    return trees


@pytest.mark.parametrize("ref", [1, ROOT, 9])  # a column, the root itself, no node
def test_a_graph_that_makes_the_root_a_child_is_no_tree(ref):
    # refused at construction, so no walk can step onto the root
    with pytest.raises(CycleError, match="the root cannot have a parent"):
        OntologyTree(column_nodes={0: "c0", 1: "c1", 2: "c2"},
                     parent={ROOT: ref, 0: ROOT, 1: 0, 2: 1})


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_walk_matches_the_reference_draw_for_draw(p):
    compared = 0
    for i, tree in enumerate(walk_trees()):
        for target in range(1, len(tree.parent) + 3):
            for seed in range(3):
                ours, theirs = random.Random(seed * 1000 + i), random.Random(seed * 1000 + i)
                config = fixed(target, p)
                assert sample_component(tree, config, ours) == reference_component(
                    tree, config, theirs), (i, target, seed)
                assert ours.getstate() == theirs.getstate(), (i, target, seed)
                compared += 1
    assert compared > 1500


def test_walk_matches_the_reference_with_drawn_sizes_and_p():
    gen = random.Random(7)
    for tree in walk_trees():
        config = SamplerConfig(size_min=1, size_max=len(tree.parent) + 2, p_min=0.0, p_max=1.0)
        ours, theirs = random.Random(gen.randrange(10**9)), random.Random(0)
        theirs.setstate(ours.getstate())
        for _ in range(20):  # one stream, as sample_for_table draws a table's rows
            assert sample_component(tree, config, ours) == reference_component(
                tree, config, theirs)
        assert ours.getstate() == theirs.getstate()


def test_walk_stops_at_the_reachable_nodes():
    comp = sample_component(unreachable(), fixed(6, 0.5), random.Random(1))
    assert comp.node_ids == frozenset({0, 1, 2})
    assert comp.target_size == 6
