import random

import pytest

from conftest import (
    make_chain,
    make_star,
    minimal_connected_superset,
    is_connected_set,
    random_tree,
)
from tabletriples.errors import BadIndexError, CycleError, MalformedEntryError, OversizeError
from tabletriples.sampling import SamplerConfig, sample_component
from tabletriples.tables import ROOT, TITLE, OntologyAnnotation, OntologyTree, Table, build_tree
from tabletriples.triples import (
    Annotator,
    Highlight,
    Provenance,
    Realization,
    Triple,
    assemble_entry,
    complete_subtree,
    entry_for_highlight,
    extract_triples,
    instantiate,
)


class TestCompleteSubtree:
    def test_siblings_pull_in_their_parent(self, stadium_tree):
        # City and Capacity meet at Stadium
        assert complete_subtree(stadium_tree, {2, 3}) == frozenset({1, 2, 3})

    def test_singleton_is_its_own_lca(self, stadium_tree):
        assert complete_subtree(stadium_tree, {1}) == frozenset({1})

    def test_node_off_the_root_raises(self):
        tree = OntologyTree(column_nodes={0: "A", 1: "B"}, parent={0: 1, 1: 0})
        with pytest.raises(CycleError):
            complete_subtree(tree, {0, 1})

    def test_cross_branch_path(self, stadium_tree):
        # Opened and Capacity meet at Team; Stadium is on Capacity's path
        assert complete_subtree(stadium_tree, {4, 3}) == frozenset({0, 1, 3, 4})

    def test_already_connected_is_fixed(self, stadium_tree):
        connected = frozenset({0, 1, 2})
        assert complete_subtree(stadium_tree, connected) == connected

    def test_root_children_connect_through_root(self):
        tree = make_star(3)
        assert complete_subtree(tree, {0, 2}) == frozenset({0, 2, ROOT})

    def test_empty_highlight_rejected(self, stadium_tree):
        with pytest.raises(ValueError):
            complete_subtree(stadium_tree, set())

    def test_matches_bruteforce_on_small_trees(self):
        gen = random.Random(77)
        for _ in range(60):
            tree = random_tree(gen, gen.randrange(1, 7))
            non_root = [n for n in tree.nodes() if n != ROOT]
            for mask in range(1, 1 << len(non_root)):
                highlight = {non_root[i] for i in range(len(non_root)) if mask >> i & 1}
                got = complete_subtree(tree, highlight)
                assert got == minimal_connected_superset(tree, highlight)
                assert is_connected_set(tree, set(got))
                # idempotent
                assert complete_subtree(tree, got) == got

    def test_minimality(self):
        """Dropping any non-highlighted node disconnects the completed set."""
        gen = random.Random(31)
        for _ in range(40):
            tree = random_tree(gen, gen.randrange(2, 7))
            non_root = [n for n in tree.nodes() if n != ROOT]
            k = gen.randrange(1, len(non_root) + 1)
            highlight = set(gen.sample(non_root, k))
            completed = complete_subtree(tree, highlight)
            for extra in completed - highlight:
                assert not is_connected_set(tree, set(completed) - {extra})


# --- completion against a reference -----------------------------------------
# The earlier completion, kept verbatim: it lifted one deepest node at a time,
# taking the maximum depth over the whole frontier for each. The level-wise
# completion in ``triples`` must give the same set, or the same error.

def reference_complete_subtree(tree, nodes):
    if not nodes:
        raise ValueError("cannot complete an empty highlight")
    frontier, completed = set(nodes), set(nodes)
    # lifting a deepest node keeps the set's LCA, so the last node left is the LCA
    while len(frontier) > 1:
        node = max(frontier, key=tree.depth_of)
        frontier.remove(node)
        frontier.add(tree.parent[node])
        completed.add(tree.parent[node])
    return frozenset(completed)


def _completed_or_error(complete, tree, highlight):
    try:
        return complete(tree, highlight)
    except (CycleError, ValueError) as exc:
        return type(exc)


def _every_highlight(nodes):
    return [frozenset(n for i, n in enumerate(nodes) if mask >> i & 1)
            for mask in range(1, 1 << len(nodes))]


def test_completion_matches_the_reference_on_every_highlight():
    gen = random.Random(36)
    trees = [random_tree(gen, gen.randrange(1, 8), title_prob=0.5) for _ in range(60)]
    trees += [make_chain(7), make_star(7)]
    compared = 0
    for tree in trees:
        for highlight in _every_highlight(tree.nodes()):
            assert complete_subtree(tree, highlight) == reference_complete_subtree(
                tree, highlight), (tree.parent, highlight)
            compared += 1
    assert compared > 5_000


def test_completion_matches_the_reference_off_the_root():
    # 3 and 4 sit on a cycle, 5 below a node that does not exist, 42 is no node:
    # any highlight of two or more nodes that holds one of them is a CycleError,
    # and a one-node highlight comes back as it is, whatever the node
    tree = OntologyTree(column_nodes={i: f"c{i}" for i in range(6)},
                        parent={0: ROOT, 1: 0, 2: ROOT, 3: 4, 4: 3, 5: 9})
    raised = 0
    for highlight in _every_highlight([ROOT, 0, 1, 2, 3, 4, 5, 42]):
        ours = _completed_or_error(complete_subtree, tree, highlight)
        assert ours == _completed_or_error(reference_complete_subtree, tree, highlight)
        raised += ours is CycleError
    assert raised > 200
    for node in (3, 5, 42):
        assert complete_subtree(tree, {node}) == reference_complete_subtree(tree, {node})
        assert complete_subtree(tree, {node}) == {node}
    for empty in (set(), frozenset()):
        assert _completed_or_error(complete_subtree, tree, empty) is ValueError


class TestInstantiate:
    def test_row_values(self, stadium_tree, stadium_table):
        assignment = instantiate(stadium_tree, stadium_table, 0)
        assert assignment[0] == "Amsterdam Admirals"
        assert assignment[1] == "Olympisch Stadion"
        assert assignment[ROOT] == "[TABLECONTEXT]"

    def test_title_value(self):
        t = Table(id="t", title="Olympic Games", headers=("A",), rows=(("x",),))
        tree = build_tree(t, OntologyAnnotation(table_id="t", parents=("ROOT",)))
        assert instantiate(tree, t, 0)[TITLE] == "Olympic Games"

    def test_every_node_assigned(self, stadium_tree, stadium_table):
        assignment = instantiate(stadium_tree, stadium_table, 1)
        assert set(assignment) == set(stadium_tree.nodes())

    def test_empty_cell_becomes_empty_string(self):
        t = Table(id="t", title="", headers=("A", "B"), rows=(("x", ""),))
        tree = build_tree(t, OntologyAnnotation(table_id="t", parents=("ROOT", 0)))
        assert instantiate(tree, t, 0)[1] == ""

    def test_row_out_of_range(self, stadium_tree, stadium_table):
        with pytest.raises(ValueError):
            instantiate(stadium_tree, stadium_table, 2)


class TestExtractTriples:
    def test_singleton_stadium(self, stadium_tree, stadium_table):
        assignment = instantiate(stadium_tree, stadium_table, 0)
        triples = extract_triples(frozenset({1}), assignment, stadium_tree)
        assert triples == (
            Triple("Amsterdam Admirals", "Stadium", "Olympisch Stadion"),
        )

    def test_subject_comes_from_outside_the_subtree(self, stadium_tree, stadium_table):
        assignment = instantiate(stadium_tree, stadium_table, 0)
        triples = extract_triples(frozenset({1, 2, 3}), assignment, stadium_tree)
        assert triples == (
            Triple("Amsterdam Admirals", "Stadium", "Olympisch Stadion"),
            Triple("Olympisch Stadion", "City", "Amsterdam"),
            Triple("Olympisch Stadion", "Capacity", "31600"),
        )

    def test_root_and_title_subtree(self):
        t = Table(
            id="darts",
            title="PDC World Darts Championship",
            headers=("PLAYER", "ROUND"),
            rows=(("Terry Jenkins", "1st Round"),),
        )
        tree = build_tree(t, OntologyAnnotation(table_id="darts", parents=("ROOT", 0)))
        assignment = instantiate(tree, t, 0)
        triples = extract_triples(frozenset({ROOT, TITLE, 0}), assignment, tree)
        assert Triple("[TABLECONTEXT]", "[TITLE]", "PDC World Darts Championship") in triples
        assert Triple("[TABLECONTEXT]", "PLAYER", "Terry Jenkins") in triples
        assert len(triples) == 2  # the root emits no triple of its own

    def test_preorder_output_order(self, stadium_tree, stadium_table):
        assignment = instantiate(stadium_tree, stadium_table, 0)
        triples = extract_triples(frozenset({4, 3, 1, 0}), assignment, stadium_tree)
        assert [t.predicate for t in triples] == ["Team", "Stadium", "Capacity", "Opened"]

    def test_count_law(self):
        gen = random.Random(13)
        for _ in range(80):
            tree = random_tree(gen, gen.randrange(1, 8))
            table = Table(
                id="t",
                title="T" if tree.has_title else "",
                headers=tuple(f"h{i}" for i in sorted(tree.column_nodes)),
                rows=(tuple(f"v{i}" for i in sorted(tree.column_nodes)),),
            )
            assignment = instantiate(tree, table, 0)
            non_root = [n for n in tree.nodes() if n != ROOT]
            k = gen.randrange(1, len(non_root) + 1)
            subtree = complete_subtree(tree, set(gen.sample(non_root, k)))
            triples = extract_triples(subtree, assignment, tree)
            assert len(triples) == len(subtree) - (1 if ROOT in subtree else 0)

    def test_oversize_rejected(self):
        tree = make_chain(11)
        assignment = {ROOT: "[TABLECONTEXT]"} | {i: f"v{i}" for i in range(11)}
        with pytest.raises(OversizeError):
            extract_triples(frozenset(range(11)), assignment, tree)

    def test_ten_triples_allowed(self):
        tree = make_chain(10)
        assignment = {ROOT: "[TABLECONTEXT]"} | {i: f"v{i}" for i in range(10)}
        triples = extract_triples(frozenset(range(10)), assignment, tree)
        assert len(triples) == 10


def test_sampled_components_gain_at_most_the_root():
    gen = random.Random(55)
    fixed_points = 0
    root_added = 0
    for _ in range(300):
        tree = random_tree(gen, gen.randrange(1, 15))
        config = SamplerConfig(size_min=2, size_max=5, p_min=0.0, p_max=1.0, seed=0)
        comp = sample_component(tree, config, random.Random(gen.randrange(10**9)))
        completed = complete_subtree(tree, comp.node_ids)
        branches = {_branch_of(tree, n) for n in comp.node_ids}
        if len(branches) == 1:
            assert completed == comp.node_ids
            fixed_points += 1
        else:
            assert completed == comp.node_ids | {ROOT}
            root_added += 1
    assert fixed_points > 0 and root_added > 0


def _branch_of(tree, node):
    while tree.parent[node] != ROOT:
        node = tree.parent[node]
    return node


class TestAssembleEntry:
    def test_size_matches_triples(self):
        triples = (Triple("a", "b", "c"), Triple("d", "e", "f"))
        entry = assemble_entry(triples, [Realization("hello there.")], "MISC", "Id1")
        assert len(entry.triples) == 2
        assert entry.eid == "Id1"

    def test_requires_realizations(self):
        with pytest.raises(MalformedEntryError, match="^entry Id1: no realizations$"):
            assemble_entry((Triple("a", "b", "c"),), [], "MISC", "Id1")

    def test_rejects_blank_text(self):
        with pytest.raises(MalformedEntryError, match="^entry Id1: empty realization text$"):
            assemble_entry((Triple("a", "b", "c"),), [Realization("   ")], "MISC", "Id1")

    def test_rejects_eleven_triples(self):
        triples = tuple(Triple(f"s{i}", "p", "o") for i in range(11))
        with pytest.raises(OversizeError):
            assemble_entry(triples, [Realization("x.")], "MISC", "Id1")

    def test_metadata_carried(self):
        entry = assemble_entry(
            (Triple("a", "b", ""),),
            [Realization("x.", Annotator.MTURK)],
            "MISC",
            "Id9",
            Provenance.WIKISQL,
            table_id="t1",
            row_index=4,
            flags=("empty_cell",),
        )
        assert entry.provenance is Provenance.WIKISQL
        assert entry.table_id == "t1"
        assert entry.row_index == 4
        assert entry.flags == ("empty_cell",)


def test_highlight_requires_nodes():
    with pytest.raises(ValueError):
        Highlight(table_id="t", row_index=0, nodes=frozenset())


class TestEntryForHighlight:
    def test_composes_the_pipeline_steps(self, stadium_tree, stadium_table):
        realizations = [Realization("Mini Estadi is in Barcelona.")]
        entry = entry_for_highlight(stadium_tree, stadium_table, frozenset({2, 3}), 1,
                                    realizations, "MISC", "Id3", Provenance.WIKISQL)
        subtree = complete_subtree(stadium_tree, frozenset({2, 3}))
        triples = extract_triples(subtree, instantiate(stadium_tree, stadium_table, 1),
                                  stadium_tree)
        assert entry == assemble_entry(triples, realizations, "MISC", "Id3", Provenance.WIKISQL,
                                       table_id="stadiums", row_index=1)

    def test_empty_cell_flagged(self):
        t = Table(id="t", title="", headers=("A", "B"), rows=(("x", ""),))
        tree = build_tree(t, OntologyAnnotation(table_id="t", parents=("ROOT", 0)))
        entry = entry_for_highlight(tree, t, frozenset({1}), 0, [Realization("x.")],
                                    "MISC", "Id1", Provenance.OTHER)
        assert entry.flags == ("empty_cell",)

    def test_unknown_node_names_table_row_and_node(self, stadium_tree, stadium_table):
        with pytest.raises(BadIndexError, match=r"stadiums, row 1: unknown node id 42"):
            entry_for_highlight(stadium_tree, stadium_table, frozenset({0, 42}), 1,
                                [Realization("x.")], "MISC", "Id1", Provenance.OTHER)

    def test_oversize_raises(self):
        t = Table(id="w", title="", headers=tuple(f"C{i}" for i in range(11)),
                  rows=(tuple(f"v{i}" for i in range(11)),))
        tree = build_tree(t, OntologyAnnotation(table_id="w", parents=("ROOT",) * 11))
        with pytest.raises(OversizeError):
            entry_for_highlight(tree, t, frozenset(range(11)), 0, [Realization("x.")],
                                "MISC", "Id1", Provenance.OTHER)
