import json
import random

import pytest

from conftest import make_chain, make_star
from tabletriples.errors import (
    BadIndexError,
    CycleError,
    DuplicateHeaderError,
    ParseError,
)
from tabletriples.tables import (
    ROOT,
    TITLE,
    OntologyAnnotation,
    OntologyTree,
    Table,
    TitleShape,
    build_tree,
    load_table,
    node_order_key,
    parse_annotation,
    table_from_dict,
    table_to_dict,
)


class TestTable:
    def test_duplicate_header_rejected(self):
        with pytest.raises(DuplicateHeaderError):
            Table(id="t", title="", headers=("A", "B", "A"), rows=())

    def test_empty_header_rejected(self):
        with pytest.raises(DuplicateHeaderError):
            Table(id="t", title="", headers=("A", "  "), rows=())

    def test_no_headers_rejected(self):
        with pytest.raises(DuplicateHeaderError):
            Table(id="t", title="", headers=(), rows=())

    def test_ragged_row_rejected(self):
        with pytest.raises(ParseError):
            Table(id="t", title="", headers=("A", "B"), rows=(("1",),))

    def test_roundtrip_dict(self):
        t = Table(id="t", title="x", headers=("A", "B"), rows=(("1", "2"),))
        assert table_from_dict(table_to_dict(t)) == t

    @pytest.mark.parametrize("source", ["webnlg", "e2e"])
    def test_tripleset_only_provenance_rejected(self, source):
        with pytest.raises(ParseError, match=source):
            table_from_dict({"id": "t", "source": source, "headers": ["A"], "rows": []})


class TestBuildTree:
    def test_reference_shape(self, stadium_table, stadium_annotation):
        tree = build_tree(stadium_table, stadium_annotation)
        assert tree.children_of(ROOT) == (0,)
        assert tree.children_of(0) == (1, 4)
        assert tree.children_of(1) == (2, 3)
        assert not tree.has_title

    def test_single_column(self):
        t = Table(id="t", title="", headers=("A",), rows=())
        tree = build_tree(t, OntologyAnnotation(table_id="t", parents=("ROOT",)))
        assert tree.children_of(ROOT) == (0,)
        assert tree.depth_of(0) == 1

    def test_two_cycle(self):
        t = Table(id="t", title="", headers=("A", "B"), rows=())
        with pytest.raises(CycleError):
            build_tree(t, OntologyAnnotation(table_id="t", parents=(1, 0)))

    def test_longer_cycle(self):
        t = Table(id="t", title="", headers=("A", "B", "C", "D"), rows=())
        with pytest.raises(CycleError):
            build_tree(t, OntologyAnnotation(table_id="t", parents=("ROOT", 2, 3, 1)))

    def test_out_of_range_parent(self):
        t = Table(id="t", title="", headers=("A", "B"), rows=())
        with pytest.raises(BadIndexError):
            build_tree(t, OntologyAnnotation(table_id="t", parents=("ROOT", 7)))

    def test_negative_parent(self):
        t = Table(id="t", title="", headers=("A", "B"), rows=())
        with pytest.raises(BadIndexError) as exc:
            build_tree(t, OntologyAnnotation(table_id="t", parents=("ROOT", -1)))
        assert str(exc.value) == "table t: column 1 parent index -1 out of range"

    def test_cycle_and_the_columns_below_it_are_named(self, stadium_table):
        # Stadium and City point at each other; Capacity hangs below the cycle
        ann = OntologyAnnotation(table_id="stadiums", parents=("ROOT", 2, 1, 1, 0))
        with pytest.raises(CycleError) as exc:
            build_tree(stadium_table, ann)
        assert str(exc.value) == "table stadiums: cycle reached from nodes [1, 2, 3]"

    def test_cycle_under_the_title_names_columns_only(self):
        t = Table(id="t", title="X", headers=("A", "B", "C"), rows=())
        with pytest.raises(CycleError) as exc:
            build_tree(t, OntologyAnnotation(table_id="t", parents=("TITLE", 2, 1)))
        assert str(exc.value) == "table t: cycle reached from nodes [1, 2]"

    def test_every_column_gets_its_header_as_node(self, stadium_tree, stadium_table):
        assert stadium_tree.column_nodes == dict(enumerate(stadium_table.headers))
        assert [stadium_tree.label(i) for i in range(5)] == list(stadium_table.headers)

    def test_reference_tree_reaches_every_node(self, stadium_tree):
        assert sorted(stadium_tree.preorder, key=node_order_key) == stadium_tree.nodes()

    def test_self_parent(self):
        t = Table(id="t", title="", headers=("A", "B"), rows=())
        with pytest.raises(BadIndexError):
            build_tree(t, OntologyAnnotation(table_id="t", parents=("ROOT", 1)))

    def test_table_id_mismatch(self):
        t = Table(id="t", title="", headers=("A",), rows=())
        with pytest.raises(ParseError):
            build_tree(t, OntologyAnnotation(table_id="u", parents=("ROOT",)))

    def test_parent_count_mismatch(self):
        t = Table(id="t", title="", headers=("A", "B"), rows=())
        with pytest.raises(ParseError):
            build_tree(t, OntologyAnnotation(table_id="t", parents=("ROOT",)))

    def test_title_node_from_nonempty_title(self):
        t = Table(id="t", title="Olympic Games", headers=("A",), rows=())
        tree = build_tree(t, OntologyAnnotation(table_id="t", parents=("ROOT",)))
        assert tree.has_title
        assert tree.parent[TITLE] == ROOT
        # title joins the root's children ahead of the columns
        assert tree.children_of(ROOT) == (TITLE, 0)

    def test_no_title_node_for_empty_title(self):
        t = Table(id="t", title="", headers=("A",), rows=())
        tree = build_tree(t, OntologyAnnotation(table_id="t", parents=("ROOT",)))
        assert not tree.has_title

    def test_title_parent_forces_title_node(self):
        t = Table(id="t", title="", headers=("A", "B"), rows=())
        tree = build_tree(t, OntologyAnnotation(table_id="t", parents=("ROOT", "TITLE")))
        assert tree.has_title
        assert tree.parent[1] == TITLE

    def test_title_as_sole_child(self):
        t = Table(id="t", title="Heritage", headers=("A", "B"), rows=())
        ann = OntologyAnnotation(
            table_id="t",
            parents=("TITLE", 0),
            title_shape=TitleShape.TITLE_AS_SOLE_CHILD,
        )
        tree = build_tree(t, ann)
        assert tree.children_of(ROOT) == (TITLE,)
        assert tree.children_of(TITLE) == (0,)

    def test_sole_child_shape_rejects_root_parents(self):
        with pytest.raises(ParseError):
            OntologyAnnotation(
                table_id="t",
                parents=("ROOT", 0),
                title_shape=TitleShape.TITLE_AS_SOLE_CHILD,
            )


class TestDerivedShape:
    def test_depths_and_preorder_of_reference_tree(self, stadium_tree):
        assert [stadium_tree.depth_of(n) for n in stadium_tree.preorder] == [0, 1, 2, 3, 3, 2]

    def test_preorder_is_read_only(self, stadium_tree):
        with pytest.raises(AttributeError):
            stadium_tree.preorder.append("junk")
        assert stadium_tree.preorder == (ROOT, 0, 1, 2, 3, 4)

    def test_sibling_rings_of_reference_tree(self, stadium_tree):
        assert "rings" not in vars(stadium_tree)  # built on first use only
        assert stadium_tree.rings == {0: (), 1: (4,), 4: (1,), 2: (3,), 3: (2,)}
        assert stadium_tree.rings is stadium_tree.rings

    def test_sibling_rings_with_the_title_as_sole_child(self):
        t = Table(id="t", title="Heritage", headers=("A", "B", "C", "D"), rows=())
        tree = build_tree(t, OntologyAnnotation(table_id="t", parents=("TITLE", "TITLE", 0, "TITLE"),
                                                title_shape=TitleShape.TITLE_AS_SOLE_CHILD))
        # each ring starts just after its node and wraps round its parent's children
        assert tree.rings == {TITLE: (), 0: (1, 3), 1: (3, 0), 3: (0, 1), 2: ()}

    def test_root_named_as_a_child_raises(self):
        # the root would sit in a cycle through column 1 and join its components
        with pytest.raises(CycleError, match="the root cannot have a parent, got 1"):
            OntologyTree(column_nodes={0: "A", 1: "B"}, parent={ROOT: 1, 0: ROOT, 1: 0})

    def test_unreachable_nodes_have_no_depth(self, stadium_table):
        tree = OntologyTree(
            column_nodes={i: h for i, h in enumerate(stadium_table.headers)},
            parent={0: ROOT, 1: 2, 2: 1, 3: 99, 4: 0},
        )
        assert tree.preorder == (ROOT, 0, 4)
        for node in (1, 2, 3, 42):  # cyclic, cyclic, dangling, unknown
            with pytest.raises(CycleError, match="cannot reach the root"):
                tree.depth_of(node)


class TestTreeShape:
    def test_flat_star(self):
        tree = make_star(5)
        assert tree.children_of(ROOT) == (0, 1, 2, 3, 4)
        assert [tree.depth_of(i) for i in range(5)] == [1] * 5
        assert not any(tree.children_of(i) for i in range(5))

    def test_chain(self):
        tree = make_chain(4)
        assert [tree.depth_of(i) for i in range(4)] == [1, 2, 3, 4]
        assert [tree.children_of(n) for n in (ROOT, 0, 1, 2, 3)] == [(0,), (1,), (2,), (3,), ()]

    def test_reference_tree(self, stadium_tree):
        assert max(stadium_tree.depth_of(n) for n in stadium_tree.nodes()) == 3
        inner = [n for n in stadium_tree.nodes() if stadium_tree.children_of(n)]
        assert inner == [ROOT, 0, 1]
        assert sum(len(stadium_tree.children_of(n)) for n in inner) == 5

    def test_title_counted_in_nodes(self):
        t = Table(id="t", title="X", headers=("A",), rows=())
        tree = build_tree(t, OntologyAnnotation(table_id="t", parents=("ROOT",)))
        assert tree.nodes() == [ROOT, TITLE, 0]
        assert (tree.depth_of(TITLE), tree.depth_of(0)) == (1, 1)


def _walk_up(parent, node):
    """Edges from ``node`` up to the root along ``parent``, or None if a node repeats first.

    The test oracle for a tree's depths and cycles: one walk per node, where
    ``build_tree`` reads both off the single walk down from the root.
    """
    seen = []
    while node != ROOT:
        if node in seen:
            return None
        seen.append(node)
        node = parent[node]
    return len(seen)


def _random_valid_annotation(rng, table):
    n = len(table.headers)
    parents = []
    for i in range(n):
        # parents drawn only from earlier columns keep the tree acyclic
        pool = ["ROOT", "TITLE"] + list(range(i))
        parents.append(pool[rng.randrange(len(pool))])
    return OntologyAnnotation(table_id=table.id, parents=tuple(parents))


def test_build_then_validate_is_clean():
    rng = random.Random(1234)
    for case in range(200):
        n = rng.randrange(1, 9)
        table = Table(
            id=f"t{case}",
            title="Title" if rng.random() < 0.5 else "",
            headers=tuple(f"h{i}" for i in range(n)),
            rows=(),
        )
        ann = _random_valid_annotation(rng, table)
        tree = build_tree(table, ann)
        assert [tree.depth_of(node) for node in tree.nodes()] == [
            _walk_up(tree.parent, node) for node in tree.nodes()]
        assert sorted(tree.preorder, key=node_order_key) == tree.nodes()


def test_build_tree_total_over_errors():
    """Arbitrary parent lists either build a tree or raise one scoped error."""
    rng = random.Random(99)
    outcomes = {"ok": 0, "cycle": 0, "index": 0}
    for case in range(500):
        n = rng.randrange(1, 7)
        table = Table(
            id="t", title="", headers=tuple(f"h{i}" for i in range(n)), rows=()
        )
        def pick():
            kind = rng.randrange(3)
            if kind == 0:
                return "ROOT"
            if kind == 1:
                return "TITLE"
            return rng.randrange(-2, n + 2)

        parents = tuple(pick() for _ in range(n))
        bad_index = any(isinstance(ref, int) and not (0 <= ref < n and ref != i)
                        for i, ref in enumerate(parents))
        parent = {TITLE: ROOT, **{i: {"ROOT": ROOT, "TITLE": TITLE}.get(ref, ref)
                                  for i, ref in enumerate(parents)}}
        unrooted = [] if bad_index else [i for i in range(n) if _walk_up(parent, i) is None]
        try:
            tree = build_tree(table, OntologyAnnotation(table_id="t", parents=parents))
        except CycleError as exc:
            outcomes["cycle"] += 1
            assert str(exc) == f"table t: cycle reached from nodes {unrooted}"
            assert not bad_index and unrooted
        except BadIndexError:
            outcomes["index"] += 1
            assert bad_index
        else:
            outcomes["ok"] += 1
            assert not bad_index and not unrooted
            assert [tree.depth_of(node) for node in tree.nodes()] == [
                _walk_up(tree.parent, node) for node in tree.nodes()]
    assert all(v > 0 for v in outcomes.values()), outcomes


class TestIngestion:
    def test_load_csv_with_sidecar(self, tmp_path):
        (tmp_path / "x.csv").write_text("A,B\n1,2\n", encoding="utf-8")
        (tmp_path / "x.meta.json").write_text(
            json.dumps({"id": "x1", "title": "T", "source": "wikisql"}),
            encoding="utf-8",
        )
        table = load_table(tmp_path / "x.csv")
        assert table.id == "x1"
        assert table.headers == ("A", "B")
        assert table.rows == (("1", "2"),)
        assert table.source.value == "wikisql"

    def test_load_tsv(self, tmp_path):
        (tmp_path / "x.tsv").write_text("A\tB\n1\t2\n", encoding="utf-8")
        (tmp_path / "x.meta.json").write_text(json.dumps({"id": "x"}), encoding="utf-8")
        table = load_table(tmp_path / "x.tsv")
        assert table.rows == (("1", "2"),)

    def test_missing_sidecar(self, tmp_path):
        (tmp_path / "x.csv").write_text("A\n", encoding="utf-8")
        with pytest.raises(FileNotFoundError):
            load_table(tmp_path / "x.csv")

    def test_parse_annotation(self):
        ann = parse_annotation(
            {"table_id": "t", "title_shape": "title_under_root", "parents": ["ROOT", 0]}
        )
        assert ann.parents == ("ROOT", 0)

    def test_parse_annotation_bad_token(self):
        with pytest.raises(ParseError):
            parse_annotation({"table_id": "t", "parents": ["root"]})

    def test_parse_annotation_missing_field(self):
        with pytest.raises(ParseError):
            parse_annotation({"parents": []})


def test_preorder_and_order_key(stadium_tree):
    assert stadium_tree.preorder == (ROOT, 0, 1, 2, 3, 4)
    assert sorted([1, TITLE, 0, ROOT], key=node_order_key) == [ROOT, TITLE, 0, 1]
