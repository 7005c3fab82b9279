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
    FindingKind,
    OntologyAnnotation,
    OntologyTree,
    Table,
    TitleShape,
    build_tree,
    load_table,
    node_order_key,
    ontology_stats,
    parse_annotation,
    table_from_dict,
    table_to_dict,
    validate_tree,
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
        with pytest.raises(ValueError):
            Table(id="t", title="", headers=("A", "B"), rows=(("1",),))

    def test_roundtrip_dict(self):
        t = Table(id="t", title="x", headers=("A", "B"), rows=(("1", "2"),))
        assert table_from_dict(table_to_dict(t)) == t

    @pytest.mark.parametrize("source", ["webnlg", "e2e"])
    def test_tripleset_only_provenance_rejected(self, source):
        with pytest.raises(ValueError, match=source):
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
        assert ontology_stats(tree).depth == 1

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

    def test_self_parent(self):
        t = Table(id="t", title="", headers=("A", "B"), rows=())
        with pytest.raises(BadIndexError):
            build_tree(t, OntologyAnnotation(table_id="t", parents=("ROOT", 1)))

    def test_table_id_mismatch(self):
        t = Table(id="t", title="", headers=("A",), rows=())
        with pytest.raises(ValueError):
            build_tree(t, OntologyAnnotation(table_id="u", parents=("ROOT",)))

    def test_parent_count_mismatch(self):
        t = Table(id="t", title="", headers=("A", "B"), rows=())
        with pytest.raises(ValueError):
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


class TestValidateTree:
    def test_valid_tree_empty_report(self, stadium_tree, stadium_table):
        assert validate_tree(stadium_tree, stadium_table).ok

    def test_missing_column_node(self, stadium_table):
        tree = OntologyTree(
            column_nodes={0: "Team", 1: "Stadium", 3: "Capacity", 4: "Opened"},
            parent={0: ROOT, 1: 0, 3: 1, 4: 0},
            has_title=False,
        )
        report = validate_tree(tree, stadium_table)
        kinds = [f.kind for f in report.findings]
        assert kinds == [FindingKind.MISSING_COLUMN]
        assert "City" in report.findings[0].detail

    def test_disconnected_forest(self, stadium_table):
        # two components: {Team, Stadium} reach the root, the rest dangle
        tree = OntologyTree(
            column_nodes={i: h for i, h in enumerate(stadium_table.headers)},
            parent={0: ROOT, 1: 0, 2: 99, 3: 2, 4: 2},
            has_title=False,
        )
        report = validate_tree(tree, stadium_table)
        kinds = {f.kind for f in report.findings}
        assert kinds == {FindingKind.DISCONNECTED}

    def test_cycle_finding(self, stadium_table):
        tree = OntologyTree(
            column_nodes={i: h for i, h in enumerate(stadium_table.headers)},
            parent={0: ROOT, 1: 2, 2: 1, 3: 1, 4: 0},
            has_title=False,
        )
        report = validate_tree(tree, stadium_table)
        assert FindingKind.CYCLIC in {f.kind for f in report.findings}

    def test_label_mismatch_reported(self, stadium_table):
        tree = OntologyTree(
            column_nodes={0: "Team", 1: "Arena", 2: "City", 3: "Capacity", 4: "Opened"},
            parent={0: ROOT, 1: 0, 2: 1, 3: 1, 4: 0},
            has_title=False,
        )
        report = validate_tree(tree, stadium_table)
        assert any(f.kind is FindingKind.MISSING_COLUMN for f in report.findings)


class TestDerivedShape:
    def test_depths_and_preorder_of_reference_tree(self, stadium_tree):
        assert [stadium_tree.depth_of(n) for n in stadium_tree.preorder()] == [0, 1, 2, 3, 3, 2]

    def test_preorder_is_a_copy(self, stadium_tree):
        stadium_tree.preorder().append("junk")
        assert stadium_tree.preorder() == [ROOT, 0, 1, 2, 3, 4]

    def test_root_named_as_a_child_constructs(self):
        # the root sits in a cycle through column 1; the walk must still end
        tree = OntologyTree(
            column_nodes={0: "A", 1: "B"}, parent={ROOT: 1, 0: ROOT, 1: 0}, has_title=False
        )
        assert tree.preorder() == [ROOT, 0, 1]
        assert (tree.depth_of(0), tree.depth_of(1)) == (1, 2)

    def test_unreachable_nodes_have_no_depth(self, stadium_table):
        tree = OntologyTree(
            column_nodes={i: h for i, h in enumerate(stadium_table.headers)},
            parent={0: ROOT, 1: 2, 2: 1, 3: 99, 4: 0},
            has_title=False,
        )
        assert tree.preorder() == [ROOT, 0, 4]
        for node in (1, 2, 3, 42):  # cyclic, cyclic, dangling, unknown
            with pytest.raises(CycleError, match="cannot reach the root"):
                tree.depth_of(node)
        kinds = {f.kind for f in validate_tree(tree, stadium_table).findings}
        assert kinds == {FindingKind.CYCLIC, FindingKind.DISCONNECTED}


class TestOntologyStats:
    def test_flat_star(self):
        stats = ontology_stats(make_star(5))
        assert (stats.depth, stats.node_count, stats.branching_factor) == (1, 5, 5.0)

    def test_chain(self):
        stats = ontology_stats(make_chain(4))
        assert (stats.depth, stats.node_count, stats.branching_factor) == (4, 4, 1.0)

    def test_reference_tree(self, stadium_tree):
        stats = ontology_stats(stadium_tree)
        assert stats.depth == 3
        assert stats.node_count == 5
        assert stats.branching_factor == pytest.approx(5 / 3)

    def test_title_counted_in_nodes(self):
        t = Table(id="t", title="X", headers=("A",), rows=())
        tree = build_tree(t, OntologyAnnotation(table_id="t", parents=("ROOT",)))
        assert ontology_stats(tree).node_count == 2  # column + title


def _random_valid_annotation(rng, table):
    n = table.n_columns
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
        report = validate_tree(tree, table)
        assert report.ok, report
        stats = ontology_stats(tree)
        assert stats.node_count == n + (1 if tree.has_title else 0)
        assert stats.depth <= stats.node_count
        if any(tree.children_of(x) for x in tree.nodes()):
            assert stats.branching_factor >= 1.0


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
        try:
            tree = build_tree(table, OntologyAnnotation(table_id="t", parents=parents))
        except CycleError:
            outcomes["cycle"] += 1
        except BadIndexError:
            outcomes["index"] += 1
        else:
            outcomes["ok"] += 1
            assert validate_tree(tree, table).ok
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
    assert stadium_tree.preorder() == [ROOT, 0, 1, 2, 3, 4]
    assert sorted([1, TITLE, 0, ROOT], key=node_order_key) == [ROOT, TITLE, 0, 1]
