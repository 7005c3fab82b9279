"""Tables, column-parent annotations, and ontology trees.

A table's columns are organized into a rooted tree: the synthetic root
``[TABLECONTEXT]`` sits above everything, an optional ``[TITLE]`` node carries
the table title, and each column hangs under the root, the title, or another
column. Node ids are plain values: column nodes are 0-based ints, the title
node is the string ``"[TITLE]"``, the root is ``"[TABLECONTEXT]"``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import (
    BadIndexError,
    CycleError,
    DuplicateHeaderError,
    ParseError,
)

ROOT = "[TABLECONTEXT]"
TITLE = "[TITLE]"

# node ids: column index, "[TITLE]", or "[TABLECONTEXT]"
NodeId = int | str

# parent tokens as they appear in annotation records
PARENT_ROOT = "ROOT"
PARENT_TITLE = "TITLE"
ParentRef = int | str


class Provenance(str, Enum):
    WIKITABLEQUESTIONS = "wikitablequestions"
    WIKISQL = "wikisql"
    WEBNLG = "webnlg"
    E2E = "e2e"
    SYNTHETIC = "synthetic"
    OTHER = "other"


class TitleShape(str, Enum):
    # title is one child of the root among the top-level columns
    TITLE_UNDER_ROOT = "title_under_root"
    # title is the root's sole child; all top-level columns hang under it
    TITLE_AS_SOLE_CHILD = "title_as_sole_child"


@dataclass(frozen=True)
class Table:
    """A rectangular grid of cell strings with unique, non-empty headers."""

    id: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    source: Provenance = Provenance.OTHER

    def __post_init__(self):
        # the XML and MR adapters produce triplesets, never tables
        if self.source in (Provenance.WEBNLG, Provenance.E2E):
            raise ValueError(f"table {self.id}: {self.source.value!r} is not a table source")
        if not self.headers:
            raise DuplicateHeaderError(f"table {self.id}: no column headers")
        seen = set()
        for label in self.headers:
            if not label.strip():
                raise DuplicateHeaderError(f"table {self.id}: empty column header")
            if label in seen:
                raise DuplicateHeaderError(
                    f"table {self.id}: duplicate column header {label!r}"
                )
            seen.add(label)
        for i, row in enumerate(self.rows):
            if len(row) != len(self.headers):
                raise ValueError(
                    f"table {self.id}: row {i} has {len(row)} cells, "
                    f"expected {len(self.headers)}"
                )

    @property
    def n_columns(self) -> int:
        return len(self.headers)


@dataclass(frozen=True)
class OntologyAnnotation:
    """One parent reference per column, plus the title placement."""

    table_id: str
    parents: tuple[int | str, ...]
    title_shape: TitleShape = TitleShape.TITLE_UNDER_ROOT

    def __post_init__(self):
        for ref in self.parents:
            if isinstance(ref, bool) or not isinstance(ref, (int, str)):
                raise ParseError(f"bad parent reference {ref!r}")
            if isinstance(ref, str) and ref not in (PARENT_ROOT, PARENT_TITLE):
                raise ParseError(f"bad parent token {ref!r}")
        if self.title_shape is TitleShape.TITLE_AS_SOLE_CHILD:
            if any(ref == PARENT_ROOT for ref in self.parents):
                raise ParseError(
                    f"annotation for {self.table_id}: with the title as the "
                    "root's sole child, columns must hang under the title or "
                    "another column"
                )


@dataclass
class OntologyTree:
    """Rooted tree over a table's columns plus the optional title node.

    ``column_nodes`` and ``parent`` are stored explicitly (not derived from a
    table) so that structurally broken trees can be represented and handed to
    ``validate_tree``. Derived: ``children`` (siblings title-first, then by
    column index), the depth-first order and each reachable node's depth.
    """

    column_nodes: dict[int, str]  # column index -> header label
    parent: dict[int | str, int | str]  # every non-root node -> its parent
    has_title: bool
    children: dict[int | str, tuple[int | str, ...]] = field(init=False)
    _preorder: list[int | str] = field(init=False, repr=False)
    _depth: dict[int | str, int] = field(init=False, repr=False)

    def __post_init__(self):
        by_parent: dict[int | str, list[int | str]] = {}
        for node in sorted(self.parent, key=node_order_key):
            by_parent.setdefault(self.parent[node], []).append(node)
        self.children = {p: tuple(kids) for p, kids in by_parent.items()}
        self._preorder, self._depth = [], {}
        stack: list[tuple[int | str, int]] = [(ROOT, 0)]
        while stack:
            node, depth = stack.pop()
            if node in self._depth:  # one parent per node: only the root can come back
                continue
            self._preorder.append(node)
            self._depth[node] = depth
            stack.extend((kid, depth + 1) for kid in reversed(self.children_of(node)))

    def nodes(self) -> list[int | str]:
        """All node ids, root first, then title, then columns in order."""
        out: list[int | str] = [ROOT]
        if self.has_title:
            out.append(TITLE)
        out.extend(sorted(self.column_nodes))
        return out

    def label(self, node: int | str) -> str:
        if node == ROOT:
            return ROOT
        if node == TITLE:
            return TITLE
        return self.column_nodes[node]

    def children_of(self, node: int | str) -> tuple[int | str, ...]:
        return self.children.get(node, ())

    def depth_of(self, node: int | str) -> int:
        """Edges from the root to ``node``; CycleError if the root never reaches it."""
        if node not in self._depth:
            raise CycleError(f"node {node!r} cannot reach the root")
        return self._depth[node]

    def preorder(self) -> list[int | str]:
        """Depth-first order of the nodes the root reaches, siblings in stored order."""
        return list(self._preorder)


def node_order_key(node: int | str) -> tuple[int, int]:
    if node == ROOT:
        return (-2, 0)
    if node == TITLE:
        return (-1, 0)
    return (0, node)


@dataclass(frozen=True)
class OntologyStats:
    depth: int  # max edges from the root to any node
    node_count: int  # all nodes except the root (title counted)
    branching_factor: float  # mean children count over nodes that have children


class FindingKind(str, Enum):
    DISCONNECTED = "disconnected"
    CYCLIC = "cyclic"
    MISSING_COLUMN = "missing-column"


@dataclass(frozen=True)
class Finding:
    kind: FindingKind
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def build_tree(table: Table, annotation: OntologyAnnotation) -> OntologyTree:
    """Build the ontology tree for ``table`` from its parent annotation.

    Raises BadIndexError for out-of-range or self-referential column parents
    and CycleError when ``validate_tree`` finds a cycle. The title node exists
    whenever the annotation references it, the title is the root's sole
    child, or the table carries a non-empty title.
    """
    if annotation.table_id != table.id:
        raise ValueError(
            f"annotation is for table {annotation.table_id!r}, got {table.id!r}"
        )
    n = table.n_columns
    if len(annotation.parents) != n:
        raise ValueError(
            f"table {table.id}: {len(annotation.parents)} parent references "
            f"for {n} columns"
        )

    for i, ref in enumerate(annotation.parents):
        if isinstance(ref, int):
            if not 0 <= ref < n:
                raise BadIndexError(
                    f"table {table.id}: column {i} parent index {ref} out of range"
                )
            if ref == i:
                raise BadIndexError(f"table {table.id}: column {i} is its own parent")

    has_title = (
        annotation.title_shape is TitleShape.TITLE_AS_SOLE_CHILD
        or any(ref == PARENT_TITLE for ref in annotation.parents)
        or bool(table.title)
    )

    parent: dict[int | str, int | str] = {}
    if has_title:
        parent[TITLE] = ROOT
    for i, ref in enumerate(annotation.parents):
        if ref == PARENT_ROOT:
            parent[i] = ROOT
        elif ref == PARENT_TITLE:
            parent[i] = TITLE
        else:
            parent[i] = ref

    tree = OntologyTree(
        column_nodes={i: label for i, label in enumerate(table.headers)},
        parent=parent,
        has_title=has_title,
    )
    # with every parent in range, a cycle is the only finding possible
    report = validate_tree(tree, table)
    if not report.ok:
        raise CycleError(f"table {table.id}: {report.findings[0].detail}")
    return tree


def validate_tree(tree: OntologyTree, table: Table) -> ValidationReport:
    """Check a tree against its table; findings are data, not failures."""
    findings: list[Finding] = []

    cyclic: list[int | str] = [ROOT] if ROOT in tree.parent else []  # a root's parent closes a cycle
    dangling: list[int | str] = []
    node_set = set(tree.nodes())
    for start in tree.nodes():
        if start == ROOT:
            continue
        seen = {start}
        node = start
        broken = None
        while node != ROOT:
            nxt = tree.parent.get(node)
            if nxt is None or nxt not in node_set:
                broken = "dangling"
                break
            if nxt in seen:
                broken = "cycle"
                break
            seen.add(nxt)
            node = nxt
        if broken == "cycle":
            cyclic.append(start)
        elif broken == "dangling":
            dangling.append(start)
    if cyclic:
        findings.append(
            Finding(FindingKind.CYCLIC, f"cycle reached from nodes {cyclic}")
        )
    if dangling:
        findings.append(
            Finding(
                FindingKind.DISCONNECTED,
                f"nodes {dangling} cannot reach the root",
            )
        )

    for i, label in enumerate(table.headers):
        if tree.column_nodes.get(i) != label:
            findings.append(
                Finding(
                    FindingKind.MISSING_COLUMN,
                    f"column {label!r} (index {i}) has no node in the tree",
                )
            )

    return ValidationReport(tuple(findings))


def ontology_stats(tree: OntologyTree) -> OntologyStats:
    """Depth, node count (root excluded, title counted), branching factor.

    The branching factor averages children counts over every node that has
    children, the root included.
    """
    nodes = tree.nodes()
    depth = max((tree.depth_of(n) for n in nodes if n != ROOT), default=0)
    node_count = len(nodes) - 1
    child_counts = [len(tree.children_of(n)) for n in nodes if tree.children_of(n)]
    branching = sum(child_counts) / len(child_counts) if child_counts else 0.0
    return OntologyStats(depth=depth, node_count=node_count, branching_factor=branching)


# --- ingestion -------------------------------------------------------------

def load_table(data_path: str | Path) -> Table:
    """Read one table from a UTF-8 CSV/TSV file plus its metadata sidecar.

    ``X.csv`` (or ``.tsv``) pairs with ``X.meta.json`` holding
    ``{"id": ..., "title": ..., "source": ...}``. The first data row is the
    header row.
    """
    data_path = Path(data_path)
    meta_path = data_path.parent / (data_path.stem + ".meta.json")
    if not meta_path.exists():
        raise FileNotFoundError(f"missing metadata sidecar {meta_path}")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    delimiter = "\t" if data_path.suffix.lower() == ".tsv" else ","
    with open(data_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        grid = [row for row in reader]
    if not grid:
        raise ParseError(f"{data_path}: empty table file")
    return table_from_dict({**meta, "headers": grid[0], "rows": grid[1:]})


def parse_annotation(record: dict) -> OntologyAnnotation:
    """Parse one annotation record: {table_id, title_shape, parents}."""
    try:
        table_id = str(record["table_id"])
        raw_parents = record["parents"]
    except KeyError as exc:
        raise ParseError(f"annotation record missing {exc}") from exc
    shape = TitleShape(record.get("title_shape", TitleShape.TITLE_UNDER_ROOT))
    return OntologyAnnotation(table_id=table_id, parents=tuple(raw_parents), title_shape=shape)


def table_to_dict(table: Table) -> dict:
    return {
        "id": table.id,
        "title": table.title,
        "source": table.source.value,
        "headers": list(table.headers),
        "rows": [list(row) for row in table.rows],
    }


def table_from_dict(record: dict) -> Table:
    return Table(
        id=str(record["id"]),
        title=str(record.get("title", "")),
        headers=tuple(record["headers"]),
        rows=tuple(tuple(row) for row in record.get("rows", [])),
        source=Provenance(record.get("source", "other")),
    )
