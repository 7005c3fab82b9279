"""Tables, column-parent annotations, and ontology trees.

A table's columns are organized into a rooted tree: the synthetic root
``[TABLECONTEXT]`` sits above everything, an optional ``[TITLE]`` node carries
the table title, and each column hangs under the root, the title, or another
column. Node ids are plain values: column nodes are 0-based ints, the title
node is the string ``"[TITLE]"``, the root is ``"[TABLECONTEXT]"``.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .entries import Provenance  # re-exported: a table's source is an entry's provenance
from .errors import (BadIndexError, CycleError, DuplicateHeaderError, ParseError,
                     TableTriplesError, checked, located)
from .files import field, read_csv, read_json

ROOT = "[TABLECONTEXT]"
TITLE = "[TITLE]"

# node ids: column index, "[TITLE]", or "[TABLECONTEXT]"
NodeId = int | str

# parent tokens as they appear in annotation records
PARENT_ROOT = "ROOT"
PARENT_TITLE = "TITLE"


class TitleShape(str, Enum):
    # title is one child of the root among the top-level columns
    TITLE_UNDER_ROOT = "title_under_root"
    # title is the root's sole child; all top-level columns hang under it
    TITLE_AS_SOLE_CHILD = "title_as_sole_child"


@checked
class Table(NamedTuple):
    """A rectangular grid of cell strings with unique, non-empty headers."""

    id: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    source: Provenance = Provenance.OTHER

    def _check(self):
        if not isinstance(self.id, str):
            raise ParseError(f"table id must be a string, got {self.id!r}")
        # no splits.tsv line can hold a tab or a line break (any that str.splitlines knows)
        if "\t" in self.id or self.id.splitlines() not in ([self.id], []):
            raise ParseError(f"table id must hold no tab or line break, got {self.id!r}")
        # the XML and MR adapters produce triplesets, never tables
        if self.source in (Provenance.WEBNLG, Provenance.E2E):
            raise ParseError(f"table {self.id}: {self.source.value!r} is not a table source")
        if not isinstance(self.title, str):
            raise ParseError(f"table {self.id}: title must be a string, got {self.title!r}")
        if not self.headers:
            raise DuplicateHeaderError(f"table {self.id}: no column headers")
        seen = set()
        for j, label in enumerate(self.headers):
            if not isinstance(label, str):
                raise ParseError(f"table {self.id}: header {j} must be a string, got {label!r}")
            if not label.strip():
                raise DuplicateHeaderError(f"table {self.id}: empty column header")
            if label in seen:
                raise DuplicateHeaderError(
                    f"table {self.id}: duplicate column header {label!r}"
                )
            seen.add(label)
        for i, row in enumerate(self.rows):
            if len(row) != len(self.headers):
                raise ParseError(
                    f"table {self.id}: row {i} has {len(row)} cells, "
                    f"expected {len(self.headers)}"
                )
            for j, cell in enumerate(row):
                if not isinstance(cell, str):
                    raise ParseError(
                        f"table {self.id}: row {i} cell {j} must be a string, got {cell!r}")


@checked
class OntologyAnnotation(NamedTuple):
    """One parent reference per column, plus the title placement."""

    table_id: str
    parents: tuple[int | str, ...]
    title_shape: TitleShape = TitleShape.TITLE_UNDER_ROOT

    def _check(self):
        if not isinstance(self.table_id, str):
            raise ParseError(f"annotation table_id must be a string, got {self.table_id!r}")
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


class OntologyTree:
    """Rooted tree over a table's columns plus the optional title node.

    ``column_nodes`` and ``parent`` are stored as given, so a hand-built tree
    with a cycle or a dangling parent still constructs; its unreachable nodes
    have no depth. Derived: ``has_title`` (whether ``parent`` has the title
    node), ``children`` (siblings title-first, then by column index),
    ``preorder`` (the depth-first order of the nodes the root reaches) and each
    reachable node's depth.
    """

    def __init__(self, column_nodes: dict[int, str], parent: dict[int | str, int | str]):
        self.column_nodes = column_nodes  # column index -> header label
        self.parent = parent  # every non-root node -> its parent
        self.has_title = TITLE in parent
        by_parent: dict[int | str, list[int | str]] = {}
        for node in sorted(self.parent, key=node_order_key):
            by_parent.setdefault(self.parent[node], []).append(node)
        self.children = {p: tuple(kids) for p, kids in by_parent.items()}
        order: list[int | str] = []
        self._depth: dict[int | str, int] = {}
        stack: list[tuple[int | str, int]] = [(ROOT, 0)]
        while stack:
            node, depth = stack.pop()
            if node in self._depth:  # one parent per node: only the root can come back
                continue
            order.append(node)
            self._depth[node] = depth
            stack.extend((kid, depth + 1) for kid in reversed(self.children_of(node)))
        self.preorder = tuple(order)

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


def node_order_key(node: int | str) -> tuple[int, int]:
    if node == ROOT:
        return (-2, 0)
    if node == TITLE:
        return (-1, 0)
    return (0, node)


def build_tree(table: Table, annotation: OntologyAnnotation) -> OntologyTree:
    """Build the ontology tree for ``table`` from its parent annotation.

    Raises ParseError for an annotation of another table or with a parent
    count other than the column count, BadIndexError for out-of-range or
    self-referential column parents and CycleError for columns the root
    never reaches: with every parent in range, those sit on a cycle or below
    one. The title node exists whenever the annotation references it, the
    title is the root's sole child, or the table carries a non-empty title.
    """
    if annotation.table_id != table.id:
        raise ParseError(
            f"annotation is for table {annotation.table_id!r}, got {table.id!r}"
        )
    n = len(table.headers)
    if len(annotation.parents) != n:
        raise ParseError(
            f"table {table.id}: {len(annotation.parents)} parent references "
            f"for {n} columns"
        )

    has_title = (annotation.title_shape is TitleShape.TITLE_AS_SOLE_CHILD
                 or PARENT_TITLE in annotation.parents or bool(table.title))
    parent: dict[int | str, int | str] = {TITLE: ROOT} if has_title else {}
    for i, ref in enumerate(annotation.parents):
        if isinstance(ref, str):  # the annotation admits no token but ROOT and TITLE
            ref = ROOT if ref == PARENT_ROOT else TITLE
        elif not 0 <= ref < n:
            raise BadIndexError(f"table {table.id}: column {i} parent index {ref} out of range")
        elif ref == i:
            raise BadIndexError(f"table {table.id}: column {i} is its own parent")
        parent[i] = ref

    tree = OntologyTree(dict(enumerate(table.headers)), parent)
    # in tree.nodes()' order, less the root, which is always reached
    cyclic = [node for node in parent if node not in tree._depth]
    if cyclic:
        raise CycleError(f"table {table.id}: cycle reached from nodes {cyclic}")
    return tree


# --- ingestion -------------------------------------------------------------

def load_table(data_path: str | Path) -> Table:
    """Read one table from a UTF-8 CSV/TSV file plus its metadata sidecar.

    ``X.csv`` (or ``.tsv``) pairs with ``X.meta.json`` holding
    ``{"id": ..., "title": ..., "source": ...}``. The first data row is the
    header row. An error in the sidecar's JSON (a lone surrogate included) or
    id names the sidecar; a row ``csv`` cannot read names its line of the
    data file; any other error in the table, such as a duplicate header, a
    ragged row or a bad title or source, names the data file.
    """
    data_path = Path(data_path)
    meta_path = data_path.parent / (data_path.stem + ".meta.json")
    if not meta_path.exists():
        raise FileNotFoundError(f"missing metadata sidecar {meta_path}")
    meta = read_json(meta_path, error=ParseError)
    try:
        field(meta, "id", str)
    except ParseError as exc:
        raise located(exc, meta_path)
    delimiter = "\t" if data_path.suffix.lower() == ".tsv" else ","
    grid = [cells for _, cells in read_csv(data_path, delimiter)]
    if not grid:
        raise located(ParseError("empty table file"), data_path)
    try:
        return table_from_dict({**meta, "headers": grid[0], "rows": grid[1:]})
    except TableTriplesError as exc:
        raise located(exc, data_path)


def parse_annotation(record: dict) -> OntologyAnnotation:
    """Parse one annotation record: {table_id, title_shape, parents}."""
    # tuple() would read a string as its characters and an object as its keys
    return OntologyAnnotation(
        field(record, "table_id"), tuple(field(record, "parents", list)),
        field(record, "title_shape", TitleShape, default=TitleShape.TITLE_UNDER_ROOT))


def table_to_dict(table: Table) -> dict:
    return {
        "id": table.id,
        "title": table.title,
        "source": table.source.value,
        "headers": list(table.headers),
        "rows": [list(row) for row in table.rows],
    }


def table_from_dict(record: dict) -> Table:
    table_id = field(record, "id")
    # tuple() would split a string where a list belongs into its characters
    headers, rows = field(record, "headers", list), field(record, "rows", list, default=())
    if not set(map(type, rows)) <= {list}:
        i, row = next((i, row) for i, row in enumerate(rows) if type(row) is not list)
        raise ParseError(f"table {table_id}: row {i} must be a list, got {row!r}")
    return Table(table_id, record.get("title", ""), tuple(headers), tuple(map(tuple, rows)),
                 field(record, "source", Provenance, default=Provenance.OTHER))
