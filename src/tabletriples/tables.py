"""Tables, column-parent annotations, and ontology trees.

A table's columns are organized into a rooted tree: the synthetic root
``[TABLECONTEXT]`` sits above everything, an optional ``[TITLE]`` node carries
the table title, and each column hangs under the root, the title, or another
column. Node ids are plain values: column nodes are 0-based ints, the title
node is the string ``"[TITLE]"``, the root is ``"[TABLECONTEXT]"``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import (RECORD_ERRORS, BadIndexError, CycleError, DuplicateHeaderError,
                     ParseError, located)
from .files import read_text

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
        if not isinstance(self.id, str):
            raise ParseError(f"table id must be a string, got {self.id!r}")
        # the XML and MR adapters produce triplesets, never tables
        if self.source in (Provenance.WEBNLG, Provenance.E2E):
            raise ValueError(f"table {self.id}: {self.source.value!r} is not a table source")
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
                raise ValueError(
                    f"table {self.id}: row {i} has {len(row)} cells, "
                    f"expected {len(self.headers)}"
                )
            for j, cell in enumerate(row):
                if not isinstance(cell, str):
                    raise ParseError(
                        f"table {self.id}: row {i} cell {j} must be a string, got {cell!r}")

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


@dataclass
class OntologyTree:
    """Rooted tree over a table's columns plus the optional title node.

    ``column_nodes`` and ``parent`` are stored as given, so a hand-built tree
    with a cycle or a dangling parent still constructs; its unreachable nodes
    have no depth. Derived: ``children`` (siblings title-first, then by column
    index), the depth-first order and each reachable node's depth.
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


def build_tree(table: Table, annotation: OntologyAnnotation) -> OntologyTree:
    """Build the ontology tree for ``table`` from its parent annotation.

    Raises BadIndexError for out-of-range or self-referential column parents
    and CycleError for columns the root never reaches: with every parent in
    range, those sit on a cycle or below one. The title node exists
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
    cyclic = [node for node in tree.nodes() if node not in tree._depth]
    if cyclic:
        raise CycleError(f"table {table.id}: cycle reached from nodes {cyclic}")
    return tree


# --- ingestion -------------------------------------------------------------

def load_table(data_path: str | Path) -> Table:
    """Read one table from a UTF-8 CSV/TSV file plus its metadata sidecar.

    ``X.csv`` (or ``.tsv``) pairs with ``X.meta.json`` holding
    ``{"id": ..., "title": ..., "source": ...}``. The first data row is the
    header row. An error in the sidecar's JSON or id names the sidecar; any
    other error in the table, such as a duplicate header, a ragged row or a
    bad title or source, names the data file.
    """
    data_path = Path(data_path)
    meta_path = data_path.parent / (data_path.stem + ".meta.json")
    if not meta_path.exists():
        raise FileNotFoundError(f"missing metadata sidecar {meta_path}")
    try:
        meta = json.loads(read_text(meta_path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{meta_path}: invalid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ParseError(f"{meta_path}: expected a JSON object")
    if "id" not in meta:
        raise ParseError(f"{meta_path}: missing field 'id'")
    if not isinstance(meta["id"], str):
        raise ParseError(f"{meta_path}: field 'id' must be a string, got {meta['id']!r}")
    delimiter = "\t" if data_path.suffix.lower() == ".tsv" else ","
    text = io.StringIO(read_text(data_path, newline=""), newline="")
    grid = list(csv.reader(text, delimiter=delimiter))
    if not grid:
        raise ParseError(f"{data_path}: empty table file")
    try:
        return table_from_dict({**meta, "headers": grid[0], "rows": grid[1:]})
    except RECORD_ERRORS as exc:
        raise located(exc, data_path)


def parse_annotation(record: dict) -> OntologyAnnotation:
    """Parse one annotation record: {table_id, title_shape, parents}."""
    try:
        table_id = record["table_id"]
        raw_parents = record["parents"]
    except KeyError as exc:
        raise ParseError(f"annotation record missing {exc}") from exc
    # tuple() would read a string as its characters and an object as its keys
    if type(raw_parents) is not list:
        raise ParseError(f"annotation for {table_id}: field 'parents' must be a list, "
                         f"got {raw_parents!r}")
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
    table_id, headers, rows = record["id"], record["headers"], record.get("rows", [])
    # tuple() would split a string where a list belongs into its characters
    for what, value in (("field 'headers'", headers), ("field 'rows'", rows)):
        if type(value) is not list:
            raise ParseError(f"table {table_id}: {what} must be a list, got {value!r}")
    if not set(map(type, rows)) <= {list}:
        i, row = next((i, row) for i, row in enumerate(rows) if type(row) is not list)
        raise ParseError(f"table {table_id}: row {i} must be a list, got {row!r}")
    return Table(
        id=table_id,
        title=record.get("title", ""),
        headers=tuple(headers),
        rows=tuple(map(tuple, rows)),
        source=Provenance(record.get("source", "other")),
    )
