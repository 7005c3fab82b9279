"""Subtree completion, row instantiation, and triple extraction.

Highlighted nodes are completed to a connected subtree by walking every
highlight up to the lowest common ancestor of the whole set (inclusive).
Cell values are then placed into the tree for one row, and each non-root
node N of the subtree yields the triple (value of parent(N), label of N,
value of N). The subject comes from parent(N) even when the parent is not
part of the subtree. The names it takes from ``entries`` are re-exported.
"""

from __future__ import annotations

from .entries import (MAX_TRIPLES, Annotator, CorpusEntry, Highlight,  # noqa: F401
                      Provenance, Realization, Triple, assemble_entry, check_entry)
from .errors import BadIndexError, OversizeError
from .tables import ROOT, TITLE, NodeId, OntologyTree, Table


def complete_subtree(tree: OntologyTree, nodes: frozenset[NodeId] | set) -> frozenset[NodeId]:
    """Close a highlight over the paths to its lowest common ancestor.

    Returns the highlight plus every node on the path from each highlighted
    node up to the LCA of the whole set, LCA included. Already-connected
    highlights come back unchanged; sets spanning several root branches gain
    the root, their only connector. A one-node highlight is returned as it
    is; otherwise each node's depth is read once, and the deepest level is
    lifted whole onto its parents until one node, the LCA, is left.
    """
    if not nodes:
        raise ValueError("cannot complete an empty highlight")
    if len(nodes) == 1:
        return frozenset(nodes)
    levels: dict[int, set[NodeId]] = {}
    for node in nodes:
        levels.setdefault(tree.depth_of(node), set()).add(node)
    parent, completed = tree.parent, set(nodes)
    depth = max(levels)
    level = levels.pop(depth)
    while levels or len(level) > 1:
        depth -= 1
        level = {parent[n] for n in level}
        completed |= level
        level.update(levels.pop(depth, ()))
    return frozenset(completed)


def instantiate(tree: OntologyTree, table: Table, row_index: int) -> dict[NodeId, str]:
    """Total node -> value map for one row of the table."""
    if not 0 <= row_index < len(table.rows):
        raise ValueError(f"row {row_index} out of range for table {table.id}")
    row = table.rows[row_index]
    assignment: dict[NodeId, str] = {ROOT: ROOT}
    if tree.has_title:
        assignment[TITLE] = table.title
    for col in tree.column_nodes:
        assignment[col] = row[col]
    return assignment


def extract_triples(
    subtree: frozenset[NodeId] | set,
    assignment: dict[NodeId, str],
    tree: OntologyTree,
) -> tuple[Triple, ...]:
    """One triple per non-root subtree node, in pre-order tree position."""
    # from a list, not a generator, for the reason given in adapters.webnlg_ingest
    triples = tuple([Triple(assignment[tree.parent[n]], tree.label(n), assignment[n])
                     for n in tree.preorder if n in subtree and n != ROOT])
    if len(triples) > MAX_TRIPLES:
        raise OversizeError(f"tripleset has {len(triples)} triples, limit is {MAX_TRIPLES}")
    return triples


def entry_for_highlight(
    tree: OntologyTree,
    table: Table,
    nodes: frozenset[NodeId] | set,
    row_index: int,
    realizations: list[Realization] | tuple[Realization, ...],
    category: str,
    eid: str,
    provenance: Provenance,
) -> CorpusEntry:
    """The corpus entry for highlighted nodes of one table row.

    Completes the highlight to a connected subtree, instantiates the row and
    extracts one triple per subtree node; an entry with an empty subject or
    object carries the ``empty_cell`` flag. Raises BadIndexError for a node id
    the tree does not have, MalformedEntryError for a highlight of the root
    alone (no triples) and OversizeError for more than MAX_TRIPLES triples.
    """
    unknown = sorted((n for n in nodes if n != ROOT and n not in tree.parent), key=repr)
    if unknown:
        raise BadIndexError(
            f"table {table.id}, row {row_index}: unknown node id "
            + ", ".join(repr(n) for n in unknown)
        )
    subtree = complete_subtree(tree, nodes)
    assignment = instantiate(tree, table, row_index)
    triples = extract_triples(subtree, assignment, tree)
    empty_cell = any(not t.subject or not t.object for t in triples)
    return assemble_entry(
        triples, realizations, category, eid, provenance,
        table_id=table.id, row_index=row_index,
        flags=("empty_cell",) if empty_cell else (),
    )
