"""Shared fixtures: reference tables, tree builders, independent oracles.

The connectivity and minimal-superset helpers here are deliberately written
against adjacency only (BFS over bitmasks), independent of the completion
logic they are used to check.
"""

from __future__ import annotations

import random

import pytest

from fixture_pipeline import FIXTURES  # noqa: F401  (the tests import it from here)
from tabletriples.tables import (
    ROOT,
    TITLE,
    OntologyAnnotation,
    OntologyTree,
    Table,
)


@pytest.fixture
def stadium_table() -> Table:
    return Table(
        id="stadiums",
        title="",
        headers=("Team", "Stadium", "City", "Capacity", "Opened"),
        rows=(
            ("Amsterdam Admirals", "Olympisch Stadion", "Amsterdam", "31600", "1928"),
            ("Barcelona Dragons", "Mini Estadi", "Barcelona", "15276", "1982"),
        ),
    )


@pytest.fixture
def stadium_annotation() -> OntologyAnnotation:
    # Team at the top; Stadium and Opened under Team; City and Capacity under Stadium
    return OntologyAnnotation(table_id="stadiums", parents=("ROOT", 0, 1, 1, 0))


@pytest.fixture
def stadium_tree(stadium_table, stadium_annotation) -> OntologyTree:
    from tabletriples.tables import build_tree

    return build_tree(stadium_table, stadium_annotation)


def make_chain(n: int) -> OntologyTree:
    """Root -> c0 -> c1 -> ... -> c(n-1)."""
    parent: dict = {0: ROOT}
    for i in range(1, n):
        parent[i] = i - 1
    return OntologyTree(column_nodes={i: f"c{i}" for i in range(n)}, parent=parent)


def make_star(n: int) -> OntologyTree:
    """Root with n column children."""
    return OntologyTree(column_nodes={i: f"c{i}" for i in range(n)},
                        parent={i: ROOT for i in range(n)})


def random_tree(rng: random.Random, n_cols: int, title_prob: float = 0.3) -> OntologyTree:
    """Random recursive tree over n_cols columns, optionally with a title node.

    Each column's parent is drawn from the root, the title (when present),
    or an earlier column, so the result is always a valid tree.
    """
    has_title = rng.random() < title_prob
    parent: dict = {}
    if has_title:
        parent[TITLE] = ROOT
    for i in range(n_cols):
        pool: list = [ROOT] + ([TITLE] if has_title else []) + list(range(i))
        parent[i] = pool[rng.randrange(len(pool))]
    return OntologyTree(column_nodes={i: f"c{i}" for i in range(n_cols)}, parent=parent)


def tree_adjacency(tree: OntologyTree) -> dict:
    adj: dict = {n: set() for n in tree.nodes()}
    for child, parent in tree.parent.items():
        adj[child].add(parent)
        adj[parent].add(child)
    return adj


def is_connected_set(tree: OntologyTree, nodes: set) -> bool:
    """BFS within ``nodes`` over tree edges only."""
    if not nodes:
        return True
    adj = tree_adjacency(tree)
    seen = set()
    frontier = [next(iter(nodes))]
    while frontier:
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(adj[node] & nodes - seen)
    return seen == nodes


def minimal_connected_superset(tree: OntologyTree, highlight: set) -> set:
    """Brute force: smallest connected node set containing the highlight.

    Enumerates every subset of the tree's nodes as a bitmask; in a tree the
    minimal connected superset is unique, and an AssertionError here means
    the enumeration found a tie, which would be a bug in the oracle itself.
    """
    nodes = tree.nodes()
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    adj = [0] * n
    for child, parent in tree.parent.items():
        ci, pi = index[child], index[parent]
        adj[ci] |= 1 << pi
        adj[pi] |= 1 << ci

    def connected(mask: int) -> bool:
        start = mask & -mask
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            m = frontier
            while m:
                bit = m & -m
                m ^= bit
                nxt |= adj[bit.bit_length() - 1]
            nxt &= mask & ~seen
            seen |= nxt
            frontier = nxt
        return seen == mask

    hmask = 0
    for h in highlight:
        hmask |= 1 << index[h]
    best = None
    ties = 0
    for mask in range(1, 1 << n):
        if mask & hmask != hmask or not connected(mask):
            continue
        size = bin(mask).count("1")
        if best is None or size < bin(best).count("1"):
            best, ties = mask, 0
        elif size == bin(best).count("1") and mask != best:
            ties += 1
    assert best is not None
    assert ties == 0, "minimal connected superset is not unique"
    return {nodes[i] for i in range(n) if best >> i & 1}
