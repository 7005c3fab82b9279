"""Stochastic extraction of connected components from an ontology tree.

A component is grown by a probabilistic walk over the tree: starting from a
random child of the root, each step descends to an unvisited child with
probability p and otherwise moves to an unvisited sibling. p = 1 degenerates
to depth-first growth, p = 0 to breadth-first growth across sibling groups.
The root itself never joins a component; it is context, and subtree
completion reattaches it later when a component spans several branches.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import BoundError, EmptyTreeError, checked
from .rng import choose, derive_rng, uniform_float, uniform_int
from .tables import ROOT, NodeId, OntologyTree


@checked
class SamplerConfig(NamedTuple):
    size_min: int = 2
    size_max: int = 5
    p_min: float = 0.5
    p_max: float = 0.7
    seed: int = 0

    def _check(self):
        # each bound names the flag that sets it; ``not x >= y`` also rejects NaN
        if not self.size_min >= 1:
            raise BoundError(f"--size-min must be at least 1, got {self.size_min}", "--size-min")
        if not self.size_max >= self.size_min:
            raise BoundError(f"--size-max must be at least --size-min ({self.size_min}), "
                             f"got {self.size_max}", "--size-max", "--size-min")
        if not self.p_min >= 0.0:
            raise BoundError(f"--p-min must be at least 0, got {self.p_min}", "--p-min")
        if not self.p_max >= self.p_min:
            raise BoundError(f"--p-max must be at least --p-min ({self.p_min}), "
                             f"got {self.p_max}", "--p-max", "--p-min")
        if not self.p_max <= 1.0:
            raise BoundError(f"--p-max must be at most 1, got {self.p_max}", "--p-max")


class Component(NamedTuple):
    node_ids: frozenset[NodeId]
    p_used: float
    target_size: int

    @property
    def size(self) -> int:
        return len(self.node_ids)


def _unvisited_children(tree: OntologyTree, node: NodeId, visited: set) -> list[NodeId]:
    return [c for c in tree.children_of(node) if c not in visited]


def _unvisited_siblings(tree: OntologyTree, node: NodeId, visited: set) -> list[NodeId]:
    """Unvisited siblings in cyclic order starting just after ``node``."""
    sibs = tree.children_of(tree.parent[node])
    i = sibs.index(node)
    rotated = sibs[i + 1 :] + sibs[:i]
    return [s for s in rotated if s not in visited]


def sample_component(
    tree: OntologyTree, config: SamplerConfig, rng: random.Random
) -> Component:
    """Grow one component; deterministic given (tree, config, rng state).

    The target size and p are each drawn once per component. When the walk
    has neither an unvisited child nor an unvisited sibling it resumes from
    the nearest ancestor inside the component that still has an unvisited
    child, falling back to the most recently visited node with any move left
    so the walk cannot stall below the target on skewed trees. Every visited
    node's parent is either visited or the root, so the component plus the
    root always induces a connected subtree.
    """
    top = tree.children_of(ROOT)
    if not top:
        raise EmptyTreeError("tree has no nodes besides the root")

    target = uniform_int(rng, config.size_min, config.size_max)
    p = uniform_float(rng, config.p_min, config.p_max)
    start = choose(rng, top)

    visited: set[NodeId] = {start}
    order: list[NodeId] = [start]
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


def _resume_node(
    tree: OntologyTree, current: NodeId, visited: set, order: list[NodeId]
) -> NodeId | None:
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


def sample_for_table(
    tree: OntologyTree,
    table_id: str,
    row_indices: list[int],
    config: SamplerConfig,
) -> list[tuple[int, Component]]:
    """One component per row, drawn from a per-table stream.

    The stream is keyed by (config.seed, table_id), so results do not depend
    on how tables are distributed over workers; rows consume from the stream
    in index order.
    """
    stream = derive_rng(config.seed, table_id)
    return [(row, sample_component(tree, config, stream)) for row in row_indices]
