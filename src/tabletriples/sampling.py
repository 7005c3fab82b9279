"""Stochastic extraction of connected components from an ontology tree.

A component is grown by a probabilistic walk over the tree: starting from a
random child of the root, each step descends to an unvisited child with
probability p and otherwise moves to an unvisited sibling. p = 1 degenerates
to depth-first growth, p = 0 to breadth-first growth across sibling groups.
The root itself never joins a component; it is context, and subtree
completion reattaches it later when a component spans several branches.

The walk stops at its target size or once it holds every node the root
reaches. Below that cap it cannot stall. When the current node has neither
move, some reachable node is still unvisited; walking up from it, its first
visited ancestor has an unvisited child, or, if that ancestor is the root,
the start node (a child of the root) has an unvisited sibling. So the walk
always finds a node to resume from.
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


def sample_component(
    tree: OntologyTree, config: SamplerConfig, rng: random.Random
) -> Component:
    """Grow one component; deterministic given (tree, config, rng state).

    The target size and p are each drawn once per component; a coin is drawn
    only when the node has both an unvisited child and an unvisited sibling,
    and a child index only when it has several unvisited children. With
    neither move the walk resumes from the nearest ancestor that still has an
    unvisited child, else from the most recently visited node with any move
    left. Every visited node's parent is either visited or the root, so the
    component plus the root always induces a connected subtree.
    """
    children, rings, parent = tree.children, tree.rings, tree.parent
    top = children.get(ROOT)
    if not top:
        raise EmptyTreeError("tree has no nodes besides the root")

    target = uniform_int(rng, config.size_min, config.size_max)
    p = uniform_float(rng, config.p_min, config.p_max)
    start = choose(rng, top)

    cap = min(target, len(tree.preorder) - 1)  # every node the root reaches, less the root
    visited: set[NodeId] = {start}
    order: list[NodeId] = [start]
    current = start

    while len(visited) < cap:
        kids = [c for c in children.get(current, ()) if c not in visited]
        for sib in rings[current]:
            if sib not in visited:
                break
        else:
            sib = None
        if kids and (sib is None or rng.random() < p):
            nxt = kids[0] if len(kids) == 1 else kids[uniform_int(rng, 0, len(kids) - 1)]
        elif sib is not None:
            nxt = sib
        else:
            # every ancestor of a visited node is visited, up to the root
            host = parent[current]
            while host != ROOT and visited.issuperset(children[host]):
                host = parent[host]
            if host == ROOT:
                host = next(n for n in reversed(order)
                            if not visited.issuperset(children.get(n, ()))
                            or not visited.issuperset(rings[n]))
            current = host
            continue
        visited.add(nxt)
        order.append(nxt)
        current = nxt

    return Component(node_ids=frozenset(visited), p_used=p, target_size=target)


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
