"""Train/dev/test splitting that keeps similar tables out of training.

Tables are compared by the Jaccard similarity of their title+header token
sets. A random seed set is drawn for test, then any table more similar than
the threshold to anything already in test is pulled in, repeated to a
fixpoint (one pass is not enough: similarity chains must be absorbed
transitively or near-duplicates leak into training). The same process then
builds dev from the remainder; what is left trains.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateSplitError
from .rng import derive_rng, sample_indices
from .tables import Table
from .textutil import word_tokens


class SplitName(str, Enum):
    TRAIN = "train"
    DEV = "dev"
    TEST = "test"


@dataclass(frozen=True)
class TableSignature:
    table_id: str
    tokens: frozenset[str]

    @classmethod
    def from_table(cls, table: Table) -> "TableSignature":
        tokens = set(word_tokens(table.title))
        for header in table.headers:
            tokens.update(word_tokens(header))
        return cls(table_id=table.id, tokens=frozenset(tokens))


@dataclass(frozen=True)
class SplitConfig:
    threshold: float = 0.5
    test_seed_fraction: float = 0.1
    dev_seed_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold {self.threshold} not in (0, 1)")
        for name, frac in (
            ("test_seed_fraction", self.test_seed_fraction),
            ("dev_seed_fraction", self.dev_seed_fraction),
        ):
            if not 0.0 < frac < 1.0:
                raise ValueError(f"{name} {frac} not in (0, 1)")
        if self.test_seed_fraction + self.dev_seed_fraction >= 1.0:
            raise ValueError("seed fractions must sum to less than 1")


def jaccard(a: TableSignature, b: TableSignature) -> float:
    """|A intersect B| / |A union B| over token sets; 0 when both are empty."""
    if not a.tokens and not b.tokens:
        return 0.0
    return len(a.tokens & b.tokens) / len(a.tokens | b.tokens)


def expand_by_similarity(
    seed: list[TableSignature],
    pool: list[TableSignature],
    threshold: float,
) -> tuple[list[TableSignature], list[TableSignature]]:
    """Pull every pool table more similar than ``threshold`` to the seed set.

    Runs to a fixpoint; returns (expanded set, untouched remainder), both in
    input order.
    """
    taken = list(seed)
    remaining = list(pool)
    changed = True
    while changed:
        changed = False
        still = []
        for sig in remaining:
            if any(jaccard(sig, member) > threshold for member in taken):
                taken.append(sig)
                changed = True
            else:
                still.append(sig)
        remaining = still
    return taken, remaining


def _draw_seed(
    pool: list[TableSignature], size: int, seed: int, label: str
) -> tuple[list[TableSignature], list[TableSignature]]:
    """(up to ``size`` random pool tables, the rest), both in pool order."""
    picked = set(sample_indices(derive_rng(seed, label), len(pool), min(size, len(pool))))
    drawn = [t for i, t in enumerate(pool) if i in picked]
    return drawn, [t for i, t in enumerate(pool) if i not in picked]


def split(
    tables: list[TableSignature], config: SplitConfig
) -> dict[str, SplitName]:
    """Assign every table to exactly one of train/dev/test.

    Guarantees that no train or dev table exceeds the similarity threshold
    with any test table, and no train table exceeds it with any dev table.
    Input order is irrelevant: tables are canonically sorted by id before the
    seed draws.
    """
    if len(tables) < 3:
        raise ValueError(f"need at least 3 tables, got {len(tables)}")
    ids = [t.table_id for t in tables]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate table ids in split input")

    ordered = sorted(tables, key=lambda t: t.table_id)
    n = len(ordered)

    test_seed, rest = _draw_seed(ordered, round(config.test_seed_fraction * n), config.seed, "test")
    test, rest = expand_by_similarity(test_seed, rest, config.threshold)
    dev_seed, remainder = _draw_seed(rest, round(config.dev_seed_fraction * n), config.seed, "dev")
    dev, train = expand_by_similarity(dev_seed, remainder, config.threshold)

    for name, part in (("test", test), ("dev", dev), ("train", train)):
        if not part:
            raise DegenerateSplitError(f"{name} split is empty")

    assignment: dict[str, SplitName] = {}
    for part, name in ((train, SplitName.TRAIN), (dev, SplitName.DEV), (test, SplitName.TEST)):
        for sig in part:
            assignment[sig.table_id] = name
    return assignment
