"""Train/dev/test splitting that keeps similar tables out of training.

Tables are compared by the Jaccard similarity of their title+header token
sets, and two tables are linked when it exceeds the threshold. A random seed
set is drawn for test, then test takes every table joined to it by a chain of
links: the closure of the seed over linked pairs (one look at the seed is not
enough, or the far end of a chain leaks into training). The same process then
builds dev from the remainder; what is left trains.

The closure never compares every pair. Each signature is indexed under its
prefix: its ``n - alpha + 1`` rarest tokens, where ``alpha`` is the least
overlap that could put it above the threshold with anything. Two linked
tables share at least ``alpha`` tokens of each side, so the first token they
share lies in both prefixes (Bayardo, Ma and Srikant, "Scaling Up All Pairs
Similarity Search", WWW 2007). Probing the index therefore finds every linked
pair, so the result is exactly the closure, not an approximation.

Each candidate is checked on token bitmasks: every token gets one bit, a
table's mask is the OR of its tokens' bits, and the similarity is the popcount
of the AND over the popcount of the OR. Those two counts are the sizes of the
intersection and union of the token sets, so the quotient is the float that
``jaccard`` returns, without building two sets per check.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import NamedTuple

from .errors import BoundError, DegenerateSplitError, checked
from .rng import derive_rng, sample_indices
from .tables import Table
from .textutil import word_tokens


class SplitName(str, Enum):
    TRAIN = "train"
    DEV = "dev"
    TEST = "test"


class TableSignature(NamedTuple):
    table_id: str
    tokens: frozenset[str]

    @classmethod
    def from_table(cls, table: Table) -> "TableSignature":
        tokens = set(word_tokens(table.title))
        for header in table.headers:
            tokens.update(word_tokens(header))
        return cls(table_id=table.id, tokens=frozenset(tokens))


@checked
class SplitConfig(NamedTuple):
    threshold: float = 0.5
    test_seed_fraction: float = 0.1
    dev_seed_fraction: float = 0.1
    seed: int = 0

    def _check(self):
        # each bound names the flag that sets it
        for flag, value in (
            ("--threshold", self.threshold),
            ("--test-seed-frac", self.test_seed_fraction),
            ("--dev-seed-frac", self.dev_seed_fraction),
        ):
            if not 0.0 < value < 1.0:
                raise BoundError(f"{flag} must be in (0, 1), got {value}", flag)
        if self.test_seed_fraction + self.dev_seed_fraction >= 1.0:
            raise BoundError(f"--test-seed-frac ({self.test_seed_fraction}) plus "
                             f"--dev-seed-frac ({self.dev_seed_fraction}) must be less than 1",
                             "--test-seed-frac", "--dev-seed-frac")


def jaccard(a: TableSignature, b: TableSignature) -> float:
    """|A intersect B| / |A union B| over token sets; 0 when both are empty."""
    if not a.tokens and not b.tokens:
        return 0.0
    return len(a.tokens & b.tokens) / len(a.tokens | b.tokens)


def _mask_jaccard(a: int, b: int) -> float:
    """``jaccard`` over token bitmasks, of which at least one is not empty."""
    return (a & b).bit_count() / (a | b).bit_count()


def expand_by_similarity(
    seed: list[TableSignature],
    pool: list[TableSignature],
    threshold: float,
) -> tuple[list[TableSignature], list[TableSignature]]:
    """Pull every pool table joined to ``seed`` by a chain of similar pairs.

    A pool table is pulled when its Jaccard similarity with a seed table or
    an already pulled table exceeds ``threshold``: the result is the closure
    of the seed set over such pairs. Returns (the seed in seed order followed
    by the pulled tables in pool order, the rest in pool order).

    Every pool table is indexed once under the tokens of its prefix
    (``_prefix``). The seed tables start a worklist; each table probes the
    index with its own prefix once, when it joins, and every candidate there
    not yet pulled is verified with ``_mask_jaccard`` and, if above the
    threshold, joins. Every pair above the threshold shares a prefix token,
    so each member finds all its similar pool tables and the result is
    exactly the closure, whatever the order of the worklist. A negative
    threshold is rejected: it would link tables that share no token, which
    no index finds.

    Each token gets a bit when first seen. The seed tables' masks are built
    up front, a pool table's when it is first a candidate: on a sparse
    vocabulary few pool tables ever are.
    """
    if threshold < 0:
        raise ValueError(f"threshold {threshold} is negative")
    frequency = Counter(token for sig in pool for token in sig.tokens)
    prefixes = [_prefix(sig, frequency, threshold) for sig in pool]
    index: dict[str, list[int]] = {}
    for i, prefix in enumerate(prefixes):
        for token in prefix:
            index.setdefault(token, []).append(i)
    bits: dict[str, int] = {}

    def mask(sig: TableSignature) -> int:
        out = 0
        for token in sig.tokens:
            out |= bits.setdefault(token, 1 << len(bits))
        return out

    masks: dict[int, int] = {}  # by pool index, built lazily
    pulled = [False] * len(pool)
    work = [(mask(sig), _prefix(sig, frequency, threshold)) for sig in seed]
    while work:
        member, prefix = work.pop()
        for token in prefix:
            for i in index.get(token, ()):
                if pulled[i]:
                    continue
                other = masks.get(i)
                if other is None:
                    other = masks[i] = mask(pool[i])
                if _mask_jaccard(member, other) > threshold:
                    pulled[i] = True
                    work.append((other, prefixes[i]))
    taken = list(seed) + [sig for sig, was_pulled in zip(pool, pulled) if was_pulled]
    return taken, [sig for sig, was_pulled in zip(pool, pulled) if not was_pulled]


def _prefix(sig: TableSignature, frequency: Counter[str], threshold: float) -> list[str]:
    """The first ``n - alpha + 1`` of the ``n`` tokens of ``sig``, rarest first.

    Tokens are ordered by ascending ``frequency``, ties by the token itself.
    ``alpha`` is the smallest overlap ``o`` with ``o / n > threshold``; a pair
    above the threshold shares at least ``alpha`` tokens of each side, since
    ``|A & B| / |A| >= jaccard(A, B)``, so the first shared token in this
    order lies in the prefix of both. Float division rounds monotonically, so
    this holds for the values ``jaccard`` compares, with no epsilon. A
    signature with no such ``alpha`` (no tokens, or a threshold of 1 or more)
    matches nothing and has no prefix.
    """
    n = len(sig.tokens)
    alpha = next((o for o in range(1, n + 1) if o / n > threshold), n + 1)
    return sorted(sig.tokens, key=lambda token: (frequency[token], token))[: n - alpha + 1]


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
        raise DegenerateSplitError(f"need at least 3 tables, got {len(tables)}")
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
