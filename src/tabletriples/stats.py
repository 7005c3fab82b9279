"""Corpus statistics: vocabulary, tokens and sentences per realization,
tripleset size distribution, distinct predicates and triples.

Counting happens in accumulators that take one entry at a time, and one
accumulator can be folded into another (``update``) in any order. Each distinct
triple is kept as a plain ``(subject, predicate, object)`` tuple, which
hashes and compares equal to its ``Triple``, its strings canonicalized
through one dict that the accumulators of a ``compute_stats`` call share.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, NamedTuple

from .entries import CorpusEntry
from .textutil import sentence_count, word_tokens


class CorpusStats(NamedTuple):
    pair_count: int  # tripleset-sentence pairs (one per realization)
    unique_predicates: int
    unique_triples: int
    triples_per_set: tuple[int, float, int]  # (min, median, max)
    vocab_size: int
    words_per_sr: float
    sentences_per_sr: float
    table_count: int


class StatsAccumulator:
    """The counts of the entries added so far; two are equal when their counts are."""

    def __init__(self, canon: dict | None = None):
        self.n_realizations = self.total_words = self.total_sentences = 0
        self.vocab, self.predicates, self.triples, self.table_ids = set(), set(), set(), set()
        self.set_sizes: Counter = Counter()
        # each triple string, by itself: one object for all the equal strings added
        self.canon = {} if canon is None else canon

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return {**vars(self), "canon": None} == {**vars(other), "canon": None}

    def add(self, entry: CorpusEntry) -> None:
        for r in entry.realizations:
            tokens = word_tokens(r.text)
            self.n_realizations += 1
            self.total_words += len(tokens)
            self.total_sentences += sentence_count(r.text)
            self.vocab.update(tokens)
        canon = self.canon.setdefault
        for s, p, o in entry.triples:
            p = canon(p, p)
            self.predicates.add(p)
            self.triples.add((canon(s, s), p, canon(o, o)))
        if entry.table_id is not None:
            self.table_ids.add(entry.table_id)
        self.set_sizes[len(entry.triples)] += 1

    def update(self, other: "StatsAccumulator") -> None:
        """Count ``other``'s entries in this accumulator too; ``other`` is unchanged."""
        self.n_realizations += other.n_realizations
        self.total_words += other.total_words
        self.total_sentences += other.total_sentences
        self.vocab |= other.vocab
        self.predicates |= other.predicates
        self.triples |= other.triples
        self.table_ids |= other.table_ids
        self.set_sizes.update(other.set_sizes)

    def finalize(self) -> CorpusStats:
        counts = sorted(self.set_sizes.items())  # (tripleset size, entries of that size)
        if counts:
            def nth(i: int) -> int:  # the i-th smallest size, from 0
                for size, count in counts:
                    if i < count:
                        return size
                    i -= count

            total = sum(self.set_sizes.values())
            median = (nth((total - 1) // 2) + nth(total // 2)) / 2
            size_summary = (counts[0][0], median, counts[-1][0])
        else:
            size_summary = (0, 0.0, 0)
        n = self.n_realizations
        return CorpusStats(
            pair_count=n,
            unique_predicates=len(self.predicates),
            unique_triples=len(self.triples),
            triples_per_set=size_summary,
            vocab_size=len(self.vocab),
            words_per_sr=self.total_words / n if n else 0.0,
            sentences_per_sr=self.total_sentences / n if n else 0.0,
            table_count=len(self.table_ids),
        )


def compute_stats(corpus: Iterable[CorpusEntry], key: Callable[[CorpusEntry], str] | None = None
                  ) -> CorpusStats | tuple[CorpusStats, dict[str, CorpusStats]]:
    """The statistics of ``corpus``, whose entries are read once, as they come.

    Each entry is counted once, in the accumulator of its partition
    ``key(entry)``; without a ``key`` the corpus is one partition and the
    result is its stats. With one, the result is ``(all, {partition:
    stats})`` with the partitions in name order. ``all`` is folded in place
    into the first partition's accumulator, each partition finalized first.
    """
    partition = key or (lambda entry: "")
    canon: dict[str, str] = {}
    accs: dict[str, StatsAccumulator] = {}
    for entry in corpus:
        name = partition(entry)
        acc = accs.get(name)
        if acc is None:
            acc = accs[name] = StatsAccumulator(canon=canon)
        acc.add(entry)
    names = sorted(accs)
    total, partitions = accs[names[0]] if names else StatsAccumulator(), {}
    for name in names:
        acc = accs.pop(name)
        partitions[name] = acc.finalize()
        if acc is not total:
            total.update(acc)
    return total.finalize() if key is None else (total.finalize(), partitions)


def format_stats(stats: CorpusStats, heading: str = "corpus") -> str:
    """Aligned-text rendering for terminal output."""
    size_min, size_med, size_max = stats.triples_per_set
    rows = [
        ("tripleset-sentence pairs", f"{stats.pair_count}"),
        ("unique predicates", f"{stats.unique_predicates}"),
        ("unique triples", f"{stats.unique_triples}"),
        ("triples per set (min, med, max)", f"{size_min}, {size_med:g}, {size_max}"),
        ("vocab size", f"{stats.vocab_size}"),
        ("words per SR", f"{stats.words_per_sr:.2f}"),
        ("sentences per SR", f"{stats.sentences_per_sr:.2f}"),
        ("tables", f"{stats.table_count}"),
    ]
    width = max(len(label) for label, _ in rows)
    lines = [f"[{heading}]"]
    lines += [f"  {label.ljust(width)}  {value}" for label, value in rows]
    return "\n".join(lines)
