"""Corpus statistics: vocabulary, tokens and sentences per realization,
tripleset size distribution, distinct predicates and triples.

Counting happens in mergeable per-entry accumulators so large corpora can be
reduced map-style; the merge is commutative and associative.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .textutil import sentence_count, word_tokens
from .triples import CorpusEntry


@dataclass(frozen=True)
class CorpusStats:
    pair_count: int  # tripleset-sentence pairs (one per realization)
    unique_predicates: int
    unique_triples: int
    triples_per_set: tuple[int, float, int]  # (min, median, max)
    vocab_size: int
    words_per_sr: float
    sentences_per_sr: float
    table_count: int


@dataclass
class StatsAccumulator:
    n_realizations: int = 0
    total_words: int = 0
    total_sentences: int = 0
    vocab: set = field(default_factory=set)
    predicates: set = field(default_factory=set)
    triples: set = field(default_factory=set)
    table_ids: set = field(default_factory=set)
    set_sizes: Counter = field(default_factory=Counter)

    def add(self, entry: CorpusEntry) -> None:
        for r in entry.realizations:
            tokens = word_tokens(r.text)
            self.n_realizations += 1
            self.total_words += len(tokens)
            self.total_sentences += sentence_count(r.text)
            self.vocab.update(tokens)
        for t in entry.triples:
            self.predicates.add(t.predicate)
            self.triples.add(t)
        if entry.table_id is not None:
            self.table_ids.add(entry.table_id)
        self.set_sizes[len(entry.triples)] += 1

    def merge(self, other: "StatsAccumulator") -> "StatsAccumulator":
        out = StatsAccumulator(
            n_realizations=self.n_realizations + other.n_realizations,
            total_words=self.total_words + other.total_words,
            total_sentences=self.total_sentences + other.total_sentences,
            vocab=self.vocab | other.vocab,
            predicates=self.predicates | other.predicates,
            triples=self.triples | other.triples,
            table_ids=self.table_ids | other.table_ids,
        )
        out.set_sizes = self.set_sizes + other.set_sizes
        return out

    def finalize(self) -> CorpusStats:
        sizes = sorted(self.set_sizes.elements())
        if sizes:
            mid = len(sizes) // 2
            if len(sizes) % 2:
                median = float(sizes[mid])
            else:
                median = (sizes[mid - 1] + sizes[mid]) / 2
            size_summary = (sizes[0], median, sizes[-1])
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


def compute_stats(corpus: Iterable[CorpusEntry]) -> CorpusStats:
    """The statistics of ``corpus``, whose entries are read once, as they come."""
    acc = StatsAccumulator()
    for entry in corpus:
        acc.add(entry)
    return acc.finalize()


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
