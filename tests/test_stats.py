import copy
import itertools
import random
import statistics

import pytest

from fixture_pipeline import run_pipeline
from tabletriples import stats as stats_module
from tabletriples.cli import main
from tabletriples.formats import read_entries_file
from tabletriples.stats import StatsAccumulator, compute_stats, format_stats
from tabletriples.textutil import sentence_count, word_tokens
from tabletriples.triples import CorpusEntry, Realization, Triple


def entry(eid, predicates, texts, table_id=None):
    return CorpusEntry(
        triples=tuple(Triple(f"s{eid}{i}", p, f"o{eid}{i}") for i, p in enumerate(predicates)),
        realizations=tuple(Realization(t) for t in texts),
        category="MISC",
        eid=eid,
        table_id=table_id,
    )


class TestTokenization:
    def test_word_tokens_drop_punctuation(self):
        assert word_tokens("Greece held its last Summer Olympics in 2004.") == [
            "greece", "held", "its", "last", "summer", "olympics", "in", "2004",
        ]

    def test_tokens_are_lowercased(self):
        assert word_tokens("KLM keeps Aircraft") == ["klm", "keeps", "aircraft"]

    def test_sentence_count_simple(self):
        assert sentence_count("Greece held its last Summer Olympics in 2004.") == 1

    def test_sentence_count_multiple(self):
        assert sentence_count("Hello there! How are you? Fine.") == 3

    def test_sentence_count_without_final_punctuation(self):
        assert sentence_count("no punctuation at all") == 1

    def test_sentence_count_ignores_empty_segments(self):
        assert sentence_count("Done.   ") == 1
        assert sentence_count("What?!") == 1


class TestComputeStats:
    def test_empty_corpus_all_zeros(self):
        stats = compute_stats([])
        assert stats.pair_count == 0
        assert stats.unique_predicates == 0
        assert stats.unique_triples == 0
        assert stats.triples_per_set == (0, 0.0, 0)
        assert stats.vocab_size == 0
        assert stats.words_per_sr == 0.0
        assert stats.sentences_per_sr == 0.0
        assert stats.table_count == 0

    def test_single_entry(self):
        stats = compute_stats(
            [entry("Id1", ["p"], ["Greece held its last Summer Olympics in 2004."])]
        )
        assert stats.triples_per_set == (1, 1.0, 1)
        assert stats.words_per_sr == 8.0
        assert stats.sentences_per_sr == 1.0
        assert stats.vocab_size == 8

    def test_median_odd_and_even(self):
        corpus = [entry("a", ["p"] * 1, ["x."]), entry("b", ["p"] * 2, ["x."]),
                  entry("c", ["p"] * 5, ["x."])]
        assert compute_stats(corpus).triples_per_set == (1, 2.0, 5)
        corpus.append(entry("d", ["p"] * 4, ["x."]))
        assert compute_stats(corpus).triples_per_set == (1, 3.0, 4 + 1)

    def test_median_of_repeated_sizes(self):
        # sizes repeat, so the middle falls inside one size's count or between two sizes
        for sizes in ([1, 1, 3, 5], [2, 2, 2, 7], [1, 1, 1, 4, 4, 4], [3, 1, 3, 1, 3]):
            corpus = [entry(f"e{i}", ["p"] * n, ["x."]) for i, n in enumerate(sizes)]
            expected = (min(sizes), float(statistics.median(sizes)), max(sizes))
            assert compute_stats(corpus).triples_per_set == expected

    def test_pair_count_counts_realizations(self):
        stats = compute_stats([entry("a", ["p"], ["one.", "two."])])
        assert stats.pair_count == 2

    def test_unique_triples_and_predicates(self):
        e1 = entry("a", ["p", "q"], ["x."])
        stats = compute_stats([e1, e1])
        assert stats.unique_triples == 2
        assert stats.unique_predicates == 2

    def test_table_count_distinct(self):
        corpus = [
            entry("a", ["p"], ["x."], table_id="t1"),
            entry("b", ["p"], ["x."], table_id="t1"),
            entry("c", ["p"], ["x."], table_id="t2"),
            entry("d", ["p"], ["x."]),  # sourceless entries count no table
        ]
        assert compute_stats(corpus).table_count == 2

    def test_permutation_invariance(self):
        rng = random.Random(5)
        corpus = [
            entry(f"e{i}", ["p", "q", "r"][: rng.randrange(1, 4)], [f"text {i} ok."])
            for i in range(30)
        ]
        base = compute_stats(corpus)
        rng.shuffle(corpus)
        assert compute_stats(corpus) == base

    def test_adding_entries_is_monotone(self):
        rng = random.Random(9)
        corpus = []
        prev = compute_stats(corpus)
        for i in range(25):
            corpus.append(
                entry(f"e{i}", [f"p{rng.randrange(6)}"], [f"word{rng.randrange(9)} here."])
            )
            now = compute_stats(corpus)
            assert now.vocab_size >= prev.vocab_size
            assert now.unique_triples >= prev.unique_triples
            assert now.pair_count >= prev.pair_count
            prev = now

    def test_size_bounds_attained(self):
        corpus = [entry("a", ["p"] * 2, ["x."]), entry("b", ["p"] * 7, ["x."])]
        stats = compute_stats(corpus)
        sizes = {len(e.triples) for e in corpus}
        assert stats.triples_per_set[0] in sizes
        assert stats.triples_per_set[2] in sizes


class TestUpdate:
    def test_a_fold_equals_one_accumulator(self):
        rng = random.Random(123)
        corpus = [
            entry(f"e{i}", [f"p{rng.randrange(4)}"] * rng.randrange(1, 5),
                  [f"alpha bravo {i}."], table_id=f"t{i % 3}")
            for i in range(40)
        ]
        cut = rng.randrange(1, len(corpus))
        left, right = StatsAccumulator(), StatsAccumulator()
        for e in corpus[:cut]:
            left.add(e)
        for e in corpus[cut:]:
            right.add(e)
        left.update(right)
        assert left.finalize() == compute_stats(corpus)

    def test_fold_order_does_not_matter(self):
        accs = []
        for i in range(3):
            acc = StatsAccumulator()
            acc.add(entry(f"e{i}", ["p", f"q{i}"], [f"text number {i}."], table_id=f"t{i % 2}"))
            accs.append(acc)
        folded = set()
        for order in itertools.permutations(accs):
            total = StatsAccumulator()
            for acc in order:
                total.update(acc)
            folded.add(total.finalize())
        assert len(folded) == 1

    def test_other_is_left_unchanged(self):
        a, b = StatsAccumulator(), StatsAccumulator()
        a.add(entry("x", ["p"], ["one two."], table_id="t1"))
        b.add(entry("y", ["p", "q"], ["three one!"], table_id="t2"))
        before = copy.deepcopy(b)
        a.update(b)
        assert b == before
        a.add(entry("z", ["r"], ["four."], table_id="t3"))
        assert b == before and b.canon == before.canon

    def test_equal_counts_are_equal_whatever_the_canonicalization_dict(self):
        a, b = StatsAccumulator(), StatsAccumulator(canon={"unrelated": "unrelated"})
        for acc in (a, b):
            acc.add(entry("x", ["p"], ["one two."], table_id="t1"))
        assert a == b and a.canon != b.canon
        b.add(entry("y", ["q"], ["three."]))
        assert a != b


def provenance(e: CorpusEntry) -> str:
    return e.provenance.value


@pytest.fixture(scope="module")
def unified(tmp_path_factory):
    """The unified entries of the fixture corpus, one file of every source."""
    workdir = tmp_path_factory.mktemp("pipeline")
    run_pipeline(workdir)
    return workdir / "unified.jsonl"


class TestPartitions:
    def test_folding_the_partitions_with_update_equals_one_accumulator(self, unified):
        one, partitions = StatsAccumulator(), {}
        for e in read_entries_file(unified):
            one.add(e)
            partitions.setdefault(provenance(e), StatsAccumulator()).add(e)
        assert len(partitions) > 1
        folded = StatsAccumulator()
        for acc in partitions.values():
            folded.update(acc)
        assert folded == one
        assert folded.finalize() == one.finalize()

    def test_all_of_the_partitioned_call_equals_the_unpartitioned_call(self, unified):
        entries = list(read_entries_file(unified))
        overall, partitions = compute_stats(entries, key=provenance)
        assert overall == compute_stats(entries)
        names = sorted({provenance(e) for e in entries})
        assert list(partitions) == names
        assert partitions == {name: compute_stats(e for e in entries if provenance(e) == name)
                              for name in names}

    def test_an_empty_corpus_has_no_partitions(self):
        assert compute_stats([], key=provenance) == (compute_stats([]), {})

    def test_stats_tokenizes_each_realization_once(self, unified, monkeypatch, capsys):
        texts = []

        def counted(text):
            texts.append(text)
            return word_tokens(text)

        monkeypatch.setattr(stats_module, "word_tokens", counted)
        assert main(["stats", "--input", str(unified), "--by-partition"]) == 0
        assert texts == [r.text for e in read_entries_file(unified) for r in e.realizations]

    @pytest.mark.parametrize("key, partitions", [(None, 1), (provenance, 4)])
    def test_all_is_folded_into_the_first_partition(self, unified, monkeypatch, key,
                                                    partitions):
        made = []

        class Recorded(StatsAccumulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(stats_module, "StatsAccumulator", Recorded)
        entries = list(read_entries_file(unified))
        result = compute_stats(entries, key=key)
        accs = made[:]
        assert len(accs) == partitions  # one accumulator a partition, and no other
        one = Recorded()
        for e in entries:
            one.add(e)
        assert [acc == one for acc in accs].count(True) == 1  # the one that holds all
        assert (result if key is None else result[0]) == one.finalize()

    def test_two_calls_share_no_canonicalization_dict(self, monkeypatch):
        made = []

        class Recorded(StatsAccumulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(stats_module, "StatsAccumulator", Recorded)
        compute_stats([entry("a", ["p"], ["x."]), entry("b", ["q"], ["y."])], key=lambda e: e.eid)
        first = made[:]
        made.clear()
        compute_stats([entry("c", ["r", "r"], ["z."])], key=lambda e: e.eid)
        [canon] = {id(acc.canon): acc.canon for acc in first}.values()  # one for the call
        [later] = {id(acc.canon): acc.canon for acc in made}.values()
        assert later is not canon
        assert set(later) == {"sc0", "r", "oc0", "sc1", "oc1"}


def test_format_stats_renders_all_fields():
    stats = compute_stats([entry("a", ["p", "q"], ["some words here."])])
    text = format_stats(stats, heading="demo")
    assert "[demo]" in text
    assert "words per SR" in text
    assert "3.00" in text  # words per SR
