import random

import pytest

from tabletriples.errors import PredicateMapError
from tabletriples.stats import compute_stats
from tabletriples.triples import CorpusEntry, Provenance, Realization, Triple
from tabletriples.unify import PredicateMap, load_predicate_map, unify_entry

HOMETOWN_MAP = PredicateMap(
    entries={
        "Hometown": "HOMETOWN",
        "Home Town": "HOMETOWN",
        "Home Town/City": "HOMETOWN",
        "HOMETOWN": "HOMETOWN",
    }
)


def triples_of(*predicates: str) -> tuple[Triple, ...]:
    return tuple(Triple(f"s{i}", p, f"o{i}") for i, p in enumerate(predicates))


def entry_of(*predicates: str) -> CorpusEntry:
    return CorpusEntry(triples_of(*predicates), (Realization("x."),), "MISC", "Id1")


class TestPredicateMap:
    def test_chain_rejected(self):
        with pytest.raises(PredicateMapError):
            PredicateMap(entries={"a": "b", "b": "c"})

    def test_self_mapping_canonical_ok(self):
        PredicateMap(entries={"a": "b", "b": "b"})

    def test_empty_key_rejected(self):
        with pytest.raises(PredicateMapError):
            PredicateMap(entries={"": "x"})

    def test_empty_value_rejected(self):
        with pytest.raises(PredicateMapError):
            PredicateMap(entries={"x": ""})

    def test_load_tsv(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text(
            "# raw\tcanonical\nHometown\tHOMETOWN\nHome Town\tHOMETOWN\n\n",
            encoding="utf-8",
        )
        pmap = load_predicate_map(path)
        assert pmap.canonical("Hometown") == "HOMETOWN"
        assert pmap.canonical("Home Town") == "HOMETOWN"

    def test_load_rejects_bad_columns(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("one-column-only\n", encoding="utf-8")
        with pytest.raises(PredicateMapError):
            load_predicate_map(path)

    def test_load_rejects_conflicting_keys(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("a\tX\na\tY\n", encoding="utf-8")
        with pytest.raises(PredicateMapError):
            load_predicate_map(path)

    def test_load_keeps_line_separators_inside_a_predicate(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("Home\u2028Town\tHOMETOWN\nA\x85B\tAB\n", encoding="utf-8")
        assert load_predicate_map(path).entries == {"Home\u2028Town": "HOMETOWN", "A\x85B": "AB"}

    def test_load_crlf_file_with_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_bytes(b"# raw\tcanonical\r\nHometown\tHOMETOWN\r\n\r\n"
                         b"  # indented comment\r\nHome Town \tHOMETOWN\r\n")
        assert load_predicate_map(path).entries == {"Hometown": "HOMETOWN",
                                                    "Home Town": "HOMETOWN"}

    @pytest.mark.parametrize("text, detail", [
        ("# c\n\none-column-only\n", "line 3: expected two tab-separated columns"),
        ("a\tX\na\tY\n", "line 2: 'a' mapped to both 'X' and 'Y'"),
        ("a\tb\nb\tc\n", "mapping chains found: 'a' -> 'b' -> 'c'"),
    ])
    def test_load_errors_name_file_and_line(self, tmp_path, text, detail):
        path = tmp_path / "map.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(PredicateMapError) as err:
            load_predicate_map(path)
        assert str(err.value) == f"{path}: {detail}"

    def test_load_rejects_chains(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("a\tb\nb\tc\n", encoding="utf-8")
        with pytest.raises(PredicateMapError):
            load_predicate_map(path)


class TestUnifyEntry:
    def test_hometown_variants(self):
        entry = entry_of("Hometown", "Home Town", "Home Town/City")
        out = unify_entry(entry, HOMETOWN_MAP)
        assert [t.predicate for t in out.triples] == ["HOMETOWN"] * 3

    def test_empty_map_is_identity(self):
        entry = entry_of("anything", "at all")
        assert unify_entry(entry, PredicateMap(entries={})) == entry

    def test_canonical_stays_canonical(self):
        out = unify_entry(entry_of("HOMETOWN"), HOMETOWN_MAP)
        assert out.triples[0].predicate == "HOMETOWN"

    def test_whitespace_trimmed_before_lookup(self):
        out = unify_entry(entry_of("  Hometown  "), HOMETOWN_MAP)
        assert out.triples[0].predicate == "HOMETOWN"

    def test_subjects_objects_order_untouched(self):
        entry = entry_of("Hometown", "zzz")
        out = unify_entry(entry, HOMETOWN_MAP)
        assert [(t.subject, t.object) for t in out.triples] == [("s0", "o0"), ("s1", "o1")]
        assert len(out.triples) == len(entry.triples)

    def test_other_fields_untouched(self):
        entry = entry_of("Hometown")._replace(provenance=Provenance.WIKISQL, table_id="t1",
                                              row_index=2, flags=("empty_cell",))
        out = unify_entry(entry, HOMETOWN_MAP)
        assert out == entry._replace(triples=(Triple("s0", "HOMETOWN", "o0"),))

    def test_unmapped_side_channel(self):
        unmapped: set[str] = set()
        unify_entry(entry_of("Hometown", "mystery", "enigma"), HOMETOWN_MAP, unmapped)
        assert unmapped == {"mystery", "enigma"}

    def test_idempotence_fuzz(self):
        rng = random.Random(4242)
        pool = [f"p{i}" for i in range(30)]
        canon = [f"P{i}" for i in range(6)]
        entries = {}
        for p in pool:
            if rng.random() < 0.6:
                entries[p] = canon[rng.randrange(len(canon))]
        for c in canon:
            entries[c] = c
        pmap = PredicateMap(entries=entries)
        for _ in range(300):
            entry = entry_of(*(rng.choice(pool + canon) for _ in range(rng.randrange(1, 8))))
            once = unify_entry(entry, pmap)
            twice = unify_entry(once, pmap)
            assert once == twice


class TestUniquePredicates:
    def test_counts_after_unification(self):
        entries = [unify_entry(entry_of("Hometown", "Home Town"), HOMETOWN_MAP)]
        assert compute_stats(entries).unique_predicates == 1

    def test_empty_corpus(self):
        assert compute_stats([]).unique_predicates == 0

    def test_golden_counts(self):
        entries = [
            CorpusEntry(triples_of("a", "b"), (Realization("x."),), "MISC", "Id1"),
            CorpusEntry(triples_of("b", "c"), (Realization("x."),), "MISC", "Id2"),
            CorpusEntry(triples_of("d"), (Realization("x."),), "MISC", "Id3"),
            CorpusEntry(triples_of("a"), (Realization("x."),), "MISC", "Id4"),
            CorpusEntry(triples_of("e", "e"), (Realization("x."),), "MISC", "Id5"),
        ]
        assert compute_stats(entries).unique_predicates == 5

    def test_never_increases_after_unification(self):
        rng = random.Random(7)
        pool = ["Hometown", "Home Town", "Home Town/City", "HOMETOWN", "x", "y"]
        entries = [
            CorpusEntry(
                triples_of(*(rng.choice(pool) for _ in range(rng.randrange(1, 5)))),
                (Realization("t."),),
                "MISC",
                f"Id{i}",
            )
            for i in range(40)
        ]
        before = compute_stats(entries).unique_predicates
        unified = [unify_entry(e, HOMETOWN_MAP) for e in entries]
        after = compute_stats(unified).unique_predicates
        assert after <= before
