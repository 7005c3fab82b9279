"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
enforces its wall-clock budget. Oracles here are independent of the code
they check: completion is verified against a bitmask subset-enumeration
oracle, the split guarantee with an O(n^2) brute-force pass, counting laws
by direct recount.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import pytest

from conftest import FIXTURES, make_chain, make_star, random_tree
from tabletriples.adapters import (
    AGGREGATE_KEYWORDS,
    Dropped,
    e2e_to_tripleset,
    has_aggregate_command,
    parse_mr,
    parse_sql,
)
from tabletriples.cli import main as cli_main
from tabletriples.errors import DegenerateSplitError, OversizeError
from tabletriples.formats import linearize, write_xml
from tabletriples.sampling import SamplerConfig, sample_component
from tabletriples.splits import (
    SplitConfig,
    SplitName,
    TableSignature,
    expand_by_similarity,
    jaccard,
    split,
)
from tabletriples.tables import ROOT, TITLE, OntologyAnnotation, Table, build_tree
from tabletriples.triples import (
    CorpusEntry,
    Realization,
    Triple,
    complete_subtree,
    extract_triples,
    instantiate,
)
from tabletriples.unify import PredicateMap, unify_entry


@contextmanager
def criterion(number: int, limit_s: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d} {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, (
        f"criterion {number} took {elapsed:.2f}s, budget is {limit_s}s"
    )
    print(f"PASS criterion {number:2d} [{elapsed:6.2f}s < {limit_s:g}s] {description}")


# --- 1 ------------------------------------------------------------------

def test_c01_reference_tree_extraction():
    with criterion(1, 1.0, "stadium highlight yields the exact reference triple"):
        table = Table(
            id="stadiums",
            title="",
            headers=("Team", "Stadium", "City", "Capacity", "Opened"),
            rows=(("Amsterdam Admirals", "Olympisch Stadion", "Amsterdam", "31600", "1928"),),
        )
        annotation = OntologyAnnotation(
            table_id="stadiums", parents=("ROOT", 0, 1, 1, 0)
        )
        tree = build_tree(table, annotation)
        subtree = complete_subtree(tree, {1})
        assignment = instantiate(tree, table, 0)
        triples = extract_triples(subtree, assignment, tree)
        assert triples == (
            Triple("Amsterdam Admirals", "Stadium", "Olympisch Stadion"),
        )


# --- 2 ------------------------------------------------------------------

def test_c02_meaning_representation_conversion():
    with criterion(2, 1.0, "name-subject conversion exact; name-less MRs dropped"):
        triples = e2e_to_tripleset(
            parse_mr("name[Alimentum], area[city centre], familyFriendly[no]")
        )
        assert triples == (
            Triple("Alimentum", "area", "city centre"),
            Triple("Alimentum", "familyFriendly", "no"),
        )
        assert isinstance(e2e_to_tripleset(parse_mr("area[riverside]")), Dropped)


# --- 3 ------------------------------------------------------------------

def test_c03_predicate_unification():
    with criterion(3, 5.0, "hometown variants unify; idempotent over 1000 fuzzed sets"):
        pmap = PredicateMap(
            entries={
                "Hometown": "HOMETOWN",
                "Home Town": "HOMETOWN",
                "Home Town/City": "HOMETOWN",
                "HOMETOWN": "HOMETOWN",
            }
        )
        entry = CorpusEntry(
            triples=tuple(
                Triple(f"s{i}", p, f"o{i}")
                for i, p in enumerate(["Hometown", "Home Town", "Home Town/City"])
            ),
            realizations=(Realization("x."),),
            category="MISC",
            eid="Id1",
        )
        out = unify_entry(entry, pmap)
        assert [t.predicate for t in out.triples] == ["HOMETOWN"] * 3

        rng = random.Random(1001)
        raws = [f"pred{i}" for i in range(40)]
        canon = [f"CANON{i}" for i in range(8)]
        entries = {c: c for c in canon}
        for r in raws:
            if rng.random() < 0.7:
                entries[r] = canon[rng.randrange(len(canon))]
        fuzz_map = PredicateMap(entries=entries)
        pool = raws + canon
        for _ in range(1000):
            entry = entry._replace(
                triples=tuple(
                    Triple("s", rng.choice(pool), "o")
                    for _ in range(rng.randrange(1, 9))
                )
            )
            once = unify_entry(entry, fuzz_map)
            assert unify_entry(once, fuzz_map) == once


# --- 4 and 6 --------------------------------------------------------------

@lru_cache(maxsize=1)
def completion_cases():
    """(tree, highlight, completed-by-implementation) over >=500 small trees."""
    gen = random.Random(40_600)
    cases = []
    trees = []
    for _ in range(520):
        non_root_total = gen.randrange(1, 8)  # whole tree stays within 8 nodes
        with_title = gen.random() < 0.3 and non_root_total >= 1
        n_cols = non_root_total - (1 if with_title else 0)
        tree = random_tree(gen, n_cols, title_prob=1.0 if with_title else 0.0)
        trees.append(tree)
        non_root = [n for n in tree.nodes() if n != ROOT]
        for mask in range(1, 1 << len(non_root)):
            highlight = frozenset(
                non_root[i] for i in range(len(non_root)) if mask >> i & 1
            )
            cases.append((tree, highlight, complete_subtree(tree, highlight)))
    return trees, cases


def _connected_masks_by_size(tree):
    """All connected node subsets as bitmasks, ascending cardinality."""
    nodes = tree.nodes()
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    adj = [0] * n
    for child, parent in tree.parent.items():
        ci, pi = index[child], index[parent]
        adj[ci] |= 1 << pi
        adj[pi] |= 1 << ci
    connected = []
    for mask in range(1, 1 << n):
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
        if seen == mask:
            connected.append((bin(mask).count("1"), mask))
    connected.sort()
    return nodes, index, connected


def test_c04_completion_matches_bruteforce_oracle():
    with criterion(4, 60.0, "completion equals minimal connected superset, idempotent"):
        trees, cases = completion_cases()
        assert len(trees) >= 500
        oracle_cache = {}
        for tree, highlight, completed in cases:
            key = id(tree)
            if key not in oracle_cache:
                oracle_cache[key] = _connected_masks_by_size(tree)
            nodes, index, connected = oracle_cache[key]
            hmask = 0
            for h in highlight:
                hmask |= 1 << index[h]
            minimal = next(
                mask for _, mask in connected if mask & hmask == hmask
            )
            expected = {nodes[i] for i in range(len(nodes)) if minimal >> i & 1}
            assert completed == expected, (tree, highlight)
            assert complete_subtree(tree, completed) == completed


def test_c06_triple_count_law_and_oversize():
    with criterion(6, 10.0, "triple count = |subtree| - [root in subtree]; >10 rejected"):
        _, cases = completion_cases()
        for tree, _, completed in cases:
            assignment = {ROOT: "[TABLECONTEXT]"}
            if tree.has_title:
                assignment[TITLE] = "some title"
            for col in tree.column_nodes:
                assignment[col] = f"v{col}"
            triples = extract_triples(completed, assignment, tree)
            assert len(triples) == len(completed) - (1 if ROOT in completed else 0)

        big = make_chain(11)
        values = {ROOT: "[TABLECONTEXT]"} | {i: f"v{i}" for i in range(11)}
        with pytest.raises(OversizeError):
            extract_triples(frozenset(range(11)), values, big)
        ok = extract_triples(frozenset(range(10)), values, make_chain(10))
        assert len(ok) == 10


# --- 5 ------------------------------------------------------------------

def test_c05_sampler_contract():
    with criterion(5, 60.0, "10k samples connected and clamped; chain/star shapes exact"):
        gen = random.Random(50_500)
        samples = 0
        for _ in range(250):
            n_cols = gen.randrange(1, 25)
            tree = random_tree(gen, n_cols)
            non_root = len(tree.nodes()) - 1
            for _ in range(40):
                config = SamplerConfig(
                    size_min=gen.randrange(1, 4),
                    size_max=gen.randrange(4, 9),
                    p_min=0.0,
                    p_max=1.0,
                    seed=0,
                )
                comp = sample_component(
                    tree, config, random.Random(gen.randrange(10**9))
                )
                for node in comp.node_ids:
                    parent = tree.parent[node]
                    assert parent in comp.node_ids or parent == ROOT
                assert comp.size == min(comp.target_size, non_root)
                samples += 1
        assert samples >= 10_000

        chain = make_chain(6)
        for target in range(2, 6):
            config = SamplerConfig(size_min=target, size_max=target,
                                   p_min=1.0, p_max=1.0, seed=0)
            for seed in range(50):
                comp = sample_component(chain, config, random.Random(seed))
                assert comp.node_ids == frozenset(range(target))
                assert max(chain.depth_of(n) for n in comp.node_ids) == comp.size

        star = make_star(8)
        for target in range(2, 6):
            config = SamplerConfig(size_min=target, size_max=target,
                                   p_min=0.0, p_max=0.0, seed=0)
            for seed in range(50):
                comp = sample_component(star, config, random.Random(seed))
                assert comp.size == target
                assert all(star.parent[n] == ROOT for n in comp.node_ids)


# --- 7 ------------------------------------------------------------------

def test_c07_split_guarantee():
    with criterion(7, 120.0, "no cross-split pair above threshold on 100 corpora"):
        gen = random.Random(70_700)
        alphabet = [f"w{i}" for i in range(26)]
        corpora_checked = 0
        while corpora_checked < 100:
            n = gen.randrange(12, 201)
            tables = [
                TableSignature(
                    table_id=f"t{i:03d}",
                    tokens=frozenset(gen.sample(alphabet, gen.randrange(2, 8))),
                )
                for i in range(n)
            ]
            config = SplitConfig(
                test_seed_fraction=0.15, dev_seed_fraction=0.15, seed=7
            )
            try:
                assignment = split(tables, config)
            except DegenerateSplitError:
                continue
            corpora_checked += 1
            by_id = {t.table_id: t for t in tables}
            items = sorted(assignment.items())
            for i, (id_a, split_a) in enumerate(items):
                for id_b, split_b in items[i + 1:]:
                    if split_a == split_b:
                        continue
                    pair = {split_a, split_b}
                    if SplitName.TEST in pair or pair == {SplitName.DEV, SplitName.TRAIN}:
                        assert jaccard(by_id[id_a], by_id[id_b]) <= config.threshold
            assert split(tables, config) == assignment  # deterministic re-run

        # three identical signatures collapse into a single split
        trio = [
            TableSignature(table_id=f"dup{i}", tokens=frozenset({"x", "y"}))
            for i in range(3)
        ]
        expanded, rest = expand_by_similarity([trio[0]], trio[1:], threshold=0.5)
        assert {t.table_id for t in expanded} == {"dup0", "dup1", "dup2"}
        assert rest == []
        with pytest.raises(DegenerateSplitError):
            split(trio, SplitConfig(test_seed_fraction=0.34,
                                    dev_seed_fraction=0.34, seed=1))


# --- 8 ------------------------------------------------------------------

def test_c08_serialization_exactness():
    with criterion(8, 30.0, "reference XML byte-stable; linearizations exact; 1000-entry fuzz"):
        from test_formats import random_entry, xml_entries_of

        document = (FIXTURES / "webnlg.xml").read_text(encoding="utf-8")
        entries = xml_entries_of(document)
        assert "".join(write_xml(entries)) == document  # byte-for-byte through read/write
        assert xml_entries_of("".join(write_xml(entries))) == entries

        apertura = entries[0]
        assert apertura.triples == (
            Triple("Apertura 2006", "JORNADA_OR_OTHER", "Semifinals Ida"),
            Triple("Semifinals Ida", "AWAY_TEAM", "América"),
            Triple("Semifinals Ida", "HOME_TEAM", "Chivas"),
        )
        darts = entries[1]
        assert darts.eid == "Id76"
        assert len(darts.triples) == 6

        pair = (
            Triple("Peru Earthquake", "scale of disaster", "250k homeless"),
            Triple("Peru Earthquake", "year", "2007"),
        )
        assert linearize(pair) == (
            "<H> Peru Earthquake <R> scale of disaster <T> 250k homeless "
            "<H> Peru Earthquake <R> year <T> 2007"
        )
        swarm = (
            Triple("[TABLECONTEXT]", "game", "3"),
            Triple("3", "attendance", "10 637"),
            Triple("[TABLECONTEXT]", "[TITLE]", "2006 Minnesota Swarm season"),
        )
        assert linearize(swarm) == (
            "<H> [TABLECONTEXT] <R> game <T> 3 "
            "<H> 3 <R> attendance <T> 10 637 "
            "<H> [TABLECONTEXT] <R> [title] <T> 2006 Minnesota Swarm season"
        )

        rng = random.Random(80_808)
        fuzz = [random_entry(rng, f"Id{i}") for i in range(1000)]
        doc = "".join(write_xml(fuzz))
        back = xml_entries_of(doc)
        assert back == fuzz
        assert "".join(write_xml(back)) == doc


# --- 9 ------------------------------------------------------------------

CLEAN_QUERIES = [
    "SELECT year FROM t WHERE country = 'Greece'",
    "SELECT city FROM games WHERE year = '2008'",
    "SELECT name FROM players WHERE team = 'Ajax'",
    "SELECT capacity FROM stadiums WHERE city = 'Amsterdam'",
    "SELECT player FROM rounds WHERE result = 'Lost'",
    "SELECT height FROM peaks WHERE range = 'Himalayas'",
    "SELECT founder FROM firms WHERE city = 'Tampere'",
    "SELECT ground FROM clubs WHERE club = 'Feyenoord'",
    "SELECT field FROM laureates WHERE name = 'Marie Curie'",
    "SELECT type FROM sites WHERE site = 'Petra'",
    "SELECT a FROM t WHERE b = '1' AND c = '2'",
    "SELECT a, b FROM t WHERE c = 'x'",
    "select lower_case FROM t where col = 'v'",
    "SELECT summit FROM t WHERE climax = 'top'",
    "SELECT order_id FROM t WHERE grouping = 'g'",
    "SELECT minimum_wage FROM t WHERE maximal = 'x'",
    "SELECT counter FROM t WHERE summary = 'ok'",
    "SELECT average_speed FROM t WHERE joiner = 'a'",
    "SELECT unions FROM t WHERE intersection = 'b'",
    "SELECT regrouped FROM t WHERE reordered = 'c'",
    "SELECT opponent FROM t WHERE round = '1st Round'",
    "SELECT airline FROM t WHERE hub = 'Schiphol'",
    "SELECT fleet FROM t WHERE airline = 'KLM'",
    "SELECT river FROM t WHERE country = 'Austria'",
    "SELECT position FROM t WHERE player = 'Luka Modric'",
    "SELECT winner FROM finals WHERE season = '2006'",
    "SELECT team FROM t WHERE stadium = 'Olympisch Stadion'",
    "SELECT total FROM t WHERE label = 'x'",
    "SELECT amount FROM t WHERE kind = 'net'",
    "SELECT value FROM t WHERE key = 'k'",
    "SELECT result FROM t WHERE opponent = 'Per Laursen'",
    "SELECT song FROM charts WHERE artist = 'Abba'",
    "SELECT book FROM shelf WHERE author = 'Twain'",
    "SELECT speed FROM trains WHERE line = 'ICE'",
    "SELECT goals FROM season WHERE player = 'Henry'",
    "SELECT depth FROM lakes WHERE lake = 'Baikal'",
    "SELECT area FROM parks WHERE park = 'Yosemite'",
    "SELECT length FROM rivers WHERE river = 'Loire'",
    "SELECT debut FROM actors WHERE actor = 'Keaton'",
    "SELECT launch FROM missions WHERE mission = 'Apollo 11'",
    "SELECT code FROM airports WHERE airport = 'Schiphol'",
    "SELECT party FROM mayors WHERE mayor = 'Smith'",
    "SELECT genre FROM films WHERE film = 'Alien'",
    "SELECT label FROM albums WHERE album = 'Arrival'",
    "SELECT venue FROM matches WHERE match = 'Final'",
    "SELECT coach FROM teams WHERE team = 'Real Madrid'",
    "SELECT capital FROM countries WHERE country = 'Finland'",
    "SELECT currency FROM countries WHERE country = 'Jordan'",
    "SELECT anthem FROM countries WHERE country = 'France'",
    "SELECT language FROM countries WHERE country = 'China'",
]


def test_c09_sql_aggregate_filter():
    with criterion(9, 5.0, "all aggregate keywords reject; 50 clean queries pass"):
        for keyword in AGGREGATE_KEYWORDS:
            assert has_aggregate_command(f"SELECT a FROM t {keyword} b")
            assert has_aggregate_command(f"select a from t {keyword.lower()} b")
        assert len(CLEAN_QUERIES) >= 50
        for raw in CLEAN_QUERIES:
            assert not isinstance(parse_sql(raw), Dropped), raw
        assert parse_sql("SELECT a FROM t WHERE name = 'Max Power'") == (("name", "Max Power"),)
        assert parse_sql("SELECT a FROM t WHERE note = 'join the group by noon'") == (
            ("note", "join the group by noon"),)


# --- 10 -----------------------------------------------------------------

def test_c10_golden_pipeline(tmp_path):
    with criterion(10, 30.0, "fixture corpus end-to-end matches hand-computed stats"):
        tables = tmp_path / "tables.jsonl"
        components = tmp_path / "components.jsonl"
        entries = tmp_path / "entries.jsonl"
        unified = tmp_path / "unified.jsonl"
        stats_json = tmp_path / "stats.json"

        def run(*argv):
            assert cli_main([str(a) for a in argv]) == 0

        run("ingest-tables", "--input", FIXTURES / "tables", "--output", tables)
        run("validate-ontology", "--tables", tables,
            "--annotations", FIXTURES / "annotations.jsonl",
            "--output", tmp_path / "report.json")
        run("sample", "--tables", tables,
            "--annotations", FIXTURES / "annotations.jsonl",
            "--seed", 7, "--size-min", 5, "--size-max", 5,
            "--max-rows-per-table", 1, "--output", components)
        run("extract", "--tables", tables,
            "--annotations", FIXTURES / "annotations.jsonl",
            "--components", components, "--sentences", FIXTURES / "sentences.jsonl",
            "--output", entries)
        run("unify", "--input", entries, "--map", FIXTURES / "predicates.tsv",
            "--output", unified)
        run("stats", "--input", unified, "--json-out", stats_json)

        golden = json.loads((FIXTURES / "golden_stats.json").read_text())
        produced = json.loads(stats_json.read_text())["all"]
        for key, expected in golden.items():
            got = produced[key]
            if isinstance(expected, float):
                assert got == pytest.approx(expected, rel=1e-12), key
            elif isinstance(expected, list):
                assert got == pytest.approx(expected, rel=1e-12), key
            else:
                assert got == expected, key


# --- 11 -----------------------------------------------------------------

def _released_corpus_dir() -> Path | None:
    value = os.environ.get("TABLETRIPLES_DATA_DIR")
    if value and Path(value).is_dir():
        return Path(value)
    return None


@pytest.mark.skipif(
    _released_corpus_dir() is None,
    reason="set TABLETRIPLES_DATA_DIR to the released corpus JSON files to run",
)
def test_c11_released_corpus_statistics():
    """Words/sentences per realization on the released corpus, within 5%."""
    from tabletriples.stats import compute_stats

    with criterion(11, 600.0, "released corpus statistics within 5%"):
        entries = []
        for path in sorted(_released_corpus_dir().glob("*.json")):
            for i, record in enumerate(json.loads(path.read_text(encoding="utf-8"))):
                realizations = tuple(
                    Realization(text=ann["text"])
                    for ann in record.get("annotations", [])
                    if ann.get("text", "").strip()
                )
                if not realizations:
                    continue
                entries.append(
                    CorpusEntry(
                        triples=tuple(Triple(*t) for t in record["tripleset"]),
                        realizations=realizations,
                        category="MISC",
                        eid=f"Id{i}",
                    )
                )
        stats = compute_stats(entries)
        assert stats.words_per_sr == pytest.approx(21.6, rel=0.05)
        assert stats.sentences_per_sr == pytest.approx(1.5, rel=0.05)
