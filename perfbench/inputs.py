"""Seeded synthetic inputs for the corpus-build benchmark (standard library only).

``generate(workload, seed, directory)`` writes every input file one
benchmark pass needs and returns a manifest: the file paths, the sizes, and
the facts the output checks compare against (how many MRs were built to be
dropped, how many WikiSQL records were built to align, ...). Those facts come
from how each record was constructed, not from running the program.

All draws go through ``Random.random()`` on streams keyed by SHA-256, so a
seed gives byte-identical files on any platform and Python version.

The inputs vary what the program's behaviour depends on: tree shape (chains,
stars, bushy trees, both title shapes), component size (some triplesets
exceed 10 triples), rows without sentences, empty cells, ``|`` and ``\\`` in
cells and texts, predicates the map leaves unmapped, MRs that are dropped,
WikiSQL records that are aggregate, unparseable, unaligned or aligned, and
sparse or dense split vocabularies.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

# Consonant-vowel syllables: every generated word ends in a vowel, so no word
# can be an SQL keyword (MAX, COUNT, UNION, ORDER BY, ...) or "and".
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload, in records."""

    tables: int  # tables fed to sample, extract and align-wikisql
    rows: int  # rows per table
    sampled_rows: int  # rows per table that sample turns into components
    webnlg_entries: int
    e2e_mrs: int
    wikisql_records: int
    dense_split_tables: int  # 0: split runs over the corpus tables instead


# Each workload runs every stage; the sizes decide where the work goes.
WORKLOADS: dict[str, Sizes] = {
    "table_corpus": Sizes(tables=320, rows=16, sampled_rows=16, webnlg_entries=60,
                          e2e_mrs=60, wikisql_records=60, dense_split_tables=0),
    "interchange": Sizes(tables=120, rows=20, sampled_rows=1, webnlg_entries=2000,
                         e2e_mrs=2500, wikisql_records=2500, dense_split_tables=0),
    "split_dense": Sizes(tables=40, rows=6, sampled_rows=2, webnlg_entries=30,
                         e2e_mrs=30, wikisql_records=30, dense_split_tables=800),
}

DENSE_VOCAB = 30
CHAIN_LENGTH = 8
CHAINED_SHARE = 0.75


def scaled(sizes: Sizes, divisor: int) -> Sizes:
    """``sizes`` shrunk by ``divisor`` (for smoke tests), keeping every stage busy."""
    if divisor == 1:
        return sizes
    shrink = lambda n, floor: max(floor, n // divisor) if n else 0
    return Sizes(
        tables=shrink(sizes.tables, 12),
        rows=shrink(sizes.rows, 6),
        sampled_rows=min(sizes.sampled_rows, shrink(sizes.rows, 6)),
        webnlg_entries=shrink(sizes.webnlg_entries, 10),
        e2e_mrs=shrink(sizes.e2e_mrs, 30),
        wikisql_records=shrink(sizes.wikisql_records, 40),
        dense_split_tables=shrink(sizes.dense_split_tables, 30),
    )


# --- random helpers ---------------------------------------------------------

def stream(seed: int, *parts: object) -> random.Random:
    h = hashlib.sha256(str(seed).encode())
    for part in parts:
        h.update(b"\x1f" + str(part).encode())
    return random.Random(int.from_bytes(h.digest()[:8], "big"))


def _int(rng: random.Random, lo: int, hi: int) -> int:
    return lo + min(int(rng.random() * (hi - lo + 1)), hi - lo)


def _pick(rng: random.Random, seq):
    return seq[_int(rng, 0, len(seq) - 1)]


def _chance(rng: random.Random, p: float) -> bool:
    return rng.random() < p


def _vocabulary(rng: random.Random, n: int, syllables: tuple[int, int]) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        word = "".join(
            _pick(rng, _CONSONANTS) + _pick(rng, _VOWELS)
            for _ in range(_int(rng, *syllables))
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _cell(rng: random.Random, words: list[str]) -> str:
    roll = rng.random()
    if roll < 0.05:
        return ""
    if roll < 0.08:
        return f"{_pick(rng, words)}|{_pick(rng, words)}"
    if roll < 0.11:
        return f"{_pick(rng, words)}\\{_pick(rng, words)}"
    if roll < 0.35:
        return str(_int(rng, 0, 99999))
    return " ".join(_pick(rng, words) for _ in range(_int(rng, 1, 3)))


# --- tables, annotations, sentences ------------------------------------------

_SOURCES = ("synthetic", "synthetic", "wikitablequestions", "wikisql", "other")
# Column counts cycle with the table index, so every seed does the same
# amount of work; 3 in 25 tables are wide enough for oversize triplesets.
_COLUMN_COUNTS = (3, 4, 5, 6, 7, 8, 9, 11, 4, 5, 6, 7, 8, 13, 5, 6, 7, 8, 9, 4, 5, 6, 7, 14, 6)


def _parents(rng: random.Random, n: int, t: int) -> tuple[list, str]:
    """Acyclic column parents: each column hangs under one placed before it.

    Shape and title placement cycle with the table index ``t``, so every
    seed has the same mix of them.
    """
    sole_child = t % 7 < 2
    top = "TITLE" if sole_child else None

    def top_ref():
        return top or ("TITLE" if _chance(rng, 0.3) else "ROOT")

    order = list(range(n))
    for i in range(n - 1, 0, -1):  # Fisher-Yates over random()
        j = _int(rng, 0, i)
        order[i], order[j] = order[j], order[i]
    shape = ("chain", "star", "bushy", "bushy")[t % 4]
    parents: list = [None] * n
    for k, col in enumerate(order):
        if k == 0:
            parents[col] = top_ref()
        elif shape == "chain":
            parents[col] = order[k - 1] if _chance(rng, 0.9) else top_ref()
        elif shape == "star":
            parents[col] = top_ref() if _chance(rng, 0.85) else order[_int(rng, 0, k - 1)]
        else:
            parents[col] = order[_int(rng, 0, k - 1)] if _chance(rng, 0.75) else top_ref()
    return parents, "title_as_sole_child" if sole_child else "title_under_root"


def _tables(seed: int, sizes: Sizes):
    rng = stream(seed, "tables")
    header_words = _vocabulary(rng, 2400, (2, 3))
    title_words = _vocabulary(rng, 1600, (2, 3))
    cell_words = _vocabulary(rng, 4000, (1, 3))
    tables, annotations = [], []
    for t in range(sizes.tables):
        if t % 12 == 11:
            # a near-duplicate of an earlier table, for split to pull in
            base = _pick(rng, tables)
            title = base["title"]
            headers = list(base["headers"])
            headers[_int(rng, 0, len(headers) - 1)] = _pick(rng, header_words) + " alt"
            headers = list(dict.fromkeys(headers))
        else:
            title = "" if _chance(rng, 0.08) else " ".join(
                _pick(rng, title_words) for _ in range(_int(rng, 1, 4)))
            n_cols = _COLUMN_COUNTS[t % len(_COLUMN_COUNTS)]
            headers: list[str] = []
            while len(headers) < n_cols:
                label = _pick(rng, header_words)
                if _chance(rng, 0.2):
                    label += " " + _pick(rng, header_words)
                if label not in headers:
                    headers.append(label)
        n = len(headers)
        rows = []
        for r in range(sizes.rows):
            row = [_cell(rng, cell_words) for _ in range(n)]
            row[0] = f"k{r}{_pick(rng, cell_words)}"  # unique key column for WikiSQL
            rows.append(row)
        table_id = f"t{t:05d}"
        tables.append({"id": table_id, "title": title, "source": _pick(rng, _SOURCES),
                       "headers": headers, "rows": rows})
        parents, shape = _parents(rng, n, t)
        annotations.append({"table_id": table_id, "title_shape": shape, "parents": parents})
    return tables, annotations, header_words


def _sentences(seed: int, tables: list[dict]) -> list[dict]:
    rng = stream(seed, "sentences")
    out = []
    for table in tables:
        subject = table["title"] or "The table"
        for r, row in enumerate(table["rows"]):
            if _chance(rng, 0.15):
                continue  # a row without sentences
            for _ in range(_int(rng, 1, 2)):
                parts = []
                for _ in range(_int(rng, 1, 3)):
                    col = _int(rng, 0, len(row) - 1)
                    value = row[col] or "unknown"
                    parts.append(f"{subject} has {table['headers'][col]} {value}.")
                record = {"table_id": table["id"], "row_index": r, "text": " ".join(parts)}
                if _chance(rng, 0.3):
                    record["annotator"] = "mturk"
                if _chance(rng, 0.2):
                    record["category"] = _pick(rng, ("Sports", "Politics", "Film"))
                out.append(record)
    return out


# --- external sources ----------------------------------------------------------

_E2E_SLOTS = ("eatType", "food", "priceRange", "customer rating", "area",
              "familyFriendly", "near")


def _e2e_csv(seed: int, n: int, words: list[str]) -> tuple[str, int]:
    """CSV of (mr, ref); returns the text and the number of MRs built to drop."""
    rng = stream(seed, "e2e")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["mr", "ref"])
    dropped = 0
    for i in range(n):
        name = f"{_pick(rng, words).title()} {_pick(rng, ('Inn', 'Cafe', '[Blue] Door'))}"
        slots = [(s, _pick(rng, words)) for s in _E2E_SLOTS if _chance(rng, 0.55)]
        if not slots:
            slots = [("area", "city centre")]
        roll = rng.random()
        if roll < 0.05:
            dropped += 1  # no name slot
        elif roll < 0.08:
            dropped += 1  # name slot only
            slots = [("name", name)]
        else:
            slots.insert(_int(rng, 0, len(slots)), ("name", name))
        mr = ", ".join(f"{k}[{v}]" for k, v in slots)
        ref = f"{name} is a {slots[-1][1]} place, see {_pick(rng, words)}|{i}."
        writer.writerow([mr, ref])
    return buf.getvalue(), dropped


def _webnlg_xml(seed: int, n: int, words: list[str], predicates: list[str]) -> str:
    rng = stream(seed, "webnlg")
    field = lambda s: s.replace("\\", "\\\\").replace("|", "\\|")
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<benchmark>", "  <entries>"]
    for i in range(n):
        size = _int(rng, 1, 7)
        subject = _pick(rng, words).title()
        triples = []
        for _ in range(size):
            obj = _pick(rng, words)
            if _chance(rng, 0.05):
                obj += "|" + _pick(rng, words)
            elif _chance(rng, 0.05):
                obj += "\\" + _pick(rng, words)
            triples.append((subject, _pick(rng, predicates), obj))
        category = _pick(rng, ("Airport", "Astronaut", "City", "Food"))
        lines.append(f"    <entry category={quoteattr(category)} eid=\"Id{i + 1}\" size=\"{size}\">")
        lines.append("      <modifiedtripleset>")
        for t in triples:
            lines.append(f"        <mtriple>{escape(' | '.join(map(field, t)))}</mtriple>")
        lines.append("      </modifiedtripleset>")
        for lid in range(1, _int(rng, 1, 3) + 1):
            text = f"{subject} is {' and '.join(t[2] for t in triples)} & more."
            lines.append(f"      <lex comment=\"good\" lid=\"Id{lid}\">{escape(text)}</lex>")
        lines.append("    </entry>")
    lines += ["  </entries>", "</benchmark>"]
    return "\n".join(lines) + "\n"


def _wikisql(seed: int, n: int, tables: list[dict], words: list[str]):
    """Question/SQL records plus a question-id map; returns counts by kind."""
    rng = stream(seed, "wikisql")
    records, qa2d = [], {}
    kinds = {"aligned": 0, "aggregate": 0, "unparseable": 0, "unaligned": 0}
    for i in range(n):
        table = _pick(rng, tables)
        headers, rows = table["headers"], table["rows"]
        r = _int(rng, 0, len(rows) - 1)
        row = rows[r]
        # answer: a non-key cell whose trimmed value is unique within the row
        stripped = [c.strip() for c in row]
        answers = [c for c in range(1, len(row))
                   if stripped[c] and stripped.count(stripped[c]) == 1]
        roll = rng.random()
        key = f"{headers[0]} = '{row[0]}'"
        if roll < 0.1:
            kind = "aggregate"
            sql = f"SELECT COUNT({headers[-1]}) FROM {table['id']} WHERE {key}"
            answer = "1"
        elif roll < 0.16:
            kind = "unparseable"
            sql = f"SELECT {headers[-1]} FROM {table['id']} WHERE {headers[0]} > 3"
            answer = "3"
        elif roll < 0.3 or not answers:
            kind = "unaligned"
            sql = f"SELECT {headers[-1]} FROM {table['id']} WHERE {headers[0]} = 'nokey{i}'"
            answer = row[-1]
        else:
            kind = "aligned"
            col = _pick(rng, answers)
            where = key
            if len(row) > 2 and _chance(rng, 0.3):
                extra = _int(rng, 1, len(row) - 1)
                if "'" not in row[extra]:
                    where += f" AND {headers[extra]} = '{row[extra]}'"
            sql = f"SELECT {headers[col]} FROM {table['id']} WHERE {where}"
            answer = row[col]
        kinds[kind] += 1
        question = f"What is the {headers[-1]} for {row[0]}?"
        record = {"question": question, "sql": sql, "table_id": table["id"],
                  "answer": answer, "question_id": i}
        sentence = f"The {headers[-1]} for {row[0]} is {answer or _pick(rng, words)}."
        if _chance(rng, 0.5):
            record["declarative_sentence"] = sentence
        else:
            qa2d[str(i)] = sentence
        records.append(record)
    return records, qa2d, kinds


def _predicate_map(seed: int, header_words: list[str], predicates: list[str]) -> str:
    """Groups of three raw predicates map onto the group's first member.

    About a third of the groups are left out, so their predicates stay
    unmapped. A canonical value maps to itself, keeping the map chain-free.
    """
    rng = stream(seed, "map")
    lines = ["# raw\tcanonical"]
    mapped: set[str] = set()
    for vocab in (header_words, list(_E2E_SLOTS) + predicates):
        for g in range(0, len(vocab) - 2, 3):
            group = vocab[g:g + 3]
            if _chance(rng, 0.35) or mapped.intersection(group):
                continue
            mapped.update(group)
            lines += [f"{raw}\t{group[0]}" for raw in group]
    lines.append("[TITLE]\ttitle")
    return "\n".join(lines) + "\n"


def _dense_split_tables(seed: int, n: int) -> list[dict]:
    """Tables whose six-token signatures (title plus headers) share a small
    vocabulary, so that most pairs share a token.

    Most tables lie on similarity chains: consecutive tables of a chain share
    five tokens (Jaccard 5/7, above the threshold), tables two steps apart
    four (Jaccard 1/2, not above it). No other pair shares five tokens, so
    the chains are exactly as long as built. Table ids fall along each chain,
    so the split's fixpoint pulls in one table of a chain per pass: the worst
    case for the fixpoint loop, and, with every token frequent and every
    signature the same length, for an inverted index or a length or prefix
    filter as well.
    """
    rng = stream(seed, "dense")
    vocab = _vocabulary(rng, DENSE_VOCAB, (2, 2))
    # a pair is above the threshold exactly when it shares a 5-token subset
    taken_subsets: set[frozenset] = set()

    def subsets(tokens):
        return {frozenset(tokens[:i] + tokens[i + 1:]) for i in range(6)}

    def draw(base: list[str] | None, slot: int) -> list[str]:
        while True:
            tokens = list(base) if base else []
            if base:
                tokens[slot] = _pick(rng, vocab)
                allowed = frozenset(base[:slot] + base[slot + 1:])
            else:
                allowed = None
            while len(tokens) < 6:
                tokens.append(_pick(rng, vocab))
            if len(set(tokens)) < 6:
                continue
            fresh = subsets(tokens) - {allowed}
            if not fresh & taken_subsets:
                taken_subsets.update(fresh)
                return tokens

    chains: list[list[list[str]]] = []
    for _ in range(int(n * CHAINED_SHARE) // CHAIN_LENGTH):
        chain = [draw(None, 0)]
        start = _int(rng, 0, 5)
        for k in range(1, CHAIN_LENGTH):
            chain.append(draw(chain[-1], (start + k) % 6))
        chains.append(chain)
    while sum(map(len, chains)) < n:
        chains.append([draw(None, 0)])
    # random positions in id order, falling along each chain
    keyed = []
    for chain in chains:
        keys = sorted((rng.random() for _ in chain), reverse=True)
        keyed.extend(zip(keys, chain))
    keyed.sort()
    return [{"id": f"d{rank:05d}", "title": tokens[0], "source": "synthetic",
             "headers": tokens[1:], "rows": []}
            for rank, (_, tokens) in enumerate(keyed)]


# --- writing -------------------------------------------------------------------

def _jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in records)


def generate(workload: str, seed: int, directory: Path, divisor: int = 1) -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``directory``."""
    sizes = scaled(WORKLOADS[workload], divisor)
    directory.mkdir(parents=True, exist_ok=True)
    tables, annotations, header_words = _tables(seed, sizes)
    words = _vocabulary(stream(seed, "words"), 800, (2, 3))
    predicates = _vocabulary(stream(seed, "predicates"), 90, (2, 4))
    e2e_text, e2e_dropped = _e2e_csv(seed, sizes.e2e_mrs, words)
    wikisql, qa2d, wikisql_kinds = _wikisql(seed, sizes.wikisql_records, tables, words)
    files = {
        "tables": _jsonl(tables),
        "annotations": _jsonl(annotations),
        "sentences": _jsonl(_sentences(seed, tables)),
        "webnlg": _webnlg_xml(seed, sizes.webnlg_entries, words, predicates),
        "e2e": e2e_text,
        "wikisql": _jsonl(wikisql),
        "qa2d": json.dumps(qa2d, sort_keys=True) + "\n",
        "map": _predicate_map(seed, header_words, predicates),
    }
    if sizes.dense_split_tables:
        files["split_tables"] = _jsonl(_dense_split_tables(seed, sizes.dense_split_tables))
    names = {"webnlg": "webnlg.xml", "e2e": "e2e.csv", "qa2d": "qa2d.json",
             "map": "predicates.tsv"}
    paths = {}
    for key, text in files.items():
        path = directory / names.get(key, key + ".jsonl")
        path.write_text(text, encoding="utf-8")
        paths[key] = str(path)
    paths.setdefault("split_tables", paths["tables"])
    return {
        "workload": workload,
        "seed": seed,
        "sizes": asdict(sizes),
        "paths": paths,
        "facts": {
            "components": sizes.tables * min(sizes.sampled_rows, sizes.rows),
            "webnlg_entries": sizes.webnlg_entries,
            "e2e_dropped": e2e_dropped,
            "wikisql": wikisql_kinds,
        },
    }
