"""Output checks, run outside every timed region.

Each check recomputes its expectation without the code it checks: from how
the generator built the inputs (the manifest facts), from a direct recount
of the files, or, for the split, from an O(n^2) leakage scan with its own
tokenizer. A check returns the stages whose output failed, with a reason.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from xml.etree import ElementTree

from pipeline import SPLIT_THRESHOLD, output_paths

_WORD = re.compile(r"\w+")


def _lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _records(path: Path) -> list[dict]:
    return [json.loads(line) for line in _lines(path)]


def _skips(note: str) -> dict[str, int]:
    """Counts from the ``(skipped: 3 reason, 5 other reason)`` tail of a note."""
    match = re.search(r"\(skipped: (.*)\)\s*$", note.strip())
    if not match or match.group(1) == "none":
        return {}
    out: dict[str, int] = {}
    for part in match.group(1).split(", "):
        count, _, reason = part.partition(" ")
        out[reason] = out.get(reason, 0) + int(count)
    return out


def _tokens(text: str) -> set[str]:
    return set(_WORD.findall(text.lower()))


def _jaccard(a: set[str], b: set[str]) -> float:
    union = a | b
    return len(a & b) / len(union) if union else 0.0


def split_leaks(tables_path: Path, splits_path: Path, threshold: float) -> list[str]:
    """Pairs that break the split guarantee, by a full pairwise scan."""
    signatures = {}
    for table in _records(tables_path):
        tokens = _tokens(table.get("title", ""))
        for header in table["headers"]:
            tokens |= _tokens(header)
        signatures[table["id"]] = tokens
    parts: dict[str, list[set[str]]] = {"train": [], "dev": [], "test": []}
    assigned = set()
    for line in _lines(splits_path):
        table_id, name = line.split("\t")
        assigned.add(table_id)
        parts[name].append(signatures[table_id])
    problems = []
    if assigned != set(signatures) or sum(map(len, parts.values())) != len(signatures):
        problems.append("not every table is assigned exactly once")
    for low, high in (("train", "test"), ("dev", "test"), ("train", "dev")):
        for a in parts[low]:
            if any(_jaccard(a, b) > threshold for b in parts[high]):
                problems.append(f"a {low} table is above the threshold with a {high} table")
                break
    return problems


def check_outputs(manifest: dict, out: Path, notes: dict[str, str]) -> list[tuple[str, str]]:
    """Every check over one pass's outputs; ``notes`` holds each stage's stderr."""
    facts, paths, o = manifest["facts"], manifest["paths"], output_paths(out)
    failures: list[tuple[str, str]] = []

    def expect(stage: str, ok: bool, message: str) -> None:
        if not ok:
            failures.append((stage, message))

    components = len(_lines(o["components"]))
    expect("sample", components == facts["components"],
           f"{components} components, expected {facts['components']}")

    entries = len(_lines(o["entries"]))
    skips = _skips(notes["extract"])
    expect("extract", entries + sum(skips.values()) == components,
           f"{entries} entries + skips {skips} != {components} components")

    webnlg = len(_lines(o["webnlg_entries"]))
    expect("ingest-webnlg", webnlg == facts["webnlg_entries"],
           f"{webnlg} entries, expected {facts['webnlg_entries']}")

    e2e = len(_lines(o["e2e_entries"]))
    kept = manifest["sizes"]["e2e_mrs"] - facts["e2e_dropped"]
    expect("convert-e2e", e2e == kept, f"{e2e} entries, expected {kept}")

    kinds = facts["wikisql"]
    skips = _skips(notes["align-wikisql"])
    aligned = len(_lines(o["wikisql_entries"]))
    unaligned = sum(v for k, v in skips.items() if k.startswith("unaligned:"))
    expect("align-wikisql",
           skips.get("aggregate command", 0) == kinds["aggregate"]
           and skips.get("unparseable sql", 0) == kinds["unparseable"]
           and unaligned == kinds["unaligned"]
           and aligned + skips.get("oversize tripleset", 0) == kinds["aligned"],
           f"{aligned} aligned, skips {skips}, expected {kinds}")

    mapping = {}
    for line in _lines(Path(paths["map"])):
        if not line.lstrip().startswith("#"):
            raw, canonical = line.split("\t")
            mapping[raw.strip()] = canonical.strip()
    before = _records(o["all_entries"])
    after = _records(o["unified"])
    expected = [[[s, mapping.get(p.strip(), p), ob] for s, p, ob in e["triples"]]
                for e in before]
    expect("unify", [e["triples"] for e in after] == expected,
           "unified predicates differ from the map applied to the input")
    unmapped = sorted({p for e in before for _, p, _ in e["triples"]
                       if p.strip() not in mapping})
    expect("unify", _lines(o["unmapped"]) == unmapped, "unmapped report differs")

    for problem in split_leaks(Path(paths["split_tables"]), o["splits"], SPLIT_THRESHOLD):
        expect("split", False, problem)

    pairs = sum(len(e["realizations"]) for e in after)
    doc = json.loads(o["stats"].read_text(encoding="utf-8"))
    by_part = sum(p["pair_count"] for p in doc["partitions"].values())
    expect("stats", doc["all"]["pair_count"] == pairs == by_part,
           f"pair_count {doc['all']['pair_count']} (partitions {by_part}), recount {pairs}")

    xml_entries = len(ElementTree.parse(o["xml"]).getroot().findall("entry"))
    expect("export-xml", xml_entries == len(after),
           f"{xml_entries} <entry> elements for {len(after)} entries")

    lines = len(o["linearized"].read_text(encoding="utf-8").splitlines())
    expect("linearize", lines == len(after), f"{lines} lines for {len(after)} entries")
    return failures
