"""Predicate canonicalization via a hand-maintained mapping table.

Matching is exact and case-sensitive after trimming surrounding whitespace;
spelling/case variants belong in the map itself, not in code. The map must
be chain-free: a canonical value that also appears as a key has to map to
itself, which makes unification idempotent.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .entries import CorpusEntry, Triple
from .errors import PredicateMapError, checked, located
from .files import read_lines


@checked
class PredicateMap(NamedTuple):
    entries: dict[str, str]

    def _check(self):
        bad = []
        for raw, canonical in self.entries.items():
            if not raw or not canonical:
                raise PredicateMapError("empty predicate in mapping table")
            target = self.entries.get(canonical)
            if target is not None and target != canonical:
                bad.append(f"{raw!r} -> {canonical!r} -> {target!r}")
        if bad:
            raise PredicateMapError("mapping chains found: " + "; ".join(bad))

    def canonical(self, predicate: str) -> str | None:
        return self.entries.get(predicate.strip())


def load_predicate_map(path: str | Path) -> PredicateMap:
    """Two-column TSV (raw, canonical); ``#`` starts a comment line.

    Lines end at a newline (reading turns CRLF and CR into one), not at the
    other breaks ``str.splitlines`` knows, so a predicate may hold U+2028.
    """
    entries: dict[str, str] = {}
    for lineno, line in enumerate(read_lines(path), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise located(PredicateMapError("expected two tab-separated columns"), path, lineno)
        raw, canonical = parts[0].strip(), parts[1].strip()
        if raw in entries and entries[raw] != canonical:
            raise located(PredicateMapError(
                f"{raw!r} mapped to both {entries[raw]!r} and {canonical!r}"), path, lineno)
        entries[raw] = canonical
    try:
        return PredicateMap(entries=entries)
    except PredicateMapError as exc:
        raise located(exc, path)


def unify_entry(
    entry: CorpusEntry, pmap: PredicateMap, unmapped: set[str] | None = None
) -> CorpusEntry:
    """``entry`` with each mapped predicate replaced; order, subjects, and objects untouched.

    Predicates without a mapping pass through unchanged and are collected
    into ``unmapped`` when a set is supplied.
    """
    out = []
    for t in entry.triples:
        canonical = pmap.canonical(t.predicate)
        if canonical is None:
            if unmapped is not None:
                unmapped.add(t.predicate)
            out.append(t)
        else:
            out.append(Triple(t.subject, canonical, t.object))
    # built whole, not with _replace, for the reason given in adapters.webnlg_ingest
    return CorpusEntry(tuple(out), *entry[1:])
