"""In-process spans around the public functions of each ``tabletriples`` module.

The program is not edited. ``Tracer.install`` replaces a function at every
module attribute that refers to it (``cli`` imports many functions by name,
so ``tabletriples.cli.complete_subtree`` and
``tabletriples.triples.complete_subtree`` are both replaced) and
``uninstall`` puts the originals back.

Spans are kept in memory as aggregates per (stage, function): calls, total
time and self time, where self time is a span's duration minus the time of
the wrapped spans it directly contains. Wrapper bookkeeping falls into the
caller's self time; that cost is the tracing overhead the benchmark reports.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from tabletriples import adapters, cli, formats, sampling, splits, stats, tables, textutil, triples, unify
from tabletriples.errors import OversizeError

# observe(counters, args, result, exc) runs after the span has closed
Observer = Callable[[dict, tuple, object, BaseException | None], None]


@dataclass(frozen=True)
class Target:
    name: str  # layer metric prefix, e.g. "triples.complete_subtree"
    owner: object  # module or class that defines the function
    attr: str
    observe: Observer | None = None


def _bump(counters: dict, key: str, by: int = 1) -> None:
    counters[key] = counters.get(key, 0) + by


def _nodes_added(c, args, result, exc):
    if exc is None:
        _bump(c, "triples.complete_subtree.nodes_added", len(result) - len(args[1]))


def _oversize(c, args, result, exc):
    if isinstance(exc, OversizeError):
        _bump(c, "triples.extract_triples.oversize")


def _short(c, args, result, exc):
    if exc is None and result.size < result.target_size:
        _bump(c, "sampling.short")


def _dropped(c, args, result, exc):
    if isinstance(result, adapters.Dropped):
        _bump(c, "adapters.dropped")


def _aligned(c, args, result, exc):
    if isinstance(result, triples.Highlight):
        _bump(c, "adapters.aligned")


def _pulled(c, args, result, exc):
    if exc is None:
        _bump(c, "splits.pulled", len(result[0]) - len(args[0]))


def _mapped(c, args, result, exc):
    _bump(c, "unify.mapped", result is not None)


# Functions timed in the traced pass. The CLI helpers are private names, but
# they are where each stage decodes, encodes and writes its files.
TIMED = (
    Target("cli.decode_jsonl", cli, "_read_jsonl"),
    Target("cli.encode_jsonl", cli, "_dump_jsonl"),
    Target("cli.write_file", cli, "_atomic_write"),
    Target("tables.table_from_dict", tables, "table_from_dict"),
    Target("tables.parse_annotation", tables, "parse_annotation"),
    Target("tables.build_tree", tables, "build_tree"),
    Target("sampling.sample_for_table", sampling, "sample_for_table"),
    Target("sampling.sample_component", sampling, "sample_component", _short),
    Target("triples.complete_subtree", triples, "complete_subtree", _nodes_added),
    Target("triples.instantiate", triples, "instantiate"),
    Target("triples.extract_triples", triples, "extract_triples", _oversize),
    Target("triples.assemble_entry", triples, "assemble_entry"),
    Target("formats.read_entries_jsonl", formats, "read_entries_jsonl"),
    Target("formats.entry_from_dict", formats, "entry_from_dict"),
    Target("formats.write_entries_jsonl", formats, "write_entries_jsonl"),
    Target("formats.entry_to_dict", formats, "entry_to_dict"),
    Target("formats.write_xml", formats, "write_xml"),
    Target("formats.read_xml", formats, "read_xml"),
    Target("formats.linearize", formats, "linearize"),
    Target("unify.load_predicate_map", unify, "load_predicate_map"),
    Target("unify.unify_entry", unify, "unify_entry"),
    Target("stats.compute_stats", stats, "compute_stats"),
    Target("textutil.word_tokens", textutil, "word_tokens"),
    Target("splits.signature", splits.TableSignature, "from_table"),
    Target("splits.split", splits, "split"),
    Target("splits.expand_by_similarity", splits, "expand_by_similarity", _pulled),
    Target("adapters.parse_mr", adapters, "parse_mr"),
    Target("adapters.e2e_to_tripleset", adapters, "e2e_to_tripleset", _dropped),
    Target("adapters.parse_sql", adapters, "parse_sql"),
    Target("adapters.align_row", adapters, "align_row", _aligned),
    Target("adapters.webnlg_ingest", adapters, "webnlg_ingest"),
)

# Only counted, in a separate pass: jaccard runs millions of times on dense
# inputs, and timing it would distort the self times of the timed pass.
COUNTED = (
    Target("splits.jaccard", splits, "jaccard"),
    Target("unify.canonical", unify.PredicateMap, "canonical", _mapped),
)


class Tracer:
    def __init__(self, timed: bool = True):
        self.timed = timed
        self.stage = ""
        self.aggregates: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack: list[float] = []  # child time of each open span
        self._restore: list[tuple[object, str, object]] = []

    # --- spans ----------------------------------------------------------

    def _close(self, name: str, elapsed: float) -> None:
        child = self._stack.pop()
        agg = self.aggregates.setdefault((self.stage, name), [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - child
        if self._stack:
            self._stack[-1] += elapsed

    @contextmanager
    def stage_span(self, stage: str):
        """Root span of one CLI stage, named ``cli.<stage>``."""
        self.stage = stage
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close("cli." + stage, time.perf_counter() - start)

    def _wrap(self, target: Target, fn):
        name, observe, counters = target.name, target.observe, self.counters
        clock = time.perf_counter

        if not self.timed:
            def counting(*args, **kwargs):
                _bump(counters, name + ".calls")
                result = fn(*args, **kwargs)
                if observe:
                    observe(counters, args, result, None)
                return result
            return counting

        def timed(*args, **kwargs):
            self._stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(name, clock() - start)
                if observe:
                    observe(counters, args, None, exc)
                raise
            self._close(name, clock() - start)
            if observe:
                observe(counters, args, result, None)
            return result
        return timed

    # --- installation -----------------------------------------------------

    def install(self, targets: tuple[Target, ...]) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "tabletriples" or n.startswith("tabletriples.")]
        for target in targets:
            if isinstance(target.owner, type):
                raw = vars(target.owner)[target.attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(target, raw.__func__))
                else:
                    wrapped = self._wrap(target, raw)
                self._set(target.owner, target.attr, wrapped)
                continue
            original = getattr(target.owner, target.attr)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
