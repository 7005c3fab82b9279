"""Tests of the benchmark's own code: generator, checks, tracer, smoke runs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _tree_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = inputs.generate(workload, 5, tmp_path / "a", divisor=20)
    second = inputs.generate(workload, 5, tmp_path / "b", divisor=20)
    other = inputs.generate(workload, 6, tmp_path / "c", divisor=20)
    assert first["facts"] == second["facts"]
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    assert _tree_bytes(tmp_path / "a") != _tree_bytes(tmp_path / "c")


def test_dense_tables_form_chains_of_exact_length():
    tables = inputs._dense_split_tables(3, 120)
    assert len(tables) == 120
    sigs = [frozenset([t["title"], *t["headers"]]) for t in tables]
    assert all(len(s) == 6 for s in sigs)
    links = [(a, b) for a, b in combinations(range(len(sigs)), 2)
             if len(sigs[a] & sigs[b]) >= 5]
    # every link is between chain neighbours, so there are exactly
    # (CHAIN_LENGTH - 1) links per chain
    chains = int(120 * inputs.CHAINED_SHARE) // inputs.CHAIN_LENGTH
    assert len(links) == chains * (inputs.CHAIN_LENGTH - 1)
    shared = sum(1 for a, b in combinations(sigs, 2) if a & b)
    assert shared / (len(sigs) * (len(sigs) - 1) / 2) > 0.6


def test_split_leak_scan_finds_a_near_duplicate(tmp_path):
    tables = [
        {"id": "a", "title": "alpha beta", "headers": ["gamma", "delta"]},
        {"id": "b", "title": "alpha beta", "headers": ["gamma", "epsilon"]},
        {"id": "c", "title": "zeta", "headers": ["eta"]},
    ]
    (tmp_path / "t.jsonl").write_text("".join(json.dumps(t) + "\n" for t in tables))
    (tmp_path / "ok.tsv").write_text("a\ttest\nb\ttest\nc\ttrain\n")
    (tmp_path / "bad.tsv").write_text("a\ttest\nb\ttrain\nc\tdev\n")
    assert checks.split_leaks(tmp_path / "t.jsonl", tmp_path / "ok.tsv", 0.5) == []
    assert checks.split_leaks(tmp_path / "t.jsonl", tmp_path / "bad.tsv", 0.5)


def test_skip_counts_parse_the_stage_note():
    note = "aligned 4 records -> x (skipped: 2 aggregate command, 1 unaligned: no row)\n"
    assert checks._skips(note) == {"aggregate command": 2, "unaligned: no row": 1}
    assert checks._skips("aligned 4 records -> x (skipped: none)") == {}


def test_tracer_wraps_every_lookup_site_and_restores_it():
    from tabletriples import cli, triples

    original = triples.complete_subtree
    t = tracer.Tracer()
    t.install(tracer.TIMED)
    try:
        assert cli.complete_subtree is triples.complete_subtree
        assert cli.complete_subtree is not original
    finally:
        t.uninstall()
    assert cli.complete_subtree is original and triples.complete_subtree is original


def _root(tmp_path: Path) -> Path:
    root = tmp_path / "checkout"
    root.mkdir()
    (root / "src").symlink_to(REPO / "src")
    return root


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_tiny_untraced_run_passes_checks_and_prints_every_metric(tmp_path, workload):
    record = run.run_workload(workload, 2, 0, False, _root(tmp_path), divisor=20)
    result = record["result"]
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] == len(run.STAGES)
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(tmp_path, workload):
    root = _root(tmp_path)
    untraced = run.run_workload(workload, 2, 0, False, root, divisor=20)
    record = run.run_workload(workload, 2, 0, True, root, divisor=20)
    assert record["result"]["correct"], record["failures"]
    assert list(record["result"]["metrics"]) == list(run.PER_LAYER)
    assert record["outputs_sha256"] == untraced["outputs_sha256"]
    for stage, spans in record["trace"]["per_stage"].items():
        wall = spans["cli." + stage][1]
        assert sum(own for _, _, own in spans.values()) == pytest.approx(wall)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def test_runner_fails_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "table_corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
