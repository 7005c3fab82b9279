"""The stages of one benchmark pass, and how each is run as its own process.

A pass runs every CLI stage once, in pipeline order, one at a time: a closed
loop with a single client. Every stage is a fresh ``python -m tabletriples``
process, as a user runs it; its wall time runs from spawn to exit, and its
peak RSS and CPU time come from ``os.wait4`` on that child alone, taken in
the small helper process of spawner.py.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

STAGES = (
    "sample", "extract", "ingest-webnlg", "convert-e2e", "align-wikisql",
    "unify", "split", "stats", "export-xml", "linearize",
)

# RSS groups follow the README's pipeline sections.
RSS_GROUPS = {
    "build_rss_mb": ("sample", "extract"),
    "sources_rss_mb": ("ingest-webnlg", "convert-e2e", "align-wikisql"),
    "post_rss_mb": ("unify", "split", "stats", "export-xml", "linearize"),
}

# Component sizes 1-12 reach the oversize path on wide tables.
SAMPLE_FLAGS = ["--size-min", "1", "--size-max", "12", "--p-min", "0.3", "--p-max", "0.9"]
SPLIT_THRESHOLD = 0.5

# Entry files that are concatenated into the input of unify.
ENTRY_OUTPUTS = ("entries", "webnlg_entries", "e2e_entries", "wikisql_entries")


def metric_name(stage: str) -> str:
    return stage.replace("-", "_") + "_s"


def output_paths(out: Path) -> dict[str, Path]:
    names = {
        "components": "components.jsonl", "entries": "entries.jsonl",
        "webnlg_entries": "webnlg_entries.jsonl", "e2e_entries": "e2e_entries.jsonl",
        "wikisql_entries": "wikisql_entries.jsonl", "all_entries": "all_entries.jsonl",
        "unified": "unified.jsonl", "unmapped": "unmapped.txt", "splits": "splits.tsv",
        "stats": "stats.json", "xml": "corpus.xml", "linearized": "inputs.txt",
    }
    return {key: out / name for key, name in names.items()}


def stage_plan(manifest: dict, out: Path) -> list[tuple[str, list[str], list[Path]]]:
    """(stage, CLI arguments, output files) for every stage, in run order."""
    i = manifest["paths"]
    o = output_paths(out)
    seed = str(manifest["seed"])
    sampled_rows = ["--max-rows-per-table", str(manifest["sizes"]["sampled_rows"])]
    tables = ["--tables", i["tables"], "--annotations", i["annotations"]]
    return [
        ("sample", ["sample", *tables, "--seed", seed, *SAMPLE_FLAGS, *sampled_rows,
                    "--output", str(o["components"])], [o["components"]]),
        ("extract", ["extract", *tables, "--components", str(o["components"]),
                     "--sentences", i["sentences"], "--output", str(o["entries"])],
         [o["entries"]]),
        ("ingest-webnlg", ["ingest-webnlg", "--input", i["webnlg"],
                           "--output", str(o["webnlg_entries"])], [o["webnlg_entries"]]),
        ("convert-e2e", ["convert-e2e", "--input", i["e2e"],
                         "--output", str(o["e2e_entries"])], [o["e2e_entries"]]),
        ("align-wikisql", ["align-wikisql", "--input", i["wikisql"], *tables,
                           "--qa2d", i["qa2d"], "--output", str(o["wikisql_entries"])],
         [o["wikisql_entries"]]),
        ("unify", ["unify", "--input", str(o["all_entries"]), "--map", i["map"],
                   "--report-unmapped", str(o["unmapped"]), "--output", str(o["unified"])],
         [o["unified"], o["unmapped"]]),
        ("split", ["split", "--tables", i["split_tables"], "--threshold", str(SPLIT_THRESHOLD),
                   "--seed", seed, "--output", str(o["splits"])], [o["splits"]]),
        ("stats", ["stats", "--input", str(o["unified"]), "--by-partition",
                   "--json-out", str(o["stats"])], [o["stats"]]),
        ("export-xml", ["export-xml", "--input", str(o["unified"]), "--output", str(o["xml"])],
         [o["xml"]]),
        ("linearize", ["linearize", "--input", str(o["unified"]),
                       "--output", str(o["linearized"])], [o["linearized"]]),
    ]


def concatenate_entries(out: Path) -> None:
    """Join the four entry files into unify's input (not timed)."""
    o = output_paths(out)
    with open(o["all_entries"], "wb") as dst:
        for key in ENTRY_OUTPUTS:
            dst.write(o[key].read_bytes())


@dataclass
class StageRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


class Spawner:
    """The helper process (spawner.py) that starts every measured process."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], env: dict[str, str], log: Path) -> dict:
        """Run ``argv`` to completion; stdout and stderr go to ``log``.{out,err}."""
        self._proc.stdin.write(json.dumps({"argv": argv, "env": env, "log": str(log)}) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended unexpectedly")
        return json.loads(reply)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_stage(spawner: Spawner, stage: str, args: list[str], env: dict[str, str],
              logs: Path) -> StageRun:
    log = logs / stage
    reply = spawner.run([sys.executable, "-m", "tabletriples", *args], env, log)
    return StageRun(
        wall_s=reply["wall_s"],
        cpu_s=reply["utime_s"] + reply["stime_s"],
        peak_rss_mb=reply["maxrss_kb"] / 1024,  # ru_maxrss is in KiB on Linux
        returncode=reply["exit"],
        stderr=Path(f"{log}.err").read_text(encoding="utf-8", errors="replace"),
    )


# The standard-library modules the program imports, but not the program: a
# process whose cost depends on the host alone.
REFERENCE_CODE = ("import argparse, collections, csv, dataclasses, enum, hashlib, json, "
                  "random, re, tempfile, xml.etree.ElementTree, xml.sax.saxutils")


def _timed_python(spawner: Spawner, code: str, env: dict[str, str], log: Path) -> float:
    reply = spawner.run([sys.executable, "-c", code], env, log)
    if reply["exit"] != 0:
        raise RuntimeError(f"python -c {code!r} failed; see {log}.err")
    return reply["wall_s"]


def measure_setup(spawner: Spawner, env: dict[str, str], logs: Path) -> float:
    """Wall time of a fresh interpreter importing ``tabletriples.cli``."""
    return _timed_python(spawner, "import tabletriples.cli", env, logs / "setup")


def measure_reference(spawner: Spawner, env: dict[str, str], logs: Path) -> float:
    """Wall time of the reference process, which measures the host's speed."""
    return _timed_python(spawner, REFERENCE_CODE, env, logs / "reference")
