"""Check the pinned bytes and the input fuzz under each given Python.

    python3 tools/check_versions.py PYTHON [PYTHON ...]

Each PYTHON (a path or a command name) runs every file-producing stage on
``tests/fixtures`` in a fresh process (``tests/fixture_pipeline.py``), and
the sha256 of each output is compared with the pins that
``tests/test_reproducible.py`` checks. Then it runs the mutation fuzz
``tests/test_fuzz.py`` as a script, which fails if a mutated input makes a
stage fail without an error report naming that input. Last, it checks that
a fresh ``import tabletriples.cli`` loads neither ``dataclasses`` nor
``inspect``, which every stage would pay for at start-up (what the standard
library's own modules import differs between versions), nor the modules
that only some stages run: ``tables``, ``triples``, ``xmlcodec`` and
``tablestages``. Standard library
only, so it runs under interpreters that have no pytest. Prints one line per
interpreter and exits 1 if any of them fails to run, gives a different hash,
fails a mutant or loads one of those modules at start-up.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATHS = [str(ROOT / "src"), str(ROOT / "tests")]
sys.path[:0] = PATHS

from fixture_pipeline import PINNED  # noqa: E402  (needs the paths above)

UNLOADED_AT_START = ("dataclasses", "inspect", "tabletriples.tables", "tabletriples.triples",
                     "tabletriples.xmlcodec", "tabletriples.tablestages")
_LOADED_AT_START = ("import sys, tabletriples.cli; "
                    f"print(*(m for m in {UNLOADED_AT_START!r} if m in sys.modules))")


def _run(python: str, *args: str) -> subprocess.CompletedProcess:
    """The run of ``python -B ARGS`` with this checkout's ``src`` and ``tests`` on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(PATHS)}
    return subprocess.run([python, "-B", *args], env=env, capture_output=True, text=True)


def check(python: str) -> tuple[bool, str]:
    """(all pins reproduced and every mutant passed, a one-line report) for one interpreter."""
    try:
        proc = _run(python, str(ROOT / "tests" / "fixture_pipeline.py"))
    except OSError as exc:
        return False, f"{python}: cannot run: {exc}"
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return False, f"{python}: pipeline failed (exit {proc.returncode}): {last}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    differ = sorted(name for name, pin in PINNED.items() if result["sha256"].get(name) != pin)
    label = f"{python} (Python {result['python']})"
    if differ:
        return False, f"{label}: {len(differ)} of {len(PINNED)} outputs differ: {', '.join(differ)}"
    fuzz = _run(python, str(ROOT / "tests" / "test_fuzz.py"))
    # its last line counts the mutants run and failed; a crash leaves a traceback on stderr
    summary = (fuzz.stdout.strip().splitlines() or fuzz.stderr.strip().splitlines()
               or ["no output"])[-1]
    if fuzz.returncode != 0:
        return False, f"{label}: pinned outputs reproduced, fuzz failed: {summary}"
    start = _run(python, "-c", _LOADED_AT_START)
    loaded = start.stdout.split() if start.returncode == 0 else [f"(exit {start.returncode})"]
    if loaded:
        return False, f"{label}: import tabletriples.cli loads {', '.join(loaded)}"
    return True, (f"{label}: all {len(PINNED)} pinned outputs reproduced; fuzz: {summary}; "
                  f"start-up loads none of {', '.join(UNLOADED_AT_START)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON", help="interpreters to check")
    args = parser.parse_args(argv)
    ok = True
    for python in args.pythons:
        passed, report = check(python)
        print(report)
        ok &= passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
