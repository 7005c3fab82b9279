"""Check the pinned bytes and the input fuzz under each given Python.

    python3 tools/check_versions.py PYTHON [PYTHON ...]

Each PYTHON (a path or a command name) runs every file-producing stage on
``tests/fixtures`` in a fresh process (``tests/fixture_pipeline.py``), and
the sha256 of each output is compared with the pins that
``tests/test_reproducible.py`` checks. Then it runs the mutation fuzz
``tests/test_fuzz.py`` as a script, which fails if a mutated input makes a
stage fail without an error report naming that input. Last, it checks that
a fresh ``import tabletriples.cli`` loads no module of ``NOT_AT_START``, nor
a submodule of one, and that each fixture stage, run in a fresh process,
loads none beyond its ``OWN_MODULES``, as ``tests/test_startup.py`` does:
every stage would pay for it at start-up, and what the standard library's
own modules import differs between versions. Standard library only, so it
runs under interpreters that have no pytest. Prints one line per interpreter
and exits 1 if any of them fails to run, gives a different hash, fails a
mutant or loads a module that it should not.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATHS = [str(ROOT / "src"), str(ROOT / "tests")]
sys.path[:0] = PATHS

from fixture_pipeline import NOT_AT_START, OWN_MODULES, PINNED, stages  # noqa: E402

# the modules of NOT_AT_START, and their submodules, that the process has loaded, on one line
_LOADED = ("print(*(m for m in sys.modules if any("
           f"m == name or m.startswith(name + '.') for name in {NOT_AT_START!r})))")
_LOADED_AT_START = "import sys, tabletriples.cli; " + _LOADED
# run the stage that sys.argv names; its own stdout comes first, so the list is the last line
_LOADED_BY_STAGE = ("import sys; from tabletriples.cli import main; "
                    "assert main(sys.argv[1:]) == 0; " + _LOADED)


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
    with tempfile.TemporaryDirectory() as tmp:
        argvs = stages(Path(tmp))  # in order, so each stage reads what those before it wrote
        for argv in argvs:
            run = _run(python, "-c", _LOADED_BY_STAGE, *argv)
            loaded = ((run.stdout.splitlines() or [""])[-1].split() if run.returncode == 0
                      else [f"(exit {run.returncode})"])
            extra = [m for m in loaded if m not in OWN_MODULES.get(argv[0], ())]
            if extra:
                return False, f"{label}: {argv[0]} loads {', '.join(extra)}"
    return True, (f"{label}: all {len(PINNED)} pinned outputs reproduced; fuzz: {summary}; "
                  f"start-up loads none of the {len(NOT_AT_START)} modules of NOT_AT_START, "
                  f"and each of the {len(argvs)} stages only its own")


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
