"""A seeded mutation fuzz of every stage's input files, run through ``cli.main``.

Each stage runs on the fixtures, or on the fixture pipeline's outputs, with
one input file changed by one seeded mutation (``mutate``):

- a JSON scalar replaced with ``null``, ``0``, ``-1``, ``1e400``, ``""``,
  ``[]``, ``{}``, ``"\\u0000"`` or ``"\\ud800"``;
- a line deleted, duplicated or truncated;
- a character replaced with a quote, a bracket, ``|``, ``\\``, a tab, ``\\r``
  or U+0001;
- in a CSV file, one cell made longer than ``csv``'s field size limit.

A mutant passes if its stage exits 0, or exits 1 with an error report whose
type is a TableTriplesError or an OSError and whose message names one of the
stage's input files. An exception that escapes ``main`` fails it.
Standard library only: run as a script (with ``src`` and ``tests`` on
``PYTHONPATH``) under any interpreter, it prints each failing mutant and
exits 1 if there is one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

from fixture_pipeline import FIXTURES, SOURCES, run_pipeline
from tabletriples.cli import main
from tabletriples.errors import TableTriplesError

MUTANTS_PER_INPUT = 8

# the source stages' outputs that unify reads, apart from the fixtures that share their names
UNIFY_INPUTS = tuple(f"sources/{name}" for name in SOURCES)
# each stage's inputs, by flag: a name in the work directory, or a tuple of them for a flag
# that takes several; the settings of a stage are in a --config file, so they are mutated too
STAGES = {
    "ingest-tables": {"--input": "tables"},
    "validate-ontology": {"--tables": "tables.jsonl", "--annotations": "annotations.jsonl"},
    "sample": {"--tables": "tables.jsonl", "--annotations": "annotations.jsonl",
               "--config": "sample.json"},
    "extract": {"--tables": "tables.jsonl", "--annotations": "annotations.jsonl",
                "--components": "components.jsonl", "--sentences": "sentences.jsonl",
                "--config": "extract.json"},
    "convert-e2e": {"--input": "e2e.csv"},
    "ingest-webnlg": {"--input": "webnlg.xml"},
    "align-wikisql": {"--input": "wikisql.jsonl", "--tables": "tables.jsonl",
                      "--annotations": "annotations.jsonl", "--qa2d": "qa2d.json"},
    "unify": {"--input": UNIFY_INPUTS, "--map": "predicates.tsv"},
    "split": {"--tables": "tables.jsonl", "--config": "split.json"},
    "stats": {"--input": "unified.jsonl"},
    "export-xml": {"--input": "unified.jsonl"},
    "linearize": {"--input": "unified.jsonl"},
}
# a bound out of range that a config file set is a BoundError that names the file
CONFIGS = {"sample.json": {"seed": 7, "p-max": 0.7}, "extract.json": {"category": "Sports"},
           "split.json": {"seed": 3}}
FROM_FIXTURES = ("tables", "annotations.jsonl", "sentences.jsonl", "e2e.csv", "webnlg.xml",
                 "wikisql.jsonl", "qa2d.json", "predicates.tsv")
FROM_PIPELINE = ("tables.jsonl", "components.jsonl", "unified.jsonl")

SCALARS = ("null", "0", "-1", "1e400", '""', "[]", "{}", '"\\u0000"', '"\\ud800"')
CHARACTERS = ('"', "[", "]", "{", "}", "|", "\\", "\t", "\r", "\x01")
CELL_OVER_LIMIT = "x" * 131_073  # csv's default field size limit is 131,072 characters
_SENTINEL = "@@mutant@@"

# mutants that cannot pass yet, by id (stage/input/n): none
EXPECTED_FAILURES: dict[str, str] = {}


def _scalar_paths(value, path=()):
    """The path of every scalar in a decoded JSON value, in document order."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        yield path
        return
    for key, item in items:
        yield from _scalar_paths(item, (*path, key))


def _replace_scalar(text: str, rng: random.Random, raw: str) -> str:
    """``text``, a JSON document, with one of its scalars replaced by the JSON ``raw``."""
    doc = json.loads(text)
    paths = list(_scalar_paths(doc))
    *parents, last = paths[rng.randrange(len(paths))]
    holder = doc
    for key in parents:
        holder = holder[key]
    holder[last] = _SENTINEL
    return json.dumps(doc, ensure_ascii=False).replace(json.dumps(_SENTINEL), raw)


def mutate(name: str, text: str, rng: random.Random) -> tuple[str, str]:
    """(the mutation's label, ``text`` of the file ``name`` with it applied)."""
    kinds = ["line", "character"]
    if name.endswith((".json", ".jsonl")):
        kinds.append("scalar")
    if name.endswith(".csv"):
        kinds.append("cell")
    kind = rng.choice(kinds)
    lines = text.splitlines(keepends=True)
    if kind == "scalar":
        raw = rng.choice(SCALARS)
        if name.endswith(".json"):
            return f"scalar {raw}", _replace_scalar(text, rng, raw)
        i = rng.choice([i for i, line in enumerate(lines) if line.strip()])
        lines[i] = _replace_scalar(lines[i], rng, raw) + "\n"
        return f"scalar {raw}", "".join(lines)
    if kind == "character":
        char, i = rng.choice(CHARACTERS), rng.randrange(len(text))
        return f"character {char!r}", text[:i] + char + text[i + 1:]
    i = rng.randrange(len(lines))
    if kind == "cell":
        at = rng.randrange(len(lines[i].rstrip("\r\n")) + 1)
        lines[i] = lines[i][:at] + CELL_OVER_LIMIT + lines[i][at:]
        return "cell over the limit", "".join(lines)
    how = rng.choice(["delete", "duplicate", "truncate"])
    if how == "delete":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    else:
        body = lines[i].rstrip("\r\n")
        lines[i] = body[:rng.randrange(len(body) + 1)] + lines[i][len(body):]
    return f"line {how}", "".join(lines)


def _subclass_names(base: type) -> set[str]:
    names, todo = set(), [base]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


REPORTED_ERRORS = _subclass_names(TableTriplesError) | _subclass_names(OSError)


def _verdict(code: object, stderr: str, inputs: list[Path]) -> str | None:
    """Why a run of ``stage`` fails the fuzz, or None if it passes."""
    if code == 0:
        return None
    if code != 1:
        return f"exit status {code!r}"
    last = (stderr.strip().splitlines() or [""])[-1]
    try:
        report = json.loads(last)
    except json.JSONDecodeError:
        report = None
    if not isinstance(report, dict) or "error" not in report:
        return f"exit status 1 without an error report: {last!r}"
    if report["error"] not in REPORTED_ERRORS:
        return f"{report['error']}: {report['message']}"
    if not any(str(path) in report["message"] for path in inputs):
        return f"names no input: {report['error']}: {report['message']}"
    return None


def _names(value: str | tuple[str, ...]) -> tuple[str, ...]:
    """The input names a flag's value in ``STAGES`` gives."""
    return (value,) if isinstance(value, str) else value


def _targets(flags: dict[str, str | tuple[str, ...]]) -> list[str]:
    """The input names of a stage's ``flags``, each once, in order."""
    return list(dict.fromkeys(name for value in flags.values() for name in _names(value)))


def _argv(stage: str, inputs: dict[str, list[Path]], output: Path) -> list[str]:
    """``stage``'s command line; ``--config`` goes before the stage, the other flags after it."""
    given = {flag: [flag, *map(str, paths)] for flag, paths in inputs.items()}
    before = given.pop("--config", [])
    after = [arg for args in given.values() for arg in args]
    return [*before, stage, *after, "--json-out" if stage == "stats" else "--output", str(output)]


def _run_mutant(workdir: Path, stage: str, target: str, n: int) -> tuple[str, str | None]:
    """(the mutation, why it fails the fuzz or None) of mutant ``n`` of ``stage``'s ``target``."""
    clean, mutated, output = workdir / "clean", workdir / "mutated", workdir / "out" / stage
    rng = random.Random(f"{stage}/{target}/{n}")
    name = target
    if (clean / target).is_dir():  # one file of a directory input
        name = f"{target}/{rng.choice(sorted(os.listdir(clean / target)))}"
    original = (clean / name).read_text(encoding="utf-8")
    label, text = mutate(name, original, rng)
    inputs = {flag: [(mutated if n == target else clean) / n for n in _names(value)]
              for flag, value in STAGES[stage].items()}
    (mutated / name).write_bytes(text.encode("utf-8"))
    output.unlink(missing_ok=True)
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(_argv(stage, inputs, output))
        reason = _verdict(code, stderr.getvalue(), [p for paths in inputs.values() for p in paths])
    except Exception:
        reason = "escaped main: " + traceback.format_exc().strip().splitlines()[-1]
    finally:
        (mutated / name).write_bytes(original.encode("utf-8"))
    return label, reason and f"{name}: {reason}"


def fuzz(workdir: Path) -> tuple[dict[str, str], set[str], int]:
    """(each failing mutant's reason by id, the mutations applied, the mutants run)."""
    clean, mutated, pipeline = workdir / "clean", workdir / "mutated", workdir / "pipeline"
    for path in (clean, mutated, pipeline, workdir / "out"):
        path.mkdir()
    run_pipeline(pipeline)
    for name in FROM_FIXTURES:
        source = FIXTURES / name
        if source.is_dir():
            shutil.copytree(source, clean / name)
            shutil.copytree(source, mutated / name)
        else:
            shutil.copy(source, clean / name)
    for name in FROM_PIPELINE:
        shutil.copy(pipeline / name, clean / name)
    for path in (clean / "sources", mutated / "sources"):
        path.mkdir()
    for name, source in zip(UNIFY_INPUTS, SOURCES):
        shutil.copy(pipeline / source, clean / name)
    for name, config in CONFIGS.items():
        (clean / name).write_text(json.dumps(config), encoding="utf-8")

    failures: dict[str, str] = {}
    applied: set[str] = set()
    count = 0
    for stage, flags in STAGES.items():
        for target in _targets(flags):
            for n in range(MUTANTS_PER_INPUT):
                label, reason = _run_mutant(workdir, stage, target, n)
                applied.add(label)
                count += 1
                if reason is not None:
                    failures[f"{stage}/{target}/{n}"] = f"{label}: {reason}"
    return failures, applied, count


def _all_mutations() -> set[str]:
    return ({f"scalar {raw}" for raw in SCALARS} | {f"character {c!r}" for c in CHARACTERS}
            | {f"line {how}" for how in ("delete", "duplicate", "truncate")}
            | {"cell over the limit"})


def test_every_mutant_exits_cleanly_or_names_its_input(tmp_path):
    failures, applied, count = fuzz(tmp_path)
    assert count == MUTANTS_PER_INPUT * sum(len(_targets(flags)) for flags in STAGES.values())
    assert applied == _all_mutations()
    unexpected = {k: v for k, v in failures.items() if k not in EXPECTED_FAILURES}
    assert not unexpected, "\n".join(f"{k}: {v}" for k, v in sorted(unexpected.items()))
    assert set(EXPECTED_FAILURES) <= set(failures), "an expected failure now passes"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        failures, applied, count = fuzz(Path(tmp))
    for mutant_id, reason in sorted(failures.items()):
        print(f"{mutant_id}: {reason}")
    missing = _all_mutations() - applied
    print(f"{count} mutants, {len(failures)} failing"
          + (f", mutations never applied: {sorted(missing)}" if missing else ""))
    sys.exit(1 if failures or missing else 0)
