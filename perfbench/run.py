"""Corpus-build benchmark for tabletriples.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table_corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1     # every workload, one table

The benchmark generates its inputs from ``--seed`` (perfbench/inputs.py),
then runs passes of the whole pipeline until ``--seconds`` have gone by. A
pass runs every CLI stage once, each as its own subprocess, one at a time
(a closed loop with one client). With ``--trace 0`` it reports the
end-to-end metrics: mean stage wall times over the passes, their sum, peak
RSS per pipeline section (median over the passes), and the median set-up
time of a fresh interpreter, sampled twice per pass. Times are scaled to a
reference host speed (see REFERENCE_S). With
``--trace 1`` it reports the per-layer metrics instead, from in-process runs
of ``tabletriples.cli.main`` with the spans of perfbench/tracer.py.

Output checks (perfbench/checks.py) and sha256 hashes of every output run
outside the timed regions. Every pass must reproduce the first pass's
hashes. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted``
counts stage runs and ``failed`` the stage runs that exited nonzero,
changed their output hashes, or failed a check. A record of the run, with
all hashes, goes to ``.perfbench_work/records/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import inputs
import pipeline
from pipeline import STAGES, metric_name

WORK_DIR = ".perfbench_work"
# Wall time of the reference process (pipeline.REFERENCE_CODE) that times
# are scaled to: about its time on an idle 2-vCPU Xeon at 2.1 GHz.
REFERENCE_S = 0.08

END_TO_END = (
    [("wall_s", "s")]
    + [(metric_name(stage), "s") for stage in STAGES]
    + [(group, "MB") for group in pipeline.RSS_GROUPS]
    + [("setup_s", "s")]
)

_FUNCTION_METRICS = {
    "tables.table_from_dict": ("calls", "self_s"),
    "tables.parse_annotation": ("self_s",),
    "tables.build_tree": ("calls", "self_s"),
    "sampling.sample_for_table": ("self_s",),
    "sampling.sample_component": ("calls", "self_s"),
    "triples.complete_subtree": ("calls", "self_s"),
    "triples.instantiate": ("self_s",),
    "triples.extract_triples": ("calls", "self_s"),
    "triples.assemble_entry": ("self_s",),
    "formats.read_entries_jsonl": ("self_s",),
    "formats.entry_from_dict": ("calls", "self_s"),
    "formats.write_entries_jsonl": ("self_s",),
    "formats.entry_to_dict": ("self_s",),
    "formats.write_xml": ("self_s",),
    "formats.read_xml": ("self_s",),
    "formats.linearize": ("calls", "self_s"),
    "unify.load_predicate_map": ("self_s",),
    "unify.unify_entry": ("calls", "self_s"),
    "stats.compute_stats": ("calls", "self_s"),
    "textutil.word_tokens": ("calls", "self_s"),
    "splits.signature": ("self_s",),
    "splits.split": ("self_s",),
    "splits.expand_by_similarity": ("calls", "self_s"),
    "adapters.parse_mr": ("calls", "self_s"),
    "adapters.parse_sql": ("calls", "self_s"),
    "adapters.align_row": ("calls", "self_s"),
    "adapters.webnlg_ingest": ("self_s",),
}

_UNITS = {"self_s": ("s", "lower"), "calls": ("count", "lower"),
          "peak_rss_mb": ("MB", "lower"), "bytes_out": ("B", "lower"),
          "overhead_s": ("s", "lower")}

# name -> (unit, better) for every per-layer metric, in report order
PER_LAYER: dict[str, tuple[str, str]] = {}
for _stage in STAGES:
    for _kind in ("self_s", "peak_rss_mb", "bytes_out", "overhead_s"):
        PER_LAYER[f"cli.{_stage.replace('-', '_')}.{_kind}"] = _UNITS[_kind]
for _name in ("cli.decode_jsonl", "cli.encode_jsonl", "cli.write_file"):
    PER_LAYER[_name + ".self_s"] = _UNITS["self_s"]
for _name, _kinds in _FUNCTION_METRICS.items():
    for _kind in _kinds:
        PER_LAYER[f"{_name}.{_kind}"] = _UNITS[_kind]
PER_LAYER.update({
    "sampling.short_ratio": ("ratio", "lower"),
    "triples.complete_subtree.nodes_added": ("count", "lower"),
    "triples.extract_triples.oversize": ("count", "lower"),
    "triples.kept_ratio": ("ratio", "higher"),
    "unify.mapped_ratio": ("ratio", "higher"),
    "splits.jaccard.calls": ("count", "lower"),
    "splits.pulled_ratio": ("ratio", "higher"),
    "adapters.dropped": ("count", "lower"),
    "adapters.aligned_ratio": ("ratio", "higher"),
})


# --- helpers ------------------------------------------------------------------

def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def hash_outputs(plan, out: Path) -> dict[str, str]:
    files = [p for _, _, outs in plan for p in outs] + [pipeline.output_paths(out)["all_entries"]]
    return {p.name: sha256_file(p) for p in files}


def combined_hash(hashes: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest()


class Failures:
    """Stage runs that failed, each counted once."""

    def __init__(self):
        self.reasons: dict[tuple[int, str], str] = {}

    def add(self, pass_index: int, stage: str, reason: str) -> None:
        self.reasons.setdefault((pass_index, stage), reason)

    def __len__(self) -> int:
        return len(self.reasons)

    def as_list(self) -> list[dict]:
        return [{"pass": p, "stage": s, "reason": r} for (p, s), r in sorted(self.reasons.items())]


def check_pass(manifest, out, notes, pass_index, failures: Failures) -> None:
    try:
        found = checks.check_outputs(manifest, out, notes)
    except Exception as exc:  # an output too malformed to check is a failed check
        found = [("checks", f"{type(exc).__name__}: {exc}")]
    for stage, reason in found:
        failures.add(pass_index, stage, reason)


def compare_hashes(reference, hashes, plan, pass_index, failures: Failures, what: str) -> None:
    for stage, _, outs in plan:
        for path in outs:
            if hashes[path.name] != reference[path.name]:
                failures.add(pass_index, stage, f"{path.name} differs from {what}")


# --- untraced run: end-to-end metrics -----------------------------------------

def subprocess_pass(spawner, plan, out, env, logs, pass_index, failures: Failures,
                    samples: dict[str, list[float]] | None = None):
    """One pass, every stage as a subprocess; stops at the first failed stage.

    With ``samples``, the reference process runs before every stage and the
    set-up measurement before sample and unify, so that both spread over the
    whole run.
    """
    runs = {}
    for stage, args, _ in plan:
        if stage == "unify":
            pipeline.concatenate_entries(out)
        if samples is not None:
            samples["reference"].append(pipeline.measure_reference(spawner, env, logs))
            if stage in ("sample", "unify"):
                samples["setup"].append(pipeline.measure_setup(spawner, env, logs))
        run = pipeline.run_stage(spawner, stage, args, env, logs)
        runs[stage] = run
        if run.returncode != 0:
            failures.add(pass_index, stage, f"exit {run.returncode}: {run.stderr.strip()[-500:]}")
            break
    return runs


def run_untraced(spawner, manifest, plan, out, env, logs, seconds, record) -> tuple[dict, int, Failures]:
    failures = Failures()
    pipeline.measure_setup(spawner, env, logs)  # warms the bytecode cache; not counted
    samples: dict[str, list[float]] = {"reference": [], "setup": []}
    passes: list[dict[str, pipeline.StageRun]] = []
    reference = None
    attempted = 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        runs = subprocess_pass(spawner, plan, out, env, logs, len(passes), failures, samples)
        attempted += len(runs)
        if any(run.returncode for run in runs.values()):
            break
        hashes = hash_outputs(plan, out)
        if reference is None:
            reference = hashes
            check_pass(manifest, out, {s: r.stderr for s, r in runs.items()}, 0, failures)
        else:
            compare_hashes(reference, hashes, plan, len(passes), failures, "the first pass")
        passes.append(runs)
    # Times are scaled to a host on which the reference process takes
    # REFERENCE_S. On a shared host the speed of every process drifts by
    # tens of percent over minutes, and stage times follow the reference
    # process closely (correlation 0.9 and above), so the scaled times vary
    # far less from run to run than raw ones. The reference runs none of the
    # program, so a change to the program moves the scaled times as much as
    # the raw ones.
    scale = REFERENCE_S / statistics.fmean(samples["reference"])
    record.update(passes=len(passes), hashes=reference or {}, scale=scale, samples=samples,
                  stage_runs={s: [{"wall_s": p[s].wall_s, "cpu_s": p[s].cpu_s,
                                   "peak_rss_mb": p[s].peak_rss_mb} for p in passes]
                              for s in STAGES if passes})
    metrics = {"setup_s": statistics.median(samples["setup"]) * scale}
    if passes:
        # means, so that the stage times add up to wall_s
        for stage in STAGES:
            metrics[metric_name(stage)] = statistics.fmean(p[stage].wall_s for p in passes) * scale
        metrics["wall_s"] = sum(metrics[metric_name(stage)] for stage in STAGES)
        for group, members in pipeline.RSS_GROUPS.items():
            metrics[group] = max(statistics.median(p[s].peak_rss_mb for p in passes)
                                 for s in members)
    return metrics, attempted, failures


# --- traced run: per-layer metrics --------------------------------------------

def inprocess_pass(plan, out, main, tracer=None) -> tuple[dict[str, float], dict[str, str], dict[str, int]]:
    """One pass through ``cli.main`` in this process; walls, stderr, exit codes."""
    walls, notes, codes = {}, {}, {}
    for stage, args, _ in plan:
        if stage == "unify":
            pipeline.concatenate_entries(out)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            span = tracer.stage_span(stage) if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            with span:
                codes[stage] = main(args)
            walls[stage] = time.perf_counter() - start
        notes[stage] = err.getvalue()
    return walls, notes, codes


def run_traced(spawner, manifest, plan, out, env, logs, seconds, src, record) -> tuple[dict, int, Failures]:
    sys.path.insert(0, str(src))
    import tracer as tracing
    from tabletriples.cli import main

    failures = Failures()
    sub = subprocess_pass(spawner, plan, out, env, logs, 0, failures)
    if len(failures):
        return {}, len(sub), failures
    reference = hash_outputs(plan, out)
    bytes_out = {stage: sum(p.stat().st_size for p in outs) for stage, _, outs in plan}
    components = len(out.joinpath("components.jsonl").read_text(encoding="utf-8").splitlines())

    tracer = tracing.Tracer()
    untraced: dict[str, list[float]] = {s: [] for s in STAGES}
    traced: dict[str, list[float]] = {s: [] for s in STAGES}
    n = 0
    deadline = time.perf_counter() + seconds
    while n == 0 or time.perf_counter() < deadline:
        n += 1
        for walls_by_stage, use in ((untraced, None), (traced, tracer)):
            if use:
                use.install(tracing.TIMED)
            try:
                walls, notes, codes = inprocess_pass(plan, out, main, use)
            finally:
                if use:
                    use.uninstall()
            for stage, wall in walls.items():
                walls_by_stage[stage].append(wall)
                if codes[stage] != 0:
                    failures.add(n, stage, f"exit {codes[stage]}: {notes[stage].strip()[-500:]}")
            compare_hashes(reference, hash_outputs(plan, out), plan, n, failures,
                           "the subprocess run" + (" (traced)" if use else ""))
    check_pass(manifest, out, notes, n, failures)

    counter = tracing.Tracer(timed=False)
    counter.install(tracing.COUNTED)
    try:
        inprocess_pass([step for step in plan if step[0] in ("unify", "split")], out, main)
    finally:
        counter.uninstall()

    self_s: dict[str, float] = {}
    calls: dict[str, float] = {}
    per_stage: dict[str, dict[str, list]] = {s: {} for s in STAGES}
    for (stage, name), (c, total, own) in tracer.aggregates.items():
        self_s[name] = self_s.get(name, 0.0) + own / n
        calls[name] = calls.get(name, 0) + c / n
        per_stage[stage][name] = [c / n, total / n, own / n]
    counters = {k: v / n for k, v in tracer.counters.items()}
    overhead = {s: statistics.fmean(traced[s]) - statistics.fmean(untraced[s]) for s in STAGES}
    for stage in STAGES:
        spans = per_stage[stage]
        root_total = spans["cli." + stage][1]
        summed = sum(own for _, _, own in spans.values())
        if abs(summed - root_total) > 1e-6 * max(1.0, root_total):
            failures.add(n, stage, f"self times sum to {summed}, traced wall is {root_total}")

    extract_entries = per_stage["extract"].get("triples.assemble_entry", [0])[0]
    ratio = lambda a, b: a / b if b else 0.0
    metrics: dict[str, float] = {}
    for stage in STAGES:
        key = stage.replace("-", "_")
        metrics[f"cli.{key}.self_s"] = self_s["cli." + stage]
        metrics[f"cli.{key}.peak_rss_mb"] = sub[stage].peak_rss_mb
        metrics[f"cli.{key}.bytes_out"] = bytes_out[stage]
        metrics[f"cli.{key}.overhead_s"] = overhead[stage]
    for name in PER_LAYER:
        prefix, _, kind = name.rpartition(".")
        if kind == "self_s" and prefix in self_s:
            metrics[name] = self_s[prefix]
        elif kind == "calls" and prefix in calls:
            metrics[name] = calls[prefix]
    metrics.update({
        "sampling.short_ratio": ratio(counters.get("sampling.short", 0),
                                      calls["sampling.sample_component"]),
        "triples.complete_subtree.nodes_added": counters.get("triples.complete_subtree.nodes_added", 0),
        "triples.extract_triples.oversize": counters.get("triples.extract_triples.oversize", 0),
        "triples.kept_ratio": ratio(extract_entries, components),
        "unify.mapped_ratio": ratio(counter.counters.get("unify.mapped", 0),
                                    counter.counters.get("unify.canonical.calls", 0)),
        "splits.jaccard.calls": counter.counters.get("splits.jaccard.calls", 0),
        "splits.pulled_ratio": ratio(counters.get("splits.pulled", 0),
                                     counter.counters.get("splits.jaccard.calls", 0)),
        "adapters.dropped": counters.get("adapters.dropped", 0),
        "adapters.aligned_ratio": ratio(counters.get("adapters.aligned", 0),
                                        calls["adapters.align_row"]),
    })
    record.update(passes=n, hashes=reference,
                  trace={"per_stage": per_stage, "untraced_wall_s": untraced,
                         "traced_wall_s": traced, "overhead_s": overhead,
                         "counters": counters, "counted": counter.counters})
    attempted = len(STAGES) * (1 + 2 * n) + 2
    return metrics, attempted, failures


# --- entry point ----------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 root: Path, divisor: int = 1) -> dict:
    """Run one workload from checkout ``root``; returns the run's record."""
    src = root / "src"
    if not (src / "tabletriples" / "cli.py").is_file():
        raise FileNotFoundError(f"{src / 'tabletriples' / 'cli.py'} not found; "
                                "run from the root of a tabletriples checkout")
    work = root / WORK_DIR / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    out, logs = work / "out", work / "logs"
    out.mkdir(parents=True)
    logs.mkdir()
    try:
        with pipeline.Spawner() as spawner:  # started while this process is small
            manifest = inputs.generate(workload, seed, work / "in", divisor)
            plan = pipeline.stage_plan(manifest, out)
            env = pipeline.child_env(src)
            record = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
                      "sizes": manifest["sizes"], "facts": manifest["facts"]}
            args = (spawner, manifest, plan, out, env, logs, seconds)
            if trace:
                metrics, attempted, failures = run_traced(*args, src, record)
            else:
                metrics, attempted, failures = run_untraced(*args, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else dict(END_TO_END)
    result = {
        "correct": len(failures) == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k][0] if trace else units[k]}
                    for k in units if k in metrics},
    }
    record.update(result=result, failures=failures.as_list(),
                  outputs_sha256=combined_hash(record.get("hashes", {})))
    records = root / WORK_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (records / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def _summary(record: dict) -> str:
    result = record["result"]
    lines = [f"[{record['workload']}] seed {record['seed']}, {record['passes']} passes, "
             f"time scale {record.get('scale', 1.0):.4f}, "
             f"outputs sha256 {record['outputs_sha256'][:16]}"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    frac = result["failed"] / result["attempted"]
    lines.append(f"  {'failed_frac':<40} {frac:>14.6g} ratio")
    for failure in record["failures"]:
        lines.append(f"  FAILED pass {failure['pass']} {failure['stage']}: {failure['reason']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    root = Path.cwd()
    workloads = list(inputs.WORKLOADS) if args.all else [args.workload]
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace), root)
                   for w in workloads]
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print(_summary(record), file=sys.stdout if args.all else sys.stderr)
    if not args.all:
        print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
