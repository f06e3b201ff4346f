"""Stage-level benchmark of the tsnmf pipeline.

Run from the repository root:

    python3 benchmarks/run.py --workload sweep-planted --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --all --seed 1 --seconds 35

One run is one fresh process and one closed-loop client: it sets up the
workload's seeded inputs, then repeats the workload's stage chain (each
stage one ``tsnmf.cli.main(argv)`` call, each waiting for the one before)
as many times as fit in ``--seconds``, at least once, and reports medians
over those passes.  End-to-end times are scaled to a fixed reference speed
of the machine, measured between stages by ``machine.reference_work``
(README.md says why).  ``--trace 1`` wraps the calls into each layer with spans
(see tracing.py), traces every other pass, and reports per-layer metrics
instead of end-to-end ones.
``--all`` runs every workload untraced and traced, each in a fresh
process, and prints both side by side with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the machine block, the working set and every failed check, goes to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``; traced runs also
write their spans there as CSV.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads: on a 2-CPU machine a second thread
# leaves no spare CPU, so any other process stalls the factorization, and on
# the planted shapes it saved no wall time (README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from machine import REFERENCE_S, machine_block, reference_work, tree_digest
from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import DATA_DIR, matrix_files, workloads

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
HASH_STORE = OUT_DIR / "artifact_hashes.json"
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "data_stage_s": "s",
    "model_stage_s": "s",
    "report_stage_s": "s",
    "peak_rss_mb": "MB",
    "mean_similarity": "ratio",
}
PHASES = ("data", "model", "report")


def import_program():
    """Import tsnmf from this checkout's src/, never from an installed copy."""
    package = ROOT / "src" / "tsnmf"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the repository root")
    sys.path.insert(0, str(ROOT / "src"))
    import tsnmf.cli

    if Path(tsnmf.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported tsnmf from {tsnmf.cli.__file__}, not {package}")
    return tsnmf.cli


def import_in_fresh_interpreter() -> None:
    """Start an interpreter that imports the CLI, as every ``tsnmf`` command does."""
    subprocess.run([sys.executable, "-c", "import tsnmf.cli"], check=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


def warm_blas() -> None:
    import numpy as np

    a = np.full((256, 256), 0.5)
    (a @ a).sum()


def run_stage(cli, stage, tracer) -> tuple[float, int | str]:
    """Time one ``tsnmf.cli.main`` call; returns (seconds, exit code or error)."""
    span = tracer.begin("cli." + stage.argv[0]) if tracer and tracer.enabled else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(list(stage.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = "exception"
    elapsed = time.perf_counter() - start
    if span:
        tracer.end(span)
    return elapsed, rc


def run_pass(cli, wl, inputs: Path, passdir: Path, seed: int, tracer) -> dict:
    """One pass of the stage chain, with a reference sample before and after each stage.

    Besides the measured seconds of each phase, the pass reports them at the
    reference speed (``ref_`` keys): scaled by REFERENCE_S over the mean of
    the pass's reference samples.
    """
    passdir.mkdir(parents=True)
    stages = wl.stages(inputs, seed)
    phase_s = dict.fromkeys(PHASES, 0.0)
    reference = [reference_work()]
    failures = []
    os.chdir(passdir)
    try:
        for stage in stages:
            elapsed, rc = run_stage(cli, stage, tracer)
            reference.append(reference_work())
            phase_s[stage.phase] += elapsed
            if rc != 0:
                failures.append((f"stage {stage.argv[0]}", f"exit {rc}"))
    finally:
        os.chdir(ROOT)
    times = {"pipeline_s": sum(phase_s.values()), **{f"{p}_stage_s": s for p, s in phase_s.items()}}
    speed = REFERENCE_S / statistics.fmean(reference)
    return {**times, **{"ref_" + k: v * speed for k, v in times.items()},
            "reference_s": reference, "stages": len(stages), "failures": failures}


def working_set(passdir: Path) -> dict:
    meta = json.loads((passdir / DATA_DIR / "meta.json").read_text())
    files = matrix_files(passdir / DATA_DIR)
    return {
        "V_bytes": 8 * len(meta["doc_ids"]) * len(meta["vocabulary"]),
        "dataset_file_bytes": sum(p.stat().st_size for p in files),
        "dataset_files": [p.name for p in files],
    }


def _compare_with_store(key: str, hashes: dict) -> str | None:
    """Artifact hashes must match any earlier run of the same source tree and seed."""
    store = json.loads(HASH_STORE.read_text()) if HASH_STORE.exists() else {}
    if key in store:
        if store[key] != hashes:
            differ = sorted(k for k in set(store[key]) | set(hashes)
                            if store[key].get(k) != hashes.get(k))
            return f"artifacts differ from an earlier run of this code and seed: {differ[:5]}"
        return None
    store[key] = hashes
    tmp = HASH_STORE.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    tmp.replace(HASH_STORE)
    return None


def run_workload(cli, wl, seed: int, seconds: float, trace: bool, workdir: Path,
                 hash_key: str | None = None) -> dict:
    """Set up, run passes for ``seconds``, check outputs, and summarize one run."""
    from checks import artifact_hashes, check_pass, similarities  # imports tsnmf

    inputs = workdir / "inputs"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_in_fresh_interpreter()
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        wl.prepare(inputs, seed)
        warm_blas()
        setup_times.append(time.perf_counter() - start)

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    passes, failures, sims, layers = [], [], [], []
    attempted = 0
    first_hashes = ws = None
    measure_start = time.perf_counter()
    try:
        while True:
            k = len(passes)
            passdir = workdir / f"pass{k}"
            if tracer:
                # even passes traced, odd ones not: both see the same machine state
                tracer.enabled = k % 2 == 0
                tracer.run = f"{wl.name}-seed{seed}-pass{k}"
            p = run_pass(cli, wl, inputs, passdir, seed, tracer)
            p["traced"] = bool(tracer and tracer.enabled)
            passes.append(p)
            checks = check_pass(passdir, wl)
            attempted += p["stages"] + len(checks)
            failures += p["failures"] + [(name, msg) for name, msg in checks if msg]
            pass_sims = similarities(passdir)
            hashes = artifact_hashes(passdir)
            if k == 0:
                first_hashes, sims = hashes, pass_sims
                if (passdir / DATA_DIR / "meta.json").exists():
                    ws = working_set(passdir)
            else:
                attempted += 1
                if hashes != first_hashes or pass_sims != sims:
                    failures.append((f"pass {k} repeat", "artifacts or scores differ from pass 0"))
            if p["traced"]:
                layers.append(layer_metrics(tracer, tracer.run))
            shutil.rmtree(passdir)
            elapsed = time.perf_counter() - measure_start
            if elapsed + elapsed / len(passes) > seconds:
                break  # the next pass would end past the window
    finally:
        if tracer:
            tracer.uninstall()
    if hash_key is not None:
        attempted += 1
        problem = _compare_with_store(hash_key, first_hashes)
        if problem:
            failures.append(("artifact hashes", problem))

    untraced = [p for p in passes if not p["traced"]]
    stage_metrics = ("pipeline_s", "data_stage_s", "model_stage_s", "report_stage_s")
    measured = {name: statistics.median(p[name] for p in untraced or passes)
                for name in stage_metrics}
    measured["setup_s"] = statistics.median(setup_times)
    # The machine's speed drifts by tens of percent over minutes, so stage
    # times are reported at the reference speed (see run_pass and machine.py).
    # Set-up stays in measured seconds: reference samples taken next to an
    # interpreter start read slow, and scaling by them doubled its spread.
    e2e = {name: statistics.median(p["ref_" + name] for p in untraced or passes)
           for name in stage_metrics}
    e2e["setup_s"] = measured["setup_s"]
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e["mean_similarity"] = statistics.fmean(sims) if sims else 0.0
    result = {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "measured_s": time.perf_counter() - measure_start,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "working_set": ws,
        "end_to_end": {name: e2e[name] for name in END_TO_END},
        "measured_s_unscaled": measured,
        "per_pass": [{k: v for k, v in p.items() if k != "failures"} for p in passes],
        "setup_repeats_s": setup_times,
    }
    if tracer:
        result["per_layer"] = {name: statistics.median(layer[name] for layer in layers)
                               for name in layers[0]}
        # at the reference speed, like the untraced figure beside it
        result["per_layer"]["tracing.pipeline_s"] = statistics.median(
            p["ref_pipeline_s"] for p in passes if p["traced"])
        result["per_layer"]["tracing.untraced_pipeline_s"] = (
            e2e["pipeline_s"] if untraced else 0.0)
        result["tracer"] = tracer
    return result


def format_report(result: dict, machine: dict) -> str:
    lines = [
        f"# workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"passes {result['passes']} in {result['measured_s']:.1f} s (--seconds {result['seconds']})",
        f"# why: {result['why']}",
        "# machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()),
    ]
    ws = result["working_set"]
    if ws:
        l3 = machine.get("l3_bytes")
        lines.append(f"# working set: V {ws['V_bytes']} bytes (L3 {l3} bytes), dataset file "
                     f"{ws['dataset_file_bytes']} bytes {ws['dataset_files']}")
    rows = [(k, v, END_TO_END[k]) for k, v in result["end_to_end"].items()]
    rows.append(("error_rate", result["failed"] / result["attempted"], "ratio"))
    rows += [(k, v, LAYER_METRICS[k]) for k, v in result.get("per_layer", {}).items()]
    lines += [f"{name:36s} {value:>16.6g} {unit}" for name, value, unit in rows]
    lines += [f"FAILED {name}: {msg}" for name, msg in result["failures"]]
    return "\n".join(lines)


def result_line(result: dict) -> str:
    metrics, units = ((result["per_layer"], LAYER_METRICS) if result["trace"]
                      else (result["end_to_end"], END_TO_END))
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def main_one(args) -> int:
    cli = import_program()
    wl = workloads()[args.workload]
    workdir = WORK_DIR / f"{wl.name}-{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    # same program, same benchmark, same seed: the artifacts must repeat byte for byte
    key = f"{tree_digest(ROOT / 'src')}:{tree_digest(Path(__file__).parent)}:{wl.name}:{args.seed}"
    try:
        result = run_workload(cli, wl, args.seed, args.seconds, bool(args.trace), workdir,
                              hash_key=key)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine = machine_block(ROOT)
    stem = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("tracer", None)
    if tracer:
        tracer.write_csv(stem.with_suffix(".spans.csv"))
    stem.with_suffix(".json").write_text(
        json.dumps({"machine": machine, **result}, indent=1) + "\n")
    print(format_report(result, machine))
    print(result_line(result))
    return 0


def main_all(args) -> int:
    """Every workload untraced then traced, each a fresh process; prints the overhead."""
    status = 0
    summary = []
    for name in workloads():
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = 1
                continue
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
            if not results[trace]["correct"]:
                status = 1
        if len(results) == 2:
            plain = results[0]["metrics"]["pipeline_s"]["value"]
            layer = results[1]["metrics"]
            traced = layer["tracing.pipeline_s"]["value"]
            # the traced run's own untraced passes, or the untraced run if it had none
            base = layer["tracing.untraced_pipeline_s"]["value"] or plain
            summary.append(f"{name:14s} pipeline_s untraced run {plain:8.4f} s | traced run: "
                           f"traced passes {traced:8.4f} s, untraced passes {base:8.4f} s, "
                           f"overhead {traced - base:+.4f} s ({100.0 * (traced - base) / base:+.1f} %)")
    print("\n".join(["# tracing overhead per workload"] + summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=sorted(workloads()))
    group.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return main_all(args) if args.all else main_one(args)


if __name__ == "__main__":
    sys.exit(main())
