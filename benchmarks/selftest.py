"""Self-test of the benchmark harness at tiny shapes; run from the repository root:

    python3 benchmarks/selftest.py

It runs the three workloads at shapes that take about a second each, with
and without tracing, and checks that

1. every metric named in BENCHMARK.json is printed with its unit, in the
   report and in the result line;
2. the traced spans nest: each child lies inside its parent, in one run;
3. no child's self time exceeds its parent's duration;
4. a deliberately corrupted output or a failing stage makes
   ``error_rate`` non-zero, and the run still reports;
5. artifact hashes repeat across runs of the same code and seed, and a
   changed hash is reported;
6. outside a checkout that holds the program, a run exits non-zero and
   prints no result.

Exits 0 when every check holds.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run
from machine import machine_block
from tracing import self_times
from workloads import tiny_workloads, workloads

BENCH_DIR = Path(__file__).resolve().parent
failures = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_metrics_printed(result: dict, spec: dict, machine: dict) -> None:
    report = run.format_report(result, machine).splitlines()
    line = json.loads(run.result_line(result))
    kind = "per_layer" if result["trace"] else "end_to_end"
    missing = []
    for metric in spec[kind]:
        name, unit = metric["name"], metric["unit"]
        printed = any(r.split()[:1] == [name] and r.split()[-1] == unit for r in report)
        in_line = line["metrics"].get(name, {}).get("unit") == unit
        if not (printed and in_line):
            missing.append(name)
    extra = sorted(set(line["metrics"]) - {m["name"] for m in spec[kind]})
    expect(not missing and not extra,
           f"{result['workload']} trace={result['trace']}: {kind} metrics printed with units"
           + (f" (missing {missing}, undeclared {extra})" if missing or extra else ""))
    if not result["trace"]:
        expect(any(r.split()[:1] == ["error_rate"] for r in report),
               f"{result['workload']}: error_rate printed")


def check_spans(result: dict) -> None:
    spans = result["tracer"].spans
    traced_runs = {s.run for s in spans}
    expect(result["passes"] >= 2 and result["per_layer"]["tracing.untraced_pipeline_s"] > 0.0
           and all(int(r.rsplit("pass", 1)[1]) % 2 == 0 for r in traced_runs),
           f"{result['workload']}: {result['passes']} passes alternate traced and untraced "
           f"(spans from {len(traced_runs)} passes)")
    by_id = {s.id: s for s in spans}
    bad_nesting = [s for s in spans if s.parent is not None and not (
        by_id[s.parent].start <= s.start <= s.end <= by_id[s.parent].end
        and by_id[s.parent].run == s.run)]
    expect(spans and not bad_nesting,
           f"{result['workload']}: {len(spans)} spans nest ({len(bad_nesting)} outside their parent)")
    own = self_times(spans)
    too_big = [s for s in spans if s.parent is not None
               and own[s.id] > by_id[s.parent].end - by_id[s.parent].start]
    negative = [s for s in spans if own[s.id] < 0.0]
    expect(not too_big and not negative,
           f"{result['workload']}: child self times within parent durations "
           f"({len(too_big)} exceed, {len(negative)} negative)")


def check_corruption_detected(cli, wl, workdir: Path) -> None:
    """Write a non-zero W entry where the mask is 0; the run must report a failure."""
    import tsnmf.cli

    original = tsnmf.cli.save_model

    def corrupting_save_model(outdir, model, trace, config):
        original(outdir, model, trace, config)
        W = model.W.copy()
        W[W == 0.0] = 0.5
        lines = [",".join(repr(float(v)) for v in row) for row in W]
        (Path(outdir) / "W.csv").write_text("\n".join(lines) + "\n")

    tsnmf.cli.save_model = corrupting_save_model
    try:
        result = run.run_workload(cli, wl, 3, 0.0, False, workdir)
    finally:
        tsnmf.cli.save_model = original
        shutil.rmtree(workdir, ignore_errors=True)
    rate = result["failed"] / result["attempted"]
    expect(rate > 0.0 and any(name.startswith("mask[") for name, _ in result["failures"]),
           f"corrupted W.csv gives error_rate {rate:.3f} > 0 via the mask check")


def check_failing_stage_counted(cli, wl, workdir: Path) -> None:
    """A stage that raises is counted as failed; the run still reports."""
    import tsnmf.cli

    original = tsnmf.cli.make_planted_instance

    def broken(*args, **kwargs):
        raise RuntimeError("injected failure")

    tsnmf.cli.make_planted_instance = broken
    try:
        result = run.run_workload(cli, wl, 3, 0.0, False, workdir)
    finally:
        tsnmf.cli.make_planted_instance = original
        shutil.rmtree(workdir, ignore_errors=True)
    expect(result["failed"] >= 1 and result["failed"] <= result["attempted"]
           and not json.loads(run.result_line(result))["correct"],
           f"a failing synth stage is counted ({result['failed']}/{result['attempted']} failed)")


def check_hash_store(cli, wl, workdir: Path) -> None:
    """A second run of the same code and seed must match the stored artifact hashes."""
    saved = run.HASH_STORE
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        run.HASH_STORE = Path(tmp) / "hashes.json"
        try:
            results = []
            for _ in range(2):
                results.append(run.run_workload(cli, wl, 5, 0.0, False, workdir, hash_key="k"))
                shutil.rmtree(workdir, ignore_errors=True)
            store = json.loads(run.HASH_STORE.read_text())
            first = sorted(store["k"])[0]
            store["k"][first] = "0" * 64
            run.HASH_STORE.write_text(json.dumps(store))
            tampered = run.run_workload(cli, wl, 5, 0.0, False, workdir, hash_key="k")
        finally:
            run.HASH_STORE = saved
            shutil.rmtree(workdir, ignore_errors=True)
    expect(all(r["failed"] == 0 for r in results)
           and [name for name, _ in tampered["failures"]] == ["artifact hashes"],
           f"artifact hashes repeat across runs; a changed {first} is reported")


def check_refuses_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "dense-cli", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120, check=False)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without src/ the run exits {proc.returncode} and prints no result")


def main() -> int:
    start = time.perf_counter()
    cli = run.import_program()
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    defined = {w.name: w.why for w in workloads().values()}
    expect(all(defined.get(w["name"]) == w["why"] for w in spec["workloads"]),
           "every BENCHMARK.json workload is defined in workloads.py with the same reason")
    machine = machine_block(run.ROOT)
    run.WORK_DIR.mkdir(exist_ok=True)
    workdir = run.WORK_DIR / "selftest"
    for wl in tiny_workloads().values():
        for trace in (False, True):
            try:
                # a traced run needs two passes to time its untraced half
                result = run.run_workload(cli, wl, 7, 1.0 if trace else 0.0, trace, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            expect(result["failed"] == 0,
                   f"{wl.name} trace={int(trace)}: {result['attempted']} operations, "
                   f"failures {result['failures']}")
            check_metrics_printed(result, spec, machine)
            if trace:
                check_spans(result)
    check_corruption_detected(cli, tiny_workloads()["dense-cli"], workdir)
    check_failing_stage_counted(cli, tiny_workloads()["dense-cli"], workdir)
    check_hash_store(cli, tiny_workloads()["sweep-planted"], workdir)
    check_refuses_without_program()
    print(f"{'FAILED' if failures else 'ok'}: {len(failures)} failing checks "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
