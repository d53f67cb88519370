"""Benchmark of the intdist CLI: end-to-end metrics, or per-layer ones when traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload dimer-thermal --seed 1234 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --record perfbench/baseline.json

Every CLI invocation runs ``intdist.cli.main`` in a fresh interpreter
(``child.py``) with the environment a user has: ``INTDIST_THREADS`` unset and
OpenBLAS at its default thread count.  A run first times a few fresh
imports of ``intdist.cli``, recomputes the reference spectra, then repeats
the workload until ``--seconds`` are used and checks every row of every
invocation (see ``verify.py``).  ``setup_s`` is the median import time over
those dedicated imports and the import that starts every invocation;
``sweep_s`` is the lower quartile of the invocations' ``main`` wall times
(see ``END_TO_END``).  The optimizer seed handed to the CLI is ``--seed`` for
the first two repetitions, which must agree on every non-timing row field,
and then seeds derived from it (``optimizer_seed``).

With ``--trace 1`` each repetition is an untraced invocation followed by a
traced one with the same seed; the per-layer metrics come from the traced
ones, and the tracing overhead is the difference of their ``sweep_s``
medians.  The spans are written to ``perfbench/out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import layer_calls, layer_metrics, span_table  # noqa: E402
from verify import check_rows, fingerprint, reference_spectra  # noqa: E402
from workloads import PREDICTIONS, WORKLOADS  # noqa: E402

SETUP_IMPORTS = 3
MIN_REPEATS = 2
#: Whole-run budget; the run stops repeating before it would pass this.
BUDGET_S = 165.0
CHILD_TIMEOUT_S = 150.0
#: Thread settings a user normally leaves unset; removed so defaults apply.
USER_DEFAULT_ENV = ("INTDIST_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

#: End-to-end metrics of the result line.  ``point_s.p50``, ``df_sum`` and
#: ``failed_frac`` are printed beside them but left out of it:
#: ``point_s.p50`` is bimodal from run to run on dimer-thermal (how the two
#: pool threads happen to interleave under the GIL), ``df_sum`` spreads by
#: about half its median across optimizer seeds on the n=8 chain (the seed
#: sensitivity of the fit; it is reported with the per-layer metrics), and
#: ``failed_frac`` is 0 on a healthy run (failures are the ``failed`` count).
#: ``sweep_s`` is the lower quartile of the run's invocation times, not their
#: median.  On a shared host the same invocation's time is bimodal: other
#: tenants slow it by up to 2x for seconds at a time, and the median jumps
#: between the two modes from one run to the next.  The lower quartile tracks
#: the uncontended mode, which is where a change to the program shows.
END_TO_END = {"setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MB"}

#: Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    "fock.build_quadratic_ms": "ms", "fock.build_density_density_ms": "ms",
    "fock.build_basis_ms": "ms", "fock.basis_dim": "count", "models.hamiltonian_ms": "ms",
    "spectra.diagonalize_ms": "ms", "spectra.diagonalize_dim": "count", "spectra.rdm_ms": "ms",
    "spectra.thermal_ms": "ms", "distance.fit_ms.p50": "ms", "distance.fit_ms.max": "ms",
    "distance.fits": "count", "distance.nfev_per_fit": "count",
    "distance.iterations_per_fit": "count", "distance.eval_us": "us",
    "distance.converged_frac": "fraction", "free_fermion.subset_sums_us": "us",
    "free_fermion.subset_sums_calls": "count", "free_fermion.greedy_ms": "ms",
    "perturbation.labeling_ms": "ms", "perturbation.decompose_ms": "ms",
    "perturbation.dth_us": "us", "cli.run_ms": "ms", "cli.render_ms": "ms",
    "cli.unattributed_ms": "ms", "cli.span_sum_over_wall": "ratio",
    "cli.build_ed_share": "fraction", "distance.df_sum": "D_F",
}

#: The subset of LAYER_UNITS in the result line: the metrics every workload
#: exercises.  The rest (basis, RDM, thermal and perturbation timings) are zero
#: on some workloads and are reported in the table and the trace file only.
REPORTED_LAYERS = (
    "fock.build_quadratic_ms", "fock.build_density_density_ms", "fock.basis_dim",
    "models.hamiltonian_ms", "spectra.diagonalize_ms", "spectra.diagonalize_dim",
    "distance.fit_ms.p50", "distance.fit_ms.max", "distance.nfev_per_fit",
    "distance.iterations_per_fit", "distance.eval_us", "distance.converged_frac",
    "free_fermion.subset_sums_us", "free_fermion.subset_sums_calls", "free_fermion.greedy_ms",
    "cli.run_ms", "cli.render_ms", "cli.unattributed_ms", "cli.span_sum_over_wall",
    "distance.df_sum",
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program source, bad arguments)."""


def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in USER_DEFAULT_ENV}


def run_child(extra, cli_args, deadline) -> dict:
    """One fresh-interpreter invocation; failures come back as ``error``."""
    timeout = min(CHILD_TIMEOUT_S, max(1.0, deadline - time.perf_counter()))
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC), *extra, "--", *cli_args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=str(ROOT), timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "rows": []}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}", "rows": []}
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unreadable report: {lines[-1][:200]}", "rows": []}
    if report.get("error") is None and report.get("exit_code") != 0:
        report["error"] = f"intdist exited with {report.get('exit_code')}: {proc.stderr[-2000:]}"
    return report


def measure_setup(deadline) -> list:
    """Fresh-interpreter imports of intdist.cli after one warm-up import, as child reports."""
    reports = []
    for k in range(SETUP_IMPORTS + 1):
        report = run_child(["--import-only"], [], deadline)
        if "import_s" not in report:
            raise BenchmarkError(f"cannot import intdist.cli: {report.get('error')}")
        if k:
            reports.append(report)
    return reports


def df_sum(rows, key) -> float:
    """Sum of the reported D_F over a grid; rows without a finite value count 0."""
    values = (row.get(key) for row in rows)
    return sum(v for v in values if isinstance(v, (int, float)) and math.isfinite(v))


def optimizer_seed(seed: int, k: int) -> int:
    """The k-th optimizer seed of a run: ``seed`` itself, then seeds derived from it.

    One fit's work varies by about 15% with the optimizer seed, so a run
    spreads its repetitions over several seeds instead of timing one seed's
    luck; the first seed runs twice so determinism is always checked.
    """
    return seed if k == 0 else seed * 1000 + k


def check_invocations(workload, points, spectra, reports) -> tuple:
    """(attempted, failed, problems) over the grid points of every invocation.

    ``reports`` holds (kind, optimizer seed, child report); invocations with
    the same seed must agree on every non-timing row field.
    """
    problems = []
    attempted = failed = 0
    prints = {}
    for k, (kind, opt_seed, report) in enumerate(reports):
        if report.get("error"):
            problems.append(f"{kind} invocation {k} failed: {report['error']}")
            rows = []
        else:
            rows = report["rows"]
            prints.setdefault(opt_seed, set()).add(fingerprint(rows))
        reasons = check_rows(rows, points, spectra, workload.value_key)
        attempted += len(reasons)
        for point, reason in zip(points, reasons):
            if reason:
                failed += 1
                problems.append(f"{kind} invocation {k}, point {point}: {reason}")
    for opt_seed, variants in prints.items():
        if len(variants) > 1:
            problems.append(f"non-timing row fields differ between invocations with seed "
                            f"{opt_seed} ({len(variants)} variants)")
    return attempted, failed, problems


def lower_quartile(values) -> float:
    """First quartile, interpolated within the values' range; a single value is its own."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def end_to_end(workload, setup, ok) -> dict:
    walls = [row["wall_time_s"] for r in ok for row in r["rows"]
             if isinstance(row.get("wall_time_s"), (int, float))]
    return {
        "metrics": {
            "setup_s": statistics.median(r["import_s"] for r in setup + ok),
            "sweep_s": lower_quartile(r["sweep_s"] for r in ok) if ok else 0.0,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok) if ok else 0.0,
        },
        "point_s.p50": statistics.median(walls) if walls else 0.0,
        "point_s": walls,
        "df_sum": df_sum(ok[0]["rows"], workload.value_key) if ok else 0.0,
    }


def per_layer(workload, ok, good, problems) -> dict:
    """Per-layer metrics (medians over traced invocations) and the zero-call check."""
    per_inv = [layer_metrics(r["spans"]) for r in good]
    calls = [layer_calls(r["spans"]) for r in good]
    for layer in workload.layers:
        if not calls or any(c[layer] == 0 for c in calls):
            problems.append(f"layer {layer} recorded zero calls on {workload.name}")
    traced_s = [r["sweep_s"] for r in good]
    return {
        "layers": {**{key: statistics.median(m[key] for m in per_inv) if per_inv else 0.0
                      for key in LAYER_UNITS if key != "distance.df_sum"},
                   # D_F is deterministic per seed: report it for the run's own seed
                   "distance.df_sum": df_sum(good[0]["rows"], workload.value_key) if good else 0.0},
        "layer_calls": calls[0] if calls else {},
        "trace_overhead_s": (statistics.median(traced_s)
                             - statistics.median(r["sweep_s"] for r in ok)
                             if traced_s and ok else None),
        "traced_sweep_s": traced_s,
        "span_table": span_table(good[0]["spans"]) if good else {},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result line's content plus details."""
    workload = WORKLOADS[name]
    started = time.perf_counter()
    deadline = started + BUDGET_S
    setup = measure_setup(deadline)
    points = workload.points()
    spectra = reference_spectra(workload)

    reports = []  # (kind, optimizer seed, child report), in run order
    repeats = 0
    loop_start = time.perf_counter()
    while True:
        # untraced runs use seeds 0, 0, 1, 2, ...; traced runs pair each seed
        opt_seed = optimizer_seed(seed, repeats if trace else max(0, repeats - 1))
        cli_args = workload.argv(opt_seed)
        reports.append(("untraced", opt_seed, run_child([], cli_args, deadline)))
        if trace:
            reports.append(("traced", opt_seed, run_child(["--trace"], cli_args, deadline)))
        repeats += 1
        now = time.perf_counter()
        per_repeat = (now - loop_start) / repeats
        if now + per_repeat > deadline:
            break
        if repeats >= (1 if trace else MIN_REPEATS) and now - loop_start + per_repeat > seconds:
            break

    attempted, failed, problems = check_invocations(workload, points, spectra, reports)
    ok = [r for kind, _, r in reports if kind == "untraced" and not r.get("error")]
    result = {
        "workload": name, "seed": seed, "trace": trace,
        "invocations": len(reports), "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "problems": problems,
        "setup_samples": [r["import_s"] for r in setup + ok],
        "sweep_samples": [r["sweep_s"] for r in ok],
    }
    if trace:
        good = [(s, r) for kind, s, r in reports if kind == "traced" and not r.get("error")]
        result.update(per_layer(workload, ok, [r for _, r in good], problems))
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed,
                       "invocations": [{"argv": workload.argv(s), "spans": r["spans"]}
                                       for s, r in good]}, fh)
    else:
        result.update(end_to_end(workload, setup, ok))
    result["correct"] = not problems
    result["run_s"] = time.perf_counter() - started
    return result


def result_line(result: dict) -> dict:
    if result["trace"]:
        metrics = {k: {"value": result["layers"][k], "unit": LAYER_UNITS[k]}
                   for k in REPORTED_LAYERS}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in result["metrics"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_report(result: dict):
    name = result["workload"]
    n = len(result["sweep_samples"])
    print(f"# {name}: seed {result['seed']}, {result['invocations']} invocations, "
          f"{result['attempted']} grid points checked, run {result['run_s']:.1f} s")
    if result["trace"]:
        for key, unit in LAYER_UNITS.items():
            print(f"{name}  {key:<34} {result['layers'][key]:>14.6g} {unit}")
        over = result["trace_overhead_s"]
        print(f"{name}  {'trace.overhead_s':<34} {over if over is not None else float('nan'):>14.6g} s"
              "  (traced minus untraced sweep_s)")
        print(f"{name}  calls per layer: {json.dumps(result['layer_calls'])}")
        for span, row in sorted(result["span_table"].items()):
            print(f"{name}  span {span:<44} calls {row['calls']:>7}  "
                  f"total {1e3 * row['total_s']:>10.3f} ms  self {1e3 * row['self_s']:>10.3f} ms")
    else:
        lines = [
            ("setup_s", result["metrics"]["setup_s"], "s",
             f"median of {len(result['setup_samples'])} fresh imports of intdist.cli"),
            ("sweep_s", result["metrics"]["sweep_s"], "s",
             f"lower quartile of {n} invocations; median "
             f"{statistics.median(result['sweep_samples']) if n else 0.0:.6g} s"),
            ("point_s.p50", result["point_s.p50"], "s",
             f"median of {len(result['point_s'])} rows' wall_time_s; unbounded"),
            ("peak_rss_mb", result["metrics"]["peak_rss_mb"], "MB", f"median of {n} invocations"),
            ("df_sum", result["df_sum"], "D_F", "sum of reported D_F over the grid; unbounded"),
        ]
        for key, value, unit, detail in lines:
            print(f"{name}  {key:<14} {value:>14.6g} {unit:<5} ({detail})")
    print(f"{name}  {'failed_frac':<14} {result['failed_frac']:>14.6g} {'1':<5} "
          f"({result['failed']} of {result['attempted']} grid points)")
    for problem in result["problems"]:
        print(f"ERROR {name}: {problem}", file=sys.stderr)


def machine_block() -> dict:
    import numpy
    import scipy
    from intdist.cli import _worker_count
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    os.environ.pop("INTDIST_THREADS", None)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "pool_workers": _worker_count()}


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=str(ROOT), timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --workload all: write the baseline JSON here")
    args = parser.parse_args(argv)
    if not (SRC / "intdist" / "cli.py").is_file():
        print(f"error: no intdist source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_report(result)
        print(json.dumps(result_line(result)))
        return 0

    results = []
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, args.seed, args.seconds, trace)
            print_report(result)
            results.append(result)
    correct = all(r["correct"] for r in results)
    if args.record:
        baseline = {
            "git_sha": git_sha(), "seed": args.seed, "seconds": args.seconds,
            "machine": machine_block(),
            "workloads": {name: {"argv": w.argv(args.seed), "points": len(w.points()),
                                 "why": w.why, "layers": list(w.layers)}
                          for name, w in WORKLOADS.items()},
            "predictions": PREDICTIONS,
            "end_to_end": {r["workload"]: {**r["metrics"], "point_s.p50": r["point_s.p50"],
                                           "df_sum": r["df_sum"], "failed_frac": r["failed_frac"]}
                           for r in results if not r["trace"]},
            "per_layer": {r["workload"]: {**r["layers"], "trace.overhead_s": r["trace_overhead_s"],
                                          "calls": r["layer_calls"]}
                          for r in results if r["trace"]},
        }
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results)}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
