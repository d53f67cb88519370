"""Self-tests of the benchmark: row verification, failure counting and span arithmetic.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from tracer import layer_metrics, self_times, span_table, union_length  # noqa: E402
from verify import check_rows, fingerprint, reference_spectra  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import intdist.cli  # noqa: E402
from intdist import FreeSpectrumParams, free_probabilities, trace_distance_sorted  # noqa: E402

#: A three-point dimer sweep: small enough to fit in a test, V=0 included.
SMALL = replace(WORKLOADS["dimer-thermal"], couplings=(0.0, 2.0, 3))


def _cli_rows(workload, seed=7):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert intdist.cli.main(workload.argv(seed)) == 0
    return [json.loads(line) for line in out.getvalue().splitlines()[1:]]


@pytest.fixture(scope="module")
def clean():
    return SMALL.points(), reference_spectra(SMALL), _cli_rows(SMALL)


def _check(clean, rows):
    points, spectra, _ = clean
    return check_rows(rows, points, spectra, SMALL.value_key)


def test_true_rows_pass(clean):
    assert _check(clean, clean[2]) == [None, None, None]


def test_value_off_by_1e_6_fails(clean):
    rows = json.loads(json.dumps(clean[2]))
    rows[1]["d_f"] += 1e-6
    reasons = _check(clean, rows)
    assert reasons[0] is None and reasons[2] is None
    assert "certificate" in reasons[1]


def test_value_above_bound_fails(clean):
    rows = json.loads(json.dumps(clean[2]))
    rows[2]["d_f"] = 0.2
    assert "outside" in _check(clean, rows)[2]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
def test_non_finite_or_negative_value_fails(clean, bad):
    rows = json.loads(json.dumps(clean[2]))
    rows[1]["d_f"] = bad
    assert _check(clean, rows)[1] is not None


def test_missing_and_extra_rows_fail(clean):
    rows = clean[2]
    assert _check(clean, rows[:2]) == [None, None, "missing row"]
    assert _check(clean, []) == ["missing row"] * 3
    assert _check(clean, rows + rows[-1:])[2] is not None


def test_rows_out_of_grid_order_fail(clean):
    rows = clean[2]
    reasons = _check(clean, [rows[1], rows[0], rows[2]])
    assert "expected" in reasons[0] and "expected" in reasons[1]


def test_certified_but_interacting_value_at_free_point_fails(clean):
    points, spectra, rows = clean
    row = json.loads(json.dumps(rows[0]))
    row["epsilons"] = [e * 1.01 for e in row["epsilons"]]
    row["d_f"] = trace_distance_sorted(
        spectra[0], free_probabilities(FreeSpectrumParams(0.0, row["epsilons"]), 1.0))
    assert row["d_f"] > 1e-8
    assert "free point" in _check(clean, [row] + rows[1:])[0]


def test_fingerprint_ignores_wall_time_only(clean):
    rows = json.loads(json.dumps(clean[2]))
    base = fingerprint(rows)
    rows[0]["wall_time_s"] += 1.0
    assert fingerprint(rows) == base
    rows[0]["converged"] = not rows[0]["converged"]
    assert fingerprint(rows) != base


# ------------------------------------------------------------ span arithmetic

def _span(sid, name, parent, start, end, thread=1, **extra):
    span = {"id": sid, "name": name, "layer": name.split(".")[0], "thread": thread,
            "parent": parent, "start": start, "end": end, "leaf_calls": {}, "leaf_busy": {}}
    span.update(extra)
    return span


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0


def test_self_times_of_nested_overlapping_spans():
    spans = [
        _span(0, "cli.run_sweep", None, 0.0, 10.0),
        _span(1, "distance.interaction_distance", 0, 1.0, 4.0, thread=2),
        _span(2, "distance.interaction_distance", 0, 3.0, 6.0, thread=3),
        _span(3, "free_fermion.greedy_single_particle_gaps", 1, 2.0, 3.0, thread=2),
        _span(4, "spectra.exact_diagonalize", 0, 9.5, 10.5, thread=2),  # overruns its parent
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 0.5)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)
    table = span_table(spans)
    assert table["distance.interaction_distance"]["calls"] == 2
    assert table["distance.interaction_distance"]["total_s"] == pytest.approx(6.0)
    assert table["distance.interaction_distance"]["self_s"] == pytest.approx(5.0)


def test_layer_metrics_on_synthetic_spans():
    fit_a = _span(1, "distance.interaction_distance", 0, 1.0, 4.0, thread=2,
                  iterations=10, converged=True,
                  leaf_calls={"free_fermion.subset_sums": 100},
                  leaf_busy={"free_fermion.subset_sums": 0.5})
    fit_b = _span(2, "distance.interaction_distance", 0, 3.0, 6.0, thread=3,
                  iterations=30, converged=False,
                  leaf_calls={"free_fermion.subset_sums": 300},
                  leaf_busy={"free_fermion.subset_sums": 1.5})
    spans = [
        _span(0, "cli.run_sweep", None, 0.0, 10.0), fit_a, fit_b,
        _span(3, "free_fermion.greedy_single_particle_gaps", 1, 2.0, 3.0, thread=2),
        _span(5, "cli.render_jsonl", None, 10.0, 10.25),
    ]
    m = layer_metrics(spans)
    assert m["cli.run_ms"] == pytest.approx(10_000.0)
    assert m["cli.unattributed_ms"] == pytest.approx(5_000.0)
    assert m["cli.span_sum_over_wall"] == pytest.approx(0.6)
    assert m["cli.render_ms"] == pytest.approx(250.0)
    assert m["distance.fits"] == 2
    assert m["distance.fit_ms.p50"] == pytest.approx(3_000.0)
    assert m["distance.nfev_per_fit"] == pytest.approx(200.0)
    assert m["distance.iterations_per_fit"] == pytest.approx(20.0)
    assert m["distance.converged_frac"] == pytest.approx(0.5)
    assert m["distance.eval_us"] == pytest.approx(1e6 * 5.0 / 400)
    assert m["free_fermion.subset_sums_calls"] == 400
    assert m["free_fermion.subset_sums_us"] == pytest.approx(1e6 * 2.0 / 400)
    assert m["free_fermion.greedy_ms"] == pytest.approx(1_000.0)
    assert m["perturbation.labeling_ms"] == 0.0


def test_traced_child_wraps_every_namespace_and_keeps_rows(clean):
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--trace", "--",
           *SMALL.argv(7)]
    report = json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True,
                                       timeout=120).stdout.splitlines()[-1])
    assert fingerprint(report["rows"]) == fingerprint(clean[2])
    m = layer_metrics(report["spans"])
    assert m["distance.fits"] == 3
    assert m["free_fermion.subset_sums_calls"] > 0
    assert m["models.hamiltonian_ms"] > 0 and m["cli.run_ms"] > 0
    names = {s["name"] for s in report["spans"]}
    assert {"cli.run_sweep", "cli.render_jsonl", "models.hubbard_dimer",
            "fock.build_quadratic", "spectra.exact_diagonalize",
            "spectra.thermal_probabilities"} <= names


def test_failed_invocation_and_nondeterminism_are_counted(clean):
    import run

    points, spectra, rows = clean
    changed = json.loads(json.dumps(rows))
    changed[0]["converged"] = not changed[0]["converged"]
    reports = [("untraced", 7, {"rows": rows}), ("untraced", 7, {"error": "exit 1", "rows": []}),
               ("traced", 7, {"rows": changed})]
    attempted, failed, problems = run.check_invocations(SMALL, points, spectra, reports)
    assert (attempted, failed) == (9, 3)
    assert any("differ between invocations with seed 7" in p for p in problems)
    other_seed = [reports[0], ("untraced", 8, {"rows": changed})]
    assert run.check_invocations(SMALL, points, spectra, other_seed) == (6, 0, [])


def test_sweep_s_is_the_lower_quartile_and_setup_s_the_median(clean):
    import run

    rows = clean[2]
    setup = [{"import_s": 1.0}] * 3
    ok = [{"import_s": 1.2, "sweep_s": t, "peak_rss_mb": 80.0, "rows": rows}
          for t in (4.0, 3.0, 9.0, 5.0, 6.0)]
    metrics = run.end_to_end(SMALL, setup, ok)["metrics"]
    assert metrics["sweep_s"] == pytest.approx(4.0)
    assert metrics["setup_s"] == pytest.approx(1.2)
    assert metrics["peak_rss_mb"] == 80.0
    assert run.lower_quartile([2.0]) == 2.0
    assert run.lower_quartile(iter([3.0, 1.0])) == pytest.approx(1.5)
