"""Smoke tests of the benchmark itself, at a tiny problem size.

Run from the root of a checkout with

    python3 -m pytest -q bench/check_smoke.py

The file name keeps the package's own test run from collecting it.  Each
workload runs for a fraction of a second; the tests check that every metric
named in BENCHMARK.json is reported with its unit and that corrupted outputs
are counted as failed.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCALE = 0.02


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def _quiet(*args):
    pass


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cli_prints_every_end_to_end_metric(workload, capsys):
    run.main(["--workload", workload, "--seed", "3", "--seconds", "0.05",
              "--trace", "0", "--scale", str(SCALE)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 2
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = run.run_benchmark(workload, 4, 0.05, True, scale=SCALE, log=_quiet)
    assert result["correct"] is True
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    spans = json.loads((run.OUT_DIR / f"{workload}-seed4" / "trace.json").read_text())["spans"]
    names = {span["name"] for span in spans}
    assert "problem_io.load" in names and "problem_io.csv" in names


def _corrupt_values(workload, out):
    out[0].values[-1, 0] += 0.5


def _corrupt_csv(workload, out):
    with open(workload.csv_path, "a", encoding="utf-8") as fh:
        fh.write("\n")


@pytest.mark.parametrize("corrupt", [_corrupt_values, _corrupt_csv])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_is_counted_as_failed(workload, corrupt):
    result = run.run_benchmark(workload, 5, 0.05, False, scale=SCALE, setup_runs=1,
                               corrupt=corrupt, log=_quiet)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2


def test_ftc_segments_surfaces_the_constancy_end_defect():
    # FTC samples sit on breakpoints; at the ends of a short flat segment the
    # derivative exists but stieltjes_derivative raises NoDerivativeError.
    # Those samples are reported as the known defect, and only those.
    lines = []
    result = run.run_benchmark("ftc-segments", 6, 0.05, False, scale=0.25, setup_runs=1,
                               log=lines.append)
    assert result["correct"] is True and result["failed"] == 0
    known = [line for line in lines if line.strip().startswith("known defect")]
    assert len(known) == 1 and int(known[0].split()[2]) > 0


def test_ftc_segments_other_no_derivative_counts_as_failed():
    import tracer
    import workloads

    w = workloads.FtcSegments(6, 0.25, str(run.OUT_DIR / "ftc-segments-seed6-moved"))
    w.setup(tracer.NULL_TRACER)
    w.constancy_ends = {t + 1e-9 for t in w.constancy_ends}
    outcome = w.run_checked(tracer.NULL_TRACER)[1]
    assert outcome.known == 0 and outcome.failed > 0 and outcome.wrong == 0


def test_tracer_self_time_and_parents():
    from tracer import Tracer

    tr = Tracer()
    tr.call("solver.outer", lambda: tr.call("expr.inner", lambda: sum(range(10_000))))
    inner, outer = tr.spans
    assert outer[3] == "solver.outer" and inner[1] == outer[0] and outer[1] is None
    snap = tr.take()
    total = snap["totals"]["solver.outer"]
    assert snap["self_s"]["solver"] + snap["self_s"]["expr"] == pytest.approx(total)
    assert snap["self_s"]["expr"] == snap["totals"]["expr.inner"]


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 5 + [2.0]) == (2.0, 100.0)
    value, pct = run.tail(list(range(1, 41)))
    assert (value, pct) == (30, 75.0)
