"""Tests of the benchmark itself, on tiny inputs (``--smoke``).

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from oracles import CheckError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 3 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    # Every step of every pass sits between two timings of the reference kernel.
    report = json.loads((BENCH / "out" / f"{workload}-seed3-trace0.json").read_text())
    passes = len(report["passes_s"])
    assert all(len(samples) == passes for samples in report["steps"].values())
    assert len(report["kernel_s"]) == passes * (len(report["steps"]) + 1)


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_accounts_for_the_pass(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    values = {k: v["value"] for k, v in last_json(proc)["metrics"].items()}
    assert list(values) == [m["name"] for m in SPEC["per_layer"]]
    # Self times of the layers cover the traced pass and never exceed it.
    assert 0.9 * values["trace.pass_s"] <= values["trace.layers_s"] <= values["trace.pass_s"]
    generated = sum(values[f"netgen.generate.{m}.calls"] for m in ("A", "B", "KALISKY"))
    if workload == "analyze":
        # betweenness is reached through central_point_dominance.
        assert values["metrics.betweenness.calls"] == 3
        assert values["metrics.vertex_pairs"] > 0
        assert generated == 0
    else:
        # Graph.from_edges is reached through generate (and read_edge_list).
        reads = values["netgen.read_edge_list.calls"]
        assert values["netgen.Graph.from_edges.calls"] == generated + reads
        placed = 2 * values["netgen.edges"]
        assert values["netgen.stubs"] == placed + values["netgen.dropped_stubs"]
    report = json.loads((BENCH / "out" / f"{workload}-seed3-trace1.json").read_text())
    assert report["spans"] and report["per_layer"]["trace.pass_s"] == values["trace.pass_s"]


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "experiment", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_analyze_check_catches_a_perturbed_efficiency(tmp_path):
    w = workloads.Analyze(5, True, tmp_path)
    w.setup()
    codes = w.run_pass()
    w.check(codes)
    path = Path(w.outs[workloads.Model.KALISKY])
    out = json.loads(path.read_text())
    out["global_efficiency"] *= 1.0 + 1e-7
    path.write_text(json.dumps(out))
    with pytest.raises(CheckError, match="efficiency"):
        w.check(codes)


def test_generate_check_catches_a_removed_edge(tmp_path):
    w = workloads.GenerateLarge(5, True, tmp_path)
    out = w.run_pass()
    w.check(out)
    path = Path(w.files.paths[workloads.Model.A])
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:10] + lines[11:]))
    with pytest.raises(CheckError, match="lines for"):
        w.check(out)


def test_experiment_check_catches_a_wrong_prediction(tmp_path):
    w = workloads.Experiment(5, True, tmp_path)
    csv_text = w.run_pass()
    w.check(csv_text)
    header, first, *rest = csv_text.splitlines()
    cols = first.split(",")
    i = header.split(",").index("predicted_ratio")
    cols[i] = repr(float(cols[i]) * (1.0 + 1e-6))
    with pytest.raises(CheckError, match="quad"):
        w.check("\n".join([header, ",".join(cols), *rest]) + "\n")
