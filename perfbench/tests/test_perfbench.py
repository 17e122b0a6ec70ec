"""Self-test of the benchmark at a tiny input size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import metrics  # noqa: E402

WORKLOADS = ("serve-mixed", "schedule-large", "schedule-private")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0.1",
            "--trace", str(trace), "--tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_declared_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {
        entry["name"]: entry["unit"]
        for entry in BENCHMARK["per_layer" if trace else "end_to_end"]
    }
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        self_times = sum(values[name] for name in metrics.SELF_TIME.values())
        assert self_times + values["trace.unattributed_s"] == pytest.approx(
            values["trace.wall_s"], rel=1e-9
        )
        if workload != "serve-mixed":
            service = [n for n in values if n.startswith("service.") and values[n]]
            assert service == []


def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    end_to_end = {e["name"]: (e["unit"], e["better"]) for e in BENCHMARK["end_to_end"]}
    assert end_to_end == metrics.END_TO_END
    assert "setup_s" in end_to_end
    for entry in BENCHMARK["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    per_layer = {e["name"]: (e["unit"], e["better"]) for e in BENCHMARK["per_layer"]}
    assert per_layer == {
        name: (unit, better) for name, (unit, better, _) in metrics.PER_LAYER.items()
    }


def test_every_layer_metric_names_what_it_moves():
    for name, (_, _, moves) in metrics.PER_LAYER.items():
        assert moves, name
        for end_to_end, workloads in moves:
            assert end_to_end in metrics.END_TO_END, (name, end_to_end)
            assert workloads and set(workloads) <= set(WORKLOADS), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload):
    assert inputs.generate(workload, 5) == inputs.generate(workload, 5)
    assert inputs.generate(workload, 5) != inputs.generate(workload, 6)


def test_serve_stream_resubmits_only_earlier_chunks():
    spec = inputs.generate("serve-mixed", 5)
    assert len(spec["jobs"]) >= 1000
    resubmits = [job for job in spec["jobs"] if job["resubmit_of"] is not None]
    assert 0.2 <= len(resubmits) / len(spec["jobs"]) <= 0.3
    for job in resubmits:
        original = spec["jobs"][job["resubmit_of"]]
        assert original["chunk"] < job["chunk"]
        assert (original["net"], original["algo"], original["seed"]) == (
            job["net"], job["algo"], job["seed"],
        )
    fresh = {
        (job["net"], job["algo"], job["seed"])
        for job in spec["jobs"] if job["resubmit_of"] is None
    }
    assert len(fresh) == len(spec["jobs"]) - len(resubmits)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__", "out", "work",
    ))
    done = _run("schedule-private", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
