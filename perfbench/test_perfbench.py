"""Tests of the benchmark itself: repeatable counts, seeded inputs, gates
that catch wrong answers, and the metric names BENCHMARK.json promises."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
    )


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _one_pass(workload, state, seed):
    rec = workloads.Record()
    inputs = workload.inputs(state, random.Random(seed))
    workload.check(state, workload.run_pass(state, inputs, rec), rec)
    return inputs, rec


def test_traced_counts_repeat_exactly():
    results = []
    for _ in range(2):
        proc = _bench("--workload", "elements", "--seed", "7", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(_last_json(proc.stdout))
    counts = [
        {name: m["value"] for name, m in r["metrics"].items() if m["unit"] == "count"} for r in results
    ]
    assert counts[0] == counts[1]
    assert counts[0]["algebra.mul_calls"] > 0
    assert counts[0]["element.element_of_calls"] == 3 * workloads.WORDS_PER_GROUP


def test_seed_changes_element_inputs_but_not_failures():
    workload = workloads.Elements()
    groups = workload.setup()
    inputs_a, rec_a = _one_pass(workload, groups, 1)
    inputs_b, rec_b = _one_pass(workload, groups, 2)
    assert inputs_a != inputs_b
    assert inputs_a == workload.inputs(groups, random.Random(1))
    assert rec_a.attempted == rec_b.attempted > 0
    assert rec_a.failed == rec_b.failed == 0
    assert not rec_a.wrong and not rec_b.wrong


def test_corrupted_frozen_count_is_a_failure():
    name = "fig1_cycle4_4333"
    states, edges = workloads.FROZEN_SIZES[name]
    words = {name: workloads.FROZEN_WORD_COUNTS[name]}
    good = workloads.Automata(sizes={name: (states, edges)}, word_counts=words)
    _, rec = _one_pass(good, good.setup(), 1)
    assert rec.failed == 0 and not rec.wrong

    bad = workloads.Automata(sizes={name: (states + 1, edges)}, word_counts=words)
    _, rec = _one_pass(bad, bad.setup(), 1)
    assert rec.failed == 1
    assert len(rec.wrong) == 1 and name in rec.wrong[0]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = tracer.per_layer_metrics(tracer.Tracer(), 1.0, 0)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: m["unit"] for name, m in per_layer.items()
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench("--workload", "elements", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    with pytest.raises((ValueError, IndexError)):
        _last_json(proc.stdout)
