"""Tiny-size smoke test of the benchmark itself.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from hmmaccel.cli import main as cli_main  # noqa: E402


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_inputs_are_deterministic_in_the_seed(name, tmp_path):
    make = workloads.WORKLOADS[name]
    runs = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        d = tmp_path / label
        d.mkdir()
        inputs = make(cli_main, d, seed, 0.02)
        runs[label] = _files(d)
    assert runs["a"] == runs["b"]
    assert runs["a"][inputs.corpus.name] != runs["c"][inputs.corpus.name]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_metric_is_emitted(name, trace, section):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--scale", "0.02")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))["metrics"]
    assert set(layer_map) == {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layer_map.values():
        for metric, workload in entry["moves"]:
            assert metric in e2e and workload in WORKLOAD_NAMES


def test_step_takes_its_probes_out_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.Step("mixed") as step:
        end = perf_counter() + 10 * hostspeed.INTERVAL
        while perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(step.probes) > 3  # probes inside the step, not only around it
    assert 5 * hostspeed.INTERVAL < step.wall < 10 * hostspeed.INTERVAL
    assert step.seconds == pytest.approx(step.wall * step.speed)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
