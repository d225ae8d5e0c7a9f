"""The benchmark's own tests, on its smoke mode (about a minute).

Run from the repository root::

    python3 -m pytest perfbench/check_smoke.py -q

Each workload runs at minimum size in a fresh process; the tests check
the printed result against BENCHMARK.json (names and units), that the
correctness checks pass, and that a run leaves nothing running, also
when a check fails.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("infer_float_paper", "infer_int_paper", "search_select", "serve_closed_loop")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def expected_units(section):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    done = run("--workload", workload, "--seed", "1", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected_units(section)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == WORKLOADS


def test_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", "infer_float_paper", "--seed", "1", "--smoke", cwd=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.fixture()
def bench(monkeypatch):
    """The runner imported in-process, as ``run.py`` imports it."""
    monkeypatch.syspath_prepend(HERE)
    import run as runner

    runner.import_program()
    import hygiene
    import workloads

    return runner, hygiene, workloads


def test_failed_check_stops_the_daemon(bench, monkeypatch):
    runner, hygiene, workloads = bench

    def failing_check(self):
        self.failures.append("injected")

    monkeypatch.setattr(workloads.ServeClosedLoop, "check", failing_check)
    args = runner.parse_args(["--workload", "serve_closed_loop", "--smoke"])
    assert runner.run_workload(args) == 1
    assert hygiene.leftovers(grace_s=0.0) == []


def test_raising_check_stops_the_daemon(bench, monkeypatch):
    runner, hygiene, workloads = bench

    def raising_check(self):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.ServeClosedLoop, "check", raising_check)
    args = runner.parse_args(["--workload", "serve_closed_loop", "--smoke"])
    with pytest.raises(RuntimeError, match="injected"):
        runner.run_workload(args)
    assert hygiene.leftovers(grace_s=5.0) == []
