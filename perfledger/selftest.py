"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfledger/selftest.py

It checks that

* ``BENCHMARK.json`` keeps the benchmark contract;
* every declared metric is printed, with its unit, on every workload at
  minimal size, in both the end-to-end and the traced run, and the
  traced layer self-times cover the traced wall time within
  :data:`COVERAGE_TOLERANCE`;
* the correctness checks fail a run on a perturbed OTA population, a NaN
  lane and a chunk that raises;
* the tail helper leaves ten samples beyond the value it reports.

Takes about three minutes; exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402

#: Least share of a traced op's wall time its layer self-times explain.
COVERAGE_TOLERANCE = 0.85

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def test_contract() -> None:
    spec = run.declared_metrics()
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(spec["command"] == ["python3", "perfledger/run.py"], "command")
    check(spec["paths"] == ["perfledger"], "paths")
    check(1 <= spec["run_seconds"] <= 60, "run_seconds")
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(run.WORKLOADS), f"workloads {names}")
    for workload in spec["workloads"]:
        check(len(workload["why"]) <= 200 and "\n" not in workload["why"],
              f"why of {workload['name']}")
    seen = set()
    for entry in spec["end_to_end"] + spec["per_layer"]:
        check(NAME.fullmatch(entry["name"]) is not None
              and entry["name"] not in seen, f"name {entry['name']}")
        seen.add(entry["name"])
        check(UNIT.fullmatch(entry["unit"]) is not None,
              f"unit of {entry['name']}")
        check(entry["better"] in ("lower", "higher"),
              f"better of {entry['name']}")
    for entry in spec["end_to_end"]:
        check(set(entry) == {"name", "unit", "better", "bound"}
              and 0 < entry["bound"] <= 0.25, f"bound of {entry['name']}")
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    check(setup["unit"] == "s" and setup["better"] == "lower"
          and setup["bound"] == max(e["bound"] for e in spec["end_to_end"]),
          "setup_s has unit s, lower is better, and the largest bound")
    print("ok: BENCHMARK.json keeps the contract")


def test_every_metric_printed() -> None:
    spec = run.declared_metrics()
    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            check(out.returncode == 0,
                  f"{workload} trace={trace} exit {out.returncode}: "
                  f"{out.stderr[-500:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{workload} result keys")
            check(result["correct"] is True,
                  f"{workload} trace={trace} incorrect:\n{out.stdout}")
            check(result["attempted"] >= run.MIN_OPS,
                  f"{workload} attempted {result['attempted']}")
            expected = {e["name"]: e["unit"] for e in spec[kind]}
            printed = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            check(printed == expected,
                  f"{workload} trace={trace} metrics/units differ: "
                  f"{set(printed) ^ set(expected)}")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                check(isinstance(value, float) and math.isfinite(value),
                      f"{workload} {name} = {value!r}")
                if kind == "end_to_end":
                    check(value > 0, f"{workload} {name} is {value}")
            if trace:
                coverage = result["metrics"]["trace.coverage"]["value"]
                check(COVERAGE_TOLERANCE <= coverage <= 1.0 + 1e-6,
                      f"{workload} trace.coverage {coverage:.3f}")
            print(f"ok: {workload} trace={trace} prints all "
                  f"{len(expected)} {kind} metrics with units")


def _run_in_process(wrap) -> dict:
    """A traced minimal ota-mc run with ``wrap`` around its evaluator."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(["--workload", "ota-mc", "--seed", "7",
                         "--seconds", "0", "--trace", "1"],
                        wrap_evaluator=wrap)
    check(code == 0, "in-process run exit code")
    return json.loads(buffer.getvalue().strip().splitlines()[-1])


def _shifted(evaluator):
    def shifted(sample):
        out = evaluator(sample)
        out["pm_deg"] = out["pm_deg"] + 0.05  # a quarter of the pm sd
        return out
    return shifted


def _nan_lane(evaluator):
    def nan_lane(sample):
        out = evaluator(sample)
        out["gain_db"] = np.array(out["gain_db"], dtype=float)
        out["gain_db"][3] = np.nan
        return out
    return nan_lane


def _raising_once():
    """A wrapper whose fourth evaluated chunk raises (a measured op, not
    the set-up's warm-up)."""
    calls = itertools.count()

    def wrap(evaluator):
        def maybe_raise(sample):
            if next(calls) == 3:
                raise FloatingPointError("injected chunk failure")
            return evaluator(sample)
        return maybe_raise
    return wrap


def test_checks_catch_faults() -> None:
    import ota_mc
    statcheck = run.load_statcheck()
    rng = np.random.default_rng(1)
    gain = rng.normal(*ota_mc.REFERENCE["gain_db"][:2], size=4000)
    pm = rng.normal(*ota_mc.REFERENCE["pm_deg"][:2], size=4000)
    ota_mc.check_population(gain, pm, statcheck)
    for label, g, p in (("mean", gain + 0.01, pm),
                        ("sd", gain, ota_mc.REFERENCE["pm_deg"][0]
                         + 1.15 * (pm - ota_mc.REFERENCE["pm_deg"][0]))):
        try:
            ota_mc.check_population(g, p, statcheck)
        except harness.CheckFailed:
            continue
        check(False, f"a perturbed {label} passed the population check")
    for label, wrap in (("perturbed population", _shifted),
                        ("NaN lane", _nan_lane),
                        ("raising chunk", _raising_once())):
        result = _run_in_process(wrap)
        check(result["correct"] is False, f"a {label} passed the run")
        print(f"ok: a {label} fails the run")


def test_tail_helper() -> None:
    rng = np.random.default_rng(3)
    for n in (5, 19, 20, 21, 30, 57, 100, 333, 1000, 5000):
        for failures in (0, 1, 9, 10, n // 16, n // 4):
            values = list(rng.exponential(size=n))
            got = harness.tail(values, failures)
            total = n + failures
            if got is None:
                check(total < 20 or failures * 2 >= total,
                      f"no tail for n={n}, failures={failures}")
                continue
            q, value = got
            check(value in values, "tail value is a completed op")
            beyond = sum(v > value for v in values) + failures
            check(beyond >= harness.TAIL_BEYOND,
                  f"n={n} failures={failures}: p{q} has {beyond} beyond")
            higher = [p for p in harness.TAIL_LADDER if p > q]
            for p in higher:
                rank, v = harness.percentile(
                    sorted(values) + [math.inf] * failures, p)
                check(not math.isfinite(v) or total - 1 - rank < 10,
                      f"p{p} qualified but p{q} was reported")
    print("ok: the tail helper leaves ten samples beyond its value")


if __name__ == "__main__":
    test_contract()
    test_tail_helper()
    test_checks_catch_faults()
    test_every_metric_printed()
    print("selftest passed")
