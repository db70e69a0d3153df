"""The repository's benchmark: one command per workload.

    python3 perfledger/run.py --workload ota-mc --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  The command sets up the workload from
the seed, measures it for ``--seconds``, checks its outputs and prints,
as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` the per-layer ones, from a
run whose ops alternate traced and untraced.  Each run also writes a
machine-readable record to ``.perfledger/records/``.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads; every child inherits it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfledger"

WORKLOADS = {"ota-mc": ("ota_mc", "OtaMc"),
             "flow-build": ("flow_build", "FlowBuild"),
             "service-mix": ("service_mix", "ServiceMix"),
             "cli-cold": ("cli_cold", "CliCold")}

#: Fewest ops a run measures: with 20, the median already has ten ops
#: beyond it, so op_tail_s always exists.
MIN_OPS = 20


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = float(declared_metrics()["run_seconds"])
    return args


def load_statcheck():
    """``tests/statcheck.py``: the suite's CI-derived tolerances."""
    spec = importlib.util.spec_from_file_location(
        "statcheck", ROOT / "tests" / "statcheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_workload(name: str, **options):
    module_name, class_name = WORKLOADS[name]
    module = __import__(module_name)
    return getattr(module, class_name)(**options)


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def main(argv=None, **workload_options) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("error: no repro source tree at src/repro in this checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    workload = make_workload(args.workload, **workload_options)
    workdir = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    statcheck = load_statcheck()
    try:
        if args.setup_probe:
            workload.setup(args.seed, workdir, statcheck)
            print("READY", flush=True)
            return 0
        return measure(args, workload, workdir, statcheck)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir, statcheck) -> int:
    traced = bool(args.trace)
    declared = declared_metrics()
    setups = []
    if not traced:
        setups = harness.probe_setups(ROOT, args.workload, args.seed,
                                      workload.setups)
    started = time.time()
    workload.setup(args.seed, workdir, statcheck)
    kernel = (harness.SpawnKernel(harness.pinned_environment(ROOT))
              if workload.kernel == "spawn"
              else harness.ComputeKernel(workload.kernel_threads))
    # peak_rss_mb counts from here: the measured ops, with the program's
    # state and the kernel's arrays resident.
    harness.reset_peak_rss()
    segments = harness.run_segments(
        workload, kernel, args.seconds, traced=traced, min_ops=MIN_OPS)
    ops = [op for segment in segments for op in segment.ops]
    problems = [f"op failed: {op.error}" for op in ops
                if op.failed and not op.known_defect]
    notes: dict = {}
    try:
        notes = workload.finish(traced, ops)
    except harness.CheckFailed as error:
        problems.append(str(error))
    failed = sum(op.failed for op in ops)
    if traced:
        metrics, lines, stats = per_layer(declared, ops, notes)
    else:
        metrics, lines, stats = end_to_end(declared, workload, segments,
                                           setups)
        if workload.has_tail and stats["op_tail_percentile"] is None:
            problems.append("no op completed with ten ops beyond it")
    kernel_s = [segment.kernel_s for segment in segments]
    head = (f"{args.workload} seed={args.seed} trace={args.trace} "
            f"ops={len(ops)} failed={failed} "
            f"{workload.kernel} kernel median "
            f"{statistics.median(kernel_s) * 1e3:.1f} ms "
            f"(reference {kernel.reference * 1e3:.1f} ms)")
    for line in [head, *lines, *(f"CHECK FAILED: {p}" for p in problems)]:
        print(line)
    record = {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "run_seconds": args.seconds,
        "started": started, "git_sha": harness.git_sha(ROOT),
        "host": harness.host_fingerprint(),
        "kernel": workload.kernel,
        "kernel_threads": getattr(kernel, "threads", 1),
        "kernel_reference_s": kernel.reference,
        "kernel_s": _summary(kernel_s),
        "ops": len(ops), "segments": len(segments), "failed": failed,
        "correct": not problems, "problems": problems,
        "metrics": stats, "setup_probes": [
            {"raw_s": raw, "scale": scale} for raw, scale in setups],
        "segments_wall_kernel_s": [[segment.wall, segment.kernel_s]
                                   for segment in segments],
        "known_defects": notes.get("defects", []),
        "notes": notes.get("notes", {}),
    }
    harness.write_record(
        WORKDIR / "records"
        / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json",
        record)
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def _summary(values) -> dict:
    if not values:
        return {"n": 0}
    q1, median, q3 = harness.quartiles(values)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def end_to_end(declared, workload, segments, setups):
    """The end-to-end metrics at reference host speed, the lines that
    print them beside raw wall figures, and their record entries."""
    ops = [op for segment in segments for op in segment.ops]
    done = [op for op in ops if not op.failed]
    failures = len(ops) - len(done)
    norm = [op.norm for op in done]
    raw = [op.seconds for op in done]
    # The median takes every op at the time it took, a failed one too
    # (only known defects fail in a correct run); the tail puts failed
    # ops beyond every completed one.
    p50 = statistics.median(op.norm for op in ops)
    raw_p50 = statistics.median(op.seconds for op in ops)
    q, tail = harness.tail(norm, failures) or (None, 0.0)
    raw_tail = (harness.tail(raw, failures) or (None, 0.0))[1]
    tail_line = (f"{tail:.4g} s = p{q} (raw wall {raw_tail:.4g} s; "
                 f">= {harness.TAIL_BEYOND} ops beyond)")
    if not workload.has_tail:
        # Too few ops for a tail: the printed value repeats op_p50_s,
        # because every workload prints every declared metric.
        q, tail, tail_line = None, p50, "not measured; repeats op_p50_s"
    units = sum(op.units for op in done)
    busy = sum(segment.wall * segment.scale for segment in segments)
    busy_raw = sum(segment.wall for segment in segments)
    setup_norm = [raw_s * scale for raw_s, scale in setups]
    setup_raw = [raw_s for raw_s, _ in setups]
    values = {
        "op_p50_s": p50,
        "op_tail_s": tail,
        "throughput_per_s": units / busy,
        "peak_rss_mb": getattr(workload, "peak_rss_mb",
                               harness.peak_rss_mb)(),
        "setup_s": statistics.median(setup_norm),
    }
    lines = [
        f"op_p50_s         {p50:.4g} s at reference speed "
        f"(raw wall {raw_p50:.4g} s; "
        f"{len(ops)} ops, {failures} failed)",
        f"op_tail_s        {tail_line}",
        f"throughput_per_s {values['throughput_per_s']:.2f} {workload.unit}/s "
        f"(raw wall {units / busy_raw:.2f})",
        f"peak_rss_mb      {values['peak_rss_mb']:.1f} MB",
        f"setup_s          {values['setup_s']:.4f} s, median of "
        f"{len(setups)} fresh-process set-ups "
        f"(raw wall {statistics.median(setup_raw):.4f} s)",
    ]
    stats = {"op_s": _summary(norm), "op_raw_s": _summary(raw),
             "op_tail_percentile": q, "setup_s": _summary(setup_norm),
             "setup_raw_s": _summary(setup_raw),
             "work_units": units, "work_unit": workload.unit,
             "values": values}
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]}
               for entry in declared["end_to_end"]}
    return metrics, lines, stats


def per_layer(declared, ops, notes):
    """Per-layer metrics from the traced ops (zero for a layer the
    workload never enters), plus the trace overhead and coverage."""
    traced = [op for op in ops if op.traced]
    values = harness.layer_means(traced)
    values.update(notes.get("layers", {}))
    on = [op.norm for op in traced if not op.failed]
    off = [op.norm for op in ops if not op.traced and not op.failed]
    if on and off:
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(on) / statistics.median(off) - 1.0)
    # Named layers only: catch-all self-times are in ``op.times``.
    values["trace.coverage"] = (
        sum(sum(op.layers.values()) for op in traced)
        / sum(op.seconds for op in traced))
    metrics = {}
    lines = []
    for entry in declared["per_layer"]:
        name = entry["name"]
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": entry["unit"]}
        if name in values:
            lines.append(f"{name:<36} {value:.6g} {entry['unit']}")
    idle = [entry["name"] for entry in declared["per_layer"]
            if entry["name"] not in values]
    lines.append(f"idle layers (reported as 0): {len(idle)}")
    stats = {"layers": values, "idle_layers": idle,
             "traced_ops": len(traced), "untraced_ops": len(ops) - len(traced)}
    return metrics, lines, stats


if __name__ == "__main__":
    sys.exit(main())
