#!/usr/bin/env python3
"""The spr benchmark: one command for every workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the measuring program (CMake, Release)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, checks its outputs, and prints the metrics by name and unit. The
last stdout line is one JSON object: correct, attempted, failed, metrics.
--trace 0 gives the end-to-end metrics; --trace 1 gives the per-layer
metrics and writes a Chrome trace next to the build. README.md describes the
workloads and what each metric should move.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import perfstats

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-sweep", "world-build", "epochs", "stream")
PROGRAM_TIMEOUT_S = 170

# End-to-end metrics, from the untraced run: name -> unit.
END_TO_END = {
    "op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, from the traced run: name -> (unit, how it is derived).
#   ("self", span)        mean self time of the span per call, ms
#   ("incl_p50", span)    median inclusive duration of the span, ms
#   ("incl_max", span)    largest inclusive duration of the span, ms
#   ("per_packet", span, packets counter)   self time per routed packet, us
#   ("speedup", serial span, pooled span)   serial over pooled self time
#   ("count", counter)    a count the program reports
#   ("exact", name)       a deterministic quality output
#   ("overhead",)         median traced minus median untraced operation, ms
PER_LAYER = {
    "deploy.deploy_ms": ("ms", ("self", "deploy.deploy")),
    "deploy.interest_area_ms": ("ms", ("self", "deploy.interest_area")),
    "core.network_ms": ("ms", ("self", "core.network")),
    "graph.unit_disk_ms": ("ms", ("self", "graph.unit_disk")),
    "graph.zones_ms": ("ms", ("self", "graph.zones")),
    "graph.directed_edges": ("count", ("count", "graph.directed_edges")),
    "graph.with_failures_ms": ("ms", ("self", "graph.with_failures")),
    "graph.with_moves_ms": ("ms", ("self", "graph.with_moves")),
    "core.with_failures_ms": ("ms", ("incl_p50", "core.with_failures")),
    "core.with_moves_ms": ("ms", ("incl_p50", "core.with_moves")),
    "safety.label_ms": ("ms", ("self", "safety.label")),
    "safety.flips": ("count", ("count", "safety.flips")),
    "safety.pushes": ("count", ("count", "safety.pushes")),
    "safety.reevaluations": ("count", ("count", "safety.reevaluations")),
    "safety.info_copy_ms": ("ms", ("self", "safety.info_copy")),
    "safety.update_failures_ms": ("ms", ("self", "safety.update_failures")),
    "safety.update_moves_ms": ("ms", ("self", "safety.update_moves")),
    "safety.incr_seeds": ("count", ("count", "safety.incr_seeds")),
    "safety.incr_flips": ("count", ("count", "safety.incr_flips")),
    "safety.incr_promotions": ("count", ("count", "safety.incr_promotions")),
    "safety.incr_anchor_recomputes":
        ("count", ("count", "safety.incr_anchor_recomputes")),
    "safety.incr_flips_per_seed":
        ("ratio", ("count", "safety.incr_flips_per_seed")),
    "routing.boundhole_ms": ("ms", ("self", "routing.boundhole")),
    "routing.overlay_ms": ("ms", ("self", "routing.overlay")),
    "routing.boundhole_stuck": ("count", ("count", "routing.boundhole_stuck")),
    "routing.boundhole_orphan_stuck":
        ("count", ("count", "routing.boundhole_orphan_stuck")),
    "routing.gf.route_us":
        ("us", ("per_packet", "routing.gf.route", "routing.gf.packets")),
    "routing.lgf.route_us":
        ("us", ("per_packet", "routing.lgf.route", "routing.lgf.packets")),
    "routing.slgf.route_us":
        ("us", ("per_packet", "routing.slgf.route", "routing.slgf.packets")),
    "routing.slgf2.route_us":
        ("us", ("per_packet", "routing.slgf2.route", "routing.slgf2.packets")),
    "routing.hops": ("hops", ("count", "routing.hops")),
    "slgf2_delivery_ratio": ("ratio", ("exact", "slgf2_delivery_ratio")),
    "slgf2_avg_hops": ("hops", ("exact", "slgf2_avg_hops")),
    "core.pair_draw_ms": ("ms", ("self", "core.pair_draw")),
    "core.oracle_ms": ("ms", ("self", "core.oracle")),
    "core.cell_ms_p50": ("ms", ("incl_p50", "core.cell")),
    "core.cell_ms_max": ("ms", ("incl_max", "core.cell")),
    "sim.events": ("count", ("count", "sim.events")),
    "sim.flights": ("count", ("count", "sim.flights")),
    "sim.replans": ("count", ("count", "sim.replans")),
    "sim.repins": ("count", ("count", "sim.repins")),
    "sim.epoch_ms": ("ms", ("self", "sim.epoch")),
    "stream_slgf2_delivery_ratio":
        ("ratio", ("exact", "stream_slgf2_delivery_ratio")),
    "graph.unit_disk.pool_speedup":
        ("x", ("speedup", "graph.unit_disk.serial", "graph.unit_disk")),
    "graph.zones.pool_speedup":
        ("x", ("speedup", "graph.zones.serial", "graph.zones")),
    "safety.label.pool_speedup":
        ("x", ("speedup", "safety.label.serial", "safety.label")),
    "trace.overhead_ms": ("ms", ("overhead",)),
}


def per_layer_value(how, spans, raw):
    """One per-layer metric from the span table (perfstats.self_times, in
    microseconds) and the program's raw results. A layer the workload does not
    run reads 0."""
    kind = how[0]
    counters, exact = raw["counters"], raw["exact"]
    if kind == "overhead":
        return (perfstats.median(raw["traced_s"]) -
                perfstats.median(raw["untraced_s"])) * 1e3
    if kind == "count":
        return counters.get(how[1], 0.0)
    if kind == "exact":
        return exact.get(how[1], 0.0)
    if kind == "speedup":
        serial, pooled = spans.get(how[1]), spans.get(how[2])
        if not serial or not pooled or pooled[0] <= 0:
            return 0.0
        return (serial[0] / serial[1]) / (pooled[0] / pooled[1])
    entry = spans.get(how[1])
    if entry is None:
        return 0.0
    self_us, calls, durations = entry
    if kind == "self":
        return self_us / calls / 1e3
    if kind == "incl_p50":
        return perfstats.median(durations) / 1e3
    if kind == "incl_max":
        return max(durations) / 1e3
    if kind == "per_packet":
        packets = counters.get(how[2], 0.0)
        return self_us / calls / packets if packets else 0.0
    raise ValueError("unknown derivation %r" % (kind,))


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build(out):
    """Configures (once) and builds the program; returns its path or None."""
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n%s\n" % "\n".join(tail))
                return None
    program = out / "perfbench_workloads"
    return program if program.exists() else None


def run_program(program, args, trace_path):
    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_path is not None:
        cmd += ["--trace-out", str(trace_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: workload program timed out\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write("perfbench: workload program exited with %d\n" % proc.returncode)
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def metrics_of(raw, trace_path):
    if not raw["trace"]:
        values = {
            "op_s": perfstats.median(raw["op_s"]),
            "setup_s": perfstats.median(raw["setup_s"]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END.items()}
    with open(trace_path) as f:
        spans = perfstats.self_times(json.load(f)["traceEvents"])
    return {name: {"value": per_layer_value(how, spans, raw), "unit": unit}
            for name, (unit, how) in PER_LAYER.items()}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    program = build(out)
    if program is None:
        return 1
    trace_path = None
    if args.trace:
        (out / "traces").mkdir(exist_ok=True)
        trace_path = out / "traces" / ("%s-seed%d.json" % (args.workload, args.seed))
    raw = run_program(program, args, trace_path)
    if raw is None:
        return 1
    if not raw["trace"] and not raw["op_s"]:
        sys.stderr.write("perfbench: no operation completed\n")
        return 1

    metrics = metrics_of(raw, trace_path)
    checks = raw["checks"]
    correct = raw["failed"] == 0 and all(checks.values()) and raw["attempted"] > 0
    print("workload %s seed %d: %d operations, %d failed"
          % (args.workload, args.seed, raw["attempted"], raw["failed"]))
    if raw["op_s"]:
        tail = perfstats.tail_percentile(raw["op_s"])
        print("  op_s over %d samples: median %.6g s%s"
              % (len(raw["op_s"]), perfstats.median(raw["op_s"]),
                 ", p%d %.6g s" % tail if tail else ""))
    for name, ok in checks.items():
        print("  check %-4s %s" % ("ok" if ok else "FAIL", name))
    print("  output digest %s" % raw["digest"])
    for name, value in sorted(raw["exact"].items()):
        print("  exact %s = %r" % (name, value))
    if trace_path is not None:
        print("  trace %s" % trace_path)
    for name, m in metrics.items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
