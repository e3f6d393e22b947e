"""Loop benchmark: BC source -> compile/link -> measure -> sample ->
merge-fdata -> BOLT -> re-measure, driven through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload rewrite-heavy --seed 71 \\
        --seconds 30 --trace 0

``--trace 0`` runs untraced loop ops for ``--seconds`` seconds and
reports the end-to-end metrics of BENCHMARK.json (medians over the
ops).  Its timings are in reference seconds: wall seconds scaled by a
host-speed probe that runs five times a second on the benchmark's own
thread (see ``hostclock``), so that the shared host's drift does not
read as a change in the program.  ``--trace 1`` alternates untraced
and traced ops and reports the per-layer metrics from the traced ones
in wall seconds, plus the tracing overhead.
Every op's outputs are checked (see ``check_ops``); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each run also writes a full record (every
op, every span) under ``.perfbench/results/<workload>/``.

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

compares two sets of such records against the bounds in BENCHMARK.json.

Load: one single-threaded process (``BoltOptions.threads=1``,
``aggregate_shards(threads=1)``), one op at a time, a closed loop with
one client.  No warm-up is excluded: every op builds fresh binaries.
"""

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import HostClock
from spans import NULL_TRACER, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Setup is measured this many times per run, in fresh processes.
SETUP_PROBES = 5

#: TimingReport phase -> per-layer metric (both dyno-stats phases add up).
PHASES = {
    "discover functions": "core.phase.discover_s",
    "build CFGs": "core.phase.cfg_s",
    "attach profile": "core.phase.attach_s",
    "dyno-stats (input)": "core.phase.dyno_s",
    "dyno-stats (output)": "core.phase.dyno_s",
    "optimization passes": "core.phase.passes_s",
    "lint gate": "analysis.lint_gate_s",
    "emit and link": "core.phase.emit_s",
    "validate gate": "core.validate_gate_s",
}

UARCH_COUNTERS = ("cycles", "l1i_misses", "itlb_misses", "branch_misses")


def import_program():
    """Put the checkout's ``src`` first on the path and load the loop.

    Exits non-zero when the program's sources are not in the checkout,
    rather than measuring some other copy of them.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    import loop
    return loop


# -- scheduling ---------------------------------------------------------------

def run_for(seconds, unit):
    """Call ``unit(i)`` until ``seconds`` are used; returns the results.

    At least one unit runs.  Another starts only if, at the pace of the
    last one, it would end less than half a unit past the deadline.
    """
    results = []
    started = time.perf_counter()
    while True:
        unit_started = time.perf_counter()
        results.append(unit(len(results)))
        now = time.perf_counter()
        if now - started + (now - unit_started) / 2 > seconds:
            return results


def measure_setup(workload, seed):
    """Process start until the first op can begin, in fresh processes,
    in reference seconds from the host probes each process ran while it
    set up (it prints them on its ``ready`` line)."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--setup-probe", "--workload", workload,
                 "--seed", str(seed)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            ended = time.perf_counter()
            child.stdout.read()
        if not ready.startswith("ready ") or child.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {child.returncode})")
        clock = HostClock(probes=json.loads(ready[len("ready "):]))
        samples.append(clock.reference_seconds(started, ended))
    return samples


# -- correctness --------------------------------------------------------------

def tree_hash():
    """Hash of the program and benchmark sources: the identity under
    which deterministic metrics must repeat exactly."""
    digest = hashlib.sha256()
    here = Path(__file__).resolve().parent
    for path in sorted([*SRC.rglob("*.py"), *here.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_ops(loop, setup, ops):
    """Add a failure to every op whose output is wrong or whose
    deterministic results differ from the others' or an earlier run's.

    * Every run's output and exit code must equal the BC interpreter's
      for the same release and input mix (the optimized run is already
      checked against the baseline inside the op).
    * The emitted binary's ``content_hash`` and the op's fingerprint
      (speedup, hot text, uarch counters, core counts) must be equal on
      every op of the run, and equal to the first run of this seed with
      the same sources, which is kept under ``.perfbench/fingerprints``.
    """
    expected = loop.reference_outputs(
        setup, {(release, mix) for op in ops
                for release, mix, _, _ in op.outputs})
    for op in ops:
        for release, mix, output, exit_code in op.outputs:
            if (output, exit_code) != expected[release, mix]:
                op.failures.append(f"{release} release on mix {mix!r}: "
                                   f"output differs from the interpreter")

    done = [op for op in ops if op.fingerprint is not None]
    if not done:
        return
    reference = {"content_hash": done[0].content_hash,
                 "fingerprint": done[0].fingerprint}
    path = (OUT / "fingerprints"
            / f"{setup.name}-seed{setup.seed}-{tree_hash()}.json")
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier != reference:
            drift = [k for k in reference["fingerprint"]
                     if earlier["fingerprint"].get(k)
                     != reference["fingerprint"][k]]
            if earlier["content_hash"] != reference["content_hash"]:
                drift.append("content_hash")
            for op in done:
                op.failures.append("drift from an earlier run of this seed: "
                                   + ", ".join(drift))
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(reference, sort_keys=True))
    for op in done[1:]:
        if op.content_hash != reference["content_hash"]:
            op.failures.append("emitted binary differs from op 0's")
        if op.fingerprint != reference["fingerprint"]:
            op.failures.append("deterministic metrics differ from op 0's")


# -- metrics ------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(ops, setup_samples, peak_rss_mb, clock):
    """The end-to-end metrics; timings in ``clock``'s reference seconds."""
    passed = [op for op in ops if op.ok] or ops
    done = [op for op in passed if op.fingerprint is not None]
    first = done[0].fingerprint if done else None
    return {
        "setup_s": median(setup_samples),
        "loop_s": median([clock.reference_seconds(*op.interval)
                          for op in passed]),
        "bolt_s": median([clock.reference_seconds(*op.bolt_interval)
                          for op in done]),
        "sim_mips": median([
            op.sim_instructions / 1e6
            / sum(clock.reference_seconds(*i) for i in op.sim_intervals)
            for op in done]),
        "speedup_pct": first["speedup_pct"] if first else 0.0,
        "hot_text_bytes": first["hot_text_bytes"] if first else 0,
        "peak_rss_mb": peak_rss_mb,
    }


def span_metrics(tracer, root):
    """Wall time per layer metric for one traced op (root = op span)."""
    out = {}
    spans = [s for s in tracer.spans if s.op == root.op and s is not root]
    for span in spans:
        if span.layer == "core.phase":
            key = PHASES[span.name]
        elif span.layer == "core.pass":
            key = f"core.pass.{span.name}_s"
        else:
            key = f"{span.layer}.wall_s"
        out[key] = out.get(key, 0.0) + span.seconds
        if span.name == "optimize_binary":
            out["core.optimize.self_s"] = tracer.self_seconds(span)
    top = [s for s in spans if s.parent == root.id]
    out["trace.unattributed_s"] = root.seconds - sum(s.seconds for s in top)
    return out


def per_layer(tracer, traced, untraced, names):
    roots = {s.op: s for s in tracer.spans if s.name == "op"}
    walls = [span_metrics(tracer, roots[op.op_id]) for op in traced]
    # A layer or pass that no op called took no time.
    out = {name: 0.0 for name in names
           if name.endswith(".wall_s") or name.startswith("core.pass.")}
    for key in {k for wall in walls for k in wall}:
        out[key] = median([wall.get(key, 0.0) for wall in walls])
    out["trace.overhead_s"] = (median([op.loop_s for op in traced])
                               - median([op.loop_s for op in untraced]))

    done = [op for op in traced if op.fingerprint is not None]
    if not done:
        return out
    op = done[0]
    out.update((k, v) for k, v in op.counts.items()
               if not isinstance(v, dict))
    for side in ("base", "opt"):
        for counter in UARCH_COUNTERS:
            out[f"uarch.{side}.{counter}"] = \
                op.fingerprint[f"uarch.{side}"][counter]
    out["uarch.instructions"] = op.counts["uarch.plain_instructions"]
    out["uarch.mips"] = _rate(out["uarch.instructions"] / 1e6,
                              out.get("uarch.wall_s"))
    out["profiling.sample.mips"] = _rate(
        out["profiling.sample.instructions"] / 1e6,
        out.get("profiling.sample.wall_s"))
    out["compiler.funcs_per_s"] = _rate(out["compiler.functions"],
                                        out.get("compiler.wall_s"))
    out["profiling.merge.shards_per_s"] = _rate(
        out["profiling.merge.shards"], out.get("profiling.merge.wall_s"))
    out["core.funcs_per_s"] = _rate(out["core.functions"],
                                    out.get("core.optimize.wall_s"))
    out["core.profiled_per_simple"] = _rate(out["core.profiled"],
                                            out["core.simple"])
    return out


def _rate(count, base):
    return count / base if base else 0.0


def shares_table(tracer):
    """Wall time per traced op and share of it, per top-level layer."""
    roots = [s for s in tracer.spans if s.name == "op"]
    total = sum(r.seconds for r in roots)
    by_layer = {}
    for span in tracer.spans:
        if any(span.parent == r.id for r in roots):
            by_layer[span.layer] = by_layer.get(span.layer, 0.0) + span.seconds
    lines = [f"{'layer':<20} {'wall_s':>9} {'share':>7}"]
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<20} {seconds / len(roots):9.3f} "
                     f"{seconds / total:7.1%}")
    unattributed = total - sum(by_layer.values())
    lines.append(f"{'(unattributed)':<20} {unattributed / len(roots):9.3f} "
                 f"{unattributed / total:7.1%}")
    return "\n".join(lines)


# -- the run ------------------------------------------------------------------

def run(args, started):
    loop = import_program()
    if args.workload not in loop.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(loop.WORKLOADS)}")
    if args.seed is None:
        args.seed = loop.PRESETS[loop.WORKLOADS[args.workload].preset].seed
    setup = loop.Setup(args.workload, args.seed)
    in_process_setup_s = time.perf_counter() - started
    if args.setup_probe:
        return 0

    bench = json.loads(BENCHMARK.read_text())
    tracer = Tracer()
    clock = HostClock()
    if args.trace:
        def pair(i):
            untraced = loop.run_op(setup, NULL_TRACER, f"op{2 * i}")
            traced = loop.run_op(setup, tracer, f"op{2 * i + 1}")
            return untraced, traced
        pairs = run_for(args.seconds, pair)
        untraced_ops = [u for u, _ in pairs]
        traced_ops = [t for _, t in pairs]
        ops = untraced_ops + traced_ops
        wanted = [m["name"] for m in bench["per_layer"]]
    else:
        with clock:
            ops = run_for(args.seconds, lambda i: loop.run_op(
                setup, NULL_TRACER, f"op{i}"))
        wanted = [m["name"] for m in bench["end_to_end"]]

    # Before the checks, whose interpreter runs are not the workload's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_samples = [] if args.trace else measure_setup(args.workload,
                                                        args.seed)
    check_ops(loop, setup, ops)
    if args.trace:
        values = per_layer(tracer, traced_ops, untraced_ops, wanted)
    else:
        values = end_to_end(ops, setup_samples, peak_rss_mb, clock)
    missing = [name for name in wanted if name not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in wanted}

    print(f"{args.workload} (seed {args.seed}): "
          f"{loop.WORKLOADS[args.workload].why}")
    for op in ops:
        status = "ok" if op.ok else "FAILED: " + "; ".join(op.failures)
        print(f"{op.op_id}: loop {op.loop_s:.3f}s {status}")
    if args.trace:
        print(shares_table(tracer))
    failed = sum(1 for op in ops if not op.ok)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "workload_setup": setup.describe(),
        "in_process_setup_s": in_process_setup_s,
        "setup_samples": setup_samples,
        "values": values,
        "host_probes": clock.probes,
        "ops": [{"id": op.op_id, "loop_s": op.loop_s, "bolt_s": op.bolt_s,
                 "interval": op.interval, "bolt_interval": op.bolt_interval,
                 "sim_intervals": op.sim_intervals,
                 "probe_s": clock.probe_seconds(*op.interval),
                 "sim_seconds": op.sim_seconds,
                 "sim_instructions": op.sim_instructions,
                 "failures": op.failures, "counts": op.counts,
                 "fingerprint": op.fingerprint,
                 "content_hash": op.content_hash} for op in ops],
        "spans": [s.as_dict() for s in tracer.spans],
    }
    out_dir = OUT / "results" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the preset's seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("PARENT", "CHANGE"))
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare
        return compare(*args.compare, json.loads(BENCHMARK.read_text()))
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        with HostClock() as clock:
            run(args, started)
        print("ready " + json.dumps(clock.probes), flush=True)
        return 0
    return run(args, started)


if __name__ == "__main__":
    sys.exit(main())
