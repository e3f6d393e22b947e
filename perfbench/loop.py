"""The benchmark's workloads and its one loop op.

One op drives the whole BOLT loop from outside, through the public API
of each layer, on binaries built fresh for the op (so the simulator's
per-binary trace cache starts cold, as it does for a user):

    compile_program -> link -> run_binary (baseline measure)
    -> per host: run_binary under a Sampler -> aggregate_samples
       -> write_fdata
    -> aggregate_shards (merge-fdata) -> optimize_binary
    -> run_binary (optimized measure)

The three workloads share this shape and differ in preset, run length,
host count and profile age.  Each workload's program is its preset's
generated program run on the preset's input arrays; the workload seed
draws the profile collection: the sampling period of every host and the
order in which the alternative input mixes are dealt to the hosts.  A
new program or new input arrays per seed would move ``speedup_pct`` by
5-25% from seed to seed, more than a bound that still catches a worse
layout.

Hosts are dealt the input mixes round-robin, main mix first.  Every
third host runs the previous release, staggered so that each mix is
sampled on both releases and the main mix always on exactly one
previous-release host of four.
"""

import random
import time
import traceback

from repro.belf import read_binary, write_binary
from repro.compiler import BuildOptions, compile_program
from repro.core import BoltOptions, optimize_binary
from repro.lang import parse_module
from repro.lang.interp import Interpreter
from repro.linker import link
from repro.profiling import (
    AddressMapper,
    Sampler,
    SamplingConfig,
    aggregate_samples,
    aggregate_shards,
    write_fdata,
)
from repro.uarch import run_binary
from repro.workloads.presets import PRESETS
from repro.workloads.synth import generate_workload

from spans import NULL_TRACER

MAX_INSTRUCTIONS = 80_000_000

#: Sampling periods are drawn from distinct primes, so any two hosts'
#: periods are coprime and each host samples a different phase of the
#: same service.  The fleet samples densely: at 250-340 instructions per
#: sample the merged profile's layout flips with each period draw,
#: moving speedup_pct by 10%; at 100-170 it no longer does.
SPARSE_PERIODS = (241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
                  311, 313, 317, 331, 337)
DENSE_PERIODS = (97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151,
                 157, 163, 167, 173)

#: The previous release: the same program with every worker body 15%
#: longer, so its profile only partly matches the current build.
STALE_BODY_SCALE = 1.15


class WorkloadDef:
    def __init__(self, preset, iterations, hosts, periods, stale_every, why):
        self.preset = preset
        self.iterations = iterations
        self.hosts = hosts
        self.periods = periods
        self.stale_every = stale_every    # 0: every host runs this release
        self.why = why


WORKLOADS = {
    "rewrite-heavy": WorkloadDef(
        "compiler", iterations=40, hosts=1, periods=SPARSE_PERIODS,
        stale_every=0,
        why="largest binary (304 functions) with a short run: "
            "optimize_binary and its lint/validate gates dominate the op, "
            "simulation stays small"),
    "sim-heavy": WorkloadDef(
        "proxygen", iterations=1000, hosts=1, periods=SPARSE_PERIODS,
        stale_every=0,
        why="small switch-dispatch binary run long on bursty input: "
            "run_binary dominates the op; the no-change side for BOLT "
            "and gate work"),
    "fleet-stale": WorkloadDef(
        "multifeed1", iterations=100, hosts=12, periods=DENSE_PERIODS,
        stale_every=3,
        why="12 hosts sample with coprime periods and rotated input "
            "mixes, every third on the previous release: sampling, "
            ".fdata and stale merge dominate the op"),
}


class Host:
    def __init__(self, name, period, mix, stale):
        self.name = name
        self.period = period
        self.mix = mix          # key into Setup.mixes
        self.stale = stale      # runs the previous release


class Setup:
    """Everything an op needs that does not depend on the op itself."""

    def __init__(self, name, seed):
        spec = WORKLOADS[name]
        preset = PRESETS[spec.preset].copy(iterations=spec.iterations)
        self.name = name
        self.seed = seed
        self.program = generate_workload(preset)
        self.mixes = {"main": self.program.inputs}
        self.mixes.update(self.program.alt_inputs)

        rng = random.Random(f"{name}:{seed}")
        periods = rng.sample(spec.periods, spec.hosts)
        alternates = sorted(self.program.alt_inputs)
        rng.shuffle(alternates)
        labels = ["main"] + alternates
        every = spec.stale_every
        self.hosts = [
            Host(f"host{h:02d}", periods[h], labels[h % len(labels)],
                 bool(every) and (h + h // every) % every == every - 1)
            for h in range(spec.hosts)]

        self.previous = None    # the previous release, as BELF bytes
        if any(host.stale for host in self.hosts):
            self.previous_program = generate_workload(preset.copy(
                worker_body_scale=preset.worker_body_scale
                * STALE_BODY_SCALE))
            objects, libs, _ = compile_workload(self.previous_program)
            self.previous = write_binary(
                link(objects, libs=libs, name=f"{spec.preset}-prev",
                     emit_relocs=True))

    def describe(self):
        return {"preset": WORKLOADS[self.name].preset,
                "iterations": WORKLOADS[self.name].iterations,
                "why": WORKLOADS[self.name].why,
                "hosts": [{"name": h.name, "period": h.period, "mix": h.mix,
                           "stale": h.stale} for h in self.hosts]}


def compile_workload(workload, tracer=NULL_TRACER):
    """(application objects, library objects, functions compiled)."""
    options = BuildOptions()
    with tracer.span("compile_program", "compiler"):
        compiled = compile_program(workload.sources, options)
    objects = list(compiled.objects)
    if workload.asm_sources:
        asm = BuildOptions(codegen=options.codegen.copy(frame_info=False))
        with tracer.span("compile_program", "compiler"):
            objects += compile_program(workload.asm_sources, asm).objects
    with tracer.span("compile_program", "compiler"):
        libs = compile_program(workload.lib_sources, options).objects
    functions = sum(len(module.functions) for module in compiled.ir_modules)
    return objects, libs, functions


class OpResult:
    """What one op did and measured; ``failures`` is empty when it passed."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.failures = []
        self.loop_s = None
        self.bolt_s = None
        self.sim_seconds = 0.0
        self.sim_instructions = 0
        # Wall intervals (perf_counter start, end) of the op, of its
        # optimize_binary call and of its run_binary calls.
        self.interval = None
        self.bolt_interval = None
        self.sim_intervals = []
        self.outputs = []       # [(release, mix, output, exit code)]
        self.content_hash = None
        self.fingerprint = None  # deterministic metrics, equal on every
                                 # op of one seed and one program
        self.counts = {}         # per-layer counts for the traced report

    @property
    def ok(self):
        return not self.failures


def run_op(setup, tracer, op_id):
    """One loop op; exceptions become failures, never escape."""
    op = OpResult(op_id)
    started = time.perf_counter()
    try:
        with tracer.op(op_id):
            _loop(setup, tracer, op)
    except Exception as exc:  # the op boundary: record and keep running
        op.failures.append(f"exception: {type(exc).__name__}: {exc}")
        traceback.print_exc()
    op.interval = (started, time.perf_counter())
    op.loop_s = op.interval[1] - started
    return op


def _run(tracer, op, layer, binary, inputs, sampler=None):
    started = time.perf_counter()
    with tracer.span("run_binary", layer):
        cpu = run_binary(binary, inputs=inputs, sampler=sampler,
                         max_instructions=MAX_INSTRUCTIONS)
    ended = time.perf_counter()
    op.sim_intervals.append((started, ended))
    op.sim_seconds += ended - started
    op.sim_instructions += cpu.counters.instructions
    return cpu


def _loop(setup, tracer, op):
    program = setup.program
    counts = op.counts
    objects, libs, counts["compiler.functions"] = compile_workload(
        program, tracer)
    with tracer.span("link", "linker"):
        exe = link(objects, libs=libs, name=program.spec.name,
                   emit_relocs=True)
    counts["linker.text_bytes"] = exe.text_size()

    main = setup.mixes["main"]
    base = _run(tracer, op, "uarch", exe, main)
    op.outputs.append(("current", "main", list(base.output), base.exit_code))

    shards = []
    samples = sample_instructions = fdata_bytes = 0
    for host in setup.hosts:
        if host.stale:
            with tracer.span("read_binary", "belf.read"):
                binary = read_binary(setup.previous)
        else:
            binary = exe
        sampler = Sampler(SamplingConfig(period=host.period))
        cpu = _run(tracer, op, "profiling.sample", binary,
                   setup.mixes[host.mix], sampler=sampler)
        op.outputs.append(("previous" if host.stale else "current",
                           host.mix, list(cpu.output), cpu.exit_code))
        samples += len(sampler.samples)
        sample_instructions += cpu.counters.instructions
        with tracer.span("aggregate_samples", "profiling.fdata"):
            profile = aggregate_samples(
                sampler.samples, AddressMapper(binary),
                build_id=binary.content_hash())
        with tracer.span("write_fdata", "profiling.fdata"):
            text = write_fdata(profile)
        fdata_bytes += len(text)
        shards.append((host.name, text))
    counts["profiling.sample.samples"] = samples
    counts["profiling.sample.instructions"] = sample_instructions
    counts["profiling.fdata.bytes"] = fdata_bytes

    with tracer.span("aggregate_shards", "profiling.merge"):
        merged = aggregate_shards(shards, binary=exe, threads=1)
    counts.update(merge_counts(merged))

    bolt_options = BoltOptions(threads=1, time_opts=tracer.enabled,
                               time_rewrite=tracer.enabled)
    started = time.perf_counter()
    with tracer.span("optimize_binary", "core.optimize") as bolt_span:
        result = optimize_binary(exe, merged.profile, bolt_options)
    op.bolt_interval = (started, time.perf_counter())
    op.bolt_s = op.bolt_interval[1] - started
    if result.timing is not None:
        tracer.add_timing(bolt_span, result.timing)
    counts.update(core_counts(result))

    optimized = _run(tracer, op, "uarch", result.binary, main)

    op.content_hash = result.binary.content_hash()
    op.fingerprint = {
        "speedup_pct": speedup_pct(base.counters.cycles,
                                   optimized.counters.cycles),
        "hot_text_bytes": result.hot_text_size,
        "uarch.base": base.counters.as_dict(),
        "uarch.opt": optimized.counters.as_dict(),
        "core": {k: v for k, v in counts.items()
                 if k.startswith(("core.", "analysis."))},
    }
    counts["uarch.plain_instructions"] = (base.counters.instructions
                                          + optimized.counters.instructions)

    if (optimized.output, optimized.exit_code) != (base.output,
                                                   base.exit_code):
        op.failures.append("optimized output or exit code differs from "
                           "the baseline run")
    if result.degraded is not None:
        op.failures.append(f"rewrite degraded to {result.degraded}")
    errors = result.diagnostics.errors + merged.diagnostics.errors
    if errors:
        op.failures.append(f"{len(errors)} BOLT-ERROR diagnostic(s), first: "
                           f"{errors[0].render()}")


def speedup_pct(base_cycles, opt_cycles):
    return (base_cycles / opt_cycles - 1.0) * 100.0


def core_counts(result):
    context = result.context
    functions = list(context.functions.values())
    simple = [f for f in functions if f.is_simple]
    profiled = [f for f in simple if f.has_profile]
    matches = [f.profile_match for f in profiled
               if f.profile_match is not None]
    warnings = result.diagnostics.warnings
    demoted = {d.function for d in warnings + result.diagnostics.errors
               if "demoted" in d.message}
    taken = None
    if result.dyno_before is not None and result.dyno_after is not None:
        taken = result.dyno_after.delta_vs(
            result.dyno_before).get("taken_branches")
    return {
        "core.functions": len(functions),
        "core.simple": len(simple),
        "core.profiled": len(profiled),
        "core.demoted": len(demoted),
        "core.warnings": len(warnings),
        "core.errors": len(result.diagnostics.errors),
        "core.profile_match": sum(matches) / len(matches) if matches else 0.0,
        "core.hot_text_bytes": result.hot_text_size,
        "core.cold_text_bytes": result.cold_text_size,
        "core.dyno.taken_branches_delta": taken or 0.0,
        "analysis.lint_demotions": sum(
            1 for d in warnings if d.component.startswith("lint:")),
    }


def merge_counts(merged):
    report = merged.report()
    matched = total = stale_matched = stale_total = 0
    for shard in merged.shards:
        if shard.match is None:
            continue
        matched += shard.match["matched"]
        total += shard.match["total"]
        if shard.stale:
            stale_matched += shard.match["matched"]
            stale_total += shard.match["total"]
    return {
        "profiling.merge.shards": len(merged.shards),
        "profiling.merge.branch_records": report["merged"]["branch_records"],
        "profiling.merge.stale_shards": report["stale_shards"],
        "profiling.merge.dropped_lines": report["dropped_lines"],
        "profiling.merge.match_records": total,
        "profiling.merge.match_quality": matched / total if total else 0.0,
        "profiling.merge.stale_match_quality": (
            stale_matched / stale_total if stale_total else 0.0),
    }


def reference_outputs(setup, keys):
    """(output, exit code) for each (release, mix) from the BC
    interpreter, which shares no code with the compiler or simulator."""
    programs = {"current": setup.program}
    if setup.previous is not None:
        programs["previous"] = setup.previous_program
    expected = {}
    for release, mix in sorted(keys):
        program = programs[release]
        interp = Interpreter(
            [parse_module(text, name)
             for name, text in (program.sources + program.asm_sources
                                 + program.lib_sources)],
            max_steps=MAX_INSTRUCTIONS)
        for link_name, values in setup.mixes[mix].items():
            module, array = link_name.split("::")
            interp.set_array(module, array, values)
        exit_code = interp.run("main")
        expected[release, mix] = (interp.output, exit_code)
    return expected
