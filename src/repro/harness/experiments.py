"""Programmatic experiment runners.

Each function reproduces one of the paper's tables/figures and returns
a plain data structure; the pytest benchmarks and the
``python -m repro.experiments`` entry point are thin wrappers.  Useful
when you want the numbers without pytest in the loop::

    from repro.harness.experiments import figure5
    for row in figure5()["rows"]:
        print(row)
"""

import math

from repro.core import BoltOptions
from repro.harness.metrics import FIGURE6_METRICS, counter_reductions
from repro.harness.pipeline import (
    build_workload,
    measure,
    run_bolt,
    sample_profile,
    speedup,
)
from repro.profiling import SamplingConfig
from repro.workloads import FACEBOOK_NAMES, make_workload


def _experiment(workload, built, bolt_options=None):
    baseline = measure(built, fetch_heat=True)
    profile, _ = sample_profile(built)
    result = run_bolt(built, profile, bolt_options or BoltOptions())
    optimized = measure(result.binary, inputs=workload.inputs,
                        fetch_heat=True)
    assert optimized.output == baseline.output
    return baseline, optimized, result, profile


def figure5(names=FACEBOOK_NAMES, iterations=None):
    """BOLT speedups over the HFSort(+LTO for hhvm) baselines."""
    rows = []
    gains = []
    details = {}
    for name in names:
        overrides = {"iterations": iterations} if iterations else {}
        workload = make_workload(name, **overrides)
        built = build_workload(workload, lto=(name == "hhvm"),
                               hfsort_link="hfsort")
        baseline, optimized, result, _ = _experiment(workload, built)
        gain = speedup(baseline.counters.cycles, optimized.counters.cycles)
        gains.append(gain)
        rows.append((name, baseline.counters.cycles,
                     optimized.counters.cycles, gain))
        details[name] = (baseline, optimized, result)
    geomean = math.prod(1 + g for g in gains) ** (1 / len(gains)) - 1
    return {"rows": rows, "geomean": geomean, "details": details}


def figure6(detail=None):
    """Micro-architecture miss reductions for the HHVM analog."""
    if detail is None:
        workload = make_workload("hhvm")
        built = build_workload(workload, lto=True, hfsort_link="hfsort")
        baseline, optimized, _, _ = _experiment(workload, built)
    else:
        baseline, optimized, _ = detail
    return counter_reductions(baseline.counters, optimized.counters,
                              FIGURE6_METRICS)


def figures7and8(iterations=None):
    """The Clang/GCC build-configuration matrix."""
    overrides = {"iterations": iterations} if iterations else {}
    workload = make_workload("compiler", **overrides)

    def bolted(built):
        profile, _ = sample_profile(built)
        return run_bolt(built, profile).binary

    base = build_workload(workload)
    pgo = build_workload(workload, pgo=True)
    pgo_lto = build_workload(workload, pgo=True, lto=True)
    binaries = {
        "BOLT": bolted(base),
        "PGO": pgo.exe,
        "PGO+BOLT": bolted(pgo),
        "PGO+LTO": pgo_lto.exe,
        "PGO+LTO+BOLT": bolted(pgo_lto),
    }
    input_mixes = {"input1": workload.inputs, **workload.alt_inputs}
    table = {}
    for label, inputs in input_mixes.items():
        base_cycles = measure(base.exe, inputs=inputs).counters.cycles
        table[label] = {
            key: speedup(base_cycles,
                         measure(binary, inputs=inputs).counters.cycles)
            for key, binary in binaries.items()
        }
    return table


def figure11(iterations=None):
    """LBR vs non-LBR across optimization scopes, on the HHVM analog."""
    overrides = {"iterations": iterations} if iterations else {}
    workload = make_workload("hhvm", **overrides)
    built = build_workload(workload, lto=True, hfsort_link="hfsort")
    base = measure(built)
    lbr_profile, _ = sample_profile(built)
    nolbr_profile, _ = sample_profile(
        built, sampling=SamplingConfig(period=251, use_lbr=False))

    scopes = {
        "Functions": BoltOptions(reorder_blocks="none", split_functions=0,
                                 icp=False, inline_small=False, sctc=False,
                                 frame_opts=False, shrink_wrapping=False),
        "BBs": BoltOptions(reorder_functions="none"),
        "Both": BoltOptions(),
    }
    out = {}
    for scope, options in scopes.items():
        with_lbr = measure(run_bolt(built, lbr_profile, options).binary,
                           inputs=workload.inputs)
        without = measure(run_bolt(built, nolbr_profile, options).binary,
                          inputs=workload.inputs)
        out[scope] = (
            speedup(base.counters.cycles, with_lbr.counters.cycles),
            speedup(base.counters.cycles, without.counters.cycles),
        )
    return out


def table2(iterations=None):
    """Dyno-stats deltas over the baseline and over PGO+LTO."""
    overrides = {"iterations": iterations} if iterations else {}
    workload = make_workload("compiler", **overrides)

    def deltas(built):
        profile, _ = sample_profile(built)
        result = run_bolt(built, profile)
        return result.dyno_after.delta_vs(result.dyno_before)

    return {
        "over_baseline": deltas(build_workload(workload)),
        "over_pgo_lto": deltas(build_workload(workload, pgo=True, lto=True)),
    }
