"""Simulation throughput (PR 5): the block-cached execution engine.

Records ``BENCH_pr5.json`` at the repo root:

* **Simulated MIPS** — simulated million-instructions-per-second of
  host wall time, block engine vs the preserved reference interpreter,
  on the compiler workload and a server workload (proxygen), each with
  and without hardware-style sampling.  Outputs and counters are
  asserted identical run to run (the correctness side is pinned by
  ``tests/test_engine_equivalence.py``).
* **End-to-end** — the wall time of a full experiment leg (baseline
  measure -> sample -> BOLT -> optimized measure) under each engine.

Acceptance: >= 3x simulated-instruction throughput on the compiler
workload.

Run with::

    REPRO_BENCH_SCALE=0.25 pytest benchmarks/test_engine_speed.py -m perf
"""

import json
import pathlib
import time

import pytest

from conftest import SCALE, print_table, scaled
from repro.core import BoltOptions
from repro.harness import build_workload, measure, run_bolt, sample_profile
from repro.harness.metrics import simulated_mips
from repro.profiling import SamplingConfig
from repro.uarch import UarchConfig

pytestmark = pytest.mark.perf

_BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_pr5.json"
_RESULTS = {}

#: Fresh-process measurement would be ideal; within one process the
#: shared per-binary trace cache makes later block runs *faster*, so
#: measuring the first (cold) run is the conservative choice.
_SAMPLING = SamplingConfig("cycles", period=997, skid=0, use_lbr=True)


def _record(section, payload):
    _RESULTS[section] = payload
    doc = {"scale": SCALE, **_RESULTS}
    _BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n")


def _timed_run(built, engine, sampling=None):
    t0 = time.perf_counter()
    if sampling is None:
        cpu = measure(built, config=UarchConfig(engine=engine))
    else:
        _, cpu = sample_profile(built, sampling=sampling,
                                config=UarchConfig(engine=engine))
    wall = time.perf_counter() - t0
    return cpu, wall


def test_simulated_mips():
    rows, payload = [], {}
    speedups = {}
    for name in ("compiler", "proxygen"):
        built = build_workload(scaled(name))
        for mode, sampling in (("plain", None), ("sampled", _SAMPLING)):
            ref_cpu, ref_wall = _timed_run(built, "ref", sampling)
            blk_cpu, blk_wall = _timed_run(built, "block", sampling)
            # Throughput must not come at the cost of exactness.
            assert blk_cpu.counters == ref_cpu.counters, \
                blk_cpu.counters.diff(ref_cpu.counters)
            assert blk_cpu.output == ref_cpu.output
            ref_mips = simulated_mips(ref_cpu.counters, ref_wall)
            blk_mips = simulated_mips(blk_cpu.counters, blk_wall)
            gain = ref_wall / max(blk_wall, 1e-9)
            key = f"{name}/{mode}"
            speedups[key] = gain
            rows.append((key, ref_cpu.counters.instructions,
                         f"{ref_mips:.2f}", f"{blk_mips:.2f}",
                         f"{gain:.2f}x"))
            payload[key] = {
                "instructions": ref_cpu.counters.instructions,
                "reference_s": round(ref_wall, 4),
                "block_s": round(blk_wall, 4),
                "reference_mips": round(ref_mips, 3),
                "block_mips": round(blk_mips, 3),
                "speedup": round(gain, 2),
            }
    print_table(
        "Simulated instruction throughput (reference vs block engine)",
        ("workload", "instructions", "ref MIPS", "block MIPS", "speedup"),
        rows)
    _record("simulated_mips", payload)
    for key, gain in speedups.items():
        assert gain > 1.0, f"{key}: block engine slower than reference"
    # PR 5 acceptance gate.
    assert speedups["compiler/plain"] >= 3.0, (
        f"acceptance: expected >= 3x on compiler, "
        f"got {speedups['compiler/plain']:.2f}x")


def test_end_to_end_experiment_wall():
    """One full experiment leg per engine: how much of EXPERIMENTS'
    wall time the simulation speedup translates into."""
    workload = scaled("compiler")
    built = build_workload(workload)

    def leg(engine):
        t0 = time.perf_counter()
        config = UarchConfig(engine=engine)
        baseline = measure(built, fetch_heat=True, config=config)
        profile, _ = sample_profile(built, config=config)
        result = run_bolt(built, profile, BoltOptions())
        optimized = measure(result.binary, inputs=workload.inputs,
                            fetch_heat=True, config=config)
        wall = time.perf_counter() - t0
        assert optimized.output == baseline.output
        return baseline, optimized, wall

    base_ref, opt_ref, ref_wall = leg("ref")
    base_blk, opt_blk, blk_wall = leg("block")
    assert base_blk.counters == base_ref.counters
    assert opt_blk.counters == opt_ref.counters

    gain = ref_wall / max(blk_wall, 1e-9)
    print_table(
        f"End-to-end experiment leg, compiler workload (scale {SCALE})",
        ("engine", "wall"),
        [("reference", f"{ref_wall:.2f}s"),
         ("block", f"{blk_wall:.2f}s"),
         ("speedup", f"{gain:.2f}x")])
    _record("end_to_end", {
        "workload": "compiler",
        "reference_s": round(ref_wall, 3),
        "block_s": round(blk_wall, 3),
        "speedup": round(gain, 2),
    })
    assert gain > 1.0
