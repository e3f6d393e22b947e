"""Golden counters: whole-workload snapshots of the shared hardware model.

``test_engine_equivalence.py`` pins the block engine against
``ReferenceCPU``, but both engines drive the same ``Cache``/``TLB``/
``Memory``/``BranchPredictor`` objects and the same ``_miss_path``, so a
change to the shared model moves both sides together and the oracle
cannot see it.  This file pins the model itself: every workload preset
(few iterations), two cache configurations and all three sampling
events are run, and the result must equal ``golden_counters.json``:

* ``Counters.as_dict()``, program output and exit code;
* a sha256 of ``Sampler.state()`` (the sample stream, with LBR);
* sha256s of ``bp.state()``, every cache's sets and every TLB's pages;
* each model's ``.accesses``/``.misses``.

The block engine runs every case; ``ReferenceCPU`` runs the ``mini``
cases.  A model change that is *meant* to move a counter regenerates
the fixture with ``PYTHONPATH=src python tests/test_golden_counters.py``
and says so in the change description.
"""

import hashlib
import json
import os

import pytest

from repro.harness import build_workload
from repro.profiling import Sampler, SamplingConfig
from repro.uarch import Machine, UarchConfig
from repro.uarch.cpu import CPU
from repro.workloads import PRESETS, make_workload

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_counters.json")

ITERATIONS = 20

CONFIGS = {
    "default": {},
    "l2+prefetch": {"l2_size": 16384, "prefetch_next_line": True},
}

SAMPLINGS = {
    "none": None,
    "cycles": SamplingConfig("cycles", period=97, skid=0, use_lbr=True),
    "instructions": SamplingConfig("instructions", period=97, skid=1,
                                   use_lbr=True),
    "taken-branches": SamplingConfig("taken-branches", period=97, skid=0,
                                     use_lbr=True),
}

#: Presets on which ReferenceCPU must reproduce the fixture too.
REFERENCE_PRESETS = ("mini",)


def _sha(obj):
    return hashlib.sha256(
        json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def _case_ids():
    return [(preset, config, sampling)
            for preset in sorted(PRESETS)
            for config in CONFIGS
            for sampling in SAMPLINGS]


_BUILT = {}


def _built(preset):
    if preset not in _BUILT:
        _BUILT[preset] = build_workload(
            make_workload(preset, iterations=ITERATIONS))
    return _BUILT[preset]


def snapshot(preset, config, sampling, engine):
    """Everything the shared model leaves behind after one run."""
    built = _built(preset)
    machine = Machine(built.exe)
    for name, values in built.workload.inputs.items():
        machine.poke_array(name, values)
    sampling_cfg = SAMPLINGS[sampling]
    sampler = Sampler(sampling_cfg) if sampling_cfg is not None else None
    cpu = CPU(machine, config=UarchConfig(**CONFIGS[config], engine=engine),
              sampler=sampler)
    exit_code = cpu.run(5_000_000)
    caches = {"l1i": cpu.l1i, "l1d": cpu.l1d, "llc": cpu.llc}
    if cpu.l2 is not None:
        caches["l2"] = cpu.l2
    tlbs = {"itlb": cpu.itlb, "dtlb": cpu.dtlb}
    return {
        "counters": cpu.counters.as_dict(),
        "output": list(cpu.output),
        "exit_code": exit_code,
        "samples": None if sampler is None else _sha(sampler.state()),
        "bp": _sha(cpu.bp.state()),
        "cache_sets": {name: _sha(c.sets) for name, c in caches.items()},
        "tlb_pages": {name: _sha([list(t.pages), t._last])
                      for name, t in tlbs.items()},
        "models": {name: [unit.accesses, unit.misses]
                   for name, unit in sorted({**caches, **tlbs}.items())},
    }


def _key(preset, config, sampling):
    return f"{preset}/{config}/{sampling}"


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


def _assert_matches(got, want):
    if got["counters"] != want["counters"]:
        diff = {f: (want["counters"][f], got["counters"][f])
                for f in want["counters"]
                if got["counters"][f] != want["counters"][f]}
        pytest.fail(f"counters moved (golden, now): {diff}")
    for field in want:
        assert got[field] == want[field], f"{field} moved"


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in _case_ids())


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_block_engine_matches_golden(golden, preset):
    for config in CONFIGS:
        for sampling in SAMPLINGS:
            _assert_matches(snapshot(preset, config, sampling, "block"),
                            golden[_key(preset, config, sampling)])


@pytest.mark.parametrize("preset", REFERENCE_PRESETS)
def test_reference_engine_matches_golden(golden, preset):
    for config in CONFIGS:
        for sampling in SAMPLINGS:
            _assert_matches(snapshot(preset, config, sampling, "ref"),
                            golden[_key(preset, config, sampling)])


def main():
    golden = {_key(*case): snapshot(*case, "block") for case in _case_ids()}
    with open(FIXTURE, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
