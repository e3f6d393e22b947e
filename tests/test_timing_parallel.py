"""The PR-3 performance layer: pass/phase timing, parallel per-function
pass execution (byte-identical to serial), the fast CFG snapshot, and
the diagnostics routing of formerly-silent failure paths."""

import json

import pytest

from repro.belf import write_binary
from repro.compiler import BuildOptions, build_executable
from repro.core import BinaryContext, BoltOptions, optimize_binary
from repro.core._reference_kernels import (
    linetable_lookup_reference,
    snapshot_function_deepcopy,
)
from repro.core.cfg_builder import build_all_functions
from repro.core.discovery import discover_functions
from repro.core.passes.base import BinaryPass, PassManager
from repro.core.reports import dump_function, format_timing_table
from repro.core.validate import validate_execution
from repro.ir import InlinePolicy
from repro.isa import Op
from repro.profiling import SamplingConfig, profile_binary
from repro.uarch import run_binary

SRC = ("app", """
const array lut[8] = {3, 1, 4, 1, 5, 9, 2, 6};

func helper(x) { return x + lut[x % 8]; }

func spin(x) {
  switch (x % 8) {
    case 0: { return 10; } case 1: { return 11; }
    case 2: { return 12; } case 3: { return 13; }
    case 4: { return 14; } case 5: { return 15; }
    default: { return 0; }
  }
}

func work(i) { return helper(i) + spin(i); }

func main() {
  var i = 0;
  var total = 0;
  while (i < 500) {
    total = total + work(i);
    i = i + 1;
  }
  out total;
  return 0;
}
""")


@pytest.fixture(scope="module")
def baseline():
    exe = build_executable([SRC], BuildOptions(
        inline=InlinePolicy(max_size=6)), emit_relocs=True)[0]
    profile, _ = profile_binary(exe, sampling=SamplingConfig(period=43))
    return exe, run_binary(exe), profile


def _context(exe, options=None):
    context = BinaryContext(exe, options or BoltOptions())
    discover_functions(context)
    build_all_functions(context)
    return context


# -- timing subsystem --------------------------------------------------------


def test_time_opts_records_every_pass(baseline):
    exe, _, profile = baseline
    result = optimize_binary(exe, profile, BoltOptions(time_opts=True))
    timing = result.timing
    assert timing is not None and timing.passes
    names = [p.name for p in timing.passes]
    assert "reorder-bbs" in names and "reorder-functions" in names
    assert all(p.seconds >= 0 for p in timing.passes)
    assert all(p.functions is not None for p in timing.passes)
    table = format_timing_table(timing)
    assert "BOLT-INFO: pass timing" in table
    assert "reorder-bbs" in table
    assert table in result.summary()


def test_time_rewrite_records_phases_and_total(baseline):
    exe, _, profile = baseline
    result = optimize_binary(exe, profile, BoltOptions(time_rewrite=True))
    timing = result.timing
    assert timing is not None
    phases = [p.name for p in timing.phases]
    assert "build CFGs" in phases
    assert "optimization passes" in phases
    assert "emit and link" in phases
    assert "validate gate" in phases
    assert timing.total_seconds is not None and timing.total_seconds > 0
    assert not timing.passes  # -time-opts not requested


def test_timing_json_round_trips(baseline):
    exe, _, profile = baseline
    result = optimize_binary(
        exe, profile, BoltOptions(time_opts=True, time_rewrite=True))
    doc = json.loads(result.timing.to_json())
    assert doc["total_seconds"] > 0
    assert {p["name"] for p in doc["phases"]} >= {"build CFGs",
                                                  "emit and link"}
    assert all("seconds" in p for p in doc["passes"])


def test_timing_off_by_default(baseline):
    exe, _, profile = baseline
    result = optimize_binary(exe, profile, BoltOptions())
    assert result.timing is None


# -- parallel pass execution -------------------------------------------------


def test_threads_output_byte_identical(baseline):
    exe, cpu, profile = baseline
    serial = optimize_binary(exe, profile, BoltOptions(threads=1))
    parallel = optimize_binary(exe, profile, BoltOptions(threads=4))
    assert write_binary(serial.binary) == write_binary(parallel.binary)
    opt = run_binary(parallel.binary)
    assert opt.output == cpu.output and opt.exit_code == cpu.exit_code


class _ExplodingPass(BinaryPass):
    name = "exploding"

    def run_on_function(self, context, func):
        if func.name == "spin":
            del func.blocks[func.entry_label]  # corrupt, then fail
            raise RuntimeError("boom")
        return {"visited": 1}


def test_parallel_containment_matches_serial(baseline):
    exe, _, _ = baseline
    outcomes = {}
    for threads in (1, 4):
        context = _context(exe, BoltOptions(threads=threads))
        stats = PassManager([_ExplodingPass()]).run(context)
        spin = context.functions["spin"]
        assert not spin.is_simple  # demoted, not lost
        assert spin.blocks  # demote_to_raw rebuilt them from raw bytes
        outcomes[threads] = (
            stats,
            [d.render() for d in context.diagnostics],
            sorted(f.name for f in context.simple_functions()),
        )
    assert outcomes[1] == outcomes[4]


class _CorruptingPass(BinaryPass):
    """Leaves ``spin`` half-rewritten, then fails on it."""

    name = "corrupting"

    def run_on_function(self, context, func):
        if func.name != "spin":
            return {}
        assert func.jump_tables, "spin must dispatch through a jump table"
        labels = list(func.blocks)
        del func.blocks[labels[-1]]
        insn = func.blocks[func.entry_label].insns[0]
        insn.op, insn.size = Op.TRAP, 1
        table = func.jump_tables[0]
        table.entries[0] = table.entries[-1]
        func.analysis_facts["corrupting"] = {"half": "done"}
        raise RuntimeError("half-done rewrite")


def _function_bytes(binary, name):
    sym = binary.get_symbol(name)
    section = binary.section_at(sym.value)
    offset = sym.value - section.addr
    return bytes(section.data[offset : offset + sym.size])


def test_failed_pass_emits_original_bytes(baseline, monkeypatch):
    # Nothing is snapshotted before a pass: the function a pass left
    # half-rewritten is demoted straight from its raw bytes.
    import repro.core.rewriter as rewriter

    exe, cpu, profile = baseline
    pipeline = rewriter.build_pipeline

    def with_corrupting_pass(options):
        manager = pipeline(options)
        manager.passes.insert(0, _CorruptingPass())
        return manager

    monkeypatch.setattr(rewriter, "build_pipeline", with_corrupting_pass)
    outputs = []
    for threads in (1, 4):
        result = optimize_binary(exe, profile, BoltOptions(threads=threads))
        spin = result.context.functions["spin"]
        assert not spin.is_simple
        assert "corrupting" in spin.simple_violation
        assert not spin.jump_tables and not spin.analysis_facts
        assert any("half-done rewrite" in d.message
                   for d in result.diagnostics)
        assert (_function_bytes(result.binary, "spin")
                == _function_bytes(exe, "spin") == spin.raw_bytes)
        opt = run_binary(result.binary)
        assert opt.output == cpu.output and opt.exit_code == cpu.exit_code
        outputs.append(write_binary(result.binary))
    assert outputs[0] == outputs[1]


# -- fast snapshot (BinaryFunction.clone) ------------------------------------


def test_clone_matches_deepcopy_snapshot(baseline):
    exe, _, _ = baseline
    context = _context(exe)
    for func in context.simple_functions():
        fast, slow = func.clone(), snapshot_function_deepcopy(func)
        assert dump_function(fast) == dump_function(slow)
        assert fast.analysis_facts == slow.analysis_facts
        assert fast.raw_bytes == func.raw_bytes


def test_clone_isolates_mutations(baseline):
    exe, _, _ = baseline
    context = _context(exe)
    func = context.functions["work"]
    snap = func.clone()
    block = next(iter(func.blocks.values()))
    before = len(block.insns)
    block.insns.append(block.insns[0].copy())
    block.exec_count += 99
    func.analysis_facts.setdefault("x", []).append(1)
    snap_block = snap.blocks[block.label]
    assert len(snap_block.insns) == before
    assert snap_block.exec_count == block.exec_count - 99
    assert "x" not in snap.analysis_facts


def test_clone_preserves_jump_table_identity(baseline):
    exe, _, _ = baseline
    context = _context(exe)
    func = next(f for f in context.functions.values() if f.jump_tables)
    snap = func.clone()
    annotated = [insn.get_annotation("jump-table")
                 for block in snap.blocks.values()
                 for insn in block.insns
                 if insn.get_annotation("jump-table") is not None]
    assert annotated
    for table in annotated:
        # Annotations point at the *clone's* tables, not the original's.
        assert any(table is t for t in snap.jump_tables)
        assert not any(table is t for t in func.jump_tables)


# -- satellite fixes ---------------------------------------------------------


def test_linetable_cached_lookup_matches_reference(baseline):
    exe, _, _ = baseline
    table = exe.line_table
    assert table is not None and len(table)
    addrs = [e.addr for e in table]
    probes = addrs + [a + 1 for a in addrs] + [0, addrs[-1] + 1000]
    for addr in probes:
        assert table.lookup(addr) == linetable_lookup_reference(table, addr)
    table.add(addrs[-1] + 2000, "extra.bc", 1)  # invalidates the cache
    assert table.lookup(addrs[-1] + 2001) == ("extra.bc", 1)


def test_validate_execution_reports_skipped_reference(baseline, monkeypatch):
    exe, _, _ = baseline
    import repro.uarch

    def explode(*args, **kwargs):
        raise RuntimeError("reference fault")

    monkeypatch.setattr(repro.uarch, "run_binary", explode)
    from repro.core.diagnostics import Diagnostics

    diags = Diagnostics()
    assert validate_execution(exe, exe, diagnostics=diags) == []
    rendered = "\n".join(d.render() for d in diags)
    assert "execution gate skipped" in rendered
    assert "reference fault" in rendered


def test_passthrough_failure_is_reported(baseline, monkeypatch):
    """The last degradation rung must *say* when it could not rebuild
    its reporting state (this used to be a silent ``except: pass``)."""
    from repro.core import rewriter

    exe, _, _ = baseline

    def explode(context):
        raise RuntimeError("discovery exploded")

    monkeypatch.setattr(rewriter, "discover_functions", explode)
    result = rewriter._passthrough_result(exe, None, BoltOptions())
    assert result.degraded == "passthrough"
    assert result.binary is exe
    rendered = "\n".join(d.render() for d in result.diagnostics)
    assert "could not rebuild reporting state" in rendered
    assert "discovery exploded" in rendered
