"""Fault-injection robustness: every corruption in ``repro.faults``
must go through ``optimize_binary`` without aborting the run, demote
(or drop) only the corrupted inputs, and leave the rewritten binary
executing identically on the uarch simulator.
"""

import pytest

from repro.core import BoltOptions, StrictModeError, optimize_binary
from repro.faults import (
    BAD_OPCODE,
    BINARY_FAULTS,
    PROFILE_FAULTS,
    inject_binary_fault,
    inject_profile_fault,
    unexecuted_functions,
)
from repro.harness import build_workload, measure, sample_profile
from repro.profiling import SamplingConfig
from repro.uarch import run_binary
from repro.workloads import WorkloadSpec, generate_workload

pytestmark = pytest.mark.faults

MAX_INSNS = 20_000_000


@pytest.fixture(scope="module")
def rig():
    """One workload, built + profiled once for the whole module."""
    spec = WorkloadSpec("faultrig", seed=7, modules=3, workers_per_module=5,
                        leaves_per_module=3, iterations=60,
                        switch_funcs_per_module=1, fptr_funcs_per_module=1,
                        cold_modulus=17)
    workload = generate_workload(spec)
    built = build_workload(workload)
    baseline = measure(built, max_instructions=MAX_INSNS)
    profile, _ = sample_profile(built, sampling=SamplingConfig(period=83),
                                max_instructions=MAX_INSNS)
    cold = unexecuted_functions(built.exe, inputs=workload.inputs,
                                max_instructions=MAX_INSNS)
    return {
        "workload": workload,
        "exe": built.exe,
        "profile": profile,
        "output": baseline.output,
        "cold": cold,
    }


def _quarter(names, exe):
    """~25% of all functions, all drawn from the never-executed set."""
    total = len([s for s in exe.functions() if s.size > 0])
    want = max(1, total // 4)
    return names[:want]


def _undecodable(binary, names):
    """The subset of ``names`` whose bodies no longer disassemble."""
    from repro.isa import decode_stream

    bad = []
    for sym in binary.functions():
        if sym.link_name() not in set(names) or sym.size == 0:
            continue
        section = binary.section_at(sym.value)
        if section is None:
            bad.append(sym.link_name())
            continue
        start = sym.value - section.addr
        try:
            decode_stream(section.data, start, start + sym.size,
                          base_address=sym.value)
        except Exception:
            bad.append(sym.link_name())
    return bad


# Faults that leave every *executed* byte intact when targeted at
# never-executed functions — output equivalence vs the clean baseline
# is assertable.  truncate-section is different: the cut removes every
# function past the lowest victim, executed or not, so the corrupted
# input itself cannot reproduce the baseline; it gets its own test.
EQUIV_FAULTS = tuple(k for k in BINARY_FAULTS if k != "truncate-section")


@pytest.mark.parametrize("kind", EQUIV_FAULTS)
def test_binary_fault_contained(rig, kind):
    targets = _quarter(rig["cold"], rig["exe"])
    assert targets, "workload must have cold functions to corrupt"
    corrupted, affected = inject_binary_fault(rig["exe"], kind,
                                              targets=targets)
    assert affected

    result = optimize_binary(corrupted, rig["profile"], BoltOptions())

    # The run completed and did not silently eat the corruption.  Of
    # the corrupted functions, the *detectably* broken ones (body no
    # longer decodes — a shrunk symbol size can coincidentally land on
    # an instruction boundary and be indistinguishable from valid
    # code) must be conservatively skipped.
    funcs = result.context.functions
    if kind in ("garbage-text", "wrong-symbol-size"):
        expect = _undecodable(corrupted, affected)
        if kind == "garbage-text":
            assert set(expect) == set(affected)
        demoted = {name for name, f in funcs.items() if not f.is_simple}
        missing = {name for name in expect if name not in funcs}
        assert all(name in demoted or name in missing for name in expect), (
            f"corrupted functions not conservatively skipped: "
            f"{[n for n in expect if n not in demoted | missing]}")

    # Only corruption-related functions lost their optimized status:
    # everything else still came through as simple.
    clean_result = optimize_binary(rig["exe"], rig["profile"], BoltOptions())
    clean_simple = {name for name, f in clean_result.context.functions.items()
                    if f.is_simple}
    over_demoted = {
        name for name in clean_simple - set(affected)
        if name in funcs and not funcs[name].is_simple}
    assert not over_demoted, f"healthy functions demoted: {over_demoted}"

    # Output equivalence: corruption only touched never-executed
    # functions, so the rewritten binary must reproduce the baseline.
    cpu = run_binary(result.binary, inputs=rig["workload"].inputs,
                     max_instructions=MAX_INSNS)
    assert cpu.output == rig["output"]


def test_truncated_section_contained(rig):
    """A truncated .text destroys every function past the cut; the
    pipeline must still finish and demote or drop everything damaged —
    it cannot repair the binary, only avoid making it worse."""
    targets = _quarter(rig["cold"], rig["exe"])
    corrupted, affected = inject_binary_fault(rig["exe"], "truncate-section",
                                              targets=targets)
    assert affected

    result = optimize_binary(corrupted, rig["profile"], BoltOptions())
    assert result.binary is not None
    funcs = result.context.functions
    demoted = {name for name, f in funcs.items() if not f.is_simple}
    missing = {name for name in affected if name not in funcs}
    assert all(name in demoted or name in missing for name in affected), (
        f"truncated functions not conservatively skipped: "
        f"{[n for n in affected if n not in demoted | missing]}")
    # The entry lies past the cut: a clean rewrite error, not a crash.
    assert not any("KeyError" in d.message for d in result.diagnostics)


#: The validation gate's decision and the shipped binary's build id for
#: each binary fault class, per tier.  The structural tier holds the
#: output only to what the input satisfied, so a contained corruption
#: ships (in place when an undecodable body cannot be relocated); the
#: static tier lints the input first and returns every corrupted input
#: unchanged.
TIER_DECISIONS = {
    ("garbage-text", "structural"): ("in-place", "7683d025f286a245"),
    ("truncate-section", "structural"): ("passthrough", "5a297cbd2d0c3e2a"),
    ("bogus-reloc", "structural"): (None, "e4db0414e0c72fd2"),
    ("wrong-symbol-size", "structural"): ("in-place", "7577f1b7bc690a8f"),
    ("garbage-text", "static"): ("passthrough", "a0be46c3b15951e4"),
    ("truncate-section", "static"): ("passthrough", "5a297cbd2d0c3e2a"),
    ("bogus-reloc", "static"): ("passthrough", "c7d96e50f417f87f"),
    ("wrong-symbol-size", "static"): ("passthrough", "cc6407037234142e"),
}


@pytest.mark.parametrize("tier", ("structural", "static"))
@pytest.mark.parametrize("kind", BINARY_FAULTS)
def test_tier_decision_pinned(rig, kind, tier):
    targets = _quarter(rig["cold"], rig["exe"])
    corrupted, _ = inject_binary_fault(rig["exe"], kind, targets=targets)
    result = optimize_binary(corrupted, rig["profile"],
                             BoltOptions(validate_output=tier))
    degraded, build_id = TIER_DECISIONS[kind, tier]
    assert result.degraded == degraded
    assert result.binary.content_hash() == build_id


# Corruptions of an emitted binary, one per structural rule.


def _entry_outside_code(out, result):
    out.entry = next(s.addr for s in out.sections.values()
                     if not s.is_exec and s.addr)


def _symbol_past_section_end(out, result):
    sym = next(s for s in out.symbols if s.link_name() == "main")
    sym.size = out.section_at(sym.value).end - sym.value + 16
    out.invalidate_symbol_cache()


def _garbage_first_instruction(out, result):
    frag = next(f for f in result.fragments.values()
                if not f.raw and not f.is_cold)
    section = out.section_at(frag.address)
    section.data[frag.address - section.addr] = BAD_OPCODE


def _dead_landing_pad(out, result):
    """Stretch a function over the alignment padding after its last
    terminator and register a landing pad there: the rebuilt CFG has a
    landing-pad block nothing reaches."""
    from repro.belf import CallSiteRecord, FrameRecord, SymbolType

    syms = sorted((s for s in out.symbols
                   if s.type == SymbolType.FUNC and s.section == ".text"
                   and s.size > 0), key=lambda s: s.value)
    sym, nxt = next((s, n) for s, n in zip(syms, syms[1:])
                    if n.value > s.value + s.size)
    name = sym.link_name()
    record = out.frame_records.setdefault(name, FrameRecord(name))
    record.callsites.append(CallSiteRecord(0, 1, sym.size))
    sym.size = nxt.value - sym.value
    out.invalidate_symbol_cache()


OUTPUT_CORRUPTIONS = {
    "BL101": _entry_outside_code,
    "BL103": _symbol_past_section_end,
    "BL102": _garbage_first_instruction,
    "BL007": _dead_landing_pad,
}


@pytest.mark.parametrize("rule, suppress", [
    *(pytest.param(rule, (), id=rule) for rule in OUTPUT_CORRUPTIONS),
    *(pytest.param(rule, ("BL102", "BL007"), id=f"{rule}-suppressed")
      for rule in ("BL102", "BL007")),
])
def test_structural_tier_rejects_with_rule_id(rig, monkeypatch, rule,
                                              suppress):
    """A corrupt emitted binary fails the default (structural) gate
    under its rule ID, and the ladder ships the next rung; lint
    suppressions do not lift a structural finding."""
    from repro.core import rewriter

    original = rewriter._rewrite
    attempts = []

    def corrupting(context, result):
        out = original(context, result)
        if not attempts:  # only the preferred (relocations) attempt
            OUTPUT_CORRUPTIONS[rule](out, result)
        attempts.append(out)
        return out

    monkeypatch.setattr(rewriter, "_rewrite", corrupting)
    result = optimize_binary(rig["exe"], rig["profile"],
                             BoltOptions(lint_suppress=suppress))
    assert result.degraded == "in-place"
    rejections = [d.message for d in result.diagnostics.errors
                  if d.component == "validate"]
    assert rejections
    assert all(f": {rule}" in message for message in rejections), rejections
    cpu = run_binary(result.binary, inputs=rig["workload"].inputs,
                     max_instructions=MAX_INSNS)
    assert cpu.output == rig["output"]


@pytest.mark.parametrize("kind", PROFILE_FAULTS)
def test_profile_fault_contained(rig, kind):
    bad_profile = inject_profile_fault(rig["profile"], kind, fraction=0.5)

    result = optimize_binary(rig["exe"], bad_profile, BoltOptions())

    # The pipeline survived and still emitted a correct binary.
    cpu = run_binary(result.binary, inputs=rig["workload"].inputs,
                     max_instructions=MAX_INSNS)
    assert cpu.output == rig["output"]


def test_quarter_garbage_end_to_end(rig):
    """The acceptance scenario: 25% of functions fault-injected, the
    pipeline completes, demotes only the corrupted functions, and the
    output is execution-identical."""
    targets = _quarter(rig["cold"], rig["exe"])
    corrupted, affected = inject_binary_fault(rig["exe"], "garbage-text",
                                              targets=targets)
    result = optimize_binary(corrupted, rig["profile"], BoltOptions())
    funcs = result.context.functions
    for name in affected:
        assert not funcs[name].is_simple
    diags = result.diagnostics
    assert result.binary is not None
    cpu = run_binary(result.binary, inputs=rig["workload"].inputs,
                     max_instructions=MAX_INSNS)
    assert cpu.output == rig["output"]
    assert cpu.exit_code == 0
    # Summary reports what happened instead of hiding it.
    assert "conservatively skipped" in result.summary()
    assert diags is not None


def test_strict_mode_raises_on_fault(rig):
    targets = _quarter(rig["cold"], rig["exe"])
    corrupted, _ = inject_binary_fault(rig["exe"], "garbage-text",
                                       targets=targets)
    bad_profile = inject_profile_fault(rig["profile"], "negative-counts")
    with pytest.raises(StrictModeError):
        optimize_binary(corrupted, bad_profile,
                        BoltOptions(strict=True))


def test_pass_crash_containment(rig, monkeypatch):
    """A pass blowing up on one function demotes that function only."""
    from repro.core.passes.reorder_bbs import ReorderBasicBlocks

    victim = {}
    original = ReorderBasicBlocks.run_on_function

    def exploding(self, context, func):
        if not victim:
            victim["name"] = func.name
        if func.name == victim["name"]:
            raise RuntimeError("synthetic pass bug")
        return original(self, context, func)

    monkeypatch.setattr(ReorderBasicBlocks, "run_on_function", exploding)
    result = optimize_binary(rig["exe"], rig["profile"], BoltOptions())
    func = result.context.functions[victim["name"]]
    assert not func.is_simple
    assert "contained failure" in func.simple_violation
    assert any("synthetic pass bug" in d.message
               for d in result.diagnostics.warnings)
    cpu = run_binary(result.binary, inputs=rig["workload"].inputs,
                     max_instructions=MAX_INSNS)
    assert cpu.output == rig["output"]


def test_whole_pass_crash_containment(rig, monkeypatch):
    """A context-level pass failing outright is skipped, not fatal."""
    from repro.core.passes.reorder_functions import ReorderFunctions

    def exploding(self, context):
        raise RuntimeError("synthetic whole-pass bug")

    monkeypatch.setattr(ReorderFunctions, "run", exploding)
    result = optimize_binary(rig["exe"], rig["profile"], BoltOptions())
    assert any("synthetic whole-pass bug" in d.message
               for d in result.diagnostics.errors)
    cpu = run_binary(result.binary, inputs=rig["workload"].inputs,
                     max_instructions=MAX_INSNS)
    assert cpu.output == rig["output"]


def test_verify_cfg_demotes_corrupted_function(rig, monkeypatch):
    """verify_cfg catches a pass that corrupts a CFG without raising."""
    from repro.core.passes.peepholes import Peepholes

    victim = {}
    original = Peepholes.run_on_function

    def corrupting(self, context, func):
        if not victim and func.blocks:
            victim["name"] = func.name
            block = next(iter(func.blocks.values()))
            block.successors.append(".Lnonexistent")
            return {}
        return original(self, context, func)

    monkeypatch.setattr(Peepholes, "run_on_function", corrupting)
    result = optimize_binary(rig["exe"], rig["profile"],
                             BoltOptions(verify_cfg=True))
    func = result.context.functions[victim["name"]]
    assert not func.is_simple
    assert any("CFG invariants violated" in d.message
               for d in result.diagnostics.warnings)
    cpu = run_binary(result.binary, inputs=rig["workload"].inputs,
                     max_instructions=MAX_INSNS)
    assert cpu.output == rig["output"]


# ---------------------------------------------------------------------------
# CLI smoke: end-to-end on a corrupted binary, tolerant and strict.
# ---------------------------------------------------------------------------


CLI_SRC = """
func helper(x) {
  if (x % 3 == 0) { return x * 2; }
  return x + 1;
}
func spare(x) {
  var y = x * 3;
  if (y % 2 == 0) { return y - 1; }
  return y + 7;
}
func main() {
  var i = 0;
  var acc = 0;
  while (i < 50) { acc = acc + helper(i); i = i + 1; }
  out acc;
  return 0;
}
"""


@pytest.fixture()
def cli_rig(tmp_path, capsys):
    from repro.belf import read_binary, write_binary
    from repro.cli import main

    src = tmp_path / "app.bc"
    src.write_text(CLI_SRC)
    exe = tmp_path / "app.belf"
    fdata = tmp_path / "app.fdata"
    assert main(["build", str(src), "-o", str(exe)]) == 0
    assert main(["profile", str(exe), "-o", str(fdata),
                 "--period", "51"]) == 0
    binary = read_binary(exe.read_bytes())
    corrupted, affected = inject_binary_fault(
        binary, "garbage-text", targets=["spare"])
    assert affected == ["spare"]
    bad = tmp_path / "app.bad.belf"
    bad.write_bytes(write_binary(corrupted))
    capsys.readouterr()
    return tmp_path, bad, fdata


def test_cli_bolt_tolerant_on_corrupted_binary(cli_rig, capsys):
    from repro.cli import main

    tmp_path, bad, fdata = cli_rig
    out = tmp_path / "app.bolt.belf"
    assert main(["bolt", str(bad), "-p", str(fdata),
                 "-o", str(out), "--tolerant"]) == 0
    captured = capsys.readouterr()
    assert "BOLT-WARNING" in captured.err
    assert out.exists()
    # The tolerant output still runs.
    assert main(["run", str(out)]) == 0


def test_cli_bolt_strict_on_corrupted_binary(cli_rig, capsys):
    from repro.cli import main

    tmp_path, bad, fdata = cli_rig
    out = tmp_path / "app.strict.belf"
    rc = main(["bolt", str(bad), "-p", str(fdata),
               "-o", str(out), "--strict"])
    captured = capsys.readouterr()
    assert rc != 0
    assert "BOLT-ERROR" in captured.err
    assert "Traceback" not in captured.err


def test_cli_malformed_binary_single_error_line(tmp_path, capsys):
    from repro.cli import main

    junk = tmp_path / "junk.belf"
    junk.write_bytes(b"\x00" * 64)
    out = tmp_path / "out.belf"
    rc = main(["bolt", str(junk), "-o", str(out)])
    captured = capsys.readouterr()
    assert rc != 0
    err_lines = [l for l in captured.err.splitlines() if l.strip()]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("BOLT-ERROR:")


def test_cli_malformed_profile_single_error_line(cli_rig, tmp_path, capsys):
    from repro.cli import main

    rig_path, bad, _ = cli_rig
    garbage = rig_path / "garbage.fdata"
    garbage.write_text("1 main zz 1 main 0 broken\n")
    out = rig_path / "out.belf"
    rc = main(["bolt", str(bad), "-p", str(garbage), "-o", str(out)])
    captured = capsys.readouterr()
    assert rc != 0
    err_lines = [l for l in captured.err.splitlines() if l.strip()]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("BOLT-ERROR:")
