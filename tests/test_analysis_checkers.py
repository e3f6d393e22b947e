"""IR-level lint checker tests: each rule fires on a hand-built broken
CFG and stays silent on clean ones (including compiler output and
split-function cold fragments)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    TOP,
    AnalysisError,
    FlatLattice,
    TupleLattice,
    check_function,
    solve,
)
from repro.analysis.checkers import _is_tail_call
from repro.analysis.rules import Finding
from repro.belf.frameinfo import FrameRecord
from repro.compiler import build_executable
from repro.core import BinaryContext, BoltOptions
from repro.core.binary_function import (
    BinaryBasicBlock,
    BinaryFunction,
    JumpTable,
)
from repro.core.cfg_builder import build_all_functions
from repro.core.dataflow import insn_uses_defs, stack_slot_accesses
from repro.core.discovery import discover_functions
from repro.core.validate import ValidationError, validate_function
from repro.isa import (
    R12, R13, RAX, RBP, RBX, RCX, RDX, Instruction, Op, SymRef,
)
from repro.isa.registers import reg_name

pytestmark = pytest.mark.analysis


def make_func(name="f"):
    return BinaryFunction(name, 0x1000, 64)


def block(label, insns, **attrs):
    b = BinaryBasicBlock(label)
    b.insns = list(insns)
    for key, value in attrs.items():
        setattr(b, key, value)
    return b


def rules(findings):
    return sorted({f.rule for f in findings})


# ---------------------------------------------------------------------------
# BL001: stack-height consistency
# ---------------------------------------------------------------------------


def test_bl001_unbalanced_push_at_return():
    func = make_func()
    func.add_block(block("e", [Instruction(Op.PUSH, (RBX,)),
                               Instruction(Op.RET)]))
    assert "BL001" in rules(check_function(func))


def test_bl001_pop_below_entry():
    func = make_func()
    func.add_block(block("e", [Instruction(Op.POP, (RBX,)),
                               Instruction(Op.RET)]))
    findings = [f for f in check_function(func) if f.rule == "BL001"]
    assert findings and "below" in findings[0].message


def test_bl001_balanced_is_clean():
    func = make_func()
    func.add_block(block("e", [Instruction(Op.PUSH, (RBX,)),
                               Instruction(Op.POP, (RBX,)),
                               Instruction(Op.RET)]))
    assert check_function(func) == []


def test_bl001_tail_call_with_live_frame():
    func = make_func()
    func.add_block(block("e", [
        Instruction(Op.PUSH, (RBX,)),
        Instruction(Op.JMP_NEAR, sym=SymRef("other", "branch")),
    ]))
    assert "BL001" in rules(check_function(func))


def test_cold_fragment_transfer_is_not_a_tail_call():
    # A branch to the function's own cold fragment carries the live
    # frame by design; it must not be treated as a tail-call exit.
    func = make_func()
    func.add_block(block("e", [
        Instruction(Op.PUSH, (RBX,)),
        Instruction(Op.JMP_NEAR, sym=SymRef("f.cold.0", "branch")),
    ]))
    assert check_function(func) == []


def test_cold_fragment_function_has_unknown_entry_state():
    # A re-discovered .cold.0 fragment starts mid-frame: popping the
    # parent's frame must not count as popping below the entry height.
    func = make_func("f.cold.0")
    func.add_block(block("e", [Instruction(Op.POP, (RBP,)),
                               Instruction(Op.RET)]))
    assert check_function(func) == []


# ---------------------------------------------------------------------------
# BL002: callee-saved preservation
# ---------------------------------------------------------------------------


def _framed(name="f", saved=((RBX, 8),)):
    func = make_func(name)
    func.frame_record = FrameRecord(name, frame_size=16, saved_regs=saved)
    return func


def test_bl002_clobbered_without_restore():
    func = _framed()
    func.add_block(block("e", [
        Instruction(Op.STORE, (RBP, RBX), disp=-8),
        Instruction(Op.MOV_RI32, (RBX,), imm=0),
        Instruction(Op.RET),
    ]))
    assert "BL002" in rules(check_function(func))


def test_bl002_restored_is_clean():
    func = _framed()
    func.add_block(block("e", [
        Instruction(Op.STORE, (RBP, RBX), disp=-8),
        Instruction(Op.MOV_RI32, (RBX,), imm=0),
        Instruction(Op.LOAD, (RBX, RBP), disp=-8),
        Instruction(Op.RET),
    ]))
    assert check_function(func) == []


def test_bl002_untouched_register_is_clean():
    func = _framed()
    func.add_block(block("e", [Instruction(Op.RET)]))
    assert check_function(func) == []


def test_bl002_skipped_for_cold_fragments():
    func = _framed("f.cold.0")
    func.add_block(block("e", [
        Instruction(Op.MOV_RI32, (RBX,), imm=0),
        Instruction(Op.RET),
    ]))
    assert check_function(func) == []


# -- BL002 equivalence: one joint fixpoint == one fixpoint per register ----


def _reference_saved_reg_step(insn, state, reg, offset):
    r, s = state
    op = insn.op
    if op == Op.STORE and insn.regs == (RBP, reg) and insn.disp == -offset:
        return r, ("saved" if r == "orig" else TOP)
    if op == Op.LOAD and insn.regs == (reg, RBP) and insn.disp == -offset:
        return ("orig" if s == "saved" else TOP), s
    if op == Op.STORE and insn.regs[0] == RBP and insn.disp == -offset:
        return r, TOP
    if op in (Op.STORE, Op.STOREIDX, Op.STORE_ABS) \
            and not (op == Op.STORE and insn.regs[0] == RBP):
        return r, TOP
    _, defs = insn_uses_defs(insn)
    if reg in defs:
        return "dirty", s
    return r, s


def _reference_callee_saved(func):
    """BL002 solved one saved register at a time (the checker's
    original formulation), as rendered finding dicts."""
    record = func.frame_record
    if record is None or not record.saved_regs:
        return []
    _, _, escapes = stack_slot_accesses(func)
    if escapes:
        return []
    findings = []
    facts = func.analysis_facts.get("shrink-wrap", {})
    for reg, offset in record.saved_regs:
        moved_to = facts.get(reg)
        if moved_to is not None:
            home = func.blocks.get(moved_to)
            if home is None or not any(
                    insn.op == Op.STORE and insn.regs == (RBP, reg)
                    and insn.disp == -offset for insn in home.insns):
                findings.append(Finding(
                    "BL002",
                    f"shrink-wrapping recorded %{reg_name(reg)}'s save "
                    f"moved to {moved_to}, but no save store is there",
                    function=func.name, block=moved_to))
        lattice = TupleLattice(FlatLattice(), FlatLattice())

        def transfer(block, state, reg=reg, offset=offset):
            for insn in block.insns:
                state = _reference_saved_reg_step(insn, state, reg, offset)
            return state

        try:
            in_states, _ = solve(func, lattice, transfer,
                                 boundary=("orig", "empty"))
        except AnalysisError:
            return []
        for label, block in func.blocks.items():
            state = in_states[label]
            if state == lattice.bottom():
                continue
            for insn in block.insns:
                if (insn.is_return or _is_tail_call(insn)) \
                        and state[0] == "dirty":
                    findings.append(Finding(
                        "BL002",
                        f"exits with callee-saved %{reg_name(reg)} "
                        f"clobbered and not restored from its save slot "
                        f"(rbp{-offset:+#x})",
                        function=func.name, block=label,
                        address=insn.address))
                    break
                state = _reference_saved_reg_step(insn, state, reg, offset)
    return [f.to_dict() for f in findings]


_TRACKED = (RBX, R12, R13)
_OFFSETS = (8, 16, 24)
_regs = st.sampled_from(_TRACKED + (RAX, RCX))
_offsets = st.sampled_from(_OFFSETS)
_other = SymRef("other", "branch")
_insns = st.one_of(
    st.builds(lambda r, o: Instruction(Op.STORE, (RBP, r), disp=-o),
              _regs, _offsets),                             # save / slot store
    st.builds(lambda r, o: Instruction(Op.LOAD, (r, RBP), disp=-o),
              _regs, _offsets),                             # restore
    st.builds(lambda r: Instruction(Op.MOV_RI32, (r,), imm=0), _regs),
    st.builds(lambda r: Instruction(Op.POP, (r,)), _regs),
    st.builds(lambda r, o: Instruction(Op.STORE, (RAX, r), disp=-o),
              _regs, _offsets),                             # not rbp-based
    st.builds(lambda r: Instruction(Op.STORE_ABS, (r,), addr=0x2000), _regs),
    st.just(Instruction(Op.STOREIDX, (RAX, RCX, RDX))),
    st.just(Instruction(Op.CALL, sym=SymRef("g", "branch"))),
    st.just(Instruction(Op.RET)),
    st.just(Instruction(Op.JMP_NEAR, sym=_other)),          # tail call
    st.just(Instruction(Op.JCC_LONG, cc=0, sym=_other)),    # cond. tail call
    st.just(Instruction(Op.NOP)),
)


@st.composite
def _saved_reg_functions(draw):
    n = draw(st.integers(1, 6))
    labels = [f"b{i}" for i in range(n)]
    func = _framed(saved=draw(st.lists(st.tuples(
        st.sampled_from(_TRACKED), _offsets), min_size=1, max_size=4)))
    for label in labels:
        insns = [insn.copy() for insn in
                 draw(st.lists(_insns, max_size=6))]
        for i, insn in enumerate(insns):
            insn.address = 0x1000 + 0x40 * labels.index(label) + i
        func.add_block(block(label, insns))
    for label in labels:
        b = func.blocks[label]
        for succ in draw(st.lists(st.sampled_from(labels), max_size=3)):
            b.set_edge(succ)
        for lp in draw(st.lists(st.sampled_from(labels), max_size=2)):
            if lp not in b.landing_pads:
                b.landing_pads.append(lp)
                func.blocks[lp].is_landing_pad = True
    func.analysis_facts["shrink-wrap"] = draw(st.dictionaries(
        st.sampled_from(_TRACKED), st.sampled_from(labels + ["gone"]),
        max_size=2))
    return func


@given(_saved_reg_functions())
@settings(max_examples=300, deadline=None)
def test_bl002_joint_fixpoint_matches_per_register_solver(func):
    got = [f.to_dict() for f in check_function(func) if f.rule == "BL002"]
    assert got == _reference_callee_saved(func)


# ---------------------------------------------------------------------------
# BL003: flags use-before-def
# ---------------------------------------------------------------------------


def test_bl003_branch_on_undefined_flags():
    func = make_func()
    e = block("e", [Instruction(Op.JCC_SHORT, cc=0, label="b")])
    e.set_edge("b")
    e.set_edge("a")
    e.fallthrough_label = "a"
    func.add_block(e)
    func.add_block(block("a", [Instruction(Op.RET)]))
    func.add_block(block("b", [Instruction(Op.RET)]))
    assert "BL003" in rules(check_function(func))


def test_bl003_compare_defines_flags():
    func = make_func()
    e = block("e", [Instruction(Op.CMP_RI, (RAX,), imm=0),
                    Instruction(Op.JCC_SHORT, cc=0, label="b")])
    e.set_edge("b")
    e.set_edge("a")
    e.fallthrough_label = "a"
    func.add_block(e)
    func.add_block(block("a", [Instruction(Op.RET)]))
    func.add_block(block("b", [Instruction(Op.RET)]))
    assert check_function(func) == []


# ---------------------------------------------------------------------------
# BL004: unreachable code / BL005: fall-through
# ---------------------------------------------------------------------------


def test_bl004_unreachable_real_code():
    func = make_func()
    func.add_block(block("e", [Instruction(Op.RET)]))
    func.add_block(block("dead", [Instruction(Op.MOV_RR, (RAX, RBX)),
                                  Instruction(Op.RET)]))
    findings = check_function(func)
    assert "BL004" in rules(findings)
    assert any(f.block == "dead" for f in findings)


def test_bl004_tolerates_nop_padding_blocks():
    # Alignment padding between a terminator and the next target
    # decodes as an unreachable empty/nop-only block: layout residue,
    # not dead code.
    func = make_func()
    e = block("e", [Instruction(Op.JMP_NEAR, label="x")])
    e.set_edge("x")
    func.add_block(e)
    pad = block("pad", [Instruction(Op.NOP)])
    pad.set_edge("x")
    pad.fallthrough_label = "x"
    func.add_block(pad)
    func.add_block(block("x", [Instruction(Op.RET)]))
    assert check_function(func) == []


def test_bl005_control_runs_off_the_end():
    func = make_func()
    func.add_block(block("e", [Instruction(Op.MOV_RR, (RAX, RBX))]))
    assert "BL005" in rules(check_function(func))


def test_bl005_layout_breaks_fallthrough():
    func = make_func()
    e = block("e", [Instruction(Op.MOV_RR, (RAX, RBX))])
    e.set_edge("x")
    e.fallthrough_label = "x"
    func.add_block(e)
    # Layout places "y" between e and its fall-through target.
    y = block("y", [Instruction(Op.RET)])
    func.add_block(y)
    func.add_block(block("x", [Instruction(Op.RET)]))
    assert "BL005" in rules(check_function(func))


# ---------------------------------------------------------------------------
# BL006: jump tables / BL007: structural invariants
# ---------------------------------------------------------------------------


def _jump_table_func(entries, successors, size=None):
    func = make_func()
    table = JumpTable(0x2000, size if size is not None else 8 * len(entries),
                      list(entries), ".rodata")
    insn = Instruction(Op.JMP_REG, (RAX,))
    insn.set_annotation("jump-table", table)
    e = block("e", [insn])
    for succ in successors:
        e.set_edge(succ)
    func.add_block(e)
    func.add_block(block("x", [Instruction(Op.RET)]))
    func.add_block(block("y", [Instruction(Op.RET)]))
    func.jump_tables.append(table)
    return func


def test_bl006_entry_not_a_block_head():
    func = _jump_table_func(["ghost"], ["x"])
    assert "BL006" in rules(check_function(func))


def test_bl006_successors_disagree_with_entries():
    func = _jump_table_func(["x"], ["x", "y"])
    assert "BL006" in rules(check_function(func))


def test_bl006_size_does_not_cover_entries():
    func = _jump_table_func(["x", "y"], ["x", "y"], size=8)
    assert "BL006" in rules(check_function(func))


def test_bl006_consistent_table_is_clean():
    func = _jump_table_func(["x", "y"], ["x", "y"])
    assert check_function(func) == []


def test_bl007_bogus_successor():
    func = make_func()
    e = block("e", [Instruction(Op.RET)])
    e.set_edge("ghost")
    func.add_block(e)
    assert "BL007" in rules(check_function(func))


# ---------------------------------------------------------------------------
# Pass-fact cross-checks
# ---------------------------------------------------------------------------


def test_fact_frame_opts_removed_protected_slot():
    func = _framed()
    func.add_block(block("e", [Instruction(Op.RET)]))
    func.analysis_facts["frame-opts-removed"] = [-8]
    findings = [f for f in check_function(func) if f.rule == "BL002"]
    assert findings and "frame-opts" in findings[0].message


def test_fact_sctc_branch_must_survive():
    func = make_func()
    func.add_block(block("e", [Instruction(Op.RET)]))
    func.analysis_facts["sctc"] = ["e"]
    findings = [f for f in check_function(func) if f.rule == "BL007"]
    assert findings and "SCTC" in findings[0].message


def test_fact_shrink_wrap_store_must_exist():
    func = _framed()
    e = block("e", [Instruction(Op.MOV_RI32, (RBX,), imm=0)])
    e.set_edge("x")
    e.fallthrough_label = "x"
    func.add_block(e)
    func.add_block(block("x", [Instruction(Op.LOAD, (RBX, RBP), disp=-8),
                               Instruction(Op.RET)]))
    func.analysis_facts["shrink-wrap"] = {RBX: "x"}  # but no store there
    findings = [f for f in check_function(func) if f.rule == "BL002"]
    assert findings and "shrink-wrapping" in findings[0].message


# ---------------------------------------------------------------------------
# Non-simple functions are skipped; compiler output is clean
# ---------------------------------------------------------------------------


def test_non_simple_function_is_skipped():
    func = make_func()
    e = block("e", [Instruction(Op.PUSH, (RBX,)), Instruction(Op.RET)])
    func.add_block(e)
    func.mark_non_simple("test")
    assert check_function(func) == []


def test_compiler_output_is_clean():
    exe, _ = build_executable([("m", """
func helper(x) {
  if (x % 3 == 0) { return x * 2; }
  return x + 1;
}
func main() {
  var i = 0;
  var acc = 0;
  while (i < 50) { acc = acc + helper(i); i = i + 1; }
  out acc;
  return 0;
}
""")], emit_relocs=True)
    context = BinaryContext(exe, BoltOptions())
    discover_functions(context)
    build_all_functions(context)
    for func in context.simple_functions():
        assert check_function(func) == [], func.name


# ---------------------------------------------------------------------------
# validate_function satellites: landing-pad reachability, edge counts
# ---------------------------------------------------------------------------


def test_validate_rejects_negative_edge_count():
    func = make_func()
    e = block("e", [Instruction(Op.JMP_NEAR, label="x")])
    e.set_edge("x", count=-5)
    func.add_block(e)
    func.add_block(block("x", [Instruction(Op.RET)]))
    with pytest.raises(ValidationError, match="negative edge count"):
        validate_function(func)


def test_validate_rejects_unreachable_landing_pad():
    func = make_func()
    func.add_block(block("e", [Instruction(Op.RET)]))
    lp = block("lp", [Instruction(Op.RET)])
    lp.is_landing_pad = True
    func.add_block(lp)
    with pytest.raises(ValidationError, match="landing-pad"):
        validate_function(func)


def test_validate_accepts_registered_landing_pad():
    func = make_func()
    e = block("e", [Instruction(Op.RET)])
    e.landing_pads.append("lp")
    func.add_block(e)
    lp = block("lp", [Instruction(Op.RET)])
    lp.is_landing_pad = True
    func.add_block(lp)
    validate_function(func)  # no raise
