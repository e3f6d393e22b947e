"""IR-level lint checkers: abstract interpretation over one function.

Each checker proves a per-path invariant over the reconstructed CFG
with a deliberately *flat* abstract domain, so it only reports
violations that hold on every abstract execution reaching the faulty
point — ``TOP`` (unknown/conflicting) never fires a finding.  That
makes the checkers safe to run as a default-on post-pass gate: a
correct pipeline produces zero findings, and a pass that breaks an
invariant (dropping a restore, unbalancing the stack, breaking the
layout contract) produces a stable ``BL0xx`` rule hit that the
rewriter contains with PR 1's demote-to-raw machinery.

Checkers consume ``func.analysis_facts`` that passes record about
their own transformations (shrink-wrapping's moved saves, frame-opts'
removed stores, SCTC's conditional tail calls), cross-checking the
facts against what the IR actually contains.
"""

from functools import partial

from repro.analysis.absint import (
    BOTTOM,
    TOP,
    AnalysisError,
    BlockResult,
    FlatLattice,
    TupleLattice,
    solve,
)
from repro.analysis.rules import Finding
from repro.core.dataflow import FLAGS, insn_uses_defs
from repro.core.emitter import COLD_SUFFIX
from repro.core.validate import ValidationError, validate_function
from repro.isa import Op, RBP, RSP


def _is_cold_fragment(func):
    """A re-discovered ``.cold.0`` split fragment starts mid-frame, so
    entry-state assumptions (stack height 0, callee-saved registers
    pristine, flags dead) do not hold for it."""
    return func.name.endswith(COLD_SUFFIX)


def check_function(func, rules=None):
    """Run the IR checkers; returns a list of Findings.

    ``rules`` selects rule IDs (default: all); a checker that can report
    none of them is not run.
    """
    if not func.is_simple or not func.blocks:
        return []
    defs = None
    findings = []
    for checker, reports, dataflow in _CHECKERS:
        if rules is not None and reports.isdisjoint(rules):
            continue
        if dataflow:
            if defs is None:
                # Each instruction's register defs, computed once and
                # shared by the dataflow checkers (BL001-BL003).
                defs = {label: [insn_uses_defs(insn)[1]
                                for insn in block.insns]
                        for label, block in func.blocks.items()}
            checker = partial(checker, defs=defs)
        try:
            found = checker(func)
        except AnalysisError:
            # Conservative: a non-converging analysis proves nothing.
            continue
        findings.extend(found if rules is None
                        else [f for f in found if f.rule in rules])
    return findings


# ---------------------------------------------------------------------------
# Structural checkers (no abstract interpretation needed)
# ---------------------------------------------------------------------------


def _check_structure(func):
    """BL007: the validate_function structural invariants."""
    try:
        validate_function(func)
    except ValidationError as exc:
        return [Finding("BL007", str(exc), function=func.name)]
    return []


def _check_unreachable(func):
    """BL004: blocks unreachable from the entry."""
    if func.entry_label not in func.blocks:
        return []
    # Tolerant traversal: a dangling successor is BL007's finding, not
    # a reason to crash this checker.
    reachable = set()
    stack = [func.entry_label]
    while stack:
        label = stack.pop()
        if label in reachable or label not in func.blocks:
            continue
        reachable.add(label)
        node = func.blocks[label]
        stack.extend(node.successors)
        stack.extend(node.landing_pads)
    return [
        Finding("BL004", f"block {label} is unreachable from the entry",
                function=func.name, block=label)
        for label, block in func.blocks.items()
        if label not in reachable
        # Alignment padding between a terminator and the next branch
        # target decodes as an empty / nop-only block; that is layout
        # residue, not dead code.
        and any(not insn.is_nop for insn in block.insns)
    ]


def _check_fallthrough(func):
    """BL005: fall-through edges must be physically honored.

    After fixup-branches, any block that does not end in a terminator
    must be immediately followed (in layout order, within the same
    hot/cold region) by its fall-through successor; the final block of
    each region must end in a true terminator.
    """
    findings = []
    layout = func.layout()
    for index, block in enumerate(layout):
        last = block.insns[-1] if block.insns else None
        if last is not None and last.is_terminator:
            continue
        nxt = layout[index + 1] if index + 1 < len(layout) else None
        if nxt is not None and nxt.is_cold != block.is_cold:
            nxt = None  # region boundary: nothing to fall into
        ft = block.fallthrough_label
        if ft is None:
            findings.append(Finding(
                "BL005",
                f"block {block.label} ends in "
                f"{last.mnemonic() if last else '<empty>'} without a "
                f"fall-through successor: control runs off the end",
                function=func.name, block=block.label))
        elif nxt is None or nxt.label != ft:
            where = nxt.label if nxt is not None else "end of region"
            findings.append(Finding(
                "BL005",
                f"block {block.label} falls through to {ft} but is "
                f"followed by {where}",
                function=func.name, block=block.label))
    return findings


def _check_jump_tables(func):
    """BL006: every jump-table entry lands on a real block head."""
    findings = []
    labels = set(func.blocks)
    for block in func.blocks.values():
        for insn in block.insns:
            if insn.op != Op.JMP_REG:
                continue
            table = insn.get_annotation("jump-table")
            if table is None:
                continue
            bad = [e for e in table.entries if e not in labels]
            if bad:
                findings.append(Finding(
                    "BL006",
                    f"jump table at {table.address:#x}: entries "
                    f"{bad} are not block heads",
                    function=func.name, block=block.label))
                continue
            if set(block.successors) != set(table.entries):
                findings.append(Finding(
                    "BL006",
                    f"jump table at {table.address:#x}: CFG successors "
                    f"{sorted(set(block.successors))} disagree with "
                    f"table entries {sorted(set(table.entries))}",
                    function=func.name, block=block.label))
            if table.size != 8 * len(table.entries):
                findings.append(Finding(
                    "BL006",
                    f"jump table at {table.address:#x}: size "
                    f"{table.size} does not cover {len(table.entries)} "
                    f"entries",
                    function=func.name, block=block.label))
    return findings


def _check_pass_facts(func):
    """Cross-check facts passes recorded against what the IR contains.

    frame-opts' removed-store fact is checked against the callee-saved
    save slots (a removed save slot would strand the unwinder); SCTC's
    conditional-tail-call fact must still be visible as a symbolic
    conditional branch in the named block.
    """
    findings = []
    facts = func.analysis_facts

    removed = facts.get("frame-opts-removed", ())
    if removed and func.frame_record is not None:
        protected = {-offset for _, offset in func.frame_record.saved_regs}
        bad = sorted(set(removed) & protected)
        if bad:
            findings.append(Finding(
                "BL002",
                f"frame-opts removed store(s) to callee-saved save "
                f"slot(s) {bad} that the frame record still declares",
                function=func.name))

    for label in facts.get("sctc", ()):
        block = func.blocks.get(label)
        if block is None:
            continue  # the block itself was legitimately merged away
        present = any(insn.is_cond_branch and insn.sym is not None
                      for insn in block.insns)
        if not present:
            findings.append(Finding(
                "BL007",
                f"SCTC recorded a conditional tail call in {label}, "
                f"but no symbolic conditional branch is there",
                function=func.name, block=label))
    return findings


# ---------------------------------------------------------------------------
# Stack-height consistency (BL001)
# ---------------------------------------------------------------------------


def _is_cold_transfer(name):
    """A branch to a split-function cold fragment (or back to its hot
    parent) is a layout-level transfer inside one logical function, not
    a tail call: the frame is intentionally live across it."""
    return isinstance(name, str) and name.endswith(COLD_SUFFIX)


def _is_tail_call(insn):
    ann = insn.get_annotation("tailcall", "!")
    if ann != "!":
        return not _is_cold_transfer(ann)
    if insn.is_branch and insn.sym is not None:
        return not _is_cold_transfer(getattr(insn.sym, "name", insn.sym))
    return False


def _stack_step(insn, defs, state, sink=None, func=None, block=None):
    """Abstractly execute one instruction over (height, saved rbp height).

    ``height`` is bytes pushed since function entry (concrete int or
    TOP); ``rbp_height`` is the height captured by ``mov rbp, rsp``;
    ``defs`` are the instruction's register defs.  When ``sink`` is
    given, definite violations are appended to it.
    """
    h, rbp_h = state
    op = insn.op

    def report(message):
        if sink is not None:
            sink.append(Finding("BL001", message, function=func.name,
                                block=block.label,
                                address=insn.address))

    if insn.is_return or _is_tail_call(insn):
        if isinstance(h, int) and h != 0:
            kind = "returns" if insn.is_return else "tail-calls"
            report(f"{kind} with {h} byte(s) left on the stack "
                   f"(unbalanced push/pop or missing epilogue)")
        return h, rbp_h

    if op == Op.PUSH:
        return (h + 8 if isinstance(h, int) else h), rbp_h
    if op == Op.POP:
        if isinstance(h, int):
            h -= 8
            if h < 0:
                report("pops below the incoming stack pointer")
                h = TOP
        if insn.regs and insn.regs[0] == RBP:
            rbp_h = TOP
        elif insn.regs and insn.regs[0] == RSP:
            h = TOP
        return h, rbp_h
    if op == Op.SUB_RI and insn.regs and insn.regs[0] == RSP:
        return (h + insn.imm if isinstance(h, int) else h), rbp_h
    if op == Op.ADD_RI and insn.regs and insn.regs[0] == RSP:
        if isinstance(h, int):
            h -= insn.imm
            if h < 0:
                report("releases more stack than was allocated")
                h = TOP
        return h, rbp_h
    if op == Op.MOV_RR and insn.regs == (RSP, RBP):
        return rbp_h, rbp_h                     # mov rsp, rbp (epilogue)
    if op == Op.MOV_RR and insn.regs == (RBP, RSP):
        return h, h                             # mov rbp, rsp (prologue)
    if insn.is_call:
        return h, rbp_h                         # balanced by convention

    if RSP in defs:
        h = TOP
    if RBP in defs:
        rbp_h = TOP
    return h, rbp_h


def _check_stack_height(func, defs):
    lattice = TupleLattice(FlatLattice(), FlatLattice())

    def transfer(block, state):
        edge_states = {}
        for insn, insn_defs in zip(block.insns, defs[block.label]):
            if insn.is_call and block.landing_pads:
                lp = insn.get_annotation("lp")
                targets = [lp] if lp is not None else block.landing_pads
                # Unwinding resumes with the frame as it was at the call.
                for target in targets:
                    prev = edge_states.get(target, lattice.bottom())
                    edge_states[target] = lattice.join(prev, state)
            state = _stack_step(insn, insn_defs, state)
        return BlockResult(state, edge_states)

    # A cold fragment is entered mid-frame: its height is unknown.
    entry_height = TOP if _is_cold_fragment(func) else 0
    in_states, _ = solve(func, lattice, transfer,
                         boundary=(entry_height, TOP))

    findings = []
    bottom = lattice.bottom()
    for label, block in func.blocks.items():
        state = in_states.get(label, bottom)
        if state == bottom:
            continue  # unreachable: BL004's business
        for insn, insn_defs in zip(block.insns, defs[label]):
            state = _stack_step(insn, insn_defs, state, sink=findings,
                                func=func, block=block)
    return findings


# ---------------------------------------------------------------------------
# Callee-saved preservation (BL002)
# ---------------------------------------------------------------------------

_ORIG, _DIRTY = "orig", "dirty"
_EMPTY, _SAVED = "empty", "saved"
_MEM_STORES = frozenset({Op.STORE, Op.STOREIDX, Op.STORE_ABS})


def _saved_regs_step(insn, defs, state, saved):
    """Step every (register state, save-slot state) pair across one
    instruction, in place.

    ``state`` is ``[r0, s0, r1, s1, ...]`` in ``saved`` order; each
    pair moves exactly as it would if it were tracked alone.
    """
    op = insn.op
    if op == Op.STORE and insn.regs[0] == RBP:
        for i, (reg, offset) in enumerate(saved):
            if insn.disp == -offset:
                if insn.regs[1] == reg:         # the save itself
                    state[2 * i + 1] = (_SAVED if state[2 * i] == _ORIG
                                        else TOP)
                else:                           # another register overwrote it
                    state[2 * i + 1] = TOP
    elif op in _MEM_STORES:
        for i in range(1, len(state), 2):
            state[i] = TOP                      # untracked memory write
    else:
        for i, (reg, offset) in enumerate(saved):
            if op == Op.LOAD and insn.regs == (reg, RBP) \
                    and insn.disp == -offset:   # the restore
                state[2 * i] = _ORIG if state[2 * i + 1] == _SAVED else TOP
            elif reg in defs:
                state[2 * i] = _DIRTY


def _check_callee_saved(func, defs):
    from repro.core.dataflow import stack_slot_accesses

    record = func.frame_record
    if record is None or not record.saved_regs:
        return []
    if _is_cold_fragment(func):
        # Saves happen in the hot parent; no entry invariant holds here.
        return []
    _, _, escapes = stack_slot_accesses(func)
    if escapes:
        return []  # rbp escapes: slot tracking would be unsound

    from repro.isa.registers import reg_name

    saved = record.saved_regs
    # Findings per saved register, reported in ``saved`` order.
    per_reg = [[] for _ in saved]
    facts = func.analysis_facts.get("shrink-wrap", {})
    for found, (reg, offset) in zip(per_reg, saved):
        # Cross-check the shrink-wrapping fact: if the pass claims the
        # save moved into a block, the store must actually be there.
        moved_to = facts.get(reg)
        if moved_to is not None:
            home = func.blocks.get(moved_to)
            present = home is not None and any(
                insn.op == Op.STORE and insn.regs == (RBP, reg)
                and insn.disp == -offset for insn in home.insns)
            if not present:
                found.append(Finding(
                    "BL002",
                    f"shrink-wrapping recorded %{reg_name(reg)}'s save "
                    f"moved to {moved_to}, but no save store is there",
                    function=func.name, block=moved_to))

    # One fixpoint for all saved registers: the pairs never interact,
    # so each projection is that register's own solution.
    lattice = TupleLattice(*[FlatLattice()] * (2 * len(saved)))
    tracked = {reg for reg, _ in saved}
    touching = {
        label: [(insn, insn_defs)
                for insn, insn_defs in zip(block.insns, defs[label])
                if insn.op in _MEM_STORES or not tracked.isdisjoint(insn_defs)]
        for label, block in func.blocks.items()}

    def transfer(block, state):
        state = list(state)
        for insn, insn_defs in touching[block.label]:
            _saved_regs_step(insn, insn_defs, state, saved)
        return tuple(state)

    in_states, _ = solve(func, lattice, transfer,
                         boundary=(_ORIG, _EMPTY) * len(saved))

    bottom = lattice.bottom()
    for label, block in func.blocks.items():
        state = in_states.get(label, bottom)
        if state == bottom:
            continue
        state = list(state)
        pending = list(range(len(saved)))   # not yet reported in this block
        for insn, insn_defs in zip(block.insns, defs[label]):
            if insn.is_return or _is_tail_call(insn):
                for i in [i for i in pending if state[2 * i] == _DIRTY]:
                    reg, offset = saved[i]
                    per_reg[i].append(Finding(
                        "BL002",
                        f"exits with callee-saved %{reg_name(reg)} "
                        f"clobbered and not restored from its save slot "
                        f"(rbp{-offset:+#x})",
                        function=func.name, block=label,
                        address=insn.address))
                    pending.remove(i)
                if not pending:
                    break
            _saved_regs_step(insn, insn_defs, state, saved)
    return [finding for found in per_reg for finding in found]


# ---------------------------------------------------------------------------
# Flags use-before-def (BL003)
# ---------------------------------------------------------------------------

_FLAG_DEFS = frozenset({Op.CMP_RR, Op.CMP_RI, Op.TEST_RR, Op.TEST_RI})
_FLAG_USES = frozenset({Op.JCC_SHORT, Op.JCC_LONG, Op.SETCC})
_UNDEF, _DEF = "undef", "def"


def _flags_step(insn, defs, state):
    if insn.op in _FLAG_DEFS:
        return _DEF
    if insn.is_call:
        return _UNDEF  # calls clobber flags (ABI)
    if FLAGS in defs:
        return _DEF
    return state


def _check_flags(func, defs):
    lattice = FlatLattice()

    def transfer(block, state):
        edge_states = {}
        for insn, insn_defs in zip(block.insns, defs[block.label]):
            state = _flags_step(insn, insn_defs, state)
            if insn.is_call and block.landing_pads:
                lp = insn.get_annotation("lp")
                for target in ([lp] if lp is not None
                               else block.landing_pads):
                    prev = edge_states.get(target, BOTTOM)
                    edge_states[target] = lattice.join(prev, state)
        return BlockResult(state, edge_states)

    # Flags set in the hot parent may be live on entry to a cold
    # fragment (a conditional branch can target it directly).
    boundary = TOP if _is_cold_fragment(func) else _UNDEF
    in_states, _ = solve(func, lattice, transfer, boundary=boundary)

    findings = []
    for label, block in func.blocks.items():
        state = in_states.get(label, BOTTOM)
        if state is BOTTOM:
            continue
        for insn, insn_defs in zip(block.insns, defs[label]):
            if insn.op in _FLAG_USES and state == _UNDEF:
                findings.append(Finding(
                    "BL003",
                    f"{insn.mnemonic()} consumes flags that no path "
                    f"defines (missing compare, or clobbered by a call)",
                    function=func.name, block=label,
                    address=insn.address))
                break  # one report per block is plenty
            state = _flags_step(insn, insn_defs, state)
    return findings


#: (checker, rule IDs it can report, takes the shared ``defs``), in
#: reporting order.
_CHECKERS = (
    (_check_structure, frozenset({"BL007"}), False),
    (_check_unreachable, frozenset({"BL004"}), False),
    (_check_fallthrough, frozenset({"BL005"}), False),
    (_check_jump_tables, frozenset({"BL006"}), False),
    (_check_stack_height, frozenset({"BL001"}), True),
    (_check_callee_saved, frozenset({"BL002"}), True),
    (_check_flags, frozenset({"BL003"}), True),
    (_check_pass_facts, frozenset({"BL002", "BL007"}), False),
)
