"""The reference CPU: per-instruction interpreter, preserved verbatim.

This is the pre-PR 5 interpreter (fetch -> decode-cache -> if/elif
dispatch -> per-instruction accounting), kept as the equivalence oracle
for the block-cached engine in :mod:`repro.uarch.cpu` — the same
pattern as :mod:`repro.core._reference_kernels` from PR 3.  Select it
with ``UarchConfig(engine="ref")`` or ``--engine ref``.

The primitives both engines share (``_MASK``, ``_wrap``,
``ExecutionLimitExceeded``, ``MachineFault``, ``Memory``) live in
:mod:`repro.uarch.machine`; the hardware models live in their own
modules.  Those are outside this oracle's guarantee and are pinned by
``tests/test_golden_counters.py`` instead.

Executes decoded BX86 instructions out of the loaded memory image,
charging cycles via :class:`UarchConfig` penalties.  Supports:

* hardware-style sampling with configurable event and skid (section 5.1);
* LBR capture of taken branches (section 5.1);
* frame-pointer unwinding for ``__throw`` using the binary's CFI-lite
  frame records (section 3.4) — including after BOLT has rewritten them.
"""

from repro.belf import BUILTIN_BASE
from repro.isa import decode, DecodeError, RAX, RBP, RDI, RSP
from repro.isa.opcodes import Op, CondCode
from repro.uarch.branch_predictor import BranchPredictor
from repro.uarch.caches import Cache, TLB
from repro.uarch.config import UarchConfig
from repro.uarch.counters import Counters
from repro.uarch.lbr import LBR
from repro.uarch.machine import (
    EXIT_MAGIC,
    ExecutionLimitExceeded,
    MachineFault,
    _MASK,
    _wrap,
)


class ReferenceCPU:
    def __init__(self, machine, config=None, sampler=None):
        self.machine = machine
        self.config = config or UarchConfig()
        self.sampler = sampler
        cfg = self.config
        self.counters = Counters()
        self.l1i = Cache(cfg.l1i_size, cfg.l1i_assoc, cfg.line_size)
        self.l1d = Cache(cfg.l1d_size, cfg.l1d_assoc, cfg.line_size)
        self.l2 = (Cache(cfg.l2_size, cfg.l2_assoc, cfg.line_size)
                   if cfg.l2_size else None)
        self.llc = Cache(cfg.llc_size, cfg.llc_assoc, cfg.line_size)
        self.itlb = TLB(cfg.itlb_entries, cfg.page_size)
        self.dtlb = TLB(cfg.dtlb_entries, cfg.page_size)
        self.bp = BranchPredictor(cfg.bp_table_bits, cfg.btb_entries,
                                  cfg.ras_depth, kind=cfg.bp_kind)
        self.lbr = LBR() if (sampler is not None and sampler.use_lbr) else None

        self.regs = [0] * 16
        self.flag_a = 0
        self.flag_b = 0
        self.pc = machine.entry
        self.halted = False
        self.exit_code = None
        self.output = []
        self.fetch_heat = None      # optional: line-index -> fetch bytes count

        self._decode_cache = {}
        self._sample_acc = 0
        self._skid_remaining = -1

        self.regs[RSP] = machine.initial_stack()

    # -- memory with perf accounting -------------------------------------------

    def _miss_path(self, addr):
        """Cost of an L1 miss: optional private L2, then LLC, then DRAM."""
        c = self.counters
        cfg = self.config
        if self.l2 is not None:
            c.l2_accesses += 1
            if self.l2.access(addr):
                return cfg.l2_hit_latency
            c.l2_misses += 1
        c.llc_accesses += 1
        if self.llc.access(addr):
            return cfg.l1_miss_penalty
        c.llc_misses += 1
        return cfg.llc_miss_penalty

    def _data_access(self, addr, is_write):
        c = self.counters
        cycles = 0
        c.dtlb_accesses += 1
        if not self.dtlb.access(addr):
            c.dtlb_misses += 1
            cycles += self.config.tlb_miss_penalty
        c.l1d_accesses += 1
        if not self.l1d.access(addr):
            c.l1d_misses += 1
            cycles += self._miss_path(addr)
        if is_write:
            c.mem_writes += 1
        else:
            c.mem_reads += 1
        return cycles

    def _read_mem(self, addr):
        if addr < 0:
            raise MachineFault(f"bad read address {addr:#x} at pc={self.pc:#x}")
        self._cycles += self._data_access(addr, False)
        return self.machine.memory.read_word(addr)

    def _write_mem(self, addr, value):
        if addr < 0:
            raise MachineFault(f"bad write address {addr:#x} at pc={self.pc:#x}")
        self._cycles += self._data_access(addr, True)
        self.machine.memory.write_word(addr, value)

    # -- fetch ---------------------------------------------------------------------

    def _fetch(self, pc):
        insn = self._decode_cache.get(pc)
        if insn is None:
            if not self.machine.is_executable_address(pc):
                raise MachineFault(f"jump to non-executable address {pc:#x}")
            data = self.machine.memory.read_bytes(pc, 16)
            try:
                insn = decode(data, 0, pc)
            except DecodeError as exc:
                raise MachineFault(str(exc)) from None
            self._decode_cache[pc] = insn
        c = self.counters
        cfg = self.config
        c.itlb_accesses += 1
        if not self.itlb.access(pc):
            c.itlb_misses += 1
            self._cycles += cfg.tlb_miss_penalty
        c.l1i_accesses += 1
        if not self.l1i.access(pc):
            c.l1i_misses += 1
            self._cycles += self._miss_path(pc)
            if cfg.prefetch_next_line:
                self.l1i.install(pc + cfg.line_size)
        end = pc + insn.size - 1
        if (end >> self.l1i.line_bits) != (pc >> self.l1i.line_bits):
            c.l1i_accesses += 1
            if not self.l1i.access(end):
                c.l1i_misses += 1
                self._cycles += self._miss_path(end)
                if cfg.prefetch_next_line:
                    self.l1i.install(end + cfg.line_size)
        if self.fetch_heat is not None:
            self.fetch_heat[pc] = self.fetch_heat.get(pc, 0) + insn.size
        return insn

    # -- condition codes ------------------------------------------------------------

    def _cc_true(self, cc):
        a, b = self.flag_a, self.flag_b
        if cc == CondCode.EQ:
            return a == b
        if cc == CondCode.NE:
            return a != b
        if cc == CondCode.LT:
            return a < b
        if cc == CondCode.LE:
            return a <= b
        if cc == CondCode.GT:
            return a > b
        if cc == CondCode.GE:
            return a >= b
        ua, ub = a & _MASK, b & _MASK
        if cc == CondCode.ULT:
            return ua < ub
        if cc == CondCode.ULE:
            return ua <= ub
        if cc == CondCode.UGT:
            return ua > ub
        return ua >= ub

    # -- branches ----------------------------------------------------------------------

    def _taken(self, from_pc, to_pc, mispred=False):
        self.counters.taken_branches += 1
        self._cycles += self.config.taken_branch_penalty
        if self.lbr is not None:
            self.lbr.record(from_pc, to_pc, mispred)

    # -- builtins ------------------------------------------------------------------------

    def _run_builtin(self, address):
        if address == BUILTIN_BASE:  # __throw
            self._unwind(self.regs[RDI])
        else:
            raise MachineFault(f"call to unknown builtin {address:#x}")

    def _unwind(self, value):
        """Frame-pointer unwinding using CFI-lite frame records."""
        memory = self.machine.memory
        records = self.machine.binary.frame_records
        ra = memory.read_word(self.regs[RSP]) & _MASK
        rbp = self.regs[RBP]
        while True:
            if ra == EXIT_MAGIC:
                raise MachineFault(f"uncaught exception (value={value})")
            sym = self.machine.function_at(ra - 1)
            if sym is None:
                raise MachineFault(
                    f"cannot unwind through unknown code at {ra:#x}")
            record = records.get(sym.link_name())
            if record is None:
                raise MachineFault(
                    f"cannot unwind through {sym.link_name()} (no frame info)")
            lp = record.landing_pad_for(ra - 1 - sym.value)
            if lp is not None:
                self.regs[RAX] = value
                self.regs[RBP] = rbp
                self.regs[RSP] = _wrap(rbp - record.frame_size)
                self.pc = sym.value + lp
                return
            for reg, offset in record.saved_regs:
                self.regs[reg] = memory.read_word(rbp - offset)
            ra = memory.read_word(rbp + 8) & _MASK
            new_rbp = memory.read_word(rbp)
            self.regs[RSP] = _wrap(rbp + 16)
            rbp = new_rbp

    # -- main loop -------------------------------------------------------------------------

    def run(self, max_instructions=50_000_000):
        """Run until halt; returns the exit code (rax at exit)."""
        regs = self.regs
        memory = self.machine.memory
        counters = self.counters
        cfg = self.config
        remaining = max_instructions

        while not self.halted:
            if remaining <= 0:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_instructions} instructions at pc={self.pc:#x}")
            remaining -= 1
            self._cycles = 0
            pc = self.pc
            insn = self._fetch(pc)
            op = insn.op
            next_pc = pc + insn.size
            counters.instructions += 1

            if op == Op.MOV_RR:
                regs[insn.regs[0]] = regs[insn.regs[1]]
            elif op == Op.MOV_RI32 or op == Op.MOV_RI64:
                regs[insn.regs[0]] = insn.imm
            elif op == Op.LOAD:
                regs[insn.regs[0]] = self._read_mem(regs[insn.regs[1]] + insn.disp)
            elif op == Op.STORE:
                self._write_mem(regs[insn.regs[0]] + insn.disp, regs[insn.regs[1]])
            elif op == Op.LOAD_ABS:
                regs[insn.regs[0]] = self._read_mem(insn.addr)
            elif op == Op.STORE_ABS:
                self._write_mem(insn.addr, regs[insn.regs[0]])
            elif op == Op.LOADIDX:
                addr = regs[insn.regs[1]] + 8 * regs[insn.regs[2]] + insn.disp
                regs[insn.regs[0]] = self._read_mem(addr)
            elif op == Op.STOREIDX:
                addr = regs[insn.regs[0]] + 8 * regs[insn.regs[1]] + insn.disp
                self._write_mem(addr, regs[insn.regs[2]])
            elif op == Op.LEA:
                regs[insn.regs[0]] = _wrap(regs[insn.regs[1]] + insn.disp)
            elif op == Op.ADD_RR:
                regs[insn.regs[0]] = _wrap(regs[insn.regs[0]] + regs[insn.regs[1]])
            elif op == Op.ADD_RI:
                regs[insn.regs[0]] = _wrap(regs[insn.regs[0]] + insn.imm)
            elif op == Op.SUB_RR:
                regs[insn.regs[0]] = _wrap(regs[insn.regs[0]] - regs[insn.regs[1]])
            elif op == Op.SUB_RI:
                regs[insn.regs[0]] = _wrap(regs[insn.regs[0]] - insn.imm)
            elif op == Op.IMUL_RR:
                regs[insn.regs[0]] = _wrap(regs[insn.regs[0]] * regs[insn.regs[1]])
            elif op == Op.IMUL_RI:
                regs[insn.regs[0]] = _wrap(regs[insn.regs[0]] * insn.imm)
            elif op == Op.AND_RR:
                regs[insn.regs[0]] = _wrap(regs[insn.regs[0]] & regs[insn.regs[1]])
            elif op == Op.AND_RI:
                regs[insn.regs[0]] = _wrap(regs[insn.regs[0]] & insn.imm)
            elif op == Op.OR_RR:
                regs[insn.regs[0]] = _wrap(regs[insn.regs[0]] | regs[insn.regs[1]])
            elif op == Op.OR_RI:
                regs[insn.regs[0]] = _wrap(regs[insn.regs[0]] | insn.imm)
            elif op == Op.XOR_RR:
                regs[insn.regs[0]] = _wrap(regs[insn.regs[0]] ^ regs[insn.regs[1]])
            elif op == Op.XOR_RI:
                regs[insn.regs[0]] = _wrap(regs[insn.regs[0]] ^ insn.imm)
            elif op == Op.SHL_RI:
                regs[insn.regs[0]] = _wrap(regs[insn.regs[0]] << (insn.imm & 63))
            elif op == Op.SHR_RI:
                regs[insn.regs[0]] = _wrap(
                    (regs[insn.regs[0]] & _MASK) >> (insn.imm & 63))
            elif op == Op.SAR_RI:
                regs[insn.regs[0]] = _wrap(regs[insn.regs[0]] >> (insn.imm & 63))
            elif op == Op.SHL_RR:
                regs[insn.regs[0]] = _wrap(
                    regs[insn.regs[0]] << (regs[insn.regs[1]] & 63))
            elif op == Op.SHR_RR:
                regs[insn.regs[0]] = _wrap(
                    (regs[insn.regs[0]] & _MASK) >> (regs[insn.regs[1]] & 63))
            elif op == Op.SAR_RR:
                regs[insn.regs[0]] = _wrap(
                    regs[insn.regs[0]] >> (regs[insn.regs[1]] & 63))
            elif op == Op.NEG:
                regs[insn.regs[0]] = _wrap(-regs[insn.regs[0]])
            elif op == Op.IDIV_RR or op == Op.IMOD_RR:
                divisor = regs[insn.regs[1]]
                if divisor == 0:
                    raise MachineFault(f"division by zero at pc={pc:#x}")
                dividend = regs[insn.regs[0]]
                quotient = abs(dividend) // abs(divisor)
                if (dividend < 0) != (divisor < 0):
                    quotient = -quotient
                if op == Op.IDIV_RR:
                    regs[insn.regs[0]] = _wrap(quotient)
                else:
                    regs[insn.regs[0]] = _wrap(dividend - quotient * divisor)
            elif op == Op.CMP_RR:
                self.flag_a = regs[insn.regs[0]]
                self.flag_b = regs[insn.regs[1]]
            elif op == Op.CMP_RI:
                self.flag_a = regs[insn.regs[0]]
                self.flag_b = insn.imm
            elif op == Op.TEST_RR:
                self.flag_a = _wrap(regs[insn.regs[0]] & regs[insn.regs[1]])
                self.flag_b = 0
            elif op == Op.TEST_RI:
                self.flag_a = _wrap(regs[insn.regs[0]] & insn.imm)
                self.flag_b = 0
            elif op == Op.SETCC:
                regs[insn.regs[0]] = 1 if self._cc_true(CondCode(insn.imm)) else 0
            elif op == Op.PUSH:
                regs[RSP] = _wrap(regs[RSP] - 8)
                self._write_mem(regs[RSP], regs[insn.regs[0]])
            elif op == Op.POP:
                regs[insn.regs[0]] = self._read_mem(regs[RSP])
                regs[RSP] = _wrap(regs[RSP] + 8)
            elif op == Op.JCC_SHORT or op == Op.JCC_LONG:
                counters.cond_branches += 1
                taken = self._cc_true(insn.cc)
                correct = self.bp.update_cond(pc, taken)
                if not correct:
                    counters.branch_misses += 1
                    self._cycles += cfg.mispredict_penalty
                if taken:
                    counters.cond_taken += 1
                    self._taken(pc, insn.target, not correct)
                    next_pc = insn.target
            elif op == Op.JMP_SHORT or op == Op.JMP_NEAR:
                counters.uncond_branches += 1
                self._taken(pc, insn.target)
                next_pc = insn.target
            elif op == Op.CALL:
                counters.calls += 1
                regs[RSP] = _wrap(regs[RSP] - 8)
                self._write_mem(regs[RSP], next_pc)
                self.bp.push_return(next_pc)
                self._taken(pc, insn.target)
                next_pc = insn.target
            elif op == Op.CALL_REG or op == Op.CALL_MEM:
                counters.calls += 1
                counters.indirect_branches += 1
                if op == Op.CALL_REG:
                    target = regs[insn.regs[0]] & _MASK
                else:
                    target = self._read_mem(insn.addr) & _MASK
                correct = self.bp.predict_indirect(pc, target)
                if not correct:
                    counters.branch_misses += 1
                    self._cycles += cfg.mispredict_penalty
                regs[RSP] = _wrap(regs[RSP] - 8)
                self._write_mem(regs[RSP], next_pc)
                self.bp.push_return(next_pc)
                self._taken(pc, target, not correct)
                next_pc = target
            elif op == Op.JMP_REG or op == Op.JMP_MEM:
                counters.uncond_branches += 1
                counters.indirect_branches += 1
                if op == Op.JMP_REG:
                    target = regs[insn.regs[0]] & _MASK
                else:
                    target = self._read_mem(insn.addr) & _MASK
                correct = self.bp.predict_indirect(pc, target)
                if not correct:
                    counters.branch_misses += 1
                    self._cycles += cfg.mispredict_penalty
                self._taken(pc, target, not correct)
                next_pc = target
            elif op == Op.RET or op == Op.REPZ_RET:
                counters.returns += 1
                target = self._read_mem(regs[RSP]) & _MASK
                regs[RSP] = _wrap(regs[RSP] + 8)
                correct = self.bp.predict_return(target)
                if not correct:
                    counters.branch_misses += 1
                    self._cycles += cfg.mispredict_penalty
                if target == EXIT_MAGIC:
                    self.halted = True
                    self.exit_code = regs[RAX]
                    next_pc = pc
                else:
                    self._taken(pc, target, not correct)
                    next_pc = target
            elif op == Op.OUT:
                self.output.append(regs[insn.regs[0]])
            elif op == Op.NOP or op == Op.NOPN:
                pass
            elif op == Op.HALT:
                self.halted = True
                self.exit_code = regs[RAX]
                next_pc = pc
            elif op == Op.TRAP:
                raise MachineFault(f"trap at pc={pc:#x}")
            else:  # pragma: no cover
                raise MachineFault(f"unimplemented opcode {op!r} at {pc:#x}")

            cycles = int(cfg.base_cpi) + self._cycles
            counters.cycles += cycles

            # Builtin interception: transfers into the builtin region run
            # natively (e.g. __throw performs unwinding and sets self.pc).
            if next_pc >= BUILTIN_BASE and not self.halted:
                self.pc = next_pc
                self._run_builtin(next_pc)
                # _unwind set self.pc to the landing pad / handler.
            else:
                self.pc = next_pc

            if self.sampler is not None:
                self._sampler_tick(pc, cycles)

        return self.exit_code

    def _sampler_tick(self, pc, cycles):
        sampler = self.sampler
        event = sampler.event
        if event == "cycles":
            self._sample_acc += cycles
        elif event == "instructions":
            self._sample_acc += 1
        else:  # taken-branches: approximate via counter delta
            acc = self.counters.taken_branches
            delta = acc - getattr(self, "_last_taken", 0)
            self._last_taken = acc
            self._sample_acc += delta
        if self._skid_remaining >= 0:
            if self._skid_remaining == 0:
                sampler.take_sample(
                    pc, self.lbr.snapshot() if self.lbr is not None else None)
                self._skid_remaining = -1
            else:
                self._skid_remaining -= 1
        if self._sample_acc >= sampler.period:
            self._sample_acc -= sampler.period
            if sampler.skid <= 0:
                sampler.take_sample(
                    pc, self.lbr.snapshot() if self.lbr is not None else None)
            else:
                self._skid_remaining = sampler.skid - 1
