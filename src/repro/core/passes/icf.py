"""Passes 2 & 7: identical code folding.

Complements linker ICF (paper section 4): because BOLT folds on the
*reconstructed CFG* with symbolized references, it can fold functions
the linker could not — e.g. functions with jump tables (whose table
bytes differ because they hold absolute addresses into each copy) and
functions the compiler did not place in comparable sections.
"""

from repro.core.passes.base import BinaryPass


#: Stands in for a function's own name in its key: a self-recursive
#: function folds only with another self-recursive twin, never with a
#: function that calls the survivor.
SELF = "__self__"


def _function_key(func):
    """A structural key: code with labels/tables normalized to indices
    and the function's own name replaced by :data:`SELF`."""
    name = func.name

    def own(leaf):
        if type(leaf) is tuple:
            return tuple(map(own, leaf))
        return SELF if leaf == name else leaf

    index = {label: i for i, label in enumerate(func.blocks)}

    def ref(label):
        pos = index.get(label)
        return own(label) if pos is None else pos

    table_ids = {id(t): i for i, t in enumerate(func.jump_tables)}
    # Table *addresses* appear as MOV_RI32 immediates (the dispatch base
    # materialization); normalize them so two copies of a switch-heavy
    # function compare equal even though their tables live at different
    # addresses — the folding linkers cannot do (paper section 4).
    table_addrs = {t.address: i for i, t in enumerate(func.jump_tables)}
    jt = own("jt")
    blocks = []
    for label, block in func.blocks.items():
        insn_keys = []
        for insn in block.insns:
            table = insn.get_annotation("jump-table")
            imm = insn.imm
            if imm in table_addrs:
                imm = (jt, table_addrs[imm])
            sym = insn.sym
            insn_keys.append((
                int(insn.op),
                insn.regs,
                imm if table is None else None,
                insn.disp,
                insn.addr,
                int(insn.cc) if insn.cc is not None else None,
                ref(insn.label),
                (own(sym.name), own(sym.kind), own(sym.addend))
                if sym is not None else None,
                table_ids.get(id(table)),
            ))
        blocks.append((
            index[label],
            tuple(insn_keys),
            tuple(map(ref, block.successors)),
            ref(block.fallthrough_label),
            tuple(map(ref, block.landing_pads)),
            block.is_landing_pad,
        ))
    tables = tuple(tuple(map(ref, t.entries)) for t in func.jump_tables)
    record = func.frame_record
    frame = None
    if record is not None:
        frame = (record.frame_size, tuple(map(tuple, record.saved_regs)),
                 tuple((c.start, c.end, c.landing_pad, c.action)
                       for c in record.callsites))
    return (tuple(blocks), tables, frame)


class IdenticalCodeFolding(BinaryPass):
    def __init__(self, round=1):
        self.round = round
        self.name = "icf" if round == 1 else "icf-2"

    def run(self, context):
        # One scan suffices: folding rewrites no call site, so no
        # surviving function's key changes, and folded functions leave
        # ``simple_functions`` — a second scan could fold nothing.
        folded = 0
        saved_bytes = 0
        by_key = {}
        for func in context.simple_functions():
            key = _function_key(func)
            survivor = by_key.get(key)
            if survivor is None:
                by_key[key] = func
                continue
            func.is_folded = True
            func.folded_into = survivor
            survivor.exec_count += func.exec_count
            for label, block in func.blocks.items():
                twin = survivor.blocks.get(label)
                if twin is not None:
                    twin.exec_count += block.exec_count
                    for succ, count in block.edge_counts.items():
                        twin.edge_counts[succ] = (
                            twin.edge_counts.get(succ, 0) + count)
            folded += 1
            saved_bytes += func.size
        return {"folded": folded, "saved_bytes": saved_bytes}
