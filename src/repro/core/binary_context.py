"""BinaryContext: everything BOLT knows about the input binary."""

import bisect

from repro.belf import RelocType, SymbolType
from repro.core.diagnostics import Diagnostics
from repro.linker import BUILTINS


class BinaryContext:
    """Shared state for a rewriting session.

    Indexes the input executable's symbols, relocations (if the binary
    was linked with ``--emit-relocs``), frame records and line table for
    fast lookup during disassembly and CFG construction.
    """

    def __init__(self, binary, options):
        self.binary = binary
        self.options = options
        self.diagnostics = Diagnostics(strict=options.strict)
        self.stale_profile = False
        self.profile_quality = None
        self.has_relocations = bool(binary.relocations)
        if options.use_relocations is None:
            self.use_relocations = self.has_relocations
        else:
            self.use_relocations = options.use_relocations and self.has_relocations

        # function symbol index (sorted by address)
        funcs = sorted(
            (s for s in binary.symbols
             if s.type == SymbolType.FUNC and s.size > 0),
            key=lambda s: s.value,
        )
        self._func_starts = [s.value for s in funcs]
        self._func_syms = funcs
        self.func_by_name = {s.link_name(): s for s in funcs}

        # relocation index: (section name, offset) -> Relocation
        self.reloc_at = {}
        for reloc in binary.relocations:
            self.reloc_at[(reloc.section, reloc.offset)] = reloc

        # data symbol index for jump-table discovery
        self.object_symbols = {
            s.link_name(): s for s in binary.symbols
            if s.type == SymbolType.OBJECT
        }

        # PLT map: stub address -> (symbol name, final target address)
        self.plt_map = self._index_plt()

        # builtin entry points (frozen once; ``is_builtin`` used to
        # rebuild this set on every query)
        self._builtin_addrs = frozenset(BUILTINS.values())

        self.functions = {}    # link name -> BinaryFunction (filled by discovery)

    # -- address queries ------------------------------------------------------

    def function_symbol_at(self, address):
        idx = bisect.bisect_right(self._func_starts, address) - 1
        if idx < 0:
            return None
        sym = self._func_syms[idx]
        return sym if sym.contains(address) else None

    def function_entry_at(self, address):
        """The function whose entry point is exactly ``address``."""
        sym = self.function_symbol_at(address)
        if sym is not None and sym.value == address:
            return sym
        return None

    def section_at(self, address):
        return self.binary.section_at(address)

    def read_word(self, address):
        return self.binary.read_word(address)

    def line_for(self, address):
        if self.binary.line_table is None:
            return None
        return self.binary.line_table.lookup(address)

    # -- PLT ----------------------------------------------------------------------

    def _index_plt(self):
        """Decode .plt stubs: stub address -> (got address, target)."""
        from repro.isa import decode, DecodeError, Op

        plt = self.binary.get_section(".plt")
        if plt is None:
            return {}
        out = {}
        offset = 0
        data = bytes(plt.data)
        while offset < len(data):
            try:
                insn = decode(data, offset, plt.addr + offset)
            except DecodeError:
                break
            if insn.op == Op.JMP_MEM:
                got_addr = insn.addr
                target = self.binary.read_word(got_addr)
                out[plt.addr + offset] = (got_addr, target)
            offset += insn.size
        return out

    def is_plt_stub(self, address):
        return address in self.plt_map

    def plt_target(self, address):
        """Final target address behind a PLT stub."""
        return self.plt_map[address][1]

    def is_builtin(self, address):
        return address in self._builtin_addrs

    # -- function registry ------------------------------------------------------------

    def add_function(self, func):
        self.functions[func.name] = func
        return func

    def simple_functions(self):
        return [f for f in self.functions.values()
                if f.is_simple and not f.is_folded]

    def get_function_containing(self, address):
        sym = self.function_symbol_at(address)
        if sym is None:
            return None
        return self.functions.get(sym.link_name())
