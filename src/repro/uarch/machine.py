"""Memory, loader and process state, plus the primitives both engines share."""

import struct
from bisect import bisect_right

from repro.belf import SectionType, STACK_TOP

#: Sentinel return address: when main returns here, the program exits.
EXIT_MAGIC = 0xE0D0F00D

_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_PAGE_MASK = _PAGE_SIZE - 1

_MASK = (1 << 64) - 1

_load_word = struct.Struct("<q").unpack_from
_store_word = struct.Struct("<Q").pack_into


def _wrap(value):
    """Wrap an integer to signed 64 bits."""
    value &= _MASK
    return value - (1 << 64) if value >= 1 << 63 else value


class MachineFault(Exception):
    """Hardware-level fault (bad memory access, division by zero,
    invalid opcode, uncaught exception)."""


class ExecutionLimitExceeded(Exception):
    """The instruction budget ran out (likely an infinite loop)."""


class Memory:
    """Sparse paged byte-addressable memory."""

    def __init__(self):
        self.pages = {}

    def _page(self, page_index):
        page = self.pages.get(page_index)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self.pages[page_index] = page
        return page

    def write_bytes(self, addr, data):
        offset = addr & _PAGE_MASK
        page_index = addr >> _PAGE_BITS
        pos = 0
        remaining = len(data)
        while remaining:
            chunk = min(_PAGE_SIZE - offset, remaining)
            self._page(page_index)[offset : offset + chunk] = data[pos : pos + chunk]
            pos += chunk
            remaining -= chunk
            offset = 0
            page_index += 1

    def read_bytes(self, addr, size):
        offset = addr & _PAGE_MASK
        page_index = addr >> _PAGE_BITS
        if offset + size <= _PAGE_SIZE:
            page = self.pages.get(page_index)
            if page is None:
                return bytes(size)
            return bytes(page[offset : offset + size])
        out = bytearray()
        remaining = size
        while remaining:
            chunk = min(_PAGE_SIZE - offset, remaining)
            page = self.pages.get(page_index)
            if page is None:
                out += b"\x00" * chunk
            else:
                out += page[offset : offset + chunk]
            remaining -= chunk
            offset = 0
            page_index += 1
        return bytes(out)

    def read_word(self, addr):
        """Signed 64-bit little-endian read."""
        offset = addr & _PAGE_MASK
        if offset <= _PAGE_SIZE - 8:
            page = self.pages.get(addr >> _PAGE_BITS)
            if page is None:
                return 0
            return _load_word(page, offset)[0]
        return int.from_bytes(self.read_bytes(addr, 8), "little", signed=True)

    def write_word(self, addr, value):
        value &= _MASK
        offset = addr & _PAGE_MASK
        if offset <= _PAGE_SIZE - 8:
            _store_word(self._page(addr >> _PAGE_BITS), offset, value)
        else:
            self.write_bytes(addr, value.to_bytes(8, "little"))


class Machine:
    """A loaded process: memory image + metadata the CPU needs."""

    def __init__(self, binary):
        self.binary = binary
        self.memory = Memory()
        self.exec_ranges = []        # (start, end) of executable sections
        #: Set once any executable byte has been overwritten after load;
        #: tells code-caching engines their pre-decoded traces are stale.
        self.code_dirty = False
        self.load(binary)
        self._func_index = None

    def load(self, binary):
        if not binary.is_executable:
            raise MachineFault("cannot load a relocatable object")
        for section in binary.sections.values():
            if not section.is_alloc:
                continue
            if section.type == SectionType.NOBITS:
                self.memory.write_bytes(section.addr, b"\x00" * section.size)
            else:
                self.memory.write_bytes(section.addr, bytes(section.data))
            if section.is_exec:
                self.exec_ranges.append((section.addr, section.addr + section.size))
        self.entry = binary.entry
        self._index_exec_ranges()

    def _index_exec_ranges(self):
        ranges = sorted(self.exec_ranges)
        self._exec_starts = [start for start, _ in ranges]
        self._exec_ends = [end for _, end in ranges]
        self._exec_lo = ranges[0][0] if ranges else 0
        self._exec_hi = max(self._exec_ends) if ranges else 0

    def exec_bounds(self):
        """(lowest, highest) executable address bound; (0, 0) if none."""
        return self._exec_lo, self._exec_hi

    def invalidate_code_cache(self):
        """Mark the code image as modified.

        Writes performed *by the CPU* are detected automatically; callers
        that poke executable bytes directly through ``machine.memory``
        must call this so block-cached engines drop their traces.
        """
        self.code_dirty = True

    def code_write_check(self, addr, size=8):
        """Flag (and report) a write overlapping an executable range."""
        if addr >= self._exec_hi or addr + size <= self._exec_lo:
            return False
        idx = bisect_right(self._exec_starts, addr + size - 1) - 1
        if idx >= 0 and self._exec_ends[idx] > addr:
            self.code_dirty = True
            return True
        return False

    def initial_stack(self):
        """Set up the stack; returns the initial rsp (EXIT_MAGIC pushed)."""
        rsp = STACK_TOP - 64
        self.memory.write_word(rsp, EXIT_MAGIC)
        return rsp

    def is_executable_address(self, addr):
        if addr < self._exec_lo or addr >= self._exec_hi:
            return False
        idx = bisect_right(self._exec_starts, addr) - 1
        return idx >= 0 and addr < self._exec_ends[idx]

    # -- symbol helpers (used by the unwinder and profilers) -----------------

    def _build_func_index(self):
        funcs = sorted(
            (s for s in self.binary.functions() if s.size > 0),
            key=lambda s: s.value,
        )
        self._func_index = ([s.value for s in funcs], funcs)

    def function_at(self, addr):
        """FUNC symbol covering ``addr`` (binary search), or None."""
        if self._func_index is None:
            self._build_func_index()
        starts, funcs = self._func_index
        idx = bisect_right(starts, addr) - 1
        if idx < 0:
            return None
        sym = funcs[idx]
        return sym if sym.contains(addr) else None

    def poke_array(self, link_name, values):
        """Write 64-bit values into a global array (workload inputs)."""
        sym = self.binary.get_symbol(link_name)
        if sym is None:
            raise KeyError(f"no symbol {link_name}")
        if values:
            self.code_write_check(sym.value, 8 * len(values))
        for i, value in enumerate(values):
            self.memory.write_word(sym.value + 8 * i, value)

    def peek_array(self, link_name, count):
        """Read 64-bit values from a global array (e.g. PGO counters)."""
        sym = self.binary.get_symbol(link_name)
        if sym is None:
            raise KeyError(f"no symbol {link_name}")
        return [self.memory.read_word(sym.value + 8 * i) for i in range(count)]
