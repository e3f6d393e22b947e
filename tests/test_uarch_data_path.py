"""The data-side fast paths: ``Memory`` words and MRU-hit batching.

``Memory.read_word``/``write_word`` use precompiled ``struct`` codecs on
the one-page path; the property test pins them against the byte-level
definition, including page-straddling words and unmapped pages.

``BlockCPU`` counts data accesses that hit the D-TLB's last page *and*
way 0 of their L1D set in per-trace locals instead of calling
``access()``, and adds the batch at trace end or on a fault.  The engine
tests below drive the two cases the batching must get right against
``ReferenceCPU``: a fault in the middle of a trace that already batched
hits, and hits that are not MRU (so they must go through ``access()`` to
reorder the LRU state).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import CondCode, Op, RAX, RBX, RCX, RDX, RSI
from repro.uarch import UarchConfig
from repro.uarch.machine import Memory

import tests.test_engine_equivalence as eq

_MASK = (1 << 64) - 1
_PAGE = 4096

_EDGE_VALUES = (-(1 << 63), -1, 0, (1 << 63) - 1, 1 << 63, (1 << 64) - 1)


@given(page=st.integers(0, 64),
       offset=st.integers(_PAGE - 16, _PAGE - 1) | st.integers(0, _PAGE - 1),
       value=st.sampled_from(_EDGE_VALUES)
       | st.integers(-(1 << 64), (1 << 65)),
       around=st.none() | st.binary(min_size=24, max_size=24))
@settings(deadline=None, max_examples=300)
def test_word_round_trip_matches_bytes(page, offset, value, around):
    """A written word reads back as the signed value of its masked bytes,
    and no byte outside it changes (mapped or unmapped neighbours)."""
    memory = Memory()
    addr = page * _PAGE + offset
    if around is not None:
        memory.write_bytes(addr - 8 if addr >= 8 else addr, around)
    before = memory.read_bytes(max(addr - 8, 0), 24)
    assert memory.read_word(addr) == int.from_bytes(
        memory.read_bytes(addr, 8), "little", signed=True)

    memory.write_word(addr, value)
    raw = (value & _MASK).to_bytes(8, "little")
    assert memory.read_word(addr) == int.from_bytes(raw, "little",
                                                    signed=True)
    assert memory.read_bytes(addr, 8) == raw
    lo = max(addr - 8, 0)
    after = memory.read_bytes(lo, 24)
    assert after[:addr - lo] == before[:addr - lo]
    assert after[addr - lo + 8:] == before[addr - lo + 8:]


@pytest.mark.parametrize("offset", range(_PAGE - 8, _PAGE))
def test_unmapped_words_read_zero(offset):
    memory = Memory()
    assert memory.read_word(3 * _PAGE + offset) == 0
    assert memory.pages == {}


# -- BlockCPU batching against ReferenceCPU ---------------------------------


def _faulting_loadidx_program():
    """A loop whose trace batches stack and data hits, then faults.

    RDX steps down by 10000 per iteration, so on the fifth pass the
    LOADIDX address ``DATA + 8 * RDX`` goes negative — after the PUSH,
    STORE, LOAD and POP of the same trace have hit in L1D/D-TLB.
    """
    return eq.make_exe([
        eq.I(Op.MOV_RI32, RCX, imm=8),
        eq.I(Op.MOV_RI64, RSI, imm=eq.DATA),
        eq.I(Op.MOV_RI32, RDX, imm=0),
        "loop",
        eq.I(Op.PUSH, RCX),
        eq.I(Op.STORE, RSI, RCX, disp=8),
        eq.I(Op.LOAD, RBX, RSI, disp=8),
        eq.I(Op.LOAD, RBX, RSI, disp=16),
        eq.I(Op.POP, RAX),
        eq.I(Op.LOADIDX, RAX, RSI, RDX, disp=0),
        eq.I(Op.OUT, RAX),
        eq.I(Op.SUB_RI, RDX, imm=10000),
        eq.I(Op.SUB_RI, RCX, imm=1),
        eq.I(Op.CMP_RI, RCX, imm=0),
        eq.I(Op.JCC_LONG, cc=CondCode.NE, label="loop"),
        eq.I(Op.RET),
    ])


@pytest.mark.parametrize("sampling_name", sorted(eq.SAMPLINGS))
def test_loadidx_fault_after_batched_hits(sampling_name):
    state = eq.assert_engines_match(_faulting_loadidx_program(),
                                    sampling=eq.SAMPLINGS[sampling_name])
    assert state["error"][0] == "MachineFault"
    assert state["error"][1].startswith("bad read address -0x")
    assert len(state["output"]) == 4
    l1d_accesses, l1d_misses = state["caches"]["l1d"]
    assert l1d_accesses == state["counters"]["l1d_accesses"] > l1d_misses


def _non_mru_program():
    """Loads that hit in L1D/D-TLB without being most recently used.

    ``A`` .. ``E`` share an L1D set; ``A`` and ``B`` also share a page,
    so the second load of ``A`` passes the D-TLB test but hits way 1 and
    must reorder the LRU state: ``E`` then evicts ``B``, not ``A``, and
    the next load of ``A`` hits.  ``Y`` sits on another page in another
    set: after it, ``A`` is still way 0 of its set but no longer the
    D-TLB's last page.
    """
    cfg = UarchConfig()
    s = cfg.l1d_size // cfg.l1d_assoc       # same-set stride
    y = _PAGE + cfg.line_size
    loads = (0, s, 0, 2 * s, 3 * s, 4 * s, 0, y, 0, 8)
    return eq.make_exe(
        [eq.I(Op.MOV_RI32, RCX, imm=20),
         eq.I(Op.MOV_RI64, RSI, imm=eq.DATA),
         "loop"]
        + [eq.I(Op.LOAD, RAX, RSI, disp=disp) for disp in loads]
        + [eq.I(Op.STORE, RSI, RCX, disp=s + 8),
           eq.I(Op.SUB_RI, RCX, imm=1),
           eq.I(Op.CMP_RI, RCX, imm=0),
           eq.I(Op.JCC_LONG, cc=CondCode.NE, label="loop"),
           eq.I(Op.MOV_RI32, RAX, imm=0),
           eq.I(Op.RET)]), len(loads) + 1


@pytest.mark.parametrize("sampling_name", sorted(eq.SAMPLINGS))
def test_non_mru_hits_match_reference(sampling_name):
    exe, per_iteration = _non_mru_program()
    state = eq.assert_engines_match(exe,
                                    sampling=eq.SAMPLINGS[sampling_name])
    assert state["error"] is None
    counters = state["counters"]
    # 20 iterations, plus the RET's stack read.
    assert counters["l1d_accesses"] == per_iteration * 20 + 1
    assert state["caches"]["l1d"][0] == counters["l1d_accesses"]
    assert state["caches"]["dtlb"][0] == counters["dtlb_accesses"]
    assert counters["l1d_misses"] > 0
