"""Per-pass unit tests for BOLT's optimization pipeline (Table 1)."""

import pytest

from repro.compiler import BuildOptions, build_executable
from repro.core import BinaryContext, BoltOptions, optimize_binary
from repro.core.cfg_builder import build_all_functions
from repro.core.discovery import discover_functions
from repro.core.profile_attach import attach_profile
from repro.core.passes import (
    EliminateUnreachable,
    FixupBranches,
    FrameOptimization,
    IdenticalCodeFolding,
    IndirectCallPromotion,
    InlineSmall,
    Peepholes,
    PLTCalls,
    ReorderBasicBlocks,
    ReorderFunctions,
    ShrinkWrapping,
    SimplifyConditionalTailCalls,
    SimplifyRoLoads,
    StripRepRet,
    build_pipeline,
)
from repro.ir import InlinePolicy
from repro.isa import Op
from repro.profiling import profile_binary, SamplingConfig
from repro.uarch import run_binary


NO_INLINE = BuildOptions(inline=InlinePolicy(max_size=0, hot_max_size=0))


def analyze(sources, bolt_options=None, build_options=None, profile_period=None,
            **link_kwargs):
    exe, _ = build_executable(sources, build_options or NO_INLINE,
                              emit_relocs=True, **link_kwargs)
    context = BinaryContext(exe, bolt_options or BoltOptions())
    discover_functions(context)
    build_all_functions(context)
    if profile_period:
        profile, _ = profile_binary(
            exe, sampling=SamplingConfig(period=profile_period))
        context.profile = profile
        attach_profile(context, profile)
    else:
        context.profile = None
    return exe, context


def insns_of(func):
    return [i for b in func.blocks.values() for i in b.insns]


def test_strip_rep_ret():
    exe, context = analyze([("m", "func main() { return 1; }")])
    before = [i for i in insns_of(context.functions["main"])
              if i.op == Op.REPZ_RET]
    assert before
    stats = StripRepRet().run(context)
    assert stats["stripped"] >= 1
    assert not [i for i in insns_of(context.functions["main"])
                if i.op == Op.REPZ_RET]
    assert [i for i in insns_of(context.functions["main"])
            if i.op == Op.RET][0].size == 1


def test_icf_folds_identical_pair():
    exe, context = analyze([
        ("a", "func d1(x) { return x * 31 + 5; }\n"
              "func main() { return d1(1) + d2(1); }"),
        ("b", "func d2(x) { return x * 31 + 5; }"),
    ])
    stats = IdenticalCodeFolding().run(context)
    assert stats["folded"] == 1
    folded = [f for f in context.functions.values() if f.is_folded]
    assert len(folded) == 1
    assert folded[0].folded_into.name in ("d1", "d2")


def test_icf_folds_jump_table_functions():
    switch_body = """
  switch (x) {
    case 0: { return 5; } case 1: { return 6; }
    case 2: { return 7; } case 3: { return 8; }
  }
  return -1;
"""
    exe, context = analyze([
        ("a", f"func s1(x) {{ {switch_body} }}\n"
              "func main() { return s1(2) + s2(3); }"),
        ("b", f"func s2(x) {{ {switch_body} }}"),
    ])
    stats = IdenticalCodeFolding().run(context)
    assert stats["folded"] == 1  # the linker could not fold these


def test_icf_does_not_fold_different_bodies():
    exe, context = analyze([
        ("a", "func d1(x) { return x * 31; }\n"
              "func main() { return d1(1) + d2(1); }"),
        ("b", "func d2(x) { return x * 32; }"),
    ])
    assert IdenticalCodeFolding().run(context)["folded"] == 0


def test_icf_merges_profile():
    exe, context = analyze([
        ("a", "func d1(x) { return x * 31 + 5; }\n"
              "func main() { var i = 0; var s = 0;\n"
              "  while (i < 100) { s = s + d1(i) + d2(i); i = i + 1; }\n"
              "  out s; return 0; }"),
        ("b", "func d2(x) { return x * 31 + 5; }"),
    ], profile_period=29)
    d1 = context.functions["d1"]
    d2 = context.functions["d2"]
    total = d1.exec_count + d2.exec_count
    IdenticalCodeFolding().run(context)
    survivor = d1 if d2.is_folded else d2
    assert survivor.exec_count == total


def _reference_function_key(func):
    """ICF's key as first written: build it, then swap the function's
    own name for ``__self__`` in a recursive post-pass."""
    index = {label: i for i, label in enumerate(func.blocks)}
    table_ids = {id(t): i for i, t in enumerate(func.jump_tables)}
    table_addrs = {t.address: i for i, t in enumerate(func.jump_tables)}
    blocks = []
    for label, block in func.blocks.items():
        insn_keys = []
        for insn in block.insns:
            table = insn.get_annotation("jump-table")
            imm = insn.imm
            if imm in table_addrs:
                imm = ("jt", table_addrs[imm])
            insn_keys.append((
                int(insn.op),
                insn.regs,
                imm if table is None else None,
                insn.disp,
                insn.addr,
                int(insn.cc) if insn.cc is not None else None,
                index.get(insn.label, insn.label),
                (insn.sym.name, insn.sym.kind, insn.sym.addend)
                if insn.sym is not None else None,
                table_ids.get(id(table)),
            ))
        blocks.append((
            index[label],
            tuple(insn_keys),
            tuple(index.get(s, s) for s in block.successors),
            index.get(block.fallthrough_label),
            tuple(index.get(lp, lp) for lp in block.landing_pads),
            block.is_landing_pad,
        ))
    tables = tuple(
        tuple(index.get(e, e) for e in t.entries) for t in func.jump_tables)
    record = func.frame_record
    frame = None
    if record is not None:
        frame = (record.frame_size, tuple(map(tuple, record.saved_regs)),
                 tuple((c.start, c.end, c.landing_pad, c.action)
                       for c in record.callsites))

    def swap(item):
        if isinstance(item, tuple):
            return tuple(swap(x) for x in item)
        if item == func.name:
            return "__self__"
        return item

    return swap((tuple(blocks), tables, frame))


def _checked_icf_keys(monkeypatch):
    """Make every ICF key computation assert it equals the reference."""
    import repro.core.passes.icf as icf

    fast = icf._function_key
    checked = []

    def key(func):
        got = fast(func)
        assert got == _reference_function_key(func), func.name
        checked.append(func.name)
        return got

    monkeypatch.setattr(icf, "_function_key", key)
    return checked


def test_icf_key_matches_reference_on_compiler_preset(monkeypatch):
    from repro.harness import build_workload, sample_profile
    from repro.workloads import make_workload

    built = build_workload(make_workload("compiler", iterations=2))
    profile, _ = sample_profile(built, sampling=SamplingConfig(period=997))
    checked = _checked_icf_keys(monkeypatch)
    result = optimize_binary(built.exe, profile, BoltOptions())
    # A key mismatch would be contained as a failed whole-context pass.
    assert not result.diagnostics.errors and result.degraded is None
    simple = {f.name for f in result.context.functions.values()
              if f.is_simple}
    # Round 1 saw every function; round 2 every one round 1 kept.
    assert len(simple) > 200 and set(checked) >= simple
    assert len(checked) > len(simple)


def test_icf_key_self_reference_and_tag_names(monkeypatch):
    switch = """
  switch (x % 4) {
    case 0: { return 5; } case 1: { return 6; }
    case 2: { return 7; } case 3: { return jt(x - 1); }
  }
  return -1;
"""
    exe, context = analyze([
        ("a", f"func jt(x) {{ {switch} }}\n"
              "func fact(n) { if (n < 2) { return 1; } "
              "return n * fact(n - 1); }\n"
              "func branch(n) { if (n < 1) { return 0; } "
              "return 1 + branch(n - 1); }\n"
              "func main() { return jt(9) + fact(4) + branch(3); }"),
    ])
    checked = _checked_icf_keys(monkeypatch)
    IdenticalCodeFolding().run(context)
    assert {"jt", "fact", "branch"} <= set(checked)
    import repro.core.passes.icf as icf

    jt = context.functions["jt"]
    assert jt.jump_tables  # the "jt" key tag is in play
    assert "__self__" in repr(icf._function_key(jt))
    for name in ("fact", "branch"):
        assert "__self__" in repr(icf._function_key(context.functions[name]))


def test_peepholes_push_pop():
    exe, context = analyze([("m", """
func g(x) { return x + 1; }
func f(y) { return g(y) * 2; }
func main() { return f(1); }
""")])
    f = context.functions["f"]
    had = any(i.op == Op.PUSH for i in insns_of(f))
    stats = Peepholes().run(context)
    assert stats["push-pop"] >= 1
    # push rdi/pop rdi pairs collapse to nothing or a single mov
    pushes = [i for i in insns_of(f) if i.op == Op.PUSH and i.regs[0] != 5]
    assert had and len(pushes) == 0


def test_peepholes_jump_threading():
    # Construct a forwarder chain manually.
    exe, context = analyze([("m", """
func main() {
  var i = 0;
  while (i < 5) { i = i + 1; }
  return i;
}
""")])
    main = context.functions["main"]
    stats = Peepholes().run(context)
    assert stats is not None  # smoke: no crash, bookkeeping consistent
    for block in main.blocks.values():
        for succ in block.successors:
            assert succ in main.blocks


def test_inline_small_trivial_leaf():
    exe, context = analyze([("m", """
func tiny(a, b) { return a * 3 + b; }
func main() {
  var i = 0;
  var s = 0;
  while (i < 10) { s = s + tiny(i, s); i = i + 1; }
  out s;
  return 0;
}
""")])
    # Peepholes first (the call protocol push/pops hide nothing here but
    # mirror the real pipeline order 4 -> 5).
    Peepholes().run(context)
    stats = InlineSmall().run(context)
    assert stats["inlined"] >= 1
    main = context.functions["main"]
    assert not [i for i in insns_of(main)
                if i.is_call and i.sym and i.sym.name == "tiny"]


def test_inline_small_rejects_memory_and_calls():
    exe, context = analyze([("m", """
var g = 0;
func reads_mem(a, b) { return a + g; }
func has_call(a, b) { return reads_mem(a, b) + 1; }
func main() { return reads_mem(1, 2) + has_call(3, 4); }
""")])
    stats = InlineSmall().run(context)
    assert stats["inlined"] == 0


def test_simplify_ro_loads():
    exe, context = analyze([("m", """
const K = 12345;
func main() { return K + 1; }
""")])
    main = context.functions["main"]
    loads_before = [i for i in insns_of(main) if i.op == Op.LOAD_ABS]
    assert loads_before
    stats = SimplifyRoLoads().run(context)
    assert stats["converted"] >= 1
    movs = [i for i in insns_of(main)
            if i.op == Op.MOV_RI32 and i.imm == 12345]
    assert movs
    # Semantics preserved end to end.
    result = optimize_binary(exe, None, BoltOptions())
    assert run_binary(result.binary).exit_code == run_binary(exe).exit_code


def test_simplify_ro_loads_aborts_on_big_values():
    exe, context = analyze([("m", """
const BIG = 0x123456789AB;
func main() { return BIG >> 40; }
""")])
    stats = SimplifyRoLoads().run(context)
    assert stats["aborted"] >= 1
    assert stats["converted"] == 0


def test_simplify_ro_loads_skips_writable():
    exe, context = analyze([("m", """
var mut = 7;
func main() { return mut; }
""")])
    stats = SimplifyRoLoads().run(context)
    assert stats["converted"] == 0


def test_plt_pass():
    exe, context = analyze(
        [("m", "func main() { out util(3); out util(4); return 0; }")],
        libs=[("lib", "func util(x) { return x * 2; }")])
    stats = PLTCalls().run(context)
    assert stats["optimized"] == 2
    main = context.functions["main"]
    direct = [i for i in insns_of(main)
              if i.is_call and i.sym and i.sym.name == "util"]
    assert len(direct) == 2


def test_plt_pass_skips_builtins():
    exe, context = analyze([("m", """
func main() {
  try { throw 1; } catch (e) { }
  return 0;
}
""")])
    stats = PLTCalls().run(context)
    assert stats["skipped"] >= 1
    assert stats["optimized"] == 0


HOT_COLD = ("m", """
func f(x) {
  if (x % 1024 == 1023) {
    x = x * 3;
    x = x + 17;
    x = x ^ 5;
    return x;
  }
  return x + 1;
}
func main() {
  var i = 0;
  var s = 0;
  while (i < 300) { s = s + f(i); i = i + 1; }
  out s;
  return 0;
}
""")


def test_reorder_bbs_and_splitting():
    exe, context = analyze([HOT_COLD], profile_period=23)
    f = context.functions["f"]
    before = list(f.blocks)
    stats = ReorderBasicBlocks().run(context)
    assert stats.get("cold-blocks", 0) >= 1
    cold = [b for b in f.blocks.values() if b.is_cold]
    assert cold
    hottest = max(b.exec_count for b in f.blocks.values())
    # Cold blocks carry at most profile noise (section 5.2 surplus).
    assert all(b.exec_count <= hottest * 0.005 for b in cold)
    # Entry still first.
    assert next(iter(f.blocks)) == f.entry_label


def test_reorder_bbs_skips_unprofiled():
    exe, context = analyze([HOT_COLD])
    for func in context.functions.values():
        func.has_profile = False
    stats = ReorderBasicBlocks().run(context)
    assert stats.get("skipped-no-profile", 0) >= 1


def test_fixup_branches_invariants():
    exe, context = analyze([HOT_COLD], profile_period=23)
    ReorderBasicBlocks().run(context)
    FixupBranches().run(context)
    for func in context.simple_functions():
        layout = func.layout()
        for i, block in enumerate(layout):
            if not block.insns:
                continue
            last = block.insns[-1]
            next_label = (layout[i + 1].label
                          if i + 1 < len(layout)
                          and layout[i + 1].is_cold == block.is_cold
                          else None)
            if last.is_cond_branch and last.label is not None:
                # A conditional branch at block end means its
                # fall-through is the physical next block.
                assert block.fallthrough_label == next_label or \
                    block.fallthrough_label is None
            if last.op in (Op.JMP_NEAR, Op.JMP_SHORT) and last.label:
                assert last.label != next_label  # no jumps to fall-through


def test_uce_removes_unreachable():
    exe, context = analyze([("m", """
func f(x) {
  if (x > 0) { return 1; }
  return 2;
}
func main() { return f(1); }
""")])
    f = context.functions["f"]
    # Manually disconnect a block to simulate a post-transform orphan.
    orphan = [l for l in f.blocks if l != f.entry_label][0]
    for block in f.blocks.values():
        block.remove_successor(orphan)
    stats = EliminateUnreachable().run(context)
    assert stats["removed-blocks"] >= 1
    assert orphan not in f.blocks


def test_sctc():
    exe, context = analyze([("m", """
var gate = 1;
func target() { return 42; }
func disp() {
  if (gate > 0) { return target(); }
  return 0;
}
func main() { return disp(); }
""")], build_options=NO_INLINE)
    # `disp` is frameless: its taken branch leads to a lone `jmp target`.
    disp = context.functions["disp"]
    stats = SimplifyConditionalTailCalls().run(context)
    assert stats.get("simplified", 0) >= 1
    cond_tails = [i for i in insns_of(disp)
                  if i.is_cond_branch and i.sym is not None]
    assert cond_tails and cond_tails[0].sym.name == "target"


def test_frame_opts_removes_dead_homes():
    exe, context = analyze([("m", """
func f(a) {
  var s = 0;
  var i = 0;
  while (i < a) { s = s + a; i = i + 1; }
  return s;
}
func main() { return f(5); }
""")])
    f = context.functions["f"]
    stats = FrameOptimization().run(context)
    assert stats.get("removed-stores", 0) >= 1
    # Results stay correct.
    result = optimize_binary(exe, None, BoltOptions())
    assert run_binary(result.binary).exit_code == run_binary(exe).exit_code


def test_frame_opts_keeps_saved_reg_slots():
    exe, context = analyze([HOT_COLD], profile_period=23)
    f = context.functions["f"]
    protected = {-off for _, off in f.frame_record.saved_regs}
    FrameOptimization().run(context)
    stores = {i.disp for i in insns_of(f)
              if i.op == Op.STORE and i.regs[0] == 5}
    assert protected <= stores


SHRINK_SRC = ("m", """
func heavy(x) {
  var a = x;
  if (x % 251 == 250) {
    var t0 = a * 3;
    var t1 = t0 + a;
    var t2 = t1 * t0;
    var i = 0;
    while (i < 3) { t2 = t2 + t1 * a; t1 = t1 + t0; i = i + 1; }
    return t2 + t1;
  }
  return x + 1;
}
func main() {
  var i = 0;
  var s = 0;
  while (i < 600) { s = s + heavy(i); i = i + 1; }
  out s;
  return 0;
}
""")


def test_shrink_wrapping_moves_or_removes():
    exe, context = analyze([SHRINK_SRC], profile_period=31)
    stats = ShrinkWrapping().run(context)
    moved = stats.get("moved-saves", 0) + stats.get("removed-dead-saves", 0)
    assert moved >= 1
    result = optimize_binary(exe, None, BoltOptions())
    base = run_binary(exe, max_instructions=10_000_000)
    opt = run_binary(result.binary, max_instructions=10_000_000)
    assert base.output == opt.output


def test_reorder_functions_orders_hot_first():
    exe, context = analyze([("m", """
func hot(x) { return x + 1; }
func cold(x) { return x * 99; }
func main() {
  var i = 0;
  var s = 0;
  while (i < 400) {
    s = s + hot(i);
    if (i % 399 == 398) { s = s + cold(i); }
    i = i + 1;
  }
  out s;
  return 0;
}
""")], profile_period=23)
    ReorderFunctions().run(context)
    order = context.function_order
    assert order.index("hot") < order.index("cold")


def test_icp_transform():
    exe, context = analyze([("m", """
var h = 0;
func t1(x) { return x + 1; }
func t2(x) { return x + 2; }
func init() { h = &t1; return 0; }
func caller(x) {
  var f = h;
  return f(x) + 1;
}
func main() {
  init();
  var i = 0;
  var acc = 0;
  while (i < 200) { acc = acc + caller(i); i = i + 1; }
  out acc;
  return 0;
}
""")], profile_period=19)
    # The call site is perfectly monomorphic: the BTB never misses, so
    # the mispredict gate leaves it alone at the default threshold...
    assert IndirectCallPromotion().run(context)["promoted"] == 0
    # ...and promotes it when promotion is forced.
    context.options = context.options.copy(icp_mispredict_threshold=0.0)
    stats = IndirectCallPromotion().run(context)
    assert stats["promoted"] == 1
    caller = context.functions["caller"]
    direct = [i for i in insns_of(caller)
              if i.op == Op.CALL and i.sym and i.sym.name == "t1"]
    assert direct
    # Still has the indirect fallback.
    assert [i for i in insns_of(caller) if i.op == Op.CALL_REG]
    # End-to-end semantics with the full pipeline.
    profile, _ = profile_binary(exe, sampling=SamplingConfig(period=19))
    result = optimize_binary(exe, profile, BoltOptions())
    assert run_binary(result.binary).output == run_binary(exe).output


def test_pipeline_order_matches_table1():
    manager = build_pipeline(BoltOptions())
    names = [p.name for p in manager.passes]
    expected_prefix = [
        "strip-rep-ret", "icf", "icp", "peepholes", "inline-small",
        "simplify-ro-loads", "icf-2", "plt", "reorder-bbs", "peepholes-2",
        "uce", "fixup-branches", "reorder-functions", "sctc",
    ]
    assert names[: len(expected_prefix)] == expected_prefix
    assert "frame-opts" in names and "shrink-wrapping" in names


def test_pipeline_toggles():
    options = BoltOptions(icf=False, icp=False, sctc=False,
                          frame_opts=False, shrink_wrapping=False,
                          peepholes=False, inline_small=False,
                          simplify_ro_loads=False, plt=False,
                          strip_rep_ret=False, uce=False)
    manager = build_pipeline(options)
    names = [p.name for p in manager.passes]
    assert names == ["reorder-bbs", "fixup-branches", "reorder-functions"]
