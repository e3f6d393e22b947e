"""Whole-binary lint: metadata/decode checks plus the IR checkers.

Three tiers, cheapest first:

1. **Metadata** (``BL101``/``BL103``/``BL104``/``BL106``): the entry
   point, every FUNC symbol's bounds, overlaps, and relocation targets
   are validated against the section map and symbol table alone.
2. **Decode** (``BL102``/``BL105``): each function body is decoded
   instruction by instruction; undecodable bytes and symbol sizes that
   cut an instruction (or leave the body without a terminator) are
   distinguished — the classic wrong-``.size``-directive headache of
   the paper's section 3.3 maps to a different rule than a packed or
   data-in-text body.
3. **IR checkers**: CFGs are reconstructed and every function that
   builds as *simple* runs the :mod:`repro.analysis.checkers` suite.

``lint_binary`` is pure (never mutates its input).  It backs the
``lint`` CLI subcommand, the static tier's check of the input, and the
post-rewrite validation gate, whose tiers are rule sets
(:data:`repro.analysis.rules.TIERS`).
"""

from repro.analysis.checkers import check_function
from repro.analysis.rules import (
    RULES,
    STRUCTURAL,
    Finding,
    LintReport,
    parse_suppressions,
)
from repro.belf import SymbolType
from repro.core.emitter import COLD_SUFFIX
from repro.isa.decoding import DecodeError, decode
from repro.linker import BUILTINS

#: Symbols the rewriter may legitimately reference without defining.
_KNOWN_EXTERNAL = ("__abs__",)


def lint_binary(binary, options=None, suppress=(), rules=None,
                baseline=None):
    """Lint one binary; returns a :class:`LintReport`.

    ``rules`` selects the rule IDs to report (default: all of them); an
    IR checker that can report none of them is not run.

    ``baseline`` is the rewrite context that produced ``binary``.  With
    it the lint is the post-rewrite validation gate: the output is held
    only to what the input already satisfied (see :func:`_held_by`), and
    no suppression lifts a :data:`~repro.analysis.rules.STRUCTURAL`
    finding.
    """
    rules = RULES.keys() if rules is None else rules
    report = LintReport(suppressions=parse_suppressions(suppress),
                        pinned=STRUCTURAL if baseline is not None
                        else frozenset())
    held = _held_by(baseline) if baseline is not None else None
    _lint_metadata(binary, report, rules, held)
    if any(rule.startswith("BL0") for rule in rules):
        _lint_functions(binary, options, report, rules)
    return report


def _held_by(context):
    """What a rewrite's input already satisfied, read off its context.

    Returns ``held(finding, whole)``: whether a finding on the output
    stands (a ``.cold.0`` fragment counts as its parent function);
    ``whole`` says the output body decoded whole, so a BL105 finding is
    about its missing terminator.  BL103 stands unless the input's own
    symbol already escaped its section.  BL102/BL105 stand if the
    function's input body (its ``raw_bytes``, decoded only on this
    failure path) was clean, or decoded whole while the output body
    does not.  Every other rule always stands.
    """
    binary = context.binary
    unbounded = set()
    for sym in _func_symbols(binary):
        section = binary.section_at(sym.value)
        if (section is None or not section.is_exec
                or sym.value + sym.size > section.end):
            unbounded.add(sym.link_name())

    def held(finding, whole):
        if finding.rule not in ("BL102", "BL103", "BL105"):
            return True
        name = finding.function
        if name.endswith(COLD_SUFFIX):
            name = name[:-len(COLD_SUFFIX)]
        if finding.rule == "BL103":
            return name not in unbounded
        func = context.functions.get(name)
        if func is None:
            return False
        found, whole_in = _lint_body(func.raw_bytes, 0, len(func.raw_bytes),
                                     func.address, name)
        return found is None or (whole_in and not whole)

    return held


# ---------------------------------------------------------------------------
# Tier 1+2: metadata and decode checks
# ---------------------------------------------------------------------------


def _func_symbols(binary):
    return sorted((s for s in binary.symbols
                   if s.type == SymbolType.FUNC and s.size > 0),
                  key=lambda s: (s.value, s.size))


def _lint_metadata(binary, report, rules, held):
    def add(finding, whole=True):
        if finding.rule in rules and (held is None or held(finding, whole)):
            report.add(finding)

    # A gated output must have an entry point; a plain lint lets a
    # binary without one (entry 0) pass.
    if binary.entry or held is not None:
        section = binary.section_at(binary.entry)
        if section is None or not section.is_exec:
            add(Finding(
                "BL101",
                f"entry point {binary.entry:#x} is not in an "
                f"executable section",
                address=binary.entry))

    syms = _func_symbols(binary)

    # Overlaps (exact aliases — ICF folding — are fine).
    for prev, cur in zip(syms, syms[1:]):
        if prev.value == cur.value and prev.size == cur.size:
            continue
        if prev.value + prev.size > cur.value:
            add(Finding(
                "BL104",
                f"overlaps {cur.link_name()} "
                f"([{prev.value:#x}, {prev.value + prev.size:#x}) vs "
                f"[{cur.value:#x}, {cur.value + cur.size:#x}))",
                function=prev.link_name(), address=prev.value))

    # Bounds + decode, per function symbol.
    seen_ranges = set()
    for sym in syms:
        name = sym.link_name()
        section = binary.section_at(sym.value)
        if section is None or not section.is_exec:
            add(Finding(
                "BL103",
                f"starts at {sym.value:#x}, outside every executable "
                f"section (truncated or mislaid section?)",
                function=name, address=sym.value))
            continue
        if sym.value + sym.size > section.end:
            add(Finding(
                "BL103",
                f"[{sym.value:#x}, {sym.value + sym.size:#x}) runs "
                f"past the end of {section.name} ({section.end:#x})",
                function=name, address=sym.value))
            continue
        span = (sym.value, sym.size)
        if span in seen_ranges:
            continue  # exact alias: lint the bytes once
        seen_ranges.add(span)
        start = sym.value - section.addr
        finding, whole = _lint_body(section.data, start, start + sym.size,
                                    sym.value, name)
        if finding is not None:
            add(finding, whole)

    # Dangling relocations.
    known = {s.link_name() for s in binary.symbols}
    known.update(_KNOWN_EXTERNAL)
    known.update(BUILTINS)
    for reloc in binary.relocations:
        if reloc.symbol in known:
            continue
        add(Finding(
            "BL106",
            f"relocation at {reloc.section}+{reloc.offset:#x} names "
            f"undefined symbol {reloc.symbol!r}",
            function=_owner_of(binary, reloc)))


def _owner_of(binary, reloc):
    section = binary.get_section(reloc.section)
    if section is None or not section.is_exec:
        return None
    address = section.addr + reloc.offset
    for sym in _func_symbols(binary):
        if sym.value <= address < sym.value + sym.size:
            return sym.link_name()
    return None


def _lint_body(data, start, end, address, name):
    """Decode the body ``data[start:end]`` loaded at ``address``.

    Returns ``(finding, whole)``: its BL102 or BL105 finding (or None),
    and whether every byte decoded with no instruction straddling
    ``end``.
    """
    offset = start
    last = None
    while offset < end:
        try:
            insn = decode(data, offset, address + (offset - start))
        except DecodeError as exc:
            return Finding(
                "BL102", f"body does not decode: {exc}",
                function=name, address=address + (offset - start)), False
        if offset + insn.size > end:
            return Finding(
                "BL105",
                f"instruction at {insn.address:#x} straddles the "
                f"symbol's end ({address + end - start:#x}): symbol "
                f"size {end - start} cuts the body mid-instruction",
                function=name, address=insn.address), False
        if not insn.is_nop:
            last = insn
        offset += insn.size
    if last is None or not last.is_terminator:
        what = last.mnemonic() if last is not None else "padding"
        return Finding(
            "BL105",
            f"body ends in {what} instead of a terminator: control "
            f"falls off the symbol's end (wrong symbol size?)",
            function=name, address=address + end - start), True
    return None, True


# ---------------------------------------------------------------------------
# Tier 3: CFG reconstruction + IR checkers
# ---------------------------------------------------------------------------


def _lint_functions(binary, options, report, rules):
    from repro.core.binary_context import BinaryContext
    from repro.core.cfg_builder import build_all_functions
    from repro.core.discovery import discover_functions
    from repro.core.options import BoltOptions

    opts = (options or BoltOptions()).copy(
        strict=False, verify_cfg=False, validate_output="none",
        lint="none")
    try:
        context = BinaryContext(binary, opts)
        discover_functions(context)
        build_all_functions(context)
    except Exception as exc:
        # Reported whatever the rule selection: nothing could be checked.
        report.add(Finding(
            "BL102",
            f"CFG reconstruction failed: {type(exc).__name__}: {exc}"))
        return
    for func in context.simple_functions():
        report.extend(check_function(func, rules))


# ---------------------------------------------------------------------------
# The rewriter's post-pass lint gate
# ---------------------------------------------------------------------------


def lint_context(context, suppress=()):
    """Run the IR checkers over every simple function in a context.

    Returns {function name: [Findings]} for functions with findings.
    Used by the rewriter's post-pass gate (``BoltOptions.lint``), where
    a function whose invariants a pass broke is demoted to raw rather
    than emitted.
    """
    suppressions = parse_suppressions(suppress)
    by_function = {}
    for func in context.simple_functions():
        report = LintReport(suppressions=suppressions)
        report.extend(check_function(func))
        if len(report):
            by_function[func.name] = list(report)
    return by_function
