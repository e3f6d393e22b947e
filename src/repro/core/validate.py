"""CFG invariant checking and execution equivalence.

* :func:`validate_function` / :func:`validate_context` check the
  in-memory IR between optimization passes (gated by
  ``BoltOptions.verify_cfg``), so a pass that corrupts the CFG fails
  fast with a precise message instead of producing a subtly-wrong
  binary.  The post-rewrite gate runs the same checks on the CFGs
  rebuilt from the output bytes, as lint rule ``BL007``.
* :func:`validate_execution` runs a smoke workload on the rewritten
  binary and compares program output against the input binary: the
  gate's ``execute`` tier, on top of the lint tiers of
  :mod:`repro.analysis` (see ``repro.core.rewriter._gate_problems``).

On gate failure the driver walks a graceful-degradation ladder
(relocations mode -> in-place mode -> original binary) rather than
shipping a corrupt executable.
"""

from repro.isa import Op


class ValidationError(Exception):
    """A structural invariant does not hold.

    A real runtime error (not an assert): validation failures are
    expected, contained events in tolerant mode.
    """


def validate_function(func):
    """Check structural invariants of one simple function."""
    if not func.is_simple:
        return
    problems = []
    labels = set(func.blocks)

    if func.entry_label not in labels:
        problems.append(f"entry block {func.entry_label} missing")

    for label, block in func.blocks.items():
        if block.label != label:
            problems.append(f"{label}: key/label mismatch ({block.label})")
        for succ in block.successors:
            if succ not in labels:
                problems.append(f"{label}: successor {succ} does not exist")
        for lp in block.landing_pads:
            if lp not in labels:
                problems.append(f"{label}: landing pad {lp} does not exist")
            elif not func.blocks[lp].is_landing_pad:
                problems.append(f"{label}: {lp} is not a landing-pad block")
        if (block.fallthrough_label is not None
                and block.fallthrough_label not in block.successors):
            problems.append(
                f"{label}: fall-through {block.fallthrough_label} "
                f"not among successors {block.successors}")
        for succ, count in block.edge_counts.items():
            if succ not in block.successors:
                problems.append(
                    f"{label}: edge count for non-successor {succ}")
            if count < 0:
                problems.append(
                    f"{label}: negative edge count {count} -> {succ}")

        for index, insn in enumerate(block.insns):
            last = index == len(block.insns) - 1
            if insn.is_branch and insn.label is not None:
                if insn.label not in labels:
                    problems.append(
                        f"{label}: branch to unknown label {insn.label}")
                elif insn.label not in block.successors:
                    problems.append(
                        f"{label}: branch target {insn.label} missing from "
                        f"successors")
            if insn.label is not None and insn.sym is not None:
                problems.append(f"{label}: insn has both label and sym")
            if not last and insn.is_terminator:
                # Terminators may only appear at block end.
                problems.append(
                    f"{label}: terminator {insn.mnemonic()} mid-block "
                    f"(index {index})")
            lp = insn.get_annotation("lp")
            if lp is not None and lp not in block.landing_pads:
                problems.append(
                    f"{label}: call's landing pad {lp} not registered on "
                    f"the block")

        term = block.terminator()
        if term is not None and term.is_terminator and not term.is_return \
                and term.op not in (Op.HALT, Op.TRAP):
            if (term.op in (Op.JMP_SHORT, Op.JMP_NEAR)
                    and term.label is None and term.sym is None):
                problems.append(f"{label}: jump with no target")

    # Landing-pad blocks must be reachable: an unwind target nothing
    # can unwind to is dead weight at best and a splitting bug at worst.
    # Only checked once the graph is structurally sound (every edge
    # resolves), so the traversal cannot trip over a bogus successor.
    if not problems and func.entry_label in labels:
        from repro.core.dataflow import reachable_from

        reachable = reachable_from(func, func.entry_label)
        for label, block in func.blocks.items():
            if block.is_landing_pad and label not in reachable:
                problems.append(
                    f"{label}: landing-pad block unreachable (no call "
                    f"site registers it and no edge reaches it)")

    if problems:
        raise ValidationError(
            f"{func.name}: " + "; ".join(problems[:10]))


def validate_context(context):
    """Validate every simple function in a BinaryContext."""
    for func in context.simple_functions():
        validate_function(func)


# ---------------------------------------------------------------------------
# Execution equivalence (the gate's ``execute`` tier)
# ---------------------------------------------------------------------------


def validate_execution(reference, candidate, inputs=None,
                       max_instructions=5_000_000, diagnostics=None):
    """Execution equivalence on a smoke workload; returns problems.

    Runs both binaries on the uarch simulator with the same inputs and
    compares the program output stream and exit code.  The reference
    run's failures are *not* the rewrite's fault: if the input binary
    itself faults or exceeds the budget, equivalence is vacuously
    accepted for that failure mode — but the skip is recorded on
    ``diagnostics`` (when given) rather than silently swallowed.
    """
    from repro.uarch import run_binary

    try:
        ref = run_binary(reference, inputs=inputs,
                         max_instructions=max_instructions)
    except Exception as exc:
        # The input itself does not survive the smoke run, so there is
        # nothing to compare the candidate against.
        if diagnostics is not None:
            diagnostics.warning(
                "validate",
                f"execution gate skipped: reference binary failed the "
                f"smoke run ({type(exc).__name__}: {exc}); equivalence "
                f"vacuously accepted")
        return []
    try:
        cand = run_binary(candidate, inputs=inputs,
                          max_instructions=max_instructions)
    except Exception as exc:
        return [f"smoke run failed on rewritten binary: "
                f"{type(exc).__name__}: {exc}"]
    problems = []
    if cand.output != ref.output:
        problems.append(
            f"smoke output diverged: {len(ref.output)} values expected, "
            f"got {len(cand.output)}"
            + ("" if len(ref.output) != len(cand.output)
               else " (same length, different values)"))
    if cand.exit_code != ref.exit_code:
        problems.append(f"smoke exit code diverged: expected "
                        f"{ref.exit_code}, got {cand.exit_code}")
    return problems
