"""Pass framework + the Table 1 pipeline order.

Error containment (paper section 3.1 spirit): a pass crashing on one
function must never take down the whole rewrite.  If a per-function
pass raises, the function is demoted to non-simple — original bytes
emitted verbatim, exactly like functions BOLT conservatively skips at
CFG-construction time — and a structured diagnostic is recorded.
Whole-context passes (ICF, inlining, function reordering) are
contained at pass granularity instead.

No snapshot is taken before a pass runs: whatever a failing pass left
half-done, :func:`~repro.core.cfg_builder.demote_to_raw` discards.  It
rebuilds the blocks from ``raw_bytes`` and resets every other field a
per-function pass may write (entry label, jump tables, frame record,
analysis facts, the cold-fragment and simple flags).

With ``BoltOptions.threads > 1`` per-function passes fan their
function loop out over a chunked thread-pool work queue.  Workers only
ever touch their own function (pass-wide read-only state is computed
once in :meth:`BinaryPass.prepare`); failures are collected and
contained on the coordinating thread in the function's original order,
so diagnostics, stats, and the output binary are byte-identical to a
serial run.

With ``BoltOptions.verify_cfg`` the manager additionally re-checks CFG
structural invariants after every pass and demotes any function a pass
corrupted without raising.
"""

import time


def contain_function_failure(context, func, component, exc):
    """Demote a function a pass failed on; record a diagnostic."""
    from repro.core.cfg_builder import demote_to_raw

    context.diagnostics.warning(
        component,
        f"contained {type(exc).__name__}: {exc}; function demoted to "
        f"non-simple (original bytes kept)",
        function=func.name)
    demote_to_raw(context, func, f"contained failure in {component}")


class BinaryPass:
    """Base class: a transformation over the whole BinaryContext."""

    name = "pass"

    #: Per-function passes whose ``run_on_function`` touches only its
    #: own function (after ``prepare``) may run under ``--threads N``.
    #: Whole-context passes override ``run`` and are never parallelized.
    parallel_safe = True

    def prepare(self, context):
        """Compute pass-wide state once, before the function loop.

        Runs on the coordinating thread; anything cached on ``self``
        must be treated as read-only by ``run_on_function`` so the
        parallel mode stays deterministic.
        """

    def run(self, context):
        """Run over every optimizable function; returns a stats dict."""
        stats = {}
        funcs = context.simple_functions()
        if not funcs:
            return stats
        self.prepare(context)
        threads = int(context.options.threads or 1)
        if threads > 1 and self.parallel_safe and len(funcs) > 1:
            outcomes = self._attempt_parallel(context, funcs, threads)
        else:
            # Lazy: containment for function k happens before k+1 runs,
            # exactly like the historical serial loop.
            outcomes = ((func, self._attempt(context, func))
                        for func in funcs)
        for func, (result, exc) in outcomes:
            if exc is not None:
                contain_function_failure(
                    context, func, f"pass:{self.name}", exc)
                continue
            if result:
                for key, value in result.items():
                    stats[key] = stats.get(key, 0) + value
        return stats

    def _attempt(self, context, func):
        """Run on one function; returns (stats, None) or (None, exc)."""
        try:
            return self.run_on_function(context, func), None
        except Exception as exc:
            return None, exc

    def _attempt_parallel(self, context, funcs, threads):
        """Chunked work queue; results in original function order."""
        from concurrent.futures import ThreadPoolExecutor

        chunk_size = max(1, -(-len(funcs) // (threads * 4)))
        chunks = [funcs[i : i + chunk_size]
                  for i in range(0, len(funcs), chunk_size)]

        def work(chunk):
            return [self._attempt(context, func) for func in chunk]

        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_chunk = list(pool.map(work, chunks))
        return [(func, outcome)
                for chunk, outcomes in zip(chunks, per_chunk)
                for func, outcome in zip(chunk, outcomes)]

    def run_on_function(self, context, func):  # pragma: no cover - abstract
        raise NotImplementedError


class PassManager:
    def __init__(self, passes):
        self.passes = passes
        self.stats = {}

    def run(self, context):
        verify = context.options.verify_cfg
        timing = getattr(context, "timing", None)
        time_passes = timing is not None and timing.time_passes
        dyno_prev = None
        if time_passes and context.options.dyno_stats:
            from repro.core.dyno_stats import compute_dyno_stats
            dyno_prev = compute_dyno_stats(context)
        for pass_ in self.passes:
            started = time.perf_counter() if time_passes else None
            functions = len(context.simple_functions()) if time_passes else None
            try:
                self.stats[pass_.name] = pass_.run(context) or {}
            except Exception as exc:
                # Whole-context passes (ICF, inline, reorder-functions)
                # are contained at pass granularity: skip the pass, keep
                # the pipeline alive.
                from repro.core.diagnostics import StrictModeError
                if isinstance(exc, StrictModeError):
                    raise
                context.diagnostics.error(
                    f"pass:{pass_.name}",
                    f"pass failed ({type(exc).__name__}: {exc}); skipped")
                self.stats[pass_.name] = {}
            if time_passes:
                elapsed = time.perf_counter() - started
                delta = None
                if dyno_prev is not None:
                    from repro.core.dyno_stats import compute_dyno_stats
                    dyno_now = compute_dyno_stats(context)
                    delta = dyno_now.delta_vs(dyno_prev)
                    dyno_prev = dyno_now
                timing.record_pass(pass_.name, elapsed,
                                   functions=functions, dyno_delta=delta)
            if verify:
                self._verify(context, pass_)
        return self.stats

    def _verify(self, context, pass_):
        from repro.core.cfg_builder import demote_to_raw
        from repro.core.validate import ValidationError, validate_function

        for func in context.simple_functions():
            try:
                validate_function(func)
            except ValidationError as exc:
                context.diagnostics.warning(
                    f"verify-cfg:{pass_.name}",
                    f"CFG invariants violated after pass: {exc}; "
                    f"function demoted", function=func.name)
                demote_to_raw(
                    context, func,
                    f"CFG corrupted by {pass_.name}")


def build_pipeline(options):
    """The exact Table 1 sequence, honoring option toggles."""
    from repro.core.passes.strip_rep_ret import StripRepRet
    from repro.core.passes.icf import IdenticalCodeFolding
    from repro.core.passes.icp import IndirectCallPromotion
    from repro.core.passes.peepholes import Peepholes
    from repro.core.passes.inline_small import InlineSmall
    from repro.core.passes.simplify_ro_loads import SimplifyRoLoads
    from repro.core.passes.plt import PLTCalls
    from repro.core.passes.reorder_bbs import ReorderBasicBlocks
    from repro.core.passes.uce import EliminateUnreachable
    from repro.core.passes.fixup_branches import FixupBranches
    from repro.core.passes.reorder_functions import ReorderFunctions
    from repro.core.passes.sctc import SimplifyConditionalTailCalls
    from repro.core.passes.frame_opts import FrameOptimization
    from repro.core.passes.shrink_wrapping import ShrinkWrapping

    passes = []
    if options.strip_rep_ret:
        passes.append(StripRepRet())                    # 1
    if options.icf:
        passes.append(IdenticalCodeFolding(round=1))    # 2
    if options.icp:
        passes.append(IndirectCallPromotion())          # 3
    if options.peepholes:
        passes.append(Peepholes(round=1))               # 4
    if options.inline_small:
        passes.append(InlineSmall())                    # 5
    if options.simplify_ro_loads:
        passes.append(SimplifyRoLoads())                # 6
    if options.icf:
        passes.append(IdenticalCodeFolding(round=2))    # 7
    if options.plt:
        passes.append(PLTCalls())                       # 8
    passes.append(ReorderBasicBlocks())                 # 9 (honors options)
    if options.peepholes:
        passes.append(Peepholes(round=2))               # 10
    if options.uce:
        passes.append(EliminateUnreachable())           # 11
    passes.append(FixupBranches())                      # 12
    passes.append(ReorderFunctions())                   # 13 (honors options)
    if options.sctc:
        passes.append(SimplifyConditionalTailCalls())   # 14
        if options.uce:
            passes.append(EliminateUnreachable(name="uce-2"))
        passes.append(FixupBranches(name="fixup-branches-2"))
    if options.frame_opts:
        passes.append(FrameOptimization())              # 15
    if options.shrink_wrapping:
        passes.append(ShrinkWrapping())                 # 16
    return PassManager(passes)
