"""perf2bolt analog: raw samples -> symbolized BinaryProfile, plus the
fleet-scale shard aggregation pipeline (the ``merge-fdata`` analog).

The first half of the module turns one host's raw ``(pc, lbr)`` samples
into a symbolized :class:`BinaryProfile`.  The second half —
:func:`aggregate_shards` — is the data-center step the paper assumes
before the rewrite (sections 2, 5.1): many hosts' ``.fdata`` shards,
possibly collected on *different builds* of the binary, are parsed (in
parallel, PR 3's chunked thread-pool pattern), grouped by build-id,
reconciled through PR 1's fuzzy stale-profile matcher, merged with
explicit weighting and deterministic normalization, and summarized in
a per-shard quality report.  An on-disk cache keyed by
``Binary.content_hash`` + shard content hash lets repeated aggregation
runs skip re-parsing and re-reconciling unchanged shards.
"""

import bisect
import json
import os
import pathlib
import tempfile

from repro.belf import SymbolType
from repro.profiling.events import Sampler, SamplingConfig
from repro.profiling.merge import (
    ShardStats,
    _emit,
    is_flat_profile,
    merge_profiles,
    normalize_profile,
    parse_fdata_shard,
    profile_from_dict,
    profile_to_dict,
    remap_profile_names,
    shard_content_hash,
    shard_divergence,
)
from repro.profiling.profile import BinaryProfile


class AddressMapper:
    """Maps virtual addresses to (function link name, offset)."""

    def __init__(self, binary):
        funcs = sorted(
            (s for s in binary.symbols
             if s.type == SymbolType.FUNC and s.size > 0),
            key=lambda s: s.value,
        )
        self.starts = [s.value for s in funcs]
        self.funcs = funcs

    def map(self, addr):
        idx = bisect.bisect_right(self.starts, addr) - 1
        if idx < 0:
            return None
        sym = self.funcs[idx]
        if not sym.contains(addr):
            return None
        return (sym.link_name(), addr - sym.value)


def aggregate_samples(samples, mapper, event="cycles", lbr=True,
                      build_id=None):
    """Aggregate (pc, lbr_snapshot) samples into a BinaryProfile.

    Branch records with either endpoint outside known functions (PLT
    stubs, builtins) are dropped, as perf2bolt does for unmapped
    addresses.
    """
    profile = BinaryProfile(event=event, lbr=lbr, build_id=build_id)
    for pc, snapshot in samples:
        loc = mapper.map(pc)
        if loc is not None:
            profile.add_sample(loc)
        if not lbr or not snapshot:
            continue
        for from_pc, to_pc, mispred in snapshot:
            from_loc = mapper.map(from_pc)
            to_loc = mapper.map(to_pc)
            if from_loc is None or to_loc is None:
                continue
            profile.add_branch(from_loc, to_loc, mispred=mispred)
    return profile


def profile_binary(binary, inputs=None, config=None, sampling=None,
                   max_instructions=50_000_000):
    """Run a binary under the sampler and aggregate the profile.

    Returns (BinaryProfile, cpu) — the cpu gives access to true
    counters for comparison with the sampled view.
    """
    from repro.uarch.cpu import run_binary

    sampling = sampling or SamplingConfig()
    sampler = Sampler(sampling)
    cpu = run_binary(binary, inputs=inputs, config=config, sampler=sampler,
                     max_instructions=max_instructions)
    mapper = AddressMapper(binary)
    profile = aggregate_samples(sampler.samples, mapper,
                                event=sampling.event, lbr=sampling.use_lbr,
                                build_id=binary.content_hash())
    return profile, cpu


# ---------------------------------------------------------------------------
# Fleet-scale shard aggregation (merge-fdata)
# ---------------------------------------------------------------------------

#: Shard-cache on-disk format version; bumping invalidates old entries.
CACHE_VERSION = 1


class ShardCache:
    """On-disk cache of parsed + reconciled shards.

    Keyed by ``sha256(version : shard content hash : binary build id)``
    so a shard re-parses only when its bytes change, the target binary
    changes, or the cache format changes.  Values are JSON (no pickle);
    a corrupt entry reads as a miss.
    """

    def __init__(self, root):
        self.root = pathlib.Path(root)

    def _path(self, shard_sha, binary_hash):
        import hashlib

        key = f"{CACHE_VERSION}:{shard_sha}:{binary_hash or '-'}"
        return self.root / (hashlib.sha256(key.encode()).hexdigest()
                            + ".shard.json")

    def load(self, shard_sha, binary_hash):
        path = self._path(shard_sha, binary_hash)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if payload.get("version") != CACHE_VERSION:
            return None
        if not all(key in payload for key in
                   ("profile", "stats", "match", "stale", "remap", "diags")):
            return None
        return payload

    def store(self, shard_sha, binary_hash, payload):
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(shard_sha, binary_hash)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(payload))
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass


class ShardReport:
    """Everything the quality report knows about one shard."""

    def __init__(self, name, sha):
        self.name = name
        self.sha = sha
        self.build_id = None
        self.weight = 1.0
        self.effective_weight = 1.0
        self.stale = False
        self.cache = "off"          # "off" | "miss" | "hit"
        self.stats = ShardStats()
        self.match = None           # measure_match_quality dict, or None
        self.flat = False
        self.empty = False
        self.divergence = None
        self.coverage = None        # fraction of merged functions covered
        self.profile = None         # reconciled BinaryProfile (not scaled)

    def as_dict(self):
        return {
            "name": self.name,
            "sha": self.sha[:12],
            "build_id": self.build_id,
            "weight": self.weight,
            "effective_weight": round(self.effective_weight, 6),
            "stale": self.stale,
            "cache": self.cache,
            "branch_records": len(self.profile.branches),
            "sample_records": len(self.profile.ip_samples),
            "branch_count": self.profile.total_branch_count(),
            "parse": self.stats.as_dict(),
            "match": self.match,
            "flat": self.flat,
            "empty": self.empty,
            "divergence": (round(self.divergence, 4)
                           if self.divergence is not None else None),
            "coverage": (round(self.coverage, 4)
                         if self.coverage is not None else None),
        }


class AggregationResult:
    """Merged profile + per-shard quality report + diagnostics."""

    def __init__(self, profile, shards, diagnostics):
        self.profile = profile
        self.shards = shards
        self.diagnostics = diagnostics

    def report(self):
        merged = self.profile
        merged_funcs = merged.functions()
        coverages = [s.coverage for s in self.shards
                     if s.coverage is not None]
        return {
            "shards": [s.as_dict() for s in self.shards],
            "merged": {
                "event": merged.event,
                "lbr": merged.lbr,
                "build_id": merged.build_id,
                "branch_records": len(merged.branches),
                "sample_records": len(merged.ip_samples),
                "branch_count": merged.total_branch_count(),
                "functions": len(merged_funcs),
            },
            "coverage": {
                "shard_count": len(self.shards),
                "functions_union": len(merged_funcs),
                "functions_common": self._common_functions(),
                "mean_shard_coverage": (round(sum(coverages)
                                              / len(coverages), 4)
                                        if coverages else None),
            },
            "stale_shards": sum(1 for s in self.shards if s.stale),
            "cache_hits": sum(1 for s in self.shards if s.cache == "hit"),
            "dropped_lines": sum(s.stats.dropped_total for s in self.shards),
            "diagnostics": {
                "warnings": len(self.diagnostics.warnings),
                "errors": len(self.diagnostics.errors),
            },
        }

    def _common_functions(self):
        common = None
        for shard in self.shards:
            funcs = shard.profile.functions()
            common = funcs if common is None else (common & funcs)
        return len(common) if common else 0

    def to_json(self):
        return json.dumps(self.report(), indent=2)


def load_shard_files(paths):
    """Read shard files into the [(name, text)] shape aggregate_shards
    expects.  Missing files raise FileNotFoundError (a fleet input list
    naming a nonexistent shard is an operator error, not a bad host)."""
    shards = []
    for path in paths:
        p = pathlib.Path(path)
        shards.append((p.name, p.read_text()))
    return shards


def _as_named_shards(shards):
    out = []
    for i, item in enumerate(shards):
        if isinstance(item, str):
            out.append((f"shard{i}", item))
        else:
            name, text = item
            out.append((str(name), text))
    return out


def _resolve_weights(shards, weights, diags):
    if weights is None:
        return [1.0] * len(shards)
    try:
        weights = [float(w) for w in weights]
    except (TypeError, ValueError):
        weights = [float(weights)]
    if len(weights) == 1 and len(shards) > 1:
        weights = weights * len(shards)
    if len(weights) != len(shards):
        raise ValueError(
            f"{len(weights)} weight(s) for {len(shards)} shard(s)")
    cleaned = []
    for (name, _), weight in zip(shards, weights):
        if not (weight > 0) or weight != weight or weight == float("inf"):
            _emit(diags, "FD011",
                  f"weight {weight!r} is not a positive finite number; "
                  f"shard excluded", shard=name)
            weight = 0.0
        cleaned.append(weight)
    return cleaned


def _build_attach_context(binary):
    """A CFG-bearing context for fuzzy reconciliation (lazy core import
    to keep the profiling package import-light)."""
    from repro.core import BinaryContext, BoltOptions
    from repro.core.cfg_builder import build_all_functions
    from repro.core.discovery import discover_functions

    context = BinaryContext(binary, BoltOptions())
    discover_functions(context)
    build_all_functions(context)
    return context


def _parse_one_shard(name, text, sha, binary_hash, context, cache):
    """Parse + (if stale) reconcile one shard; pure per-shard work, safe
    to fan out over the thread pool.  Returns a ShardReport plus the
    local diagnostics to replay in shard order on the coordinator."""
    from repro.core.diagnostics import Diagnostics
    from repro.core.profile_attach import (
        detect_stale,
        measure_match_quality,
        reconcile_shard,
    )

    local = Diagnostics(strict=False)
    report = ShardReport(name, sha)
    payload = cache.load(sha, binary_hash) if cache else None
    if payload is not None:
        report.cache = "hit"
        report.profile = profile_from_dict(payload["profile"])
        report.stats = ShardStats.from_dict(payload["stats"])
        report.match = payload["match"]
        report.stale = payload["stale"]
        remap = {k: v for k, v in payload["remap"].items()}
        for severity, message in payload["diags"]:
            (local.error if severity == "error" else local.warning)(
                "merge-fdata", message, function=name)
    else:
        report.cache = "miss" if cache else "off"
        profile, stats = parse_fdata_shard(text, local, shard=name)
        report.profile = profile
        report.stats = stats
        remap = {}
        if context is not None:
            report.stale, _reason = detect_stale(context, profile)
            if report.stale:
                remap, report.match = reconcile_shard(context, profile)
            else:
                # The satellite fix: match-quality counters used to
                # exist only for the single-profile attach path; the
                # per-shard report carries them for fresh shards too.
                report.match = measure_match_quality(context, profile)
        if cache:
            cache.store(sha, binary_hash, {
                "version": CACHE_VERSION,
                "profile": profile_to_dict(profile),
                "stats": stats.as_dict(),
                "match": report.match,
                "stale": report.stale,
                "remap": remap,
                "diags": [["error" if d.severity.name == "ERROR"
                           else "warning", d.message] for d in local],
            })
    report.build_id = report.profile.build_id
    if remap:
        report.profile = remap_profile_names(report.profile, remap)
    report.empty = len(report.profile) == 0
    report.flat = (not report.empty) and is_flat_profile(report.profile)
    return report, list(local)


def aggregate_shards(shards, weights=None, binary=None, threads=1,
                     cache_dir=None, stale_downweight=0.5,
                     min_match_quality=0.0, diagnostics=None):
    """Aggregate many ``.fdata`` shards into one profile.

    Args:
        shards: list of fdata texts, or of ``(name, text)`` pairs.
        weights: per-shard weights (one value broadcasts); default 1.
        binary: the target Binary.  When given, shards whose build-id
            differs are reconciled through the PR 1 fuzzy stale-profile
            matcher and downweighted by their measured match quality.
            Without it, the fleet-majority build-id group is the
            reference and off-reference shards get
            ``stale_downweight``.
        threads: parse/reconcile fan-out.  Only engaged when the shard
            cache is active (the work is otherwise GIL-bound pure
            Python and threads would slow it down); output is
            byte-identical to a serial run either way.
        cache_dir: on-disk shard cache directory (None = no cache).
        min_match_quality: stale shards matching below this fraction
            are excluded entirely (FD013).

    Returns an :class:`AggregationResult`.
    """
    from repro.core.diagnostics import Diagnostics

    diags = diagnostics
    if diags is None:
        diags = Diagnostics(strict=False)
    shards = _as_named_shards(shards)
    weights = _resolve_weights(shards, weights, diags)
    binary_hash = binary.content_hash() if binary is not None else None
    context = _build_attach_context(binary) if binary is not None else None
    cache = ShardCache(cache_dir) if cache_dir else None

    jobs = [(name, text, shard_content_hash(text))
            for name, text in shards]

    def work(chunk):
        return [_parse_one_shard(name, text, sha, binary_hash, context,
                                 cache)
                for name, text, sha in chunk]

    # Shard parsing/reconciliation is pure Python, so under the GIL a
    # thread pool only adds scheduling overhead — unless the on-disk
    # shard cache is active, where the workers overlap file I/O.
    # Serial otherwise keeps `--threads N` no slower than `--threads 1`;
    # either way the merged output is byte-identical.
    threads = int(threads or 1)
    if threads > 1 and len(jobs) > 1 and cache is not None:
        from concurrent.futures import ThreadPoolExecutor

        chunk_size = max(1, -(-len(jobs) // threads))
        chunks = [jobs[i: i + chunk_size]
                  for i in range(0, len(jobs), chunk_size)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_chunk = list(pool.map(work, chunks))
        outcomes = [item for chunk in per_chunk for item in chunk]
    else:
        outcomes = work(jobs)

    # Replay worker diagnostics in shard order so parallel runs render
    # identically to serial ones (and --strict raises deterministically).
    reports = []
    for (report, local) in outcomes:
        diags.extend(local)
        reports.append(report)

    # Staleness + downweighting.  With a target binary the worker
    # already decided staleness per shard (build-id stamp + structural
    # heuristic); without one, the fleet-majority build-id group is
    # the reference and everything off-reference is stale.
    reference = binary_hash or _majority_build_id(reports)
    for report, weight in zip(reports, weights):
        report.weight = weight
        report.effective_weight = weight
        if report.empty:
            _emit(diags, "FD010", "shard contains no records",
                  shard=report.name)
            continue
        if report.flat:
            _emit(diags, "FD009",
                  "LBR shard has no branch records (flat profile)",
                  shard=report.name)
        if (binary_hash is None and reference is not None
                and report.build_id is not None
                and report.build_id != reference):
            report.stale = True
        if not report.stale:
            continue
        quality = (report.match or {}).get("quality")
        if quality is not None:
            if quality < min_match_quality:
                report.effective_weight = 0.0
                _emit(diags, "FD013",
                      f"match quality {quality:.1%} below floor "
                      f"{min_match_quality:.1%}; shard excluded",
                      shard=report.name)
                continue
            factor = quality
        else:
            factor = stale_downweight
        report.effective_weight = weight * factor
        _emit(diags, "FD008",
              f"build-id {report.build_id or '<unstamped>'} does not "
              f"match {'target binary' if binary_hash else 'fleet majority'}"
              f" {reference}; downweighted to "
              f"{report.effective_weight:.3g}", shard=report.name)

    merged = merge_profiles([r.profile for r in reports],
                            [r.effective_weight for r in reports],
                            diags=diags)
    merged.build_id = binary_hash or reference

    merged_funcs = merged.functions()
    for report in reports:
        report.divergence = shard_divergence(merged, report.profile)
        if merged_funcs:
            report.coverage = (len(report.profile.functions()
                                   & merged_funcs) / len(merged_funcs))
    return AggregationResult(merged, reports, diags)


def _majority_build_id(reports):
    """The fleet-reference build-id: most record mass wins, ties break
    lexicographically (permutation-safe)."""
    mass = {}
    for report in reports:
        if report.build_id is None:
            continue
        total = (report.profile.total_branch_count()
                 + sum(report.profile.ip_samples.values()))
        mass[report.build_id] = mass.get(report.build_id, 0) + total
    if not mass:
        return None
    return min(sorted(mass), key=lambda b: (-mass[b], b))
