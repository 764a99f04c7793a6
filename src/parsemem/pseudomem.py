"""Pseudo-MEM construction, lower bounds, safe discarding, and final search.

Three routes produce pseudo-MEMs over a pattern P:

* KeBaB: maximal runs of k-mers a filter reports present (at least f times);
  no length guarantee comes with them, so their lower bound is always 0.
* Parse indexing: f-MEMs of the pattern's parse against the text's parse,
  extended by one phrase each way (origin S1), plus adjacent phrase pairs
  where neither phrase clears the occurrence threshold (origin S2).  An S1
  pseudo-MEM certifies an f-MEM at least as long as the characters left after
  deleting one phrase from each end.
* Coarse-then-refine: a phrase-ID filter yields over-approximations of the
  S1/S2 regions (S3/S4); the real parse index then recovers exactly the
  S1/S2 output inside them.

Once at least t pseudo-MEMs certify f-MEMs of some length, every pseudo-MEM
shorter than the t-th best certified length can be discarded without losing
any of the t longest f-MEMs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from .errors import EmptyInputError
from .filters import KIND_BLOOM, ITEMS_KMER, ITEMS_PHRASE, MembershipFilter
from .parsing import ParsedString
from .seqindex import Mem, OccurrenceIndex, find_f_mems, threshold_scan
# Not called here; bench/tracing.py wraps this name on this module.
from .seqindex import bml_mems  # noqa: F401

log = logging.getLogger(__name__)

ORIGIN_S1 = "S1"
ORIGIN_S2 = "S2"
ORIGIN_WHOLE = "WHOLE"
ORIGIN_KEBAB = "KEBAB"


@dataclass(frozen=True)
class PseudoMem:
    """A substring of P guaranteed to contain certain f-MEMs.

    ``lower_bound`` is the length of a substring certified to lie inside some
    f-MEM (0 when there is no certificate).  Phrase coordinates are absent
    for KeBaB pseudo-MEMs.
    """

    char_start: int
    char_end: int
    origin: str
    lower_bound: int = 0
    phrase_start: int | None = None
    phrase_end: int | None = None

    @property
    def length(self) -> int:
        return self.char_end - self.char_start + 1


@dataclass(frozen=True)
class CoarseSets:
    """Filter-level over-approximation of the parse pseudo-MEM regions.

    ``s3`` holds the one-phrase-each-way extensions of maximal filter-positive
    runs; ``runs`` keeps the unextended runs for refinement; ``s4`` holds the
    adjacent filter-negative pairs.  All intervals are 1-based phrase indices.
    """

    s3: tuple[tuple[int, int], ...]
    s4: tuple[tuple[int, int], ...]
    runs: tuple[tuple[int, int], ...]
    f: int


def kebab_pseudo_mems(pattern: bytes, filt: MembershipFilter,
                      f: int = 1) -> list[PseudoMem]:
    """Maximal runs of consecutive k-mer positions the filter reports >= f.

    The run of k-mer positions a..b covers characters a..b+k-1.  Two runs
    separated by a single absent k-mer therefore overlap by k-2 characters.
    Patterns shorter than k yield an empty list with a logged warning.
    """
    if filt.item_kind != ITEMS_KMER:
        raise ValueError("KeBaB needs a k-mer filter")
    if filt.kind == KIND_BLOOM and f > 1:
        raise ValueError("finding f-MEMs with f > 1 needs a counting or exact filter")
    k = filt.k
    m = len(pattern)
    if m < k:
        log.warning("pattern of length %d is shorter than k=%d; no pseudo-MEMs", m, k)
        return []
    out = []
    run_start = None
    for i in range(1, m - k + 2):
        present = filt.at_least(pattern[i - 1:i - 1 + k], f)
        if present and run_start is None:
            run_start = i
        elif not present and run_start is not None:
            out.append(PseudoMem(run_start, i - 1 + k - 1, ORIGIN_KEBAB))
            run_start = None
    if run_start is not None:
        out.append(PseudoMem(run_start, m, ORIGIN_KEBAB))
    return out


def compute_lower_bound(pm: PseudoMem, parsed_pattern: ParsedString) -> int:
    """Certified minimum length of an f-MEM inside a phrase-derived pseudo-MEM.

    Deleting one phrase from each end of an S1 pseudo-MEM leaves a phrase
    interval inside the parse-level match, whose characters occur at least f
    times in the text and hence sit inside some f-MEM.  S2 pairs, single
    WHOLE phrases, and two-phrase S1 elements certify nothing.
    """
    if pm.phrase_start is None or pm.phrase_end is None:
        raise ValueError("lower bounds apply only to phrase-derived pseudo-MEMs")
    if pm.origin != ORIGIN_S1:
        return 0
    inner_lo, inner_hi = pm.phrase_start + 1, pm.phrase_end - 1
    if inner_lo > inner_hi:
        return 0
    lo, hi = parsed_pattern.char_span(inner_lo, inner_hi)
    return hi - lo + 1


def _emit_parse_pms(parsed_pattern: ParsedString, s1_matches: list[Mem],
                    s2_pairs: list[tuple[int, int]]) -> list[PseudoMem]:
    """Extend parse matches, clip, deduplicate, and map to characters."""
    n = len(parsed_pattern)
    out: list[PseudoMem] = []
    seen: set[tuple[int, int]] = set()
    for mem in s1_matches:
        lo, hi = max(mem.start - 1, 1), min(mem.end + 1, n)
        if (lo, hi) in seen:
            continue
        seen.add((lo, hi))
        cs, ce = parsed_pattern.char_span(lo, hi)
        pm = PseudoMem(cs, ce, ORIGIN_S1, phrase_start=lo, phrase_end=hi)
        out.append(replace(pm, lower_bound=compute_lower_bound(pm, parsed_pattern)))
    for lo, hi in s2_pairs:
        if (lo, hi) in seen:
            continue
        seen.add((lo, hi))
        cs, ce = parsed_pattern.char_span(lo, hi)
        out.append(PseudoMem(cs, ce, ORIGIN_S2, phrase_start=lo, phrase_end=hi))
    out.sort(key=lambda pm: (pm.char_start, pm.char_end))
    return out


def parse_pseudo_mems(parsed_pattern: ParsedString, parse_index: OccurrenceIndex,
                      f: int = 1) -> list[PseudoMem]:
    """Pseudo-MEMs of the pattern from its parse against the text's parse.

    A single-phrase parse makes all of the pattern one WHOLE pseudo-MEM.
    Otherwise every f-MEM of the phrase-ID sequence, extended one phrase each
    way and clipped at the pattern ends, becomes an S1 element, and every
    adjacent pair of phrases that both fail the occurrence test becomes an S2
    element.  Identical phrase intervals are emitted once.
    """
    n = len(parsed_pattern)
    if n == 0:
        raise EmptyInputError("parsed pattern is empty")
    if n == 1:
        return [PseudoMem(1, parsed_pattern.source_length, ORIGIN_WHOLE,
                          phrase_start=1, phrase_end=1)]
    matches = find_f_mems(parse_index, parsed_pattern.symbols, f)
    occurs = [parse_index.count((sym,)) >= f for sym in parsed_pattern.symbols]
    pairs = [(i, i + 1) for i in range(1, n) if not occurs[i - 1] and not occurs[i]]
    return _emit_parse_pms(parsed_pattern, matches, pairs)


def safe_discard(pms: list[PseudoMem], t: int) -> list[PseudoMem]:
    """Keep every pseudo-MEM at least as long as the t-th best lower bound.

    With fewer than t nonzero bounds the cutoff is 0 and everything is
    retained.  Pseudo-MEMs whose length equals the cutoff are kept (the
    conservative reading), so the t longest f-MEMs always survive.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    bounds = sorted((pm.lower_bound for pm in pms), reverse=True)
    cutoff = bounds[t - 1] if len(bounds) >= t else 0
    return [pm for pm in pms if pm.length >= cutoff]


def coarse_sets(parsed_pattern: ParsedString, phrase_filter: MembershipFilter,
                f: int = 1) -> CoarseSets:
    """Filter-level S3/S4 regions of the pattern's parse.

    S3 extends each maximal run of filter-positive phrases by one phrase each
    way; S4 collects adjacent pairs where both phrases are filter-negative.
    A filter-negative phrase is certainly below threshold, so these regions
    cover the exact S1/S2 output whatever false positives occur.
    """
    if phrase_filter.item_kind != ITEMS_PHRASE:
        raise ValueError("coarse sets need a phrase-ID filter")
    n = len(parsed_pattern)
    if n == 0:
        raise EmptyInputError("parsed pattern is empty")
    present = [phrase_filter.at_least(sym, f) for sym in parsed_pattern.symbols]
    runs = []
    start = None
    for i in range(1, n + 1):
        if present[i - 1] and start is None:
            start = i
        elif not present[i - 1] and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, n))
    s3 = tuple((max(a - 1, 1), min(b + 1, n)) for a, b in runs)
    s4 = tuple((i, i + 1) for i in range(1, n)
               if not present[i - 1] and not present[i])
    return CoarseSets(s3=s3, s4=s4, runs=tuple(runs), f=f)


def refine(coarse: CoarseSets, parsed_pattern: ParsedString,
           parse_index: OccurrenceIndex, f: int = 1) -> list[PseudoMem]:
    """Recover the exact parse pseudo-MEMs from the coarse regions.

    Because the filter has no false negatives, every true parse f-MEM lies
    inside a filter-positive run, so one parse-level scan with the runs as
    its windows finds them all.  S4 pairs are definitively absent phrases
    and become S2 elements directly; false positives inside S3 regions are
    weeded out by rechecking phrase counts against the real index.  The
    output equals
    parse_pseudo_mems applied to the whole parse.
    """
    if coarse.f != f:
        raise ValueError("coarse sets were built for a different f")
    n = len(parsed_pattern)
    if n == 1:
        return [PseudoMem(1, parsed_pattern.source_length, ORIGIN_WHOLE,
                          phrase_start=1, phrase_end=1)]
    matches = threshold_scan(parse_index, parsed_pattern.symbols,
                             coarse.runs, f)
    pairs = set(coarse.s4)
    occurs: dict[int, bool] = {}
    for lo, hi in coarse.s3:
        for i in range(lo, hi + 1):
            if i not in occurs:
                sym = parsed_pattern.symbols[i - 1]
                occurs[i] = parse_index.count((sym,)) >= f
        for i in range(lo, hi):
            if not occurs[i] and not occurs[i + 1]:
                pairs.add((i, i + 1))
    return _emit_parse_pms(parsed_pattern, matches, sorted(pairs))


def find_long_mems(text_index: OccurrenceIndex, pms: list[PseudoMem],
                   pattern: bytes, f: int = 1, t: int | None = None,
                   L: int | None = None) -> list[Mem]:
    """The character-level f-MEM search of every query mode, inside windows.

    The windows (pseudo-MEMs' characters, or the whole pattern) are merged
    where they overlap or touch and scanned against the text in one
    threshold scan, longest first.  Of the f-MEMs of P that lie inside a
    merged window, the result holds with ``L`` those of length at least L;
    with ``t`` the t longest, ties included; with neither, all.  Output is
    sorted by start.
    """
    runs: list[tuple[int, int]] = []
    for lo, hi in sorted((pm.char_start, pm.char_end) for pm in pms):
        if runs and lo <= runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], max(runs[-1][1], hi))
        else:
            runs.append((lo, hi))
    runs.sort(key=lambda run: run[0] - run[1])
    return threshold_scan(text_index, pattern, runs, f, L=L, t=t)
