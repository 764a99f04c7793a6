"""Pseudo-MEM construction, lower bounds, safe discarding, and final search.

Two routes produce pseudo-MEMs over a pattern P:

* KeBaB: maximal runs of k-mers a filter reports present (at least f times);
  no length guarantee comes with them, so their lower bound is always 0.
* Parse indexing: f-MEMs of the pattern's parse against the text's parse,
  extended by one phrase each way (origin S1), plus adjacent phrase pairs
  where neither phrase clears the occurrence threshold (origin S2).  An S1
  pseudo-MEM certifies an f-MEM at least as long as the characters left after
  deleting one phrase from each end.  The route counts each phrase before
  its scan, one bucket read each, and scans only the runs of phrases that
  occur, so the parse and combined query modes both run it as it is.

``coarse_sets`` and ``refine`` keep the paper's coarse-then-refine form as
library functions: a phrase-ID filter's answers, then the parse route.  A
filter has no false negatives, so ``refine`` returns the parse route's
output.

Once at least t pseudo-MEMs certify distinct f-MEMs of some length, every
pseudo-MEM shorter than the t-th best certified length can be discarded
without losing any of the t longest f-MEMs.

A certificate is an S1 pseudo-MEM with a nonzero bound.  Its span, the
characters left after deleting one phrase from each end, lies inside some
f-MEM (criterion 4).  Two certificates may owe their bounds to one f-MEM,
so the cutoff c counts a certificate only if its window does not lie inside
another certificate's window.  Counted certificates vouch for distinct
f-MEMs: if the spans of two of them lay in one f-MEM X, the phrases from
the first span's start to the last span's end would be internal and inside
X, so by criterion 2's converse they occur at least f times, and the parse
f-MEM that covers them yields a certificate whose span, and so whose window,
holds both.  Where two windows share the pattern's last character, the rule
may skip a certificate that it could have counted, which can only lower c.

The cutoff c also floors the final top-t search.  Safe discarding keeps the
t counted certificates with the best bounds, each at least as long as its
bound, so the kept windows hold t distinct f-MEMs at least c long.  Before
discarding, the windows hold every f-MEM at least the search's floor long:
1, or k for KeBaB runs.  With t the search returns the t longest f-MEMs in
the windows at least max(floor, c) long, or, if fewer than t reach that,
the t longest of the whole pattern, so the answer is exact whatever the
floor is; without t, an L below the floor searches the whole pattern.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyInputError
from .filters import KIND_BLOOM, ITEMS_KMER, ITEMS_PHRASE, MembershipFilter
from .parsing import ParsedString
from .seqindex import Mem, OccurrenceIndex, threshold_scan
# Not called here; bench/tracing.py wraps these names on this module.
from .seqindex import bml_mems, find_f_mems  # noqa: F401

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
    """The phrase filter's answers for the phrases of a pattern's parse.

    ``present[i - 1]`` tells whether the filter reports phrase i at least
    ``f`` times.  The filter has no false negatives, so a phrase it rejects
    occurs fewer than f times in the text's parse.
    """

    present: tuple[bool, ...]
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
        raise ValueError("finding f-MEMs with f > 1 needs a filter that counts")
    k = filt.k
    m = len(pattern)
    if m < k:
        log.warning("pattern of length %d is shorter than k=%d; no pseudo-MEMs", m, k)
        return []
    present = filt.kmers_at_least(pattern, f)
    return [PseudoMem(a, b + k - 1, ORIGIN_KEBAB) for a, b in _runs(present)]


_RUN = re.compile(b"\x01+")  # a maximal run of true flags, one byte each


def _runs(present: bytes | Sequence[bool]) -> list[tuple[int, int]]:
    """Maximal runs of true entries, as 1-based inclusive intervals; flag
    bytes, as ``kmers_at_least`` returns them, are read as they are."""
    return [(run.start() + 1, run.end()) for run in _RUN.finditer(bytes(present))]


def _emit_parse_pms(parsed_pattern: ParsedString, s1_matches: list[Mem],
                    s2_pairs: list[tuple[int, int]]) -> list[PseudoMem]:
    """Extend parse matches, clip, deduplicate, and map to characters.

    Parse f-MEMs [1, n - 1] and [2, n] both clip to (1, n), so an S1
    interval is emitted once.  An S2 pair cannot equal one: its phrases
    count below f, and an S1 interval holds phrases counted at least f.
    """
    n = len(parsed_pattern)
    starts, o = parsed_pattern.phrase_start, parsed_pattern.overlap
    # phrase i ends at ends[i - 1]: o characters into the next phrase
    ends = [start - 1 + o for start in starts[1:]]
    ends.append(parsed_pattern.source_length)
    out: list[PseudoMem] = []
    seen: set[tuple[int, int]] = set()
    for mem in s1_matches:
        lo, hi = max(mem.start - 1, 1), min(mem.end + 1, n)
        if (lo, hi) in seen:
            continue
        seen.add((lo, hi))
        # the characters left with one phrase off each end
        bound = ends[hi - 2] - starts[lo] + 1 if hi - lo >= 2 else 0
        out.append(PseudoMem(starts[lo - 1], ends[hi - 1], ORIGIN_S1, bound,
                             phrase_start=lo, phrase_end=hi))
    for lo, hi in s2_pairs:
        out.append(PseudoMem(starts[lo - 1], ends[hi - 1], ORIGIN_S2,
                             phrase_start=lo, phrase_end=hi))
    out.sort(key=lambda pm: (pm.char_start, pm.char_end))
    return out


def parse_pseudo_mems(parsed_pattern: ParsedString, parse_index: OccurrenceIndex,
                      f: int = 1) -> list[PseudoMem]:
    """Pseudo-MEMs of the pattern from its parse against the text's parse.

    A single-phrase parse makes all of the pattern one WHOLE pseudo-MEM.
    Otherwise a phrase occurs if it is counted at least f times in the
    text's parse, one bucket read each.  Every f-MEM of the phrase-ID
    sequence, extended one phrase each way and clipped at the pattern ends,
    becomes an S1 element, and every adjacent pair of phrases that both fail
    to occur becomes an S2 element.  Every phrase of a parse f-MEM occurs,
    so the parse-level scan covers only the runs of phrases that occur and
    finds the same matches as one over the whole parse.  Identical phrase
    intervals are emitted once.
    """
    n = len(parsed_pattern)
    if n == 0:
        raise EmptyInputError("parsed pattern is empty")
    if n == 1:
        return [PseudoMem(1, parsed_pattern.source_length, ORIGIN_WHOLE,
                          phrase_start=1, phrase_end=1)]
    symbols, count = parsed_pattern.symbols, parse_index.count
    occurs = [count((sym,)) >= f for sym in symbols]
    matches = threshold_scan(parse_index, symbols, _runs(occurs), f)
    pairs = [(i, i + 1) for i in range(1, n) if not occurs[i - 1] and not occurs[i]]
    return _emit_parse_pms(parsed_pattern, matches, pairs)


def safe_discard(pms: list[PseudoMem], t: int) -> list[PseudoMem]:
    """Keep every pseudo-MEM at least as long as the cutoff: the t-th best
    lower bound among the certificates that ``_cutoff`` counts.

    With fewer than t counted certificates the cutoff is 0 and everything
    is retained.  Pseudo-MEMs whose length equals the cutoff are kept (the
    conservative reading), so the t longest f-MEMs always survive.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    cutoff = _cutoff(pms, t)
    return [pm for pm in pms if pm.length >= cutoff]


def _cutoff(pms: list[PseudoMem], t: int) -> int:
    """The t-th largest bound of the certificates that count, or 0 with
    fewer than t.

    A certificate, a pseudo-MEM with a nonzero bound, counts unless its
    window lies inside another certificate's window: taken by start, and by
    end downward among equal starts, one counts when its end passes the
    furthest end so far, so each counted one vouches for its own f-MEM.
    """
    bounds, furthest = [], 0
    for pm in sorted((pm for pm in pms if pm.lower_bound > 0),
                     key=lambda pm: (pm.char_start, -pm.char_end)):
        if pm.char_end > furthest:
            furthest = pm.char_end
            bounds.append(pm.lower_bound)
    return sorted(bounds)[-t] if len(bounds) >= t else 0


def coarse_sets(parsed_pattern: ParsedString, phrase_filter: MembershipFilter,
                f: int = 1) -> CoarseSets:
    """The phrase filter's answers for the pattern's parse, in one batch call."""
    if phrase_filter.item_kind != ITEMS_PHRASE:
        raise ValueError("coarse sets need a phrase-ID filter")
    return CoarseSets(tuple(phrase_filter.at_least_many(parsed_pattern.symbols, f)), f)


def refine(coarse: CoarseSets, parsed_pattern: ParsedString,
           parse_index: OccurrenceIndex, f: int = 1) -> list[PseudoMem]:
    """The parse route once a phrase filter has answered: a library
    function, not a query mode, as combined runs parse_pseudo_mems itself.

    The route counts every phrase, and a filter has no false negatives, so
    a phrase the filter rejects is one the route leaves out anyway: refine
    checks that the answers were taken at f and returns the route's output.
    """
    if coarse.f != f:
        raise ValueError("coarse sets were built for a different f")
    return parse_pseudo_mems(parsed_pattern, parse_index, f)


def find_long_mems(text_index: OccurrenceIndex, pms: list[PseudoMem],
                   pattern: bytes, f: int = 1, t: int | None = None,
                   L: int | None = None, floor: int = 1) -> list[Mem]:
    """The character-level f-MEM search of every query mode, inside windows.

    The windows (pseudo-MEMs' characters, or the whole pattern) are merged
    where they overlap or touch and scanned against the text in one
    threshold scan, longest first.  Of the f-MEMs of P inside a merged
    window, the result holds, by start, with ``L`` those of length at least
    L, with ``t`` the t longest, ties included, and with neither all of them.

    ``floor`` is the length from which the windows, before safe discarding,
    hold every f-MEM of P.  With ``t`` the scan starts at max(floor, the
    cutoff safe_discard keeps), and if fewer than t matches reach an L
    above 1, the whole pattern is scanned again from 1.  Without ``t``, an
    L below the floor (1 when L is not given) scans the whole pattern.
    """
    if t is not None and L is not None:
        raise ValueError("pass at most one of t and L")
    runs: list[tuple[int, int]] = []
    for lo, hi in sorted((pm.char_start, pm.char_end) for pm in pms):
        if runs and lo <= runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], max(runs[-1][1], hi))
        else:
            runs.append((lo, hi))
    runs.sort(key=lambda run: run[0] - run[1])
    if t:
        L = max(floor, _cutoff(pms, t))
    elif (L or 1) < floor:
        runs = [(1, len(pattern))]
    mems = threshold_scan(text_index, pattern, runs, f, L=L, t=t)
    if t and L > 1 and len(mems) < t:
        return threshold_scan(text_index, pattern, ((1, len(pattern)),), f, t=t)
    return mems
