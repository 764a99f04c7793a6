"""Occurrence counting and f-MEM finding over sequences of integer symbols.

The index is a pair of suffix arrays, one over the sequence and one over its
reverse, each supporting occurrence counts and one-symbol extension of a
match interval.  On top of them sits one threshold scan over a list of
windows of the pattern: with threshold L it finds exactly the f-MEMs of
length >= L that lie inside a window, with Boyer-Moore-style skipping; at
L=1 it finds all of them; in top-t mode it keeps raising the threshold to
the length of the t-th longest match found so far.  The named entry points
scan the whole pattern as one window.

Symbols are plain non-negative integers, so the same machinery indexes byte
strings and phrase-ID tuples alike.  Each direction of the index counts its
one-symbol extensions, the unit of search work that ``parsemem stats``
reports.  At the scale this package targets a suffix array with binary
search is entirely adequate; nothing here depends on a particular
compressed index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyInputError


@dataclass(frozen=True)
class MatchInterval:
    """A suffix-array interval of suffixes sharing a prefix of length ``depth``."""

    lo: int
    hi: int
    depth: int

    @property
    def count(self) -> int:
        return self.hi - self.lo


def _build_suffix_array(seq: tuple[int, ...]) -> list[int]:
    """Suffix array by prefix doubling, O(n log^2 n)."""
    n = len(seq)
    order = sorted(set(seq))
    rank_of = {v: r for r, v in enumerate(order)}
    rank = [rank_of[v] for v in seq]
    sa = list(range(n))
    k = 1
    while True:
        def key(i):
            return (rank[i], rank[i + k] if i + k < n else -1)

        sa.sort(key=key)
        new = [0] * n
        for pos in range(1, n):
            new[sa[pos]] = new[sa[pos - 1]] + (key(sa[pos]) != key(sa[pos - 1]))
        rank = new
        if rank[sa[-1]] == n - 1:
            return sa
        k *= 2


class _SuffixView:
    """One direction of the index: suffix array over one symbol sequence.

    ``steps`` counts the calls to ``extend`` made so far.
    """

    def __init__(self, seq: tuple[int, ...]):
        self.seq = seq
        self.sa = _build_suffix_array(seq) if seq else []
        self.steps = 0

    def whole(self) -> MatchInterval:
        return MatchInterval(0, len(self.sa), 0)

    def extend(self, m: MatchInterval, sym: int) -> MatchInterval:
        """Narrow ``m`` to the suffixes whose next symbol is ``sym``.

        The result may be empty (count 0); extension never raises.
        """
        self.steps += 1
        seq, sa, d = self.seq, self.sa, m.depth
        n = len(seq)
        lo, hi = m.lo, m.hi
        while lo < hi:  # first suffix whose next symbol is >= sym
            mid = (lo + hi) >> 1
            p = sa[mid] + d
            if p >= n or seq[p] < sym:  # exhausted suffixes sort first
                lo = mid + 1
            else:
                hi = mid
        a, b = lo, m.hi
        while a < b:  # first suffix whose next symbol is > sym
            mid = (a + b) >> 1
            p = sa[mid] + d
            if p >= n or seq[p] <= sym:
                a = mid + 1
            else:
                b = mid
        return MatchInterval(lo, a, d + 1)

    def locate(self, query: Sequence[int]) -> MatchInterval:
        m = self.whole()
        for sym in query:
            m = self.extend(m, sym)
            if m.count == 0:
                break
        return m


@dataclass(frozen=True)
class Mem:
    """A maximal exact match: 1-based inclusive interval in the pattern."""

    start: int
    end: int
    freq: int
    f: int = 1

    @property
    def length(self) -> int:
        return self.end - self.start + 1


class OccurrenceIndex:
    """Forward and backward suffix structures over one symbol sequence.

    ``forward`` indexes the sequence itself (right extension of a match);
    ``backward`` indexes the reversed sequence, so extending the reversed
    query on the right extends the original query on the left.  ``seq`` is
    bytes or a tuple of phrase IDs; it is stored as a tuple.  The suffix
    arrays never change after construction; ``steps`` counts the one-symbol
    extensions made in either direction so far, so callers measure a unit
    of work as the difference around it.
    """

    def __init__(self, seq: Sequence[int]):
        if len(seq) == 0:
            raise EmptyInputError("cannot index an empty sequence")
        self.sequence = tuple(seq)
        self.forward = _SuffixView(self.sequence)
        self.backward = _SuffixView(tuple(reversed(self.sequence)))

    def __len__(self) -> int:
        return len(self.sequence)

    @property
    def steps(self) -> int:
        return self.forward.steps + self.backward.steps

    def count(self, query: Sequence[int]) -> int:
        """Number of starting positions of ``query``; overlaps allowed."""
        if len(query) == 0:
            raise EmptyInputError("empty queries are not counted")
        return self.forward.locate(query).count


def threshold_scan(index: OccurrenceIndex, pattern: Sequence[int],
                   windows: Sequence[tuple[int, int]], f: int = 1,
                   L: int | None = None, t: int | None = None) -> list[Mem]:
    """The f-MEMs of ``pattern`` that lie inside one of ``windows``: with
    ``L`` those of length at least L, with ``t`` the t longest, ties
    included, and with neither all of them.

    ``windows`` are disjoint 1-based inclusive (lo, hi) character ranges of
    the pattern.  In each, a candidate end j slides from left to right.  If
    the length-L substring ending at j has fewer than f occurrences after
    matching only s of its symbols, no valid match can contain the failing
    stretch, so j can jump ahead by L - s.  A fully matching candidate is
    grown left to the longest match ending at j, then right to a maximal
    match, neither past the window's edges.  A match that reaches an edge is
    kept only if it cannot cross it: on the right one more extension
    decides; on the left one backward extension of the match ending at j,
    and only if that succeeds a count of the whole match with the symbol
    before the window.  In top-t mode the threshold L rises to the t-th
    longest length found so far, across windows, so matches tying with it
    are still found, matches left below the final threshold are dropped,
    and windows shorter than the threshold are not scanned.  Passing the
    windows longest first raises it soonest.  Output is sorted by start.
    """
    if len(pattern) == 0:
        raise EmptyInputError("pattern must be nonempty")
    if f < 1:
        raise ValueError("f must be at least 1")
    if t is not None and L is not None:
        raise ValueError("pass at most one of t and L")
    if L is not None and L < 1:
        raise ValueError("L must be at least 1")
    if t is not None and t < 1:
        raise ValueError("t must be at least 1")
    m = len(pattern)
    mems: list[Mem] = []
    lengths: list[int] = []  # lengths found so far, kept sorted descending
    threshold = L or 1
    for lo, hi in windows:
        j = lo + threshold - 1
        while j <= hi:
            bwd = index.backward.whole()
            s = 0
            while s < threshold:
                nxt = index.backward.extend(bwd, pattern[j - s - 1])
                if nxt.count < f:
                    break
                bwd = nxt
                s += 1
            if s < threshold:
                j += threshold - s
                continue
            start = j - threshold + 1
            while start > lo:
                nxt = index.backward.extend(bwd, pattern[start - 2])
                if nxt.count < f:
                    break
                bwd = nxt
                start -= 1
            fwd = index.forward.locate(pattern[start - 1:j])
            end = j
            while end < hi:
                nxt = index.forward.extend(fwd, pattern[end])
                if nxt.count < f:
                    break
                fwd, end = nxt, end + 1
            crosses = (
                end == hi < m
                and index.forward.extend(fwd, pattern[hi]).count >= f
            ) or (
                start == lo > 1
                and index.backward.extend(bwd, pattern[lo - 2]).count >= f
                and index.count(pattern[lo - 2:end]) >= f
            )
            if not crosses:
                mem = Mem(start=start, end=end, freq=fwd.count, f=f)
                mems.append(mem)
                if t is not None:
                    lengths.append(mem.length)
                    lengths.sort(reverse=True)
                    if len(lengths) >= t:
                        threshold = lengths[t - 1]
            j = max(end + 1, lo + threshold - 1)
    return sorted((mem for mem in mems if mem.length >= threshold),
                  key=lambda mem: mem.start)


def find_f_mems(index: OccurrenceIndex, pattern: Sequence[int],
                f: int = 1) -> list[Mem]:
    """All f-MEMs of ``pattern`` with respect to the indexed sequence: the
    threshold scan at L=1 over the whole pattern.

    Output is sorted by start; starts and ends are strictly increasing.
    """
    return threshold_scan(index, pattern, ((1, len(pattern)),), f)


def bml_mems(index: OccurrenceIndex, pattern: Sequence[int], L: int,
             f: int = 1) -> list[Mem]:
    """Exactly the f-MEMs of length at least ``L``."""
    return threshold_scan(index, pattern, ((1, len(pattern)),), f, L=L)


def bml_top_t(index: OccurrenceIndex, pattern: Sequence[int], t: int,
              f: int = 1) -> list[Mem]:
    """The t longest f-MEMs, ties included, by adaptively raising the
    length threshold.

    The result is exactly the f-MEMs at least as long as the t-th longest.
    With t at least the total number of f-MEMs this is identical to
    find_f_mems.
    """
    return threshold_scan(index, pattern, ((1, len(pattern)),), f, t=t)
