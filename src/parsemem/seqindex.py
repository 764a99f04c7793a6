"""Occurrence counting and f-MEM finding over sequences of generic symbols.

The index is a pair of suffix arrays, one over the sequence and one over its
reverse, each supporting occurrence counts and one-symbol extension of a
match interval.  On top of them sit the forward-backward scan (all f-MEMs),
its thresholded variant (only f-MEMs of length >= L, with Boyer-Moore-style
skipping), and the adaptive top-t variant that keeps raising the threshold to
the length of the t-th longest match found so far.

Symbols are plain non-negative integers, so the same machinery indexes byte
strings and phrase-ID sequences alike.  At the scale this package targets a
suffix array with binary search is entirely adequate; nothing here depends on
a particular compressed index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import EmptyInputError


@dataclass(frozen=True)
class SymbolSequence:
    """A sequence over a generic integer alphabet."""

    symbols: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self):
        if self.symbols and max(self.symbols) >= self.alphabet_size:
            raise ValueError("symbol exceeds declared alphabet size")

    @classmethod
    def from_bytes(cls, data: bytes) -> "SymbolSequence":
        return cls(tuple(data), 256)

    @classmethod
    def from_ids(cls, ids: Iterable[int], alphabet_size: int) -> "SymbolSequence":
        return cls(tuple(ids), alphabet_size)

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]


@dataclass
class StepCounter:
    """Deterministic counters of algorithmic events, for reporting."""

    backward_steps: int = 0
    filter_probes: int = 0


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
    """One direction of the index: suffix array over one symbol sequence."""

    def __init__(self, seq: tuple[int, ...]):
        self.seq = seq
        self.sa = _build_suffix_array(seq) if seq else []

    def whole(self) -> MatchInterval:
        return MatchInterval(0, len(self.sa), 0)

    def extend(self, m: MatchInterval, sym: int,
               counter: StepCounter | None = None) -> MatchInterval:
        """Narrow ``m`` to the suffixes whose next symbol is ``sym``.

        The result may be empty (count 0); extension never raises.
        """
        if counter is not None:
            counter.backward_steps += 1
        seq, sa, d = self.seq, self.sa, m.depth
        n = len(seq)

        def sym_at(pos: int) -> int:
            p = sa[pos] + d
            return seq[p] if p < n else -1  # exhausted suffixes sort first

        lo, hi = m.lo, m.hi
        # lower bound for sym
        a, b = lo, hi
        while a < b:
            mid = (a + b) // 2
            if sym_at(mid) < sym:
                a = mid + 1
            else:
                b = mid
        new_lo = a
        # upper bound for sym
        a, b = new_lo, hi
        while a < b:
            mid = (a + b) // 2
            if sym_at(mid) <= sym:
                a = mid + 1
            else:
                b = mid
        return MatchInterval(new_lo, a, d + 1)

    def locate(self, query: Sequence[int],
               counter: StepCounter | None = None) -> MatchInterval:
        m = self.whole()
        for sym in query:
            m = self.extend(m, sym, counter)
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
    query on the right extends the original query on the left.
    Immutable after construction; queries allocate only query-local state.
    """

    def __init__(self, seq: SymbolSequence):
        if len(seq) == 0:
            raise EmptyInputError("cannot index an empty sequence")
        self.sequence = seq
        self.forward = _SuffixView(seq.symbols)
        self.backward = _SuffixView(tuple(reversed(seq.symbols)))

    def __len__(self) -> int:
        return len(self.sequence)

    def count(self, query: Sequence[int], counter: StepCounter | None = None) -> int:
        """Number of starting positions of ``query``; overlaps allowed."""
        q = _as_symbols(query)
        if len(q) == 0:
            raise EmptyInputError("empty queries are not counted")
        return self.forward.locate(q, counter).count


def _as_symbols(pattern) -> tuple[int, ...]:
    if isinstance(pattern, SymbolSequence):
        return pattern.symbols
    return tuple(pattern)


def _longest_suffix_match(index: OccurrenceIndex, pat: tuple[int, ...], end: int,
                          f: int, counter: StepCounter | None) -> int:
    """Smallest ``start`` with count(pat[start..end]) >= f; ``end + 1`` if none.

    Positions are 1-based inclusive.  Walks the backward view from the single
    symbol pat[end] leftwards while the interval stays at least f wide.
    """
    bwd = index.backward.whole()
    start = end + 1
    while start > 1:
        nxt = index.backward.extend(bwd, pat[start - 2], counter)
        if nxt.count < f:
            break
        bwd = nxt
        start -= 1
    return start


def find_f_mems(index: OccurrenceIndex, pattern, f: int = 1,
                counter: StepCounter | None = None) -> list[Mem]:
    """All f-MEMs of ``pattern`` with respect to the indexed sequence.

    Alternates right extensions in the forward structure with backward steps
    in the reverse structure: each emitted interval is right-maximal because
    the next right extension drops below f, and left-maximal because its
    start came from the longest match ending at its last-extended position.
    Output is sorted by start; starts and ends are strictly increasing.
    """
    pat = _as_symbols(pattern)
    if len(pat) == 0:
        raise EmptyInputError("pattern must be nonempty")
    if f < 1:
        raise ValueError("f must be at least 1")
    m = len(pat)
    mems: list[Mem] = []
    i = 1
    fwd = None
    j = 0
    while i <= m:
        if j < i:
            probe = index.forward.extend(index.forward.whole(), pat[i - 1], counter)
            if probe.count < f:
                i += 1
                continue
            fwd, j = probe, i
        while j < m:
            nxt = index.forward.extend(fwd, pat[j], counter)
            if nxt.count < f:
                break
            fwd, j = nxt, j + 1
        mems.append(Mem(start=i, end=j, freq=fwd.count, f=f))
        if j == m:
            break
        start = _longest_suffix_match(index, pat, j + 1, f, counter)
        if start == j + 2:
            # pat[j+1] alone is too rare; nothing containing it can match
            i, j = j + 2, j + 1
        else:
            i, j = start, j + 1
            fwd = index.forward.locate(pat[i - 1:j], counter)
    return mems


def _bml_scan(index: OccurrenceIndex, pat: tuple[int, ...], f: int,
              initial_threshold: int, top_t: int | None,
              counter: StepCounter | None) -> list[Mem]:
    """Threshold scan shared by bml_mems and bml_top_t.

    Slides a candidate window end j over the pattern.  If the length-L
    substring ending at j has fewer than f occurrences after matching only s
    of its symbols, no valid match can contain the failing stretch, so j can
    jump ahead by L - s.  A fully matching window is grown to the longest
    match ending at j, then right-extended to a maximal match.  In top-t mode
    L is raised to the t-th longest length found so far, so matches tying
    with it are still found, and those left below the final L are dropped.
    """
    m = len(pat)
    mems: list[Mem] = []
    lengths: list[int] = []  # lengths found so far, kept sorted descending
    threshold = initial_threshold
    j = threshold
    while j <= m:
        bwd = index.backward.whole()
        s = 0
        while s < threshold:
            nxt = index.backward.extend(bwd, pat[j - s - 1], counter)
            if nxt.count < f:
                break
            bwd = nxt
            s += 1
        if s < threshold:
            j += threshold - s
            continue
        start = j - threshold + 1
        while start > 1:
            nxt = index.backward.extend(bwd, pat[start - 2], counter)
            if nxt.count < f:
                break
            bwd = nxt
            start -= 1
        fwd = index.forward.locate(pat[start - 1:j], counter)
        end = j
        while end < m:
            nxt = index.forward.extend(fwd, pat[end], counter)
            if nxt.count < f:
                break
            fwd, end = nxt, end + 1
        mem = Mem(start=start, end=end, freq=fwd.count, f=f)
        mems.append(mem)
        if top_t is not None:
            lengths.append(mem.length)
            lengths.sort(reverse=True)
            if len(lengths) >= top_t:
                threshold = lengths[top_t - 1]
        j = end + 1
        if j < threshold:
            j = threshold
    return [mem for mem in mems if mem.length >= threshold]


def bml_mems(index: OccurrenceIndex, pattern, L: int, f: int = 1,
             counter: StepCounter | None = None) -> list[Mem]:
    """Exactly the f-MEMs of length at least ``L``; with L=1 this equals
    find_f_mems."""
    pat = _as_symbols(pattern)
    if len(pat) == 0:
        raise EmptyInputError("pattern must be nonempty")
    if L < 1:
        raise ValueError("L must be at least 1")
    if f < 1:
        raise ValueError("f must be at least 1")
    return _bml_scan(index, pat, f, L, None, counter)


def bml_top_t(index: OccurrenceIndex, pattern, t: int, f: int = 1,
              counter: StepCounter | None = None) -> list[Mem]:
    """The t longest f-MEMs, ties included, by adaptively raising the
    length threshold.

    The result is exactly the f-MEMs at least as long as the t-th longest.
    With t at least the total number of f-MEMs this is identical to
    find_f_mems.
    """
    pat = _as_symbols(pattern)
    if len(pat) == 0:
        raise EmptyInputError("pattern must be nonempty")
    if t < 1:
        raise ValueError("t must be at least 1")
    if f < 1:
        raise ValueError("f must be at least 1")
    return _bml_scan(index, pat, f, 1, t, counter)
