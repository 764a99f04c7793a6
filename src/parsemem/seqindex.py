"""Occurrence counting and f-MEM finding over sequences of integer symbols.

The index is a pair of suffix arrays, one over the sequence and one over its
reverse, each supporting occurrence counts and the growth of a match
interval.  A match interval is a plain pair ``(lo, hi)`` of suffix-array
rows, held as two local ints, so a search step builds no object.  On top
of the two arrays sits one threshold scan over a list of windows of the
pattern: with threshold L it finds exactly the f-MEMs of length >= L that
lie inside a window, with Boyer-Moore-style skipping; at L=1 it finds all
of them; in top-t mode it keeps raising the threshold, from L or 1, to the
length of the t-th longest match found so far.  The named entry points
scan the whole pattern as one window.  Every growth starts from the empty
match: the scan grows each candidate end once, as far left as its window
allows, and finishes the growths that stop just short of the threshold.

A match grows by reading the text at its rows' suffixes, which lie in
sorted order: one bisection places the rest of the pattern among the rows,
the rows' agreements with it rise to that place and fall after it, so the
few rows beside it, compared with the pattern by slices, give how far the
match grows, and the rows that agree that far are one range around it.  A
match whose left growth ends with at most ``NARROW`` rows is finished from
its occurrences: its right growth, its count and both window-edge checks
come from the text there, with no forward re-walk of the match.

Symbols are plain non-negative integers, so the same machinery indexes byte
strings and phrase-ID tuples alike.  An index takes queries of its own
sequence's type, converting any other sequence once, so that slices of the
query and the text compare.  Each direction of the index counts its search
steps: one per symbol a match is grown by, plus one for the symbol that
stops a growth, as one-symbol binary searches would count them.  That is
the unit of search work that ``parsemem stats`` reports.  At the scale
this package targets a suffix array with binary search is entirely
adequate; nothing here depends on a particular compressed index.

A byte text indexed with its prefix-free parse and trigger builds each
suffix array from a parse (its own, or its reverse's) when the distinct
phrases are short in total, and by prefix doubling from 32-symbol seeds
otherwise: a repetitive text then sorts its phrase dictionary and its
parse, not its repeats, whose length sets the doubling's rounds.  Both
routes give the same array, so nothing stored says which one ran.

A byte text's backward view also keeps a ``PrefixTable``: the row start of
every length-q string over the text's alphabet, q as large as leaves about
``NARROW`` rows per string.  A growth allowed at least q symbols starts
from the table's bucket for its first q, when that holds at least f rows,
as one table hit that counts the q steps of q one-symbol searches, so
step totals keep their unit.

A phrase-ID index keeps its first-symbol buckets instead: each symbol's
rows, which are the same in both suffix arrays, as a sequence and its
reverse hold the same symbols.  A growth takes its first symbol's bucket as
one step, the one symbol it grows by, and stops there when the bucket has
fewer than f rows; a one-symbol count is that bucket's size, the same one
step, with no growth.  A byte text has no buckets: deriving them would read
every row, and its prefix table already starts the growths that matter.
The buckets are not a one-symbol prefix table: that codes bytes by a
256-entry rank list, and a miss in its bucket falls back to binary search,
where a first symbol's miss is final.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from heapq import heappush, heapreplace
from itertools import accumulate, chain, islice
from operator import lt, or_, xor
from typing import Sequence

from .errors import EmptyInputError
from .parsing import ParsedString, PhraseDictionary, Trigger, pfp_parse

# A left growth that ends with at most this many rows is finished from the
# text at its occurrences, with no forward re-walk: this picks how a match is
# finished, never which candidates the scan visits.
NARROW = 16
# The prefix table's depth q keeps at least this many rows per string on
# average (bound here, so that a NARROW patched in a test leaves q as it is).
BUCKET_ROWS = NARROW
# Ranks a suffix-array round turns into keys per slice: bounds the ints held
# twice, as rank and as key, to keep the build's peak memory down.
_KEY_SLICE = 4096
# Bytes of a byte sequence's seed key: two 4-bit symbol ranks a byte under 16
# distinct symbols, one 8-bit rank a byte from 16 to 255 of them.
SEED_BYTES = 16
# A byte text given its parse has its suffix array built from it when the
# distinct phrases total at most this fraction of its length; otherwise,
# and for any text given none, by the seeded doubling.  The parse route costs
# about a doubling of the phrases' total, so on copies of a founder it breaks
# even near 0.8 and takes half the time at 0.5; random DNA's phrases total
# 1.19 of it.
PARSE_FRACTION = 0.5


def _seed_order(seq: bytes) -> tuple[list[int], list[int], int, int] | None:
    """The suffixes of ``seq`` sorted by their first k symbols, as
    ``(sa, rank, r, k)``: ``rank[i]`` numbers suffix i's first k symbols
    among the ``r`` distinct ones, from 1, and is empty when all n differ,
    as the order is then final.  None if ``seq`` holds all 256 byte values,
    whose ranks from 1 fit no byte.

    Symbols are ranked from 1 and the end is padded with 0, so a suffix that
    runs out sorts before every longer one sharing its symbols.  Under 16
    distinct symbols the ranks are packed two a byte, r[i] << 4 | r[i + 1],
    and every other byte from i makes suffix i's key: k = 2 * SEED_BYTES
    symbols, else k = SEED_BYTES.  Each key is one slice and one big-endian
    ``int.from_bytes``, with no loop over its symbols, and holds the
    suffix's start in its low bits, so one plain sort of the keys orders
    the suffixes and no second list of n ints is held.
    """
    table = bytearray(256)
    symbols = sorted(set(seq))
    if len(symbols) == 256:
        return None
    for r, sym in enumerate(symbols, 1):
        table[sym] = r
    pad = bytes(2 * SEED_BYTES)
    ranks = seq.translate(table) + pad
    if len(symbols) < 16:
        high = bytes(r << 4 for r in table)
        packed = bytes(map(or_, seq.translate(high) + pad, ranks[1:]))
        k, step = 2 * SEED_BYTES, 2
    else:
        packed, k, step = ranks, SEED_BYTES, 1
    n, span = len(seq), SEED_BYTES * step
    shift = n.bit_length()
    sa = [int.from_bytes(packed[i:i + span:step], "big") << shift | i for i in range(n)]
    sa.sort()
    mask = (1 << shift) - 1
    # a row starts a new seed where its key differs from the last one's
    # above the start bits
    r = 1 + sum(map(mask.__lt__, map(xor, sa, islice(sa, 1, None))))
    if r == n:  # no ties: the order is final, and no rank is held
        for row, key in enumerate(sa):
            sa[row] = key & mask
        return sa, [], r, k
    rank = [0] * n
    r = prev = 0  # every key is at least 1
    for row, key in enumerate(sa):
        pos = key & mask
        key >>= shift
        if key != prev:
            r += 1
            prev = key
        rank[pos] = r
        sa[row] = pos
    return sa, rank, r, k


def _build_suffix_array(seq: Sequence[int]) -> list[int]:
    """Suffix array by prefix doubling (Manber & Myers), seeded for bytes.

    A byte sequence starts from every suffix's first k = 32 symbols (16 over
    16 or more distinct bytes), sorted once by ``_seed_order``, as in the
    first step of Larsson & Sadakane; so random text is sorted by the seed
    alone, and the rounds below only separate repeats longer than k.  Any
    other sequence, a parse's phrase IDs among them, starts from one symbol:
    the ranks of its values.

    Each round turns every rank, in place, into the key rank * (n + 1) +
    the rank k symbols on (0 past the end), one slice at a time so that few
    ranks and keys are held at once; it then sorts the last round's order by
    the key, once and stably, ranks off the key in place, and doubles k.
    Ranks start at 1, so a suffix that runs out sorts before every longer
    suffix sharing its first k symbols.  Once every rank differs, the order
    is the suffixes'.  Each round is one sort, O(n log n), and a sequence
    whose longest repeat has h symbols takes about log2(h / k) rounds.
    """
    n = len(seq)
    seeded = _seed_order(seq) if type(seq) is bytes else None
    if seeded is not None:
        sa, rank, r, k = seeded
    else:
        order = sorted(set(seq))
        rank_of = {v: r for r, v in enumerate(order, 1)}
        rank = [rank_of[v] for v in seq]
        sa = sorted(range(n), key=rank.__getitem__)
        r, k = len(order), 1
    m = n + 1
    while r < n:
        rank += [0] * k  # the ranks past the end
        for lo in range(0, n, _KEY_SLICE):
            hi = min(lo + _KEY_SLICE, n)
            rank[lo:hi] = [a * m + b for a, b in zip(rank[lo:hi], rank[lo + k:hi + k])]
        del rank[n:]
        sa.sort(key=rank.__getitem__)
        r = prev = 0  # every key is at least n + 1
        for pos in sa:
            key = rank[pos]
            if key != prev:
                r += 1
                prev = key
            rank[pos] = r
        k *= 2
    return sa


def parse_suffix_array(parse: ParsedString,
                       most: float = PARSE_FRACTION) -> list[int] | None:
    """The suffix array of a byte text from its prefix-free ``parse``
    (Boucher et al. 2019), or None if the parse's distinct phrases total
    more than ``most`` times the text's length.  The parse's dictionary
    must hold its phrases alone, in first-seen order, as ``pfp_parse``
    fills an empty one; the last phrase equals no other, so it is last.

    Phrase j owns the positions from its start up to the next phrase's
    start, and the last phrase all of its own.  The suffix at an owned
    position begins with the rest of its phrase, its tail.  A tail of any
    phrase but the last is over w long and ends with the w-symbol window
    that opens phrase j + 1; no window inside a phrase triggers, so no such
    tail is a prefix of another.  Two suffixes thus sort by their tails,
    and two with equal tails by the suffixes at phrase j + 1's start, which
    sort as the parse's suffixes from j + 1 do with phrases ranked by their
    bytes (no phrase but the last is a prefix of another, and the last
    equals none).  The last phrase's tails are suffixes of the text already,
    and sort before everything they begin.

    The tails are ranked through one suffix array of D, the distinct
    phrases joined with the last at the very end, so that its suffixes run
    out there: D's rows in order, but those in a phrase's last w symbols,
    visit the tails in order, and a run of rows whose tails have the same
    length and bytes is one tail.  Each phrase's occurrences are ordered
    once, by the parse's suffix array; a tail adds its phrase's, or merges
    those of the phrases that share it, each at the occurrence's end less
    the tail's length.  This holds D, the parse and the output, with no key
    per position.
    """
    n, w, starts, ids = parse.source_length, parse.overlap, parse.phrase_start, parse.symbols
    phrases = list(map(parse.dictionary.string_of, range(len(parse.dictionary))))
    if ids[-1] != len(phrases) - 1 or len(set(ids)) != len(phrases):
        raise ValueError("the parse's dictionary holds other phrases")
    ends = list(accumulate(map(len, phrases), initial=0))
    if ends[-1] > most * n:
        return None
    rank = [0] * len(phrases)
    for r, k in enumerate(sorted(range(len(phrases)), key=phrases.__getitem__)):
        rank[k] = r
    # rows[k]: the rows of the parse suffixes that follow phrase k's
    # occurrences, in order, where row 0 is the empty suffix past the last
    # phrase; stop[row]: where the phrase occurrence before it ends
    last = len(phrases) - 1
    rows: list[list[int]] = [[] for _ in phrases]
    rows[last].append(0)
    stop = [n]
    for m in _build_suffix_array([rank[k] for k in ids]):
        if m:
            rows[ids[m - 1]].append(len(stop))
        stop.append(starts[m] - 1 + w)  # unread where m = 0
    text = b"".join(phrases)
    sa: list[int] = []

    def add(tail, length):  # the positions of a tail of the phrases ``tail``
        order = rows[tail[0]] if len(tail) == 1 else sorted(chain.from_iterable(
            map(rows.__getitem__, tail)))
        sa.extend(map((-length).__add__, map(stop.__getitem__, order)))

    tail: list[int] = []
    prev = size = 0
    for d in _build_suffix_array(text):
        k = bisect_right(ends, d) - 1
        length = ends[k + 1] - d
        if length <= w and k < last:  # in the phrase's last w symbols
            continue
        if length != size or text[d:d + length] != text[prev:prev + length]:
            add(tail, size)
            tail, prev, size = [], d, length
        tail.append(k)
    add(tail, size)
    return sa


def is_suffix_array(seq: Sequence[int], sa: Sequence[int]) -> bool:
    """Whether ``sa`` is the suffix array of ``seq``, checked in linear time:
    it has a row per suffix, and each suffix sorts before the next by its
    first symbol, then by the row of the suffix one symbol on, so no row
    repeats and the order is the suffixes'."""
    if len(sa) != len(seq):
        return False
    rank = [0] * (len(seq) + 1)  # rank[n] = 0: the empty suffix sorts first
    for r, i in enumerate(sa, 1):
        rank[i] = r
    keys = [(seq[i], rank[i + 1]) for i in sa]
    return all(map(lt, keys, keys[1:]))


def prefix_depth(n: int, sigma: int) -> int:
    """The prefix table's depth q for a text of ``n`` symbols over ``sigma``
    distinct ones: the largest q with sigma**q <= n // BUCKET_ROWS, and 0 (no
    table) for a one-symbol or short text."""
    q = 0
    while sigma > 1 and sigma ** (q + 1) <= n // BUCKET_ROWS:
        q += 1
    return q


class PrefixTable:
    """Where each length-q string over ``alphabet`` starts in a byte
    sequence's suffix array.

    Codes number the strings in sorted order, base ``sigma`` on the symbols'
    ranks in ``alphabet``.  ``starts[c]`` counts the suffixes of length at
    least q whose first q symbols code below c, so ``starts`` has
    sigma**q + 1 entries (none when q is 0).  The q - 1 shorter suffixes
    are not in any bucket; each sorts just before the strings it begins, so
    it moves every bucket from the code of itself padded with the least
    symbol on by one row.  They are the sequence's last q - 1 symbols, so
    deriving them reads q - 1 symbols, not the sequence.
    """

    def __init__(self, seq: bytes, alphabet: bytes, starts: array):
        self.alphabet, self.starts = alphabet, starts
        self.q = q = prefix_depth(len(seq), len(alphabet))
        self.sigma = sigma = len(alphabet)
        self.rank = [-1] * 256
        for r, sym in enumerate(alphabet):
            self.rank[sym] = r
        self.short = sorted(self.code(seq[len(seq) - length:]) * sigma ** (q - length)
                            for length in range(1, q))

    @classmethod
    def build(cls, seq: bytes) -> PrefixTable:
        """The table of ``seq``, counted in one rolling pass."""
        alphabet = bytes(sorted(set(seq)))
        table = cls(seq, alphabet, array("I"))
        q, sigma, rank = table.q, table.sigma, table.rank
        if q:
            size = sigma ** q
            counts = [0] * (size + 1)
            code = 0
            for i, sym in enumerate(seq):
                code = (code * sigma + rank[sym]) % size
                if i >= q - 1:
                    counts[code + 1] += 1
            table.starts = array("I", accumulate(counts))
        return table

    def code(self, word: bytes) -> int:
        """The code of ``word``, or -1 if a symbol of it is not in the
        alphabet."""
        code, sigma, rank = 0, self.sigma, self.rank
        for sym in word:
            r = rank[sym]
            if r < 0:
                return -1
            code = code * sigma + r
        return code

    def rows(self, code: int) -> tuple[int, int]:
        """The suffix-array rows of the string coded ``code``."""
        shift = bisect_right(self.short, code)
        return self.starts[code] + shift, self.starts[code + 1] + shift


def first_symbol_buckets(seq: Sequence[int]) -> dict[int, tuple[int, int]]:
    """Each symbol of ``seq`` mapped to the rows ``(lo, hi)`` of the suffixes
    it begins, in the suffix array of ``seq`` or of its reverse: the
    symbols' counts laid end to end in increasing order."""
    counts = Counter(seq)
    symbols = sorted(counts)
    ends = list(accumulate(map(counts.__getitem__, symbols)))
    return dict(zip(symbols, zip([0, *ends], ends)))


class _SuffixView:
    """One direction of the index: suffix array over one symbol sequence.

    A match interval is a pair ``(lo, hi)`` of suffix-array rows: the
    suffixes ``sa[lo:hi]`` are those that begin with the match, so ``hi - lo``
    is its count, and ``(0, len(sa))`` is the interval of the empty match.
    ``steps`` counts the search steps made so far: one per symbol a match
    is grown by, a ``table`` hit's q included, plus one for the symbol that
    stops a growth; ``hits`` counts the table hits.  ``buckets``, when set,
    maps each symbol to the rows of the suffixes it begins.  ``built_by``
    names how the array was built here, "parse" (``parse_suffix_array`` of
    ``parse``, the sequence's prefix-free parse) or "doubling", and is None
    for an array passed in.
    """

    def __init__(self, seq: Sequence[int], sa: Sequence[int] | None = None,
                 parse: ParsedString | None = None):
        self.seq = seq
        self.built_by = None
        if sa is None:
            if parse is not None:
                sa = parse_suffix_array(parse)
            self.built_by = "doubling" if sa is None else "parse"
            if sa is None:
                sa = _build_suffix_array(seq)
            if type(seq) is bytes:  # a text's: u32s, as load reads them, not an int per row
                sa = array("I", sa)
        self.sa = sa
        self.table: PrefixTable | None = None
        self.buckets: dict[int, tuple[int, int]] | None = None
        self.steps = 0
        self.hits = 0

    def grow(self, query: Sequence[int], pos: int, limit: int,
             f: int) -> tuple[int, int, int]:
        """Grow the empty match by the symbols ``query[pos:pos + limit]`` in
        turn, while at least ``f`` rows keep matching.

        Returns the last such interval and the number of symbols grown.
        The growth starts from the ``buckets`` entry of its first symbol,
        one step, and stops there if that holds fewer than ``f`` rows; by
        bytes, it starts from the ``table`` bucket of its first q symbols
        when ``limit`` is at least q and that bucket holds at least ``f``
        rows.  The rest is read off the rows' suffixes in suffix order, so
        ``query`` must be of the sequence's type: one bisection finds where
        the remaining run would sort among the rows, the rows' agreements
        with the run rise to that point and fall after it, so the f largest
        are taken outward from it, and the f-th of them is the number of
        symbols grown by.  Each is an ``_agreement`` taken exactly, but at
        f = 1 the second row's is exact only if it reaches the first's, as
        only then can it be the largest.  The rows that agree that far are
        contiguous; an edge is bisected for only where the row past the
        last one taken on its side agrees that far too.  ``steps`` rises by
        one per symbol grown, plus one for the symbol that failed, if any,
        as a one-symbol binary search per symbol would count them.
        """
        lo, hi, g = 0, len(self.sa), 0
        buckets, table = self.buckets, self.table
        if buckets is not None and limit:  # the first symbol, one step
            self.steps += 1
            a, b = buckets.get(query[pos], (0, 0))
            if b - a < f:
                return lo, hi, 0
            lo, hi, g = a, b, 1
        elif table is not None and limit >= table.q:
            code = table.code(query[pos:pos + table.q])
            if code >= 0:
                a, b = table.rows(code)
                if b - a >= f:
                    lo, hi, g = a, b, table.q
                    self.steps += g
                    self.hits += 1
        if g == limit:
            return lo, hi, g
        if hi - lo < f:  # the next symbol cannot keep f rows
            self.steps += 1
            return lo, hi, g
        seq, sa = self.seq, self.sa
        run = query[pos + g:pos + limit]
        n = len(run)
        a, b = lo, hi
        while a < b:  # the first row whose next n symbols sort at or after the run
            mid = (a + b) >> 1
            p = sa[mid] + g
            if seq[p:p + n] < run:  # a suffix that runs out slices short, first
                a = mid + 1
            else:
                b = mid
        # the rows' agreements with the run rise to row a and fall after it:
        # take the f largest outward from there, the larger side first; at
        # f = 1 the right row's counts only if it reaches the left one's
        left, right = a - 1, a
        la = _agreement(seq, sa[left] + g, run) if left >= lo else -1
        ra = (_agreement(seq, sa[right] + g, run, la if f == 1 else 0)
              if right < hi else -1)
        for _ in range(f - 1):
            if la >= ra:
                left -= 1
                la = _agreement(seq, sa[left] + g, run) if left >= lo else -1
            else:
                right += 1
                ra = _agreement(seq, sa[right] + g, run) if right < hi else -1
        more = max(la, ra)
        self.steps += more + (more < n)
        if more == 0:
            return lo, hi, g
        head = run[:more]

        def cut(p):
            return seq[p + g:p + g + more]

        if la < more:
            lo = left + 1
        elif left > lo and cut(sa[left - 1]) == head:
            lo = bisect_left(sa, head, lo, left - 1, key=cut)
        else:
            lo = left
        if ra < more:
            hi = right
        elif right + 1 < hi and cut(sa[right + 1]) == head:
            hi = bisect_right(sa, head, right + 2, hi, key=cut)
        else:
            hi = right + 1
        return lo, hi, g + more

    def grow_at(self, starts: Sequence[int], query: Sequence[int], pos: int,
                limit: int, f: int) -> tuple[list[int], int]:
        """Grow a match that continues at each of ``starts`` in the sequence
        by ``query[pos:pos + limit]``, comparing slices directly.

        Returns the f-th largest agreement of a start, the length of its
        common prefix with that run (0 with fewer than f starts): the
        symbols the match grows by.  Only the f largest are taken exactly:
        the first f starts' by a gallop each, and every later start's only
        if it passes the f-th largest so far, which costs the others one
        slice comparison each.  ``steps`` rises as ``grow``'s does.
        """
        seq, run = self.seq, query[pos:pos + limit]
        top = []  # the f largest so far, the least first
        for p in starts:
            if len(top) < f:
                heappush(top, _agreement(seq, p, run))
            else:
                a = _agreement(seq, p, run, top[0] + 1)
                if a > top[0]:
                    heapreplace(top, a)
        more = top[0] if len(top) == f else 0
        self.steps += more + (more < limit)
        return more


def _agreement(seq: Sequence[int], p: int, run: Sequence[int], least: int = 0) -> int:
    """Length of the longest common prefix of ``seq[p:]`` and ``run`` when
    that is at least ``least``, and ``least - 1`` otherwise.

    One slice comparison of ``least`` symbols decides which, with none at
    all when ``least`` exceeds the run, so a caller that needs only the
    agreements above some value pays one comparison for each of the rest.
    Past that a galloping search doubles the matching prefix, the whole run
    is compared only once a try would pass its end, and bisection then
    finds the first mismatch.  Each try compares only the symbols past
    the prefix already matched.  A growth's run reaches the window's edge,
    so comparing it whole first would copy it once per row."""
    n = len(run)
    good, bad = 0, 1  # seq[p:] begins with run[:good]; bad is a longer try
    if least > 0:
        if least > n or seq[p:p + least] != run[:least]:
            return least - 1
        good, bad = least, 2 * least
    while bad < n and seq[p + good:p + bad] == run[good:bad]:
        good, bad = bad, 2 * bad
    if bad >= n:
        if seq[p + good:p + n] == run[good:]:
            return n
        bad = n
    while bad - good > 1:
        mid = (good + bad) >> 1
        if seq[p + good:p + mid] == run[good:mid]:
            good = mid
        else:
            bad = mid
    return good


@dataclass(frozen=True)
class Mem:
    """A maximal exact match: 1-based inclusive interval in the pattern."""

    start: int
    end: int
    freq: int

    @property
    def length(self) -> int:
        return self.end - self.start + 1


class OccurrenceIndex:
    """Forward and backward suffix structures over one symbol sequence.

    ``forward`` indexes the sequence itself (right extension of a match);
    ``backward`` indexes the reversed sequence, so extending the reversed
    query on the right extends the original query on the left.  ``seq`` is
    bytes or a tuple of phrase IDs, kept as given.  The suffix
    arrays, built unless passed as ``sa`` and ``reverse_sa`` (a byte text's
    as u32 arrays, the form load reads), never change; nor does the
    reversed bytes' ``prefix_table``, built unless passed, nor the
    first-symbol buckets of any other sequence, derived here and shared by
    both views.  Given a byte text's ``parse`` under ``trigger`` (from
    ``pfp_parse`` with an empty dictionary), the text's array may come from
    that parse, and its reverse's from the reverse's parse under
    ``trigger.reversed()``, as ``parse_suffix_array`` decides.  ``steps``
    counts the search steps made in either direction so far, so callers
    measure a unit of work as the difference around it.
    """

    def __init__(self, seq: Sequence[int], sa=None, reverse_sa=None,
                 prefix_table: PrefixTable | None = None,
                 parse: ParsedString | None = None, trigger: Trigger | None = None):
        if len(seq) == 0:
            raise EmptyInputError("cannot index an empty sequence")
        self.sequence = seq
        self.forward = _SuffixView(seq, sa, parse)
        reverse = seq[::-1]
        reverse_parse = None if trigger is None else pfp_parse(
            reverse, trigger.reversed(), PhraseDictionary())
        self.backward = _SuffixView(reverse, reverse_sa, reverse_parse)
        if type(seq) is not bytes:
            self.forward.buckets = self.backward.buckets = first_symbol_buckets(seq)
        elif prefix_table is None:
            prefix_table = PrefixTable.build(self.backward.seq)
        self.prefix_table = prefix_table
        if prefix_table is not None and prefix_table.q:
            self.backward.table = prefix_table

    def __len__(self) -> int:
        return len(self.sequence)

    @property
    def steps(self) -> int:
        return self.forward.steps + self.backward.steps

    @property
    def prefix_table_hits(self) -> int:
        return self.backward.hits

    def count(self, query: Sequence[int]) -> int:
        """Number of starting positions of ``query``; overlaps allowed.  A
        query with a symbol the sequence cannot hold occurs 0 times.  On a
        phrase-ID index a one-symbol query is its first-symbol bucket's
        size, read as the one step ``grow`` takes for that bucket."""
        if len(query) == 0:
            raise EmptyInputError("empty queries are not counted")
        buckets = self.forward.buckets
        if buckets is not None and len(query) == 1:
            self.forward.steps += 1
            lo, hi = buckets.get(query[0], (0, 0))
            return hi - lo
        try:
            query = type(self.sequence)(query)
        except ValueError:
            return 0
        lo, hi, g = self.forward.grow(query, 0, len(query), 1)
        return hi - lo if g == len(query) else 0


def threshold_scan(index: OccurrenceIndex, pattern: Sequence[int],
                   windows: Sequence[tuple[int, int]], f: int = 1,
                   L: int | None = None, t: int | None = None) -> list[Mem]:
    """The f-MEMs of ``pattern`` that lie inside one of ``windows``: with
    ``L`` those of length at least L, with ``t`` the t longest, ties
    included, with both the t longest of those at least L long, or all of
    those if fewer than t reach L, and with neither all of them.

    ``windows`` are disjoint 1-based inclusive (lo, hi) character ranges of
    the pattern.  The scan has one threshold: it starts at L, 1 if not
    given, and with t rises to the t-th longest length found so far, across
    windows, so matches tying with it are still found, matches left below
    the final threshold are dropped, and windows shorter than it are not
    scanned; passing the windows longest first raises it soonest.  In each
    window a candidate end j slides from left to right and is grown left
    once, from nothing, to the longest match ending at j with at least f
    occurrences, at most to the window's left edge.  If that match has s
    symbols, fewer than the threshold, no valid match can contain the
    stretch that stopped it, so j can jump ahead by threshold - s.  A
    longer match is grown right to a maximal match, at most to the
    window's right edge, and so is a near-miss: a growth with 2s at least
    the threshold that stops short of the window's left edge.  Its match is
    left-maximal, as the growth failed, and starts inside the window, so it
    is kept if it reaches the threshold.  Any other match ending between j
    and its end would lie inside it or hold the stretch that stopped the
    growth, so j jumps past it; one that falls short also shows that no
    match of threshold length starts where it does, so j jumps one symbol
    past threshold - s.  A match that reaches an edge is kept only if it
    cannot cross it: on the right, growing one symbol past the edge
    decides; on the left, a count of the whole match with the symbol
    before the window.  When the left growth leaves at most ``NARROW``
    occurrences, the right growth, the count and both edge checks are read
    off the text at those occurrences: only the f largest agreements there
    are taken exactly, one gallop each, and an occurrence is counted when
    the text after it equals the pattern up to the match's end, one slice
    comparison each.  Otherwise the match is walked forward again to find
    its forward interval.  The pattern is converted to the text's type
    once, so a symbol the text cannot hold (300 against bytes) raises
    ``ValueError``.  Output is sorted by start.
    """
    if len(pattern) == 0:
        raise EmptyInputError("pattern must be nonempty")
    if f < 1:
        raise ValueError("f must be at least 1")
    if L is not None and L < 1:
        raise ValueError("L must be at least 1")
    if t is not None and t < 1:
        raise ValueError("t must be at least 1")
    m = len(pattern)
    n = len(index)
    back, fwd = index.backward, index.forward
    text, rsa = index.sequence, back.sa
    query = type(text)(pattern)  # ValueError for a symbol the text cannot hold
    rquery = query[::-1]  # backward growth from j reads rquery[m - j:]
    mems: list[Mem] = []
    lengths: list[int] = []  # lengths found so far, kept sorted descending
    threshold = L or 1
    for lo, hi in windows:
        j = lo + threshold - 1
        while j <= hi:
            blo, bhi, length = back.grow(rquery, m - j, j - lo + 1, f)
            start = j - length + 1
            if length < threshold and (2 * length < threshold or start == lo):
                j += threshold - length  # not a near-miss to finish
                continue
            # the symbols right of j up to the window's edge, and one past it
            # if the pattern goes on: matching that one too means crossing
            reach = hi - j + (hi < m)
            if bhi - blo <= NARROW:
                # occurrences of pattern[start-1:j] end at text[n - rsa[r]]
                ends = [n - rsa[r] for r in range(blo, bhi)]
                more = fwd.grow_at(ends, query, j, reach, f)
                end = j + min(more, hi - j)
                head = query[j:end]
                kept = [e for e in ends if text[e:e + end - j] == head]
                freq = len(kept)
                crosses = more > hi - j
                if not crosses and start == lo > 1:
                    back.steps += 1  # the symbol before the window, probed
                    before = query[lo - 2]
                    crosses = sum(e > length and text[e - length - 1] == before
                                  for e in kept) >= f
            else:  # re-walk the match forward, then grow it right
                flo, fhi, more = fwd.grow(query, start - 1, length + reach, f)
                more -= length
                end = j + min(more, hi - j)
                freq = fhi - flo
                crosses = more > hi - j
                if not crosses and start == lo > 1:
                    crosses = index.count(query[lo - 2:end]) >= f
            if not crosses and end - start + 1 >= threshold:
                mems.append(Mem(start=start, end=end, freq=freq))
                if t is not None:
                    lengths.append(end - start + 1)
                    lengths.sort(reverse=True)
                    if len(lengths) >= t:
                        threshold = lengths[t - 1]
            j = max(end + 1, start + threshold)
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
