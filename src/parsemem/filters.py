"""Bloom and fingerprint-table membership filters over k-mers or phrase IDs,
and a parse's exact phrase-ID counts.

The pseudo-MEM constructions rely on one guarantee only: a Bloom filter never
returns a false negative, and a filter that counts never undercounts (a
one-byte count stops at 255, which passes any threshold).  Exact counts
come from two places: the k-mer table, which takes a lone k-mer as a record
of length k, and ``PhraseCounts``, which reads a parse's first-symbol
buckets.  The Bloom filter alone has false positives.

The fingerprint table is the k-mer table an index stores for KeBaB.  It
stores each distinct k-mer once, exactly, by its first start in ``text``,
the records joined by ``SEPARATOR``, with its count, saturating at 255, in a
``bytearray``.  The first lookup at a threshold f gathers the k-mers counted
at least min(f, 255) times into a dict from each to its stored start (about
13 MB for 100k 20-mers).  At f = 1, ``kmers_at_least`` looks up a pattern's
k-mers k + 1 at a time, and from the last present one compares the pattern
with the text at its start: every k-mer inside the stretch they agree on is
present, so only the k-mers past a mismatch are looked up.  At f >= 2 it
looks up every k-mer.  An index's phrase filter, ``PhraseCounts``, reads
each phrase ID's exact count off the parse's index.

The Bloom filter takes probe positions from double hashing: two seeded
64-bit digests combined as h1 + i*h2 mod m, so a filter is reproducible bit
for bit from its seed and insertion stream.  It keys one BLAKE2b state with
its seed when it is built and copies that state for every item, so no item
pays for keying.

Lookups go through ``at_least_many``, which answers a whole batch of items in
one call (a pattern's parse's phrase IDs, say); ``at_least`` is its one-item
case, and ``kmers_at_least`` answers every k-mer of one sequence with one
flag byte each.  ``filter_build`` fills a filter with one ``insert_many``
call; a k-mer table takes whole records there, and is built once.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

from .errors import ItemKindMismatch
from .seqindex import _agreement

KIND_BLOOM = "bloom"
KIND_EXACT = "exact"
KIND_TABLE = "table"

ITEMS_KMER = "kmer"
ITEMS_PHRASE = "phrase"

_MIN_BITS = 8
_MAX_HASHES = 16
_SATURATED = 255  # the largest count one byte holds
_SEED_LIMIT = 1 << 64  # a seed keys the hash as 8 little-endian bytes
_H1_MASK = (1 << 64) - 1
SEPARATOR = 0  # joins multi-record texts; outside every sequence alphabet


@dataclass(frozen=True)
class FilterParams:
    bits: int
    hash_count: int
    seed: int = 0

    def __post_init__(self):
        if self.bits < _MIN_BITS:
            raise ValueError(f"filter needs at least {_MIN_BITS} bits")
        if not 1 <= self.hash_count <= _MAX_HASHES:
            raise ValueError(f"hash count must be in 1..{_MAX_HASHES}")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValueError("seed must be in [0, 2^64)")


# A table, like the phrase counts, has no size to choose and holds its items
# exactly; its params make expected_fpr read 1 - e^(-n / (2^61 - 1)).
TABLE_PARAMS = FilterParams(bits=(1 << 61) - 1, hash_count=1)


def size_for(n_items: int, target_fpr: float) -> FilterParams:
    """Standard optimal sizing: m = ceil(-n ln p / (ln 2)^2), h = ceil((m/n) ln 2).

    Results are clamped to the legal minima (m >= 8, 1 <= h <= 16), which
    also absorbs degenerate targets close to 1.
    """
    if n_items < 1:
        raise ValueError("n_items must be positive")
    if not 0.0 < target_fpr < 1.0:
        raise ValueError("target_fpr must be strictly between 0 and 1")
    m = math.ceil(-n_items * math.log(target_fpr) / (math.log(2) ** 2))
    m = max(m, _MIN_BITS)
    h = math.ceil(m / n_items * math.log(2))
    h = min(max(h, 1), _MAX_HASHES)
    return FilterParams(bits=m, hash_count=h)


def expected_fpr(params: FilterParams, n_items: int) -> float:
    """The usual (1 - e^(-hn/m))^h estimate for a filter loaded with n items."""
    h, m = params.hash_count, params.bits
    return (1.0 - math.exp(-h * n_items / m)) ** h


class MembershipFilter:
    """Common surface of the Bloom filter, the k-mer table and the phrase
    counts; each answers ``min_count`` and a batch's ``_answer``.

    ``probes`` counts the items looked up by ``at_least_many``, ``at_least``
    and ``kmers_at_least`` so far; the table's ``kmers_at_least`` at f = 1
    looks up fewer items than the sequence has k-mers.
    """

    kind: str

    def __init__(self, params: FilterParams, item_kind: str, k: int | None = None):
        if item_kind not in (ITEMS_KMER, ITEMS_PHRASE):
            raise ValueError(f"unknown item kind {item_kind!r}")
        if item_kind == ITEMS_KMER and (k is None or k < 1):
            raise ValueError("k-mer filters need a positive k")
        self.params = params
        self.item_kind = item_kind
        self.k = k if item_kind == ITEMS_KMER else None
        self.probes = 0

    def _encode(self, item) -> bytes:
        if self.item_kind == ITEMS_KMER:
            if not isinstance(item, (bytes, bytearray)):
                raise ItemKindMismatch("k-mer filter expects bytes items")
            if len(item) != self.k:
                raise ItemKindMismatch(
                    f"k-mer filter expects items of length {self.k}, got {len(item)}")
            return bytes(item)
        if not isinstance(item, int) or isinstance(item, bool):
            raise ItemKindMismatch("phrase-ID filter expects int items")
        return item.to_bytes(8, "little", signed=False)

    def query(self, item) -> bool:
        """True for every inserted item; may be a false positive."""
        return self.min_count(item) > 0

    def min_count(self, item) -> int:
        """At least the true multiplicity of ``item``, or a saturated count."""
        raise NotImplementedError

    def at_least_many(self, items: Iterable, f: int) -> list[bool]:
        """For each item, whether the filter reports it at least ``f`` times."""
        if f < 1:
            raise ValueError("f must be at least 1")
        answers = self._answer(items, f)
        self.probes += len(answers)
        return answers

    def at_least(self, item, f: int) -> bool:
        """Whether the filter reports ``item`` present at least ``f`` times."""
        return self.at_least_many((item,), f)[0]

    def kmers_at_least(self, seq: bytes, f: int) -> bytes:
        """``at_least_many`` over every k-mer of ``seq``, first to last, as
        one flag byte per k-mer: 1 where the filter reports it, else 0."""
        k = self.k
        return bytes(self.at_least_many([seq[i:i + k] for i in range(len(seq) - k + 1)], f))


class BloomFilter(MembershipFilter):
    kind = KIND_BLOOM

    def __init__(self, params: FilterParams, item_kind: str, k: int | None = None):
        super().__init__(params, item_kind, k)
        self._bits = bytearray((params.bits + 7) // 8)
        self._keyed = hashlib.blake2b(digest_size=16,
                                      key=params.seed.to_bytes(8, "little"))

    def _probes(self, item) -> list[int]:
        """Probe i is at (h1 + i*h2) mod m, h1 and h2 the two 64-bit halves
        of the item's keyed digest (h2 made odd)."""
        state = self._keyed.copy()
        state.update(self._encode(item))
        digest = int.from_bytes(state.digest(), "little")
        h1, h2, m = digest & _H1_MASK, (digest >> 64) | 1, self.params.bits
        return [(h1 + i * h2) % m for i in range(self.params.hash_count)]

    def insert(self, item):
        for pos in self._probes(item):
            self._bits[pos >> 3] |= 1 << (pos & 7)

    def insert_many(self, items: Iterable):
        for item in items:
            self.insert(item)

    def query(self, item) -> bool:
        return all(self._bits[pos >> 3] & (1 << (pos & 7)) for pos in self._probes(item))

    def min_count(self, item) -> int:
        return 1 if self.query(item) else 0

    def at_least_many(self, items: Iterable, f: int) -> list[bool]:
        if f > 1:
            raise ValueError("a plain Bloom filter cannot answer thresholds above 1")
        return super().at_least_many(items, f)

    def _answer(self, items: Iterable, f: int) -> list[bool]:
        return list(map(self.query, items))


class FingerprintTable(MembershipFilter):
    """Distinct k-mers, each stored once, and their saturating one-byte counts.

    It keeps ``TABLE_PARAMS`` whatever params it is given.  It stores a
    start of each k-mer in ``text`` in ``starts``; pass them and ``counts``
    to restore a table: as the table writes them, the starts strictly
    increase, the counts are positive, and both have one length.

    Lookups read a dict from each k-mer counted at least min(f, 255) times
    to its stored start, gathered on the first lookup at f, so a build or
    load pays nothing for it.  On 100k 20-mers it holds about 13 MB, against
    9.5 MB for a set of the same k-mers.  Like ``PhraseCounts``, a built
    table takes no inserts.
    """

    kind = KIND_TABLE

    def __init__(self, params: FilterParams, item_kind: str, k: int | None = None,
                 counts: bytearray | None = None, starts: array | None = None,
                 text: bytes = b""):
        if item_kind != ITEMS_KMER:
            raise ItemKindMismatch("a fingerprint table holds k-mers only")
        super().__init__(TABLE_PARAMS, item_kind, k)
        self.counts = bytearray() if counts is None else counts
        self.text, self.starts = text, array("I") if starts is None else starts
        if len(self.starts) != len(self.counts):
            raise ValueError("starts and counts differ in length")
        self._present_at: dict[int, dict[bytes, int]] = {}
        self._slices: list[slice] = []  # kmers_at_least's, kept from call to call

    def _present(self, f: int) -> dict[bytes, int]:
        """Each k-mer counted at least min(f, 255) times, mapped to its
        stored start, gathered on the first lookup at that threshold; a
        saturated count passes any f."""
        least = min(f, _SATURATED)
        if least not in self._present_at:
            text, k = self.text, self.k
            self._present_at[least] = {text[start:start + k]: start for start, count
                                       in zip(self.starts, self.counts) if count >= least}
        return self._present_at[least]

    def _keys(self, items: Iterable):
        """Yield each item as bytes; items are validated inline."""
        for item in items:
            if not (isinstance(item, (bytes, bytearray)) and len(item) == self.k):
                self._encode(item)  # raises on an item of the wrong kind
            yield bytes(item)

    def insert_many(self, items: Iterable):
        """Build the empty table from records, once: a table that holds a
        text raises ``ValueError``.

        The table takes records, not k-mers: it joins them into its text and
        counts every k-mer inside each, so a k-mer is inserted as a record
        of length k.
        """
        if self.text:
            raise ValueError("a k-mer table is built once")
        self._present_at = {}  # a lookup before the build found nothing
        records = list(items)
        if not all(isinstance(record, (bytes, bytearray)) for record in records):
            raise ItemKindMismatch("k-mer table expects bytes records")
        k, at = self.k, 0
        text = bytes([SEPARATOR]).join(records)
        first: dict[bytes, int] = {}
        firsts = []  # for each k-mer inserted, the first start of its k-mer
        for record in records:
            end = at + len(record)
            starts = range(at, end - k + 1)
            kmers = map(text.__getitem__, map(slice, starts, range(at + k, end + 1)))
            firsts += map(first.setdefault, kmers, starts)
            at = end + 1
        del first  # frees the k-mers before the count: a lower peak memory
        tally = Counter(firsts)
        self.text, self.starts = text, array("I", sorted(tally))
        self.counts = bytearray(map(min, map(tally.__getitem__, self.starts), repeat(_SATURATED)))

    def min_count(self, item) -> int:
        """The stored count of ``item``, at its stored start's place in
        ``starts``; every stored k-mer is in the dict at f = 1."""
        (key,) = self._keys((item,))
        start = self._present(1).get(key)
        return 0 if start is None else self.counts[bisect_left(self.starts, start)]

    def _answer(self, items: Iterable, f: int) -> list[bool]:
        return list(map(self._present(f).__contains__, self._keys(items)))

    def kmers_at_least(self, seq: bytes, f: int) -> bytes:
        """Each k-mer of ``seq`` sliced out at C speed and tested against
        the dict, through slices made once for the longest ``seq`` so far.

        At f >= 2 every k-mer is looked up.  At f = 1, from the first k-mer
        i not yet answered, the k-mers i..i+k are looked up in one batch.
        If the last present one, j, stands at start s in the text and
        ``seq[j:]`` agrees with ``text[s:]`` for a symbols, up to the next
        NUL of ``seq``, the k-mers j..j+a-k are inside that stretch of the
        text: present, and not looked up.  The next batch starts past both
        the batch and that stretch.  A mismatched symbol lies in k k-mers,
        so a batch of k + 1 reaches past it, and no k-mer is looked up
        twice.
        """
        if f < 1:
            raise ValueError("f must be at least 1")
        seq, k = bytes(seq), self.k
        n = max(len(seq) - k + 1, 0)
        if len(self._slices) < n:
            self._slices = list(map(slice, range(n), range(k, n + k)))
        present, text = self._present(f), self.text
        step = k + 1 if f == 1 else n  # an extension shows presence, not a count
        flags, i = bytearray(n), 0
        while i < n:
            end = min(i + step, n)
            flags[i:end] = batch = bytes(map(present.__contains__,
                                             map(seq.__getitem__, self._slices[i:end])))
            self.probes += end - i
            j = i + batch.rfind(1)  # i - 1 when the batch holds none
            if f == 1 and j >= i:
                nul = seq.find(SEPARATOR, j)
                run = seq[j:nul if nul >= 0 else len(seq)]
                last = j + _agreement(text, present[seq[j:j + k]], run) - k
                if last >= end:
                    flags[end:last + 1] = b"\x01" * (last + 1 - end)
                    end = last + 1
            i = end
        return bytes(flags)


class PhraseCounts(MembershipFilter):
    """A parse's exact phrase-ID counts, read off its index, never inserted:
    ``rows`` maps an ID to the suffix-array rows (lo, hi) of the suffixes it
    begins (``seqindex.first_symbol_buckets``), so it occurs hi - lo times."""

    kind = KIND_EXACT

    def __init__(self, rows: dict[int, tuple[int, int]]):
        super().__init__(TABLE_PARAMS, ITEMS_PHRASE)
        self._rows = rows

    def _counts(self, items: Iterable) -> list[int]:
        items = list(items)
        if not set(map(type, items)) <= {int}:
            list(map(self._encode, items))  # raises on an item of the wrong kind
        return [hi - lo for lo, hi in map(self._rows.get, items, repeat((0, 0)))]

    def min_count(self, item) -> int:
        return self._counts((item,))[0]

    def _answer(self, items: Iterable, f: int) -> list[bool]:
        return [count >= f for count in self._counts(items)]


_FILTER_CLASSES = {
    KIND_BLOOM: BloomFilter,
    KIND_TABLE: FingerprintTable,
}


def filter_build(items: Iterable, params: FilterParams, kind: str,
                 item_kind: str, k: int | None = None) -> MembershipFilter:
    """Build a filter of the given kind over a stream of items.

    Multiplicities are the stream's: insert an item three times and a
    table reports at least 3 for it.  A k-mer table's items are
    whole records, whose k-mers it counts (see ``FingerprintTable``).
    """
    try:
        cls = _FILTER_CLASSES[kind]
    except KeyError:
        raise ValueError(f"unknown filter kind {kind!r}") from None
    filt = cls(params, item_kind, k)
    filt.insert_many(items)
    return filt
