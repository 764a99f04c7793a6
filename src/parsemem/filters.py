"""Bloom, fingerprint-table and exact membership filters over k-mers or
phrase IDs.

The pseudo-MEM constructions rely on one guarantee only: a Bloom filter never
returns a false negative, and a filter that counts never undercounts
(insertions only; a one-byte count stops at 255, which passes any
threshold).  The exact variant, backed by a real multiset, satisfies the
same interface with zero false positives; it exists so tests can isolate
the effect of false positives.

The fingerprint table is the one filter kind an index holds: a stored k-mer
table for KeBaB, and a phrase-ID table for the combined route, counted from
the text's parse on build and on load.  An item's key is
its value mod 2^61 - 1, a k-mer's bytes read as a big-endian integer; the
table holds the distinct keys of its items in a sorted ``array('Q')`` and
their counts, saturating at 255, in a ``bytearray`` beside it.  Its first
lookup builds a key -> count dict from the two, and every lookup is one
``dict.get``.  It never undercounts: items that share a key add up to one
count, so a key collision can only add a false positive.  Keys of
k-mers with k <= 7, and of phrase IDs below 2^61 - 1, are exact.
``kmer_keys``, a Karp-Rabin pass, computes the keys of every k-mer of a
sequence at once, from which the table's ``kmers_at_least`` answers a whole
pattern.

The Bloom filter takes probe positions from double hashing: two seeded
64-bit digests combined as h1 + i*h2 mod m, so a filter is reproducible bit
for bit from its seed and insertion stream.  It keys one BLAKE2b state with
its seed when it is built and copies that state for every item, so no item
pays for keying.

Lookups go through ``at_least_many``, which answers a whole batch of items in
one call (a pattern's parse's phrase IDs, say); ``at_least`` is its one-item
case, and ``kmers_at_least`` its case of every k-mer of one sequence.
``filter_build`` fills a filter with one ``insert_many`` call; a k-mer
table takes whole records there and keys them by ``kmer_keys``.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

from .errors import ItemKindMismatch

KIND_BLOOM = "bloom"
KIND_EXACT = "exact"
KIND_TABLE = "table"

ITEMS_KMER = "kmer"
ITEMS_PHRASE = "phrase"

_MIN_BITS = 8
_MAX_HASHES = 16
_SATURATED = 255  # the largest count one byte holds
_SEED_LIMIT = 1 << 64  # a seed keys the hash as 8 little-endian bytes
_ID_LIMIT = 1 << 64  # a phrase ID encodes as 8 unsigned bytes
_H1_MASK = (1 << 64) - 1
_KEY_BATCH = 4096  # k-mers keyed per list in a table build: bounds its memory
KEY_BASE = 256  # keys read a k-mer's bytes as one big-endian integer
KEY_MODULUS = (1 << 61) - 1  # a key is that integer mod this prime


def kmer_keys(seq: bytes, k: int) -> list[int]:
    """The fingerprint-table key of every k-mer of ``seq``, first to last.

    One rolling Karp-Rabin pass: v = (v*256 + c - c_out*256^k) mod 2^61 - 1,
    which equals ``int.from_bytes(kmer, "big") % (2^61 - 1)`` for each
    k-mer.  A sequence shorter than k has no k-mer and gets no key.
    """
    if len(seq) < k:
        return []
    base, mod = KEY_BASE, KEY_MODULUS
    drop = pow(base, k, mod)
    v = int.from_bytes(seq[:k], "big") % mod
    keys = [v]
    append = keys.append
    for c, c_out in zip(seq[k:], seq):
        v = (v * base + c - c_out * drop) % mod
        append(v)
    return keys


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


# A table has no size to choose.  Its params give its key space as the bits
# of one hash, so expected_fpr reads the chance that the key of an item the
# table lacks equals one of n stored keys: 1 - e^(-n / (2^61 - 1)).
TABLE_PARAMS = FilterParams(bits=KEY_MODULUS, hash_count=1)


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
    """Common surface of the three filter kinds.

    ``probes`` counts the items looked up by ``at_least_many``, ``at_least``
    and ``kmers_at_least`` so far.
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

    def insert(self, item):
        raise NotImplementedError

    def insert_many(self, items: Iterable):
        """Insert each item in turn; the table counts them all at once."""
        for item in items:
            self.insert(item)

    def query(self, item) -> bool:
        """True for every inserted item; may be a false positive."""
        raise NotImplementedError

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

    def kmers_at_least(self, seq: bytes, f: int) -> list[bool]:
        """``at_least_many`` over every k-mer of ``seq``, first to last."""
        k = self.k
        return self.at_least_many([seq[i:i + k] for i in range(len(seq) - k + 1)], f)

    def _answer(self, items: Iterable, f: int) -> list[bool]:
        """One ``min_count`` per item; the table looks up its dict instead."""
        return [self.min_count(item) >= f for item in items]


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

    def query(self, item) -> bool:
        return all(self._bits[pos >> 3] & (1 << (pos & 7)) for pos in self._probes(item))

    def min_count(self, item) -> int:
        return 1 if self.query(item) else 0

    def at_least_many(self, items: Iterable, f: int) -> list[bool]:
        if f > 1:
            raise ValueError("a plain Bloom filter cannot answer thresholds above 1")
        return super().at_least_many(items, f)


class ExactFilter(MembershipFilter):
    """A real multiset behind the filter interface: zero false positives."""

    kind = KIND_EXACT

    def __init__(self, params: FilterParams, item_kind: str, k: int | None = None):
        super().__init__(params, item_kind, k)
        self._counts: dict[bytes, int] = {}

    def insert(self, item):
        key = self._encode(item)
        self._counts[key] = self._counts.get(key, 0) + 1

    def query(self, item) -> bool:
        return self._encode(item) in self._counts

    def min_count(self, item) -> int:
        return self._counts.get(self._encode(item), 0)


class FingerprintTable(MembershipFilter):
    """Sorted distinct item keys and their saturating one-byte counts.

    It keeps ``TABLE_PARAMS`` whatever params it is given.  Pass ``keys``
    and ``counts`` to restore a table: as the table writes them, the keys
    strictly increase, the counts are positive, and both have one length.

    Lookups read a key -> count dict.  It is built from ``keys`` and
    ``counts`` on the first lookup, so a build or load pays nothing for it,
    and ``insert_many`` drops it.  On 100k keys it holds about 8.6 MB,
    against 0.9 MB for the two arrays.
    """

    kind = KIND_TABLE

    def __init__(self, params: FilterParams, item_kind: str, k: int | None = None,
                 keys: array | None = None, counts: bytearray | None = None):
        super().__init__(TABLE_PARAMS, item_kind, k)
        self.keys = array("Q") if keys is None else keys
        self.counts = bytearray() if counts is None else counts
        if len(self.keys) != len(self.counts):
            raise ValueError("keys and counts differ in length")
        self._by_key: dict[int, int] | None = None

    def _key_counts(self) -> dict[int, int]:
        """The key -> count dict, built on the first lookup."""
        if self._by_key is None:
            self._by_key = dict(zip(self.keys, self.counts))
        return self._by_key

    def _keys(self, items: Iterable):
        """Yield each item's key; items are validated inline."""
        kmers, k, from_bytes = self.item_kind == ITEMS_KMER, self.k, int.from_bytes
        for item in items:
            if not (isinstance(item, (bytes, bytearray)) and len(item) == k if kmers
                    else type(item) is int and 0 <= item < _ID_LIMIT):
                self._encode(item)  # raises on an item of the wrong kind
            yield (from_bytes(item, "big") if kmers else item) % KEY_MODULUS

    def insert(self, item):
        self.insert_many((item,))

    def insert_many(self, items: Iterable):
        """Count the items' keys into the table and sort it again.

        A k-mer table takes records, not k-mers: it counts every k-mer of
        each record, keyed by one rolling pass (``kmer_keys``), so a k-mer
        is inserted as a record of length k.
        """
        if self.item_kind == ITEMS_KMER:
            k, tally = self.k, Counter()
            for record in items:
                if not isinstance(record, (bytes, bytearray)):
                    raise ItemKindMismatch("k-mer table expects bytes records")
                for i in range(0, len(record) - k + 1, _KEY_BATCH):
                    tally.update(kmer_keys(record[i:i + _KEY_BATCH + k - 1], k))
        else:
            tally = Counter(self._keys(items))
        tally.update(dict(zip(self.keys, self.counts)))
        for key, count in tally.items():
            if count > _SATURATED:
                tally[key] = _SATURATED
        order = sorted(tally)
        self.keys = array("Q", order)
        self.counts = bytearray(map(tally.__getitem__, order))
        self._by_key = None

    def query(self, item) -> bool:
        return self.min_count(item) > 0

    def min_count(self, item) -> int:
        (key,) = self._keys((item,))
        return self._key_counts().get(key, 0)

    def _answer(self, items: Iterable, f: int) -> list[bool]:
        return self._lookup(list(self._keys(items)), f)

    def kmers_at_least(self, seq: bytes, f: int) -> list[bool]:
        """Keys from one rolling pass over ``seq``, then one lookup each."""
        if f < 1:
            raise ValueError("f must be at least 1")
        answers = self._lookup(kmer_keys(seq, self.k), f)
        self.probes += len(answers)
        return answers

    def _lookup(self, keys: list[int], f: int) -> list[bool]:
        """Whether each key is stored with a count of at least ``f``; a
        saturated count passes any threshold."""
        return list(map(min(f, _SATURATED).__le__,
                        map(self._key_counts().get, keys, repeat(0))))


_FILTER_CLASSES = {
    KIND_BLOOM: BloomFilter,
    KIND_EXACT: ExactFilter,
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
