"""Bloom, counting Bloom, and exact membership filters over k-mers or phrase IDs.

The pseudo-MEM constructions rely on one guarantee only: a Bloom filter never
returns a false negative, and a counting filter never undercounts (insertions
only; a one-byte counter stops at 255, which passes any threshold).  The exact
variant, backed by a real multiset, satisfies the same interface with zero
false positives; it exists so tests can isolate the effect of false
positives.

Probe positions come from double hashing: two seeded 64-bit digests combined
as h1 + i*h2 mod m, so a filter is reproducible bit for bit from its seed and
insertion stream.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ItemKindMismatch

KIND_BLOOM = "bloom"
KIND_COUNTING = "counting"
KIND_EXACT = "exact"

ITEMS_KMER = "kmer"
ITEMS_PHRASE = "phrase"

_MIN_BITS = 8
_MAX_HASHES = 16
_SATURATED = 255  # the largest count a one-byte counter holds


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

    ``probes`` counts the calls to ``at_least`` made so far.
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

    def _probes(self, item) -> list[int]:
        digest = hashlib.blake2b(
            self._encode(item),
            digest_size=16,
            key=self.params.seed.to_bytes(8, "little", signed=False),
        ).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        m = self.params.bits
        return [(h1 + i * h2) % m for i in range(self.params.hash_count)]

    def insert(self, item):
        raise NotImplementedError

    def query(self, item) -> bool:
        """True for every inserted item; may be a false positive."""
        raise NotImplementedError

    def min_count(self, item) -> int:
        """At least the true multiplicity of ``item``, or a saturated count."""
        raise NotImplementedError

    def at_least(self, item, f: int) -> bool:
        """Whether the filter reports ``item`` present at least ``f`` times."""
        if f < 1:
            raise ValueError("f must be at least 1")
        self.probes += 1
        return self.min_count(item) >= f


class BloomFilter(MembershipFilter):
    kind = KIND_BLOOM

    def __init__(self, params: FilterParams, item_kind: str, k: int | None = None):
        super().__init__(params, item_kind, k)
        self._bits = bytearray((params.bits + 7) // 8)

    def insert(self, item):
        for pos in self._probes(item):
            self._bits[pos >> 3] |= 1 << (pos & 7)

    def query(self, item) -> bool:
        return all(self._bits[pos >> 3] & (1 << (pos & 7)) for pos in self._probes(item))

    def min_count(self, item) -> int:
        return 1 if self.query(item) else 0

    def at_least(self, item, f: int) -> bool:
        if f > 1:
            raise ValueError("a plain Bloom filter cannot answer thresholds above 1")
        return super().at_least(item, f)


class CountingBloomFilter(MembershipFilter):
    """``counters`` holds one byte per position; pass them to restore a filter."""

    kind = KIND_COUNTING

    def __init__(self, params: FilterParams, item_kind: str, k: int | None = None,
                 counters: bytes | None = None):
        super().__init__(params, item_kind, k)
        self.counters = bytearray(params.bits if counters is None else counters)
        if len(self.counters) != params.bits:
            raise ValueError("counters do not match the filter size")

    def insert(self, item):
        for pos in self._probes(item):
            if self.counters[pos] < _SATURATED:
                self.counters[pos] += 1

    def query(self, item) -> bool:
        return self.min_count(item) > 0

    def min_count(self, item) -> int:
        return min(self.counters[pos] for pos in self._probes(item))

    def at_least(self, item, f: int) -> bool:
        return super().at_least(item, min(f, _SATURATED))


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


_FILTER_CLASSES = {
    KIND_BLOOM: BloomFilter,
    KIND_COUNTING: CountingBloomFilter,
    KIND_EXACT: ExactFilter,
}


def filter_build(items: Iterable, params: FilterParams, kind: str,
                 item_kind: str, k: int | None = None) -> MembershipFilter:
    """Build a filter of the given kind over a stream of items.

    Multiplicities are the stream's: insert an item three times and a
    counting filter reports at least 3 for it.
    """
    try:
        cls = _FILTER_CLASSES[kind]
    except KeyError:
        raise ValueError(f"unknown filter kind {kind!r}") from None
    filt = cls(params, item_kind, k)
    for item in items:
        filt.insert(item)
    return filt
