import hashlib
import math
import random
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsemem.errors import ItemKindMismatch
from parsemem.filters import (ITEMS_KMER, ITEMS_PHRASE, KIND_BLOOM,
                              KIND_EXACT, KIND_TABLE, SEPARATOR,
                              TABLE_PARAMS, BloomFilter, FilterParams,
                              FingerprintTable, PhraseCounts, expected_fpr,
                              filter_build, size_for)
from parsemem.seqindex import first_symbol_buckets


class TestSizing:
    def test_textbook_point(self):
        # closed form: m = ceil(-n ln p / (ln 2)^2), h = ceil((m/n) ln 2)
        n, p = 1000, 0.01
        params = size_for(n, p)
        m = math.ceil(-n * math.log(p) / math.log(2) ** 2)
        assert params.bits == m == 9586
        assert params.hash_count == math.ceil(m / n * math.log(2)) == 7

    def test_minimum_bits_clamp(self):
        params = size_for(1, 0.5)
        assert params.bits == 8
        assert params.hash_count >= 1

    def test_hash_count_clamp(self):
        assert size_for(1, 1e-9).hash_count == 16

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            size_for(0, 0.01)
        with pytest.raises(ValueError):
            size_for(10, 0.0)
        with pytest.raises(ValueError):
            size_for(10, 1.0)

    def test_expected_fpr_near_target(self):
        for n, p in ((100, 0.05), (1000, 0.01), (5000, 0.001)):
            assert expected_fpr(size_for(n, p), n) <= p * 1.05

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FilterParams(bits=4, hash_count=1)
        with pytest.raises(ValueError):
            FilterParams(bits=64, hash_count=0)
        with pytest.raises(ValueError):
            FilterParams(bits=64, hash_count=17)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError):
            FilterParams(bits=64, hash_count=2, seed=seed)


class TestBloom:
    def params(self):
        return FilterParams(bits=256, hash_count=4, seed=7)

    def test_inserted_items_always_found(self):
        filt = BloomFilter(self.params(), ITEMS_KMER, k=4)
        items = [b"ACGT", b"TTTT", b"GGCA"]
        for item in items:
            filt.insert(item)
        assert all(filt.query(item) for item in items)

    def test_empty_filter_finds_nothing(self):
        filt = BloomFilter(self.params(), ITEMS_KMER, k=4)
        assert not filt.query(b"ACGT")
        assert filt.min_count(b"ACGT") == 0

    def test_threshold_above_one_rejected(self):
        filt = BloomFilter(self.params(), ITEMS_KMER, k=4)
        filt.insert(b"ACGT")
        assert filt.at_least(b"ACGT", 1)
        with pytest.raises(ValueError):
            filt.at_least(b"ACGT", 2)

    def test_wrong_item_length(self):
        filt = BloomFilter(self.params(), ITEMS_KMER, k=4)
        with pytest.raises(ItemKindMismatch):
            filt.insert(b"ACG")
        with pytest.raises(ItemKindMismatch):
            filt.query(b"ACGTT")

    def test_kind_mismatch(self):
        filt = BloomFilter(self.params(), ITEMS_KMER, k=4)
        with pytest.raises(ItemKindMismatch):
            filt.insert(17)
        pfilt = BloomFilter(self.params(), ITEMS_PHRASE)
        with pytest.raises(ItemKindMismatch):
            pfilt.insert(b"ACGT")
        pfilt.insert(17)
        assert pfilt.query(17)

    def test_same_seed_same_bits(self):
        rng = random.Random(71)
        items = [bytes(rng.choice(b"ACGT") for _ in range(6)) for _ in range(50)]
        a = filter_build(items, FilterParams(512, 4, seed=3), KIND_BLOOM,
                         ITEMS_KMER, 6)
        b = filter_build(items, FilterParams(512, 4, seed=3), KIND_BLOOM,
                         ITEMS_KMER, 6)
        c = filter_build(items, FilterParams(512, 4, seed=4), KIND_BLOOM,
                         ITEMS_KMER, 6)
        assert a._bits == b._bits
        assert a._bits != c._bits

    def test_observed_fpr_close_to_estimate(self):
        rng = random.Random(73)
        n = 2000
        inserted = {bytes(rng.choice(b"ACGT") for _ in range(10)) for _ in range(n)}
        params = size_for(len(inserted), 0.02)
        filt = filter_build(inserted, params, KIND_BLOOM, ITEMS_KMER, 10)
        probes = 0
        positives = 0
        while probes < 20000:
            item = bytes(rng.choice(b"ACGT") for _ in range(10))
            if item in inserted:
                continue
            probes += 1
            positives += filt.query(item)
        observed = positives / probes
        predicted = expected_fpr(params, len(inserted))
        assert observed <= 2 * predicted


class TestExact:
    """Exact counts: a parse's phrase counts, and a k-mer table whose
    records are the k-mers themselves."""

    def test_true_multiset(self):
        filt = PhraseCounts(first_symbol_buckets([4, 9, 4]))
        assert filt.kind == KIND_EXACT
        assert filt.min_count(4) == 2
        assert filt.min_count(9) == 1
        assert filt.min_count(5) == 0
        assert not filt.query(5)

    def test_zero_false_positives(self):
        rng = random.Random(79)
        items = [bytes(rng.choice(b"ACGT") for _ in range(5)) for _ in range(100)]
        filt = filter_build(items, TABLE_PARAMS, KIND_TABLE, ITEMS_KMER, 5)
        inserted = set(items)
        for _ in range(500):
            probe = bytes(rng.choice(b"ACGT") for _ in range(5))
            assert filt.query(probe) == (probe in inserted)


def stored(table):
    """A k-mer table's (k-mer, count) entries, in stored order."""
    k = table.k
    return [(table.text[s:s + k], c) for s, c in zip(table.starts, table.counts)]


class TestFingerprintTable:
    def test_build_sorts_distinct_keys_with_saturating_counts(self):
        # the k-mer table stores each distinct k-mer once, at its first
        # start in the records joined by SEPARATOR, in start order
        items = [b"CAT"] * 3 + [b"ACG"] + [b"TTT"] * 300
        filt = filter_build(iter(items), FilterParams(64, 2), KIND_TABLE, ITEMS_KMER, 3)
        assert filt.text == bytes([SEPARATOR]).join(items)
        assert list(filt.starts) == [0, 12, 16]
        assert stored(filt) == [(b"CAT", 3), (b"ACG", 1), (b"TTT", 255)]
        assert filt.probes == 0  # building is not lookup work
        before = (filt.text, list(filt.starts), bytes(filt.counts))
        with pytest.raises(ValueError):  # a table is built once
            filt.insert_many([b"ACG", b"GGG"])
        assert (filt.text, list(filt.starts), bytes(filt.counts)) == before

    def test_records_count_their_kmers(self):
        # a k-mer table takes whole records and counts every k-mer of each
        rng = random.Random(103)
        k = 5
        records = [b"", b"ACGT", b"ACGTA", bytearray(b"ACGTACGTAC"),
                   bytes(rng.choice(b"AC") for _ in range(400)), b"T" * 300,
                   bytes(rng.choice(b"ACGT") for _ in range(9000))]
        filt = filter_build(iter(records), TABLE_PARAMS, KIND_TABLE, ITEMS_KMER, k)
        tally = Counter(bytes(record[i:i + k]) for record in records
                        for i in range(len(record) - k + 1))
        assert dict(stored(filt)) == {x: min(n, 255) for x, n in tally.items()}
        assert len(filt.starts) == len(tally) and max(tally.values()) > 255
        text = filt.text
        assert list(filt.starts) == sorted(text.index(x) for x in tally)
        with pytest.raises(ItemKindMismatch):
            filter_build([b"ACGTA", "ACGTA"], TABLE_PARAMS, KIND_TABLE, ITEMS_KMER, k)

    def test_short_keys_are_exact(self):
        # a k-mer table compares whole k-mers: no two share a key
        rng = random.Random(97)
        stored = {bytes(rng.randrange(256) for _ in range(7)) for _ in range(300)}
        filt = filter_build(stored, TABLE_PARAMS, KIND_TABLE, ITEMS_KMER, 7)
        for _ in range(2000):
            probe = bytes(rng.randrange(256) for _ in range(7))
            assert filt.query(probe) == (probe in stored)

    def test_params_are_the_key_space(self):
        filt = filter_build([b"ACGT"], FilterParams(64, 4, seed=3), KIND_TABLE,
                            ITEMS_KMER, 4)
        assert filt.params == TABLE_PARAMS
        assert TABLE_PARAMS == FilterParams(bits=(1 << 61) - 1, hash_count=1)
        assert 0 < expected_fpr(filt.params, 10 ** 5) < 1e-13

    def test_restore_needs_one_count_per_key(self):
        with pytest.raises(ValueError):
            FingerprintTable(TABLE_PARAMS, ITEMS_KMER, 4, bytearray(b"\x01"),
                             starts=array("I", [0, 5]), text=b"ACGTACGTA")

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_pattern_kmers_answer_the_true_multiset(self, f):
        # records joined by NUL in the text, so no k-mer crosses a record
        rng = random.Random(101 + f)
        alphabet = b"ACDEFGHIKLMNPQRSTVWY"  # protein letters, not DNA
        k = 4
        records = [bytes(rng.choice(alphabet[:5]) for _ in range(rng.randint(0, 90)))
                   for _ in range(6)] + [b"ACD" * 10]
        text = b"\x00".join(records)
        truth = {}
        for record in records:
            for i in range(len(record) - k + 1):
                truth[record[i:i + k]] = truth.get(record[i:i + k], 0) + 1
        kmers = (r[i:i + k] for r in records for i in range(len(r) - k + 1))
        filt = filter_build(kmers, TABLE_PARAMS, KIND_TABLE, ITEMS_KMER, k)
        spanning = {text[i:i + k] for i in range(len(text) - k + 1)} - set(truth)
        assert spanning and all(0 in kmer for kmer in spanning)
        patterns = [records[0][:k - 1], b"", b"WYWYWYWY",  # bytes the text lacks
                    records[1] + b"ACDACDAC" + records[2][:20],
                    bytes(rng.choice(alphabet) for _ in range(200))]
        seen = set()
        for pattern in patterns:
            items = [pattern[i:i + k] for i in range(len(pattern) - k + 1)]
            want = [truth.get(x, 0) >= f for x in items]
            before = filt.probes
            assert filt.kmers_at_least(pattern, f) == bytes(want)
            probes = filt.probes - before  # fewer at f = 1, where runs extend
            assert probes <= len(items) and (f == 1 or probes == len(items))
            assert filt.at_least_many(items, f) == want
            seen.update(want)
        assert seen == {True, False}
        assert filt.at_least_many(sorted(spanning), 1) == [False] * len(spanning)

    def test_lookups_past_a_match_with_the_text(self):
        # at f = 1 the table looks up k + 1 k-mers, then compares the pattern
        # with the text from the last present one: a copy of the record takes
        # 5 lookups for its 37 k-mers, and a substituted symbol or a NUL 5
        # more, past the 4 k-mers that hold it; f = 2 looks up every k-mer
        record = b"CAGAGCAGACAACTAAGTGCTATCAACTAGGCGAAAGCCGCCTGAGGT"
        filt = filter_build([record], TABLE_PARAMS, KIND_TABLE, ITEMS_KMER, 4)
        copy = record[4:44]
        for pattern, probes in ((copy, 5), (copy[:16] + b"A" + copy[17:], 10),
                                (copy[:16] + b"\0" + copy[17:], 10)):
            flags = bytes(pattern[i:i + 4] in record for i in range(37))
            before = filt.probes
            assert filt.kmers_at_least(pattern, 1) == flags
            assert filt.probes - before == probes
            assert filt.kmers_at_least(pattern, 2) == bytes(
                record.count(pattern[i:i + 4]) >= 2 for i in range(37))
            assert filt.probes - before == probes + 37


def restore(table):
    """``table`` rebuilt from its stored arrays, as ``load_bundle`` does."""
    return FingerprintTable(TABLE_PARAMS, ITEMS_KMER, table.k, bytearray(table.counts),
                            starts=array("I", table.starts), text=bytes(table.text))


def kmer_truth(records, k):
    """A ``Counter`` of the k-mers inside the records."""
    return Counter(bytes(r[i:i + k]) for r in records for i in range(len(r) - k + 1))


class TestTableAgainstCounter:
    """Every lookup of a table equals a ``Counter`` of its k-mers, counts
    saturating at 255, whether the table was built or restored."""

    K = 4

    @pytest.mark.parametrize("restored", [False, True], ids=["built", "restored"])
    def test_lookups_equal_the_counter(self, restored):
        rng = random.Random(113)
        k = self.K
        records = [bytes(rng.choice(b"ACGT") for _ in range(rng.randint(0, 120)))
                   for _ in range(8)] + [b"A" * 400, b"C" * 200]  # saturated
        inserted = [r[i:i + k] for r in records for i in range(len(r) - k + 1)]
        probes = sorted({bytes(rng.choice(b"ACGN") for _ in range(k))
                         for _ in range(150)} | set(inserted[:30]) | {b"AAAA"})
        filt = filter_build(records, TABLE_PARAMS, KIND_TABLE, ITEMS_KMER, k)
        if restored:
            filt = restore(filt)
        truth = Counter(inserted)
        count = [min(truth[x], 255) for x in probes]
        assert 0 in count and 255 in count and max(truth.values()) > 255
        assert [filt.min_count(x) for x in probes] == count
        for f in (1, 2, 255, 300):
            want = [c >= min(f, 255) for c in count]
            assert filt.at_least_many(probes, f) == want
            for seq in records[:3] + [b"ACGNACGTTTT", b"A" * 9]:
                assert filt.kmers_at_least(seq, f) == bytes(
                    min(truth[seq[i:i + k]], 255) >= min(f, 255)
                    for i in range(len(seq) - k + 1))

    @pytest.mark.parametrize("restored", [False, True], ids=["built", "restored"])
    @pytest.mark.parametrize("k", [1, 4, 20])
    def test_kmer_lookups_equal_the_counter_at_any_k(self, k, restored):
        # records over 200 byte values, some shorter than k, one with a
        # k-mer 300 times; probes with bytes outside the records' alphabet
        # and k-mers across the separator, which the table must not hold
        rng = random.Random(127 + k)
        alphabet = bytes(range(14, 214))
        records = [bytes(rng.choice(alphabet[:3]) for _ in range(rng.randint(0, 3 * k)))
                   for _ in range(12)]
        records += [alphabet[:1] * (k + 299), bytes(rng.choices(alphabet, k=500)),
                    bytes(rng.choices(alphabet[:2], k=k - 1))]
        filt = filter_build(records, TABLE_PARAMS, KIND_TABLE, ITEMS_KMER, k)
        if restored:
            filt = restore(filt)
        truth = kmer_truth(records, k)
        joined = bytes([SEPARATOR]).join(records)
        across = {joined[i:i + k] for i in range(len(joined) - k + 1)} - set(truth)
        foreign = bytes(rng.choice(b"\x01\xff\xfe") for _ in range(3 * k))
        assert across and all(SEPARATOR in x for x in across)
        assert max(truth.values()) > 255 and min(map(len, records)) < k
        probes = sorted(truth) + sorted(across) + [foreign[:k]]
        count = [min(truth[x], 255) for x in probes]
        assert [filt.min_count(x) for x in probes] == count
        assert [filt.query(x) for x in probes] == [c > 0 for c in count]
        for f in (1, 2, 3, 255, 300):
            assert filt.at_least_many(probes, f) == [c >= min(f, 255) for c in count]
            for seq in [*records[-4:], joined, foreign, joined[:k - 1]]:
                assert filt.kmers_at_least(seq, f) == bytes(
                    min(truth[seq[i:i + k]], 255) >= min(f, 255)
                    for i in range(len(seq) - k + 1))

    def test_a_lookup_before_the_build_is_dropped(self):
        # a lookup on an empty table gathers an empty dict; later lookups
        # must read the built table's k-mers, not it
        filt = FingerprintTable(TABLE_PARAMS, ITEMS_KMER, 4)
        assert filt.at_least_many([b"ACGT"], 1) == [False]
        filt.insert_many([b"ACGTA"])
        assert filt.at_least_many([b"ACGT", b"TTTT"], 1) == [True, False]
        assert filt.kmers_at_least(b"ACGTT", 1) == b"\x01\x00"


@given(st.lists(st.binary(max_size=40), max_size=12), st.integers(1, 6),
       st.integers(1, 4), st.binary(max_size=60))
@settings(max_examples=120, deadline=None)
def test_kmer_table_equals_the_counter_of_random_records(records, k, f, pattern):
    # any bytes, the separator among them: a record's k-mers count, and
    # nothing across two records does
    truth = kmer_truth(records, k)
    built = filter_build(records, TABLE_PARAMS, KIND_TABLE, ITEMS_KMER, k)
    for filt in (built, restore(built)):
        assert dict(stored(filt)) == {x: min(n, 255) for x, n in truth.items()}
        for seq in (pattern, filt.text):
            assert filt.kmers_at_least(seq, f) == bytes(
                truth[seq[i:i + k]] >= f for i in range(len(seq) - k + 1))


@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_extended_lookups_equal_the_counter_on_mutated_copies(k, f):
    # copies of a founder with a few substitutions each, joined by NUL, and
    # patterns cut from that text, across records too, with substitutions
    # and NULs: where the table extends a present k-mer along the text, its
    # flags must still be the counter's, with no k-mer looked up twice
    rng = random.Random(f"copies:{k}:{f}")
    looked = kmers = 0
    for _ in range(30):
        alphabet = rng.choice((b"AC", b"ACGT"))
        founder = bytes(rng.choices(alphabet, k=rng.randint(1, 120)))
        records = []
        for _ in range(rng.randint(1, 4)):
            copy = bytearray(founder)
            for i in rng.sample(range(len(copy)), min(len(copy), rng.randint(0, 3))):
                copy[i] = rng.choice(alphabet)
            records.append(bytes(copy))
        truth, joined = kmer_truth(records, k), bytes([SEPARATOR]).join(records)
        built = filter_build(records, TABLE_PARAMS, KIND_TABLE, ITEMS_KMER, k)
        for filt in (built, restore(built)):
            for _ in range(5):
                a = rng.randrange(len(joined) + 1)
                seq = bytearray(joined[a:rng.randint(a, len(joined))])
                for i in rng.sample(range(len(seq)), min(len(seq), rng.randint(0, 3))):
                    seq[i] = rng.choice(alphabet + bytes([SEPARATOR]))
                n, before = max(len(seq) - k + 1, 0), filt.probes
                assert filt.kmers_at_least(seq, f) == bytes(
                    truth[bytes(seq[i:i + k])] >= f for i in range(n))
                assert filt.probes - before <= n
                looked, kmers = looked + filt.probes - before, kmers + n
    assert looked < kmers if f == 1 else looked == kmers


def rand_kmers(rng, n, k):
    return [bytes(rng.choice(b"ACGT") for _ in range(k)) for _ in range(n)]


class TestBatchLookup:
    """``at_least_many`` answers like one ``min_count`` per item."""

    @staticmethod
    def reference(filt, items, f):
        cap = min(f, 255) if filt.kind == KIND_TABLE else f
        return [filt.min_count(x) >= cap for x in items]

    @pytest.mark.parametrize("item_kind, kind", [  # a table holds k-mers only
        (ITEMS_KMER, KIND_BLOOM), (ITEMS_KMER, KIND_TABLE),
        (ITEMS_PHRASE, KIND_BLOOM), (ITEMS_PHRASE, KIND_EXACT)])
    def test_equals_one_min_count_per_item(self, kind, item_kind):
        rng = random.Random(83)
        if item_kind == ITEMS_KMER:
            inserted = rand_kmers(rng, 300, 5)
            probes = rand_kmers(rng, 200, 5) + inserted[:50]
        else:  # phrase IDs well above one byte
            inserted = [rng.randrange(1 << 40) for _ in range(300)]
            probes = [rng.randrange(1 << 40) for _ in range(200)] + inserted[:50]
        inserted += inserted[:40] * 3  # some items present 4 times
        if kind == KIND_EXACT:  # a parse's phrase counts
            filt = PhraseCounts(first_symbol_buckets(inserted))
        else:
            filt = filter_build(inserted, FilterParams(1024, 3, seed=9), kind,
                                item_kind, 5 if item_kind == ITEMS_KMER else None)
        thresholds = (1,) if kind == KIND_BLOOM else (1, 2, 4, 5, 300)
        for f in thresholds:
            want = self.reference(filt, probes, f)
            before = filt.probes
            assert filt.at_least_many(iter(probes), f) == want
            assert filt.probes == before + len(probes)
            assert [filt.at_least(x, f) for x in probes] == want
            if f == 1:
                assert any(want) and not all(want)

    @pytest.mark.parametrize("kind", [KIND_TABLE])
    def test_threshold_above_a_saturated_counter(self, kind):
        filt = filter_build([b"AAA"] * 300 + [b"CCC"], FilterParams(64, 2), kind,
                            ITEMS_KMER, 3)
        items = [b"AAA", b"CCC", b"GGG"]
        for f in (255, 256, 300):
            assert filt.at_least_many(items, f) == self.reference(filt, items, f)
        # a saturated count may stand for any larger one
        assert filt.at_least_many(items, 301) == [True, False, False]
        assert filt.kmers_at_least(b"AAAAAA", 301) == bytes([True] * 4)

    @pytest.mark.parametrize("kind", [KIND_BLOOM, KIND_TABLE])
    def test_wrong_item_kind_raises(self, kind):
        kfilt = filter_build([b"ACGT"], FilterParams(64, 2), kind, ITEMS_KMER, 4)
        for bad in (17, b"ACG", b"ACGTA", "ACGT"):
            with pytest.raises(ItemKindMismatch):
                kfilt.at_least_many([b"ACGT", bad], 1)
        assert kfilt.at_least_many([bytearray(b"ACGT")], 1) == [True]
        if kind == KIND_TABLE:  # a table holds k-mers only
            with pytest.raises(ItemKindMismatch):
                filter_build([17], FilterParams(64, 2), kind, ITEMS_PHRASE)
            return
        pfilt = filter_build([17], FilterParams(64, 2), kind, ITEMS_PHRASE)
        for bad in (b"ACGT", True, 1.0):
            with pytest.raises(ItemKindMismatch):
                pfilt.at_least_many([17, bad], 1)

    @pytest.mark.parametrize("kind", [KIND_BLOOM, KIND_TABLE])
    def test_threshold_errors_stay(self, kind):
        filt = filter_build([b"ACGT"], FilterParams(64, 2), kind, ITEMS_KMER, 4)
        for f in (0, 2) if kind == KIND_BLOOM else (0,):
            with pytest.raises(ValueError):
                filt.at_least_many([b"ACGT"], f)
            with pytest.raises(ValueError):
                filt.kmers_at_least(b"ACGTA", f)
        assert filt.probes == 0
        assert filt.at_least_many([], 1) == []
        assert filt.kmers_at_least(b"ACG", 1) == b""


def textbook_positions(item, params):
    """Probe i at (h1 + i*h2) mod m, from a BLAKE2b digest keyed by the seed."""
    data = item if isinstance(item, bytes) else item.to_bytes(8, "little")
    state = hashlib.blake2b(data, digest_size=16,
                            key=params.seed.to_bytes(8, "little"))
    digest = int.from_bytes(state.digest(), "little")
    h1, h2 = digest & ((1 << 64) - 1), (digest >> 64) | 1
    return [(h1 + i * h2) % params.bits for i in range(params.hash_count)]


class TestBatchInsert:
    """``filter_build`` sets a Bloom filter's bits as if each probe were
    set in turn."""

    CASES = {
        # 16 probes over 8 positions: every item probes some position twice
        "repeated-positions": (FilterParams(8, 16, seed=3),
                               [b"ACG", b"TTT"] * 5, ITEMS_KMER, 3),
        "saturated": (FilterParams(64, 3, seed=11),
                      [b"AAAA"] * 300 + [b"CCCC"] * 2, ITEMS_KMER, 4),
        "phrase-ids": (FilterParams(512, 4, seed=(1 << 64) - 1),
                       [random.Random(5).randrange(1 << 40) for _ in range(200)]
                       + [0, 255, 256], ITEMS_PHRASE, None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bloom_bits_follow_the_same_probes(self, case):
        params, items, item_kind, k = self.CASES[case]
        filt = filter_build(items, params, KIND_BLOOM, item_kind, k)
        on = {pos for item in items for pos in textbook_positions(item, params)}
        assert [pos for pos in range(params.bits)
                if filt._bits[pos >> 3] >> (pos & 7) & 1] == sorted(on)

    def test_wrong_item_kind_raises(self):
        with pytest.raises(ItemKindMismatch):
            filter_build([b"ACGT", b"ACG"], FilterParams(64, 2), KIND_BLOOM,
                         ITEMS_KMER, 4)
        with pytest.raises(ItemKindMismatch):
            filter_build([17, True], FilterParams(64, 2), KIND_BLOOM,
                         ITEMS_PHRASE)


def test_filter_build_unknown_kind():
    with pytest.raises(ValueError):
        filter_build([], FilterParams(8, 1), "cuckoo", ITEMS_PHRASE)


def test_kmer_filter_requires_k():
    with pytest.raises(ValueError):
        BloomFilter(FilterParams(8, 1), ITEMS_KMER)


@given(st.lists(st.binary(min_size=4, max_size=4), max_size=80),
       st.integers(0, 1000))
@settings(max_examples=80, deadline=None)
def test_no_false_negatives_any_kind(items, seed):
    params = FilterParams(bits=128, hash_count=3, seed=seed)
    for kind in (KIND_BLOOM, KIND_TABLE):
        filt = filter_build(items, params, kind, ITEMS_KMER, 4)
        counts = {}
        for item in items:
            counts[item] = counts.get(item, 0) + 1
        for item, count in counts.items():
            assert filt.query(item)
            if kind != KIND_BLOOM:
                assert filt.min_count(item) >= count
