import logging
import random

import pytest

from parsemem import filters as flt
from parsemem.oracle import brute_force_f_mems, top_t_cut
from parsemem.parsing import PhraseDictionary, RollingHasher, pfp_parse
from parsemem.pseudomem import (ORIGIN_KEBAB, ORIGIN_S1, ORIGIN_S2,
                                ORIGIN_WHOLE, PseudoMem, coarse_sets,
                                compute_lower_bound, find_long_mems,
                                kebab_pseudo_mems, parse_pseudo_mems, refine,
                                safe_discard)
from parsemem.seqindex import OccurrenceIndex, find_f_mems

DNA = b"ACGT"


def rand_dna(rng, n):
    return bytes(rng.choice(DNA) for _ in range(n))


def char_index(text):
    return OccurrenceIndex(text)


def parse_pair(text, pattern, w=4, p=5):
    hasher = RollingHasher(window=w, trigger_modulus=p)
    d = PhraseDictionary()
    parse_t = pfp_parse(text, hasher, d)
    parse_p = pfp_parse(pattern, hasher, d)
    pidx = OccurrenceIndex(parse_t.symbols)
    return parse_t, parse_p, pidx


def exact_kmer_filter(text, k):
    kmers = [text[i:i + k] for i in range(len(text) - k + 1)]
    params = flt.FilterParams(bits=8, hash_count=1)
    return flt.filter_build(kmers, params, flt.KIND_EXACT, flt.ITEMS_KMER, k)


class TestKebab:
    def test_all_kmers_present_single_run(self):
        text = b"ACGTACGTACGT"
        pattern = text[2:10]
        pms = kebab_pseudo_mems(pattern, exact_kmer_filter(text, 4))
        assert [(pm.char_start, pm.char_end, pm.origin) for pm in pms] == \
            [(1, len(pattern), ORIGIN_KEBAB)]
        assert pms[0].lower_bound == 0
        assert pms[0].phrase_start is None

    def test_no_kmers_present(self):
        pms = kebab_pseudo_mems(b"TTTTTTTT", exact_kmer_filter(b"ACACACAC", 4))
        assert pms == []

    def test_one_absent_kmer_overlap(self):
        # runs flanking a single absent k-mer overlap by exactly k - 2 chars
        k = 4
        rng = random.Random(101)
        while True:
            pattern = rand_dna(rng, 20)
            kmer_list = [pattern[i:i + k] for i in range(len(pattern) - k + 1)]
            if len(set(kmer_list)) == len(kmer_list):
                break
        gap = 9  # k-mer position removed from the filter
        absent = pattern[gap - 1:gap - 1 + k]
        kmers = [pattern[i:i + k] for i in range(len(pattern) - k + 1)
                 if pattern[i:i + k] != absent]
        filt = flt.filter_build(kmers, flt.FilterParams(8, 1), flt.KIND_EXACT,
                                flt.ITEMS_KMER, k)
        pms = kebab_pseudo_mems(pattern, filt)
        spans = [(pm.char_start, pm.char_end) for pm in pms]
        assert spans == [(1, gap + k - 2), (gap + 1, len(pattern))]
        assert spans[0][1] - spans[1][0] + 1 == k - 2

    def test_pattern_shorter_than_k(self, caplog):
        filt = exact_kmer_filter(b"ACGTACGT", 6)
        with caplog.at_level(logging.WARNING, logger="parsemem.pseudomem"):
            assert kebab_pseudo_mems(b"ACG", filt) == []
        assert any("shorter than k" in r.message for r in caplog.records)

    def test_f_above_one_needs_counting(self):
        filt = flt.BloomFilter(flt.FilterParams(64, 2), flt.ITEMS_KMER, k=4)
        with pytest.raises(ValueError):
            kebab_pseudo_mems(b"ACGTACGT", filt, f=2)

    def test_phrase_filter_rejected(self):
        filt = flt.ExactFilter(flt.FilterParams(8, 1), flt.ITEMS_PHRASE)
        with pytest.raises(ValueError):
            kebab_pseudo_mems(b"ACGTACGT", filt)

    def test_probe_counter(self):
        filt = exact_kmer_filter(b"ACGTACGT", 4)
        kebab_pseudo_mems(b"ACGTACGT", filt)
        assert filt.probes == 5  # one per k-mer position


class TestParsePseudoMems:
    def test_single_phrase_pattern_is_whole(self):
        rng = random.Random(103)
        text = rand_dna(rng, 300)
        pattern = b"ACG"  # shorter than the parsing window: one phrase
        parse_t, parse_p, pidx = parse_pair(text, pattern, w=6, p=5)
        assert len(parse_p) == 1
        (pm,) = parse_pseudo_mems(parse_p, pidx)
        assert (pm.char_start, pm.char_end, pm.origin) == (1, 3, ORIGIN_WHOLE)
        assert pm.lower_bound == 0

    def test_planted_substring_gives_s1(self):
        rng = random.Random(107)
        text = rand_dna(rng, 600)
        pattern = rand_dna(rng, 15) + text[100:220] + rand_dna(rng, 15)
        parse_t, parse_p, pidx = parse_pair(text, pattern)
        pms = parse_pseudo_mems(parse_p, pidx)
        assert any(pm.origin == ORIGIN_S1 for pm in pms)

    def test_s2_pair_when_nothing_occurs(self):
        rng = random.Random(109)
        text = rand_dna(rng, 300)
        # AT-free text guarantees the pattern's phrases are all novel
        text = text.replace(b"T", b"G")
        pattern = b"T" * 40
        parse_t, parse_p, pidx = parse_pair(text, pattern, w=4, p=3)
        if len(parse_p) < 2:
            pytest.skip("pattern parsed into a single phrase")
        pms = parse_pseudo_mems(parse_p, pidx)
        assert pms and all(pm.origin == ORIGIN_S2 for pm in pms)
        assert all(pm.phrase_end == pm.phrase_start + 1 for pm in pms)

    def test_every_oracle_mem_is_covered(self):
        rng = random.Random(113)
        for _ in range(25):
            text = rand_dna(rng, rng.randint(100, 600))
            piece = text[rng.randrange(0, len(text) // 2):][:80]
            pattern = rand_dna(rng, 12) + piece + rand_dna(rng, 12)
            f = rng.choice((1, 2))
            parse_t, parse_p, pidx = parse_pair(text, pattern)
            pms = parse_pseudo_mems(parse_p, pidx, f)
            for mem in brute_force_f_mems(text, pattern, f):
                assert any(pm.char_start <= mem.start and mem.end <= pm.char_end
                           for pm in pms)

    def test_deduplicated_and_sorted(self):
        rng = random.Random(127)
        text = rand_dna(rng, 500)
        pattern = text[50:150] + text[50:150]
        parse_t, parse_p, pidx = parse_pair(text, pattern)
        pms = parse_pseudo_mems(parse_p, pidx)
        keys = [(pm.phrase_start, pm.phrase_end) for pm in pms]
        assert len(keys) == len(set(keys))
        spans = [(pm.char_start, pm.char_end) for pm in pms]
        assert spans == sorted(spans)


class TestLowerBound:
    def make(self, text, pattern, w=4, p=5):
        return parse_pair(text, pattern, w, p)

    def test_s1_inner_interval_length(self):
        rng = random.Random(131)
        text = rand_dna(rng, 800)
        pattern = rand_dna(rng, 12) + text[200:380] + rand_dna(rng, 12)
        parse_t, parse_p, pidx = self.make(text, pattern)
        pms = [pm for pm in parse_pseudo_mems(parse_p, pidx)
               if pm.origin == ORIGIN_S1]
        assert pms
        for pm in pms:
            want = 0
            if pm.phrase_end - pm.phrase_start >= 2:
                lo, hi = parse_p.char_span(pm.phrase_start + 1, pm.phrase_end - 1)
                want = hi - lo + 1
            assert pm.lower_bound == compute_lower_bound(pm, parse_p) == want

    def test_non_s1_bound_is_zero(self):
        pm = PseudoMem(1, 10, ORIGIN_S2, phrase_start=1, phrase_end=2)
        assert compute_lower_bound(pm, None) == 0

    def test_kebab_has_no_phrase_coordinates(self):
        pm = PseudoMem(1, 10, ORIGIN_KEBAB)
        with pytest.raises(ValueError):
            compute_lower_bound(pm, None)

    def test_two_phrase_s1_bound_is_zero(self):
        pm = PseudoMem(1, 10, ORIGIN_S1, phrase_start=3, phrase_end=4)
        assert compute_lower_bound(pm, None) == 0


class TestSafeDiscard:
    def pm(self, length, bound):
        return PseudoMem(1, length, ORIGIN_S1, lower_bound=bound,
                         phrase_start=1, phrase_end=3)

    def test_fewer_bounds_than_t_keeps_everything(self):
        pms = [self.pm(30, 0), self.pm(5, 0)]
        assert safe_discard(pms, 1) == pms

    def test_cutoff_is_tth_largest_bound(self):
        pms = [self.pm(40, 35), self.pm(20, 12), self.pm(8, 0)]
        kept = safe_discard(pms, 1)  # cutoff 35
        assert kept == [pms[0]]
        kept = safe_discard(pms, 2)  # cutoff 12
        assert kept == [pms[0], pms[1]]
        kept = safe_discard(pms, 3)  # cutoff 0
        assert kept == pms

    def test_duplicate_bounds_count_separately(self):
        pms = [self.pm(40, 30), self.pm(35, 30), self.pm(10, 0)]
        assert safe_discard(pms, 2) == [pms[0], pms[1]]  # cutoff is 30, not 0

    def test_length_equal_to_cutoff_is_kept(self):
        pms = [self.pm(30, 30), self.pm(30, 0)]
        assert safe_discard(pms, 1) == pms

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            safe_discard([], 0)


class TestCoarseRefine:
    def exact_phrase_filter(self, parse_t, dictionary_size):
        return flt.filter_build(parse_t.symbols, flt.FilterParams(8, 1),
                                flt.KIND_EXACT, flt.ITEMS_PHRASE)

    def test_refine_reproduces_direct_with_exact_filter(self):
        rng = random.Random(137)
        for _ in range(25):
            text = rand_dna(rng, rng.randint(100, 600))
            pattern = rand_dna(rng, 10) + \
                text[rng.randrange(0, len(text) // 2):][:90] + rand_dna(rng, 10)
            f = rng.choice((1, 2))
            parse_t, parse_p, pidx = parse_pair(text, pattern)
            filt = self.exact_phrase_filter(parse_t, 0)
            direct = parse_pseudo_mems(parse_p, pidx, f)
            refined = refine(coarse_sets(parse_p, filt, f), parse_p, pidx, f)
            assert refined == direct

    def test_refine_survives_false_positives(self):
        rng = random.Random(139)
        for _ in range(25):
            text = rand_dna(rng, rng.randint(100, 600))
            pattern = rand_dna(rng, 10) + \
                text[rng.randrange(0, len(text) // 2):][:90] + rand_dna(rng, 10)
            parse_t, parse_p, pidx = parse_pair(text, pattern)
            # tiny Bloom filter: false positives all over the place
            filt = flt.filter_build(parse_t.symbols, flt.FilterParams(16, 1),
                                    flt.KIND_BLOOM, flt.ITEMS_PHRASE)
            direct = parse_pseudo_mems(parse_p, pidx, 1)
            refined = refine(coarse_sets(parse_p, filt, 1), parse_p, pidx, 1)
            assert refined == direct

    def test_coarse_structure(self):
        rng = random.Random(149)
        text = rand_dna(rng, 500)
        pattern = rand_dna(rng, 10) + text[100:200] + rand_dna(rng, 10)
        parse_t, parse_p, pidx = parse_pair(text, pattern)
        filt = self.exact_phrase_filter(parse_t, 0)
        coarse = coarse_sets(parse_p, filt, 1)
        n = len(parse_p)
        for a, b in coarse.runs:
            assert 1 <= a <= b <= n
        for (a, b), (ra, rb) in zip(coarse.s3, coarse.runs):
            assert a == max(ra - 1, 1) and b == min(rb + 1, n)
        for a, b in coarse.s4:
            assert b == a + 1

    def test_mismatched_f_rejected(self):
        rng = random.Random(151)
        text = rand_dna(rng, 300)
        parse_t, parse_p, pidx = parse_pair(text, rand_dna(rng, 60))
        filt = self.exact_phrase_filter(parse_t, 0)
        coarse = coarse_sets(parse_p, filt, f=2)
        with pytest.raises(ValueError):
            refine(coarse, parse_p, pidx, f=1)


class TestFindLongMems:
    def test_full_coverage_equals_direct_search(self):
        rng = random.Random(157)
        for _ in range(20):
            text = rand_dna(rng, rng.randint(50, 400))
            pattern = rand_dna(rng, 10) + text[: rng.randint(10, 60)] + \
                rand_dna(rng, 10)
            index = char_index(text)
            pms = [PseudoMem(1, len(pattern), ORIGIN_KEBAB)]
            got = find_long_mems(index, pms, pattern)
            want = find_f_mems(index, pattern)
            assert [(m.start, m.end, m.freq) for m in got] == \
                   [(m.start, m.end, m.freq) for m in want]

    def test_clipped_matches_are_dropped(self):
        rng = random.Random(163)
        text = rand_dna(rng, 400)
        pattern = text[100:160]
        index = char_index(text)
        # a pseudo-MEM that cuts the single long MEM in half
        pms = [PseudoMem(1, 30, ORIGIN_KEBAB), PseudoMem(1, 60, ORIGIN_KEBAB)]
        got = find_long_mems(index, pms, pattern)
        want = find_f_mems(index, pattern)
        assert [(m.start, m.end) for m in got] == [(m.start, m.end) for m in want]

    def test_top_t_keeps_ties(self):
        rng = random.Random(167)
        for _ in range(20):
            text = rand_dna(rng, 300)
            pattern = rand_dna(rng, 8) + text[50:90] + rand_dna(rng, 8)
            index = char_index(text)
            pms = [PseudoMem(1, len(pattern), ORIGIN_KEBAB)]
            all_mems = find_f_mems(index, pattern)
            got = find_long_mems(index, pms, pattern, t=2)
            lengths = sorted((m.length for m in all_mems), reverse=True)
            if len(lengths) > 2:
                cutoff = lengths[1]
                assert {(m.start, m.end) for m in got} == \
                    {(m.start, m.end) for m in all_mems if m.length >= cutoff}

    def test_length_threshold_mode(self):
        rng = random.Random(173)
        text = rand_dna(rng, 300)
        pattern = rand_dna(rng, 8) + text[50:100] + rand_dna(rng, 8)
        index = char_index(text)
        pms = [PseudoMem(1, len(pattern), ORIGIN_KEBAB)]
        got = find_long_mems(index, pms, pattern, L=20)
        want = [m for m in find_f_mems(index, pattern) if m.length >= 20]
        assert [(m.start, m.end) for m in got] == [(m.start, m.end) for m in want]

    def test_inside_merged_windows_equals_oracle(self):
        # windows overlap, touch and come in any order; a MEM spanning two
        # of them lies inside their merged window and must be found
        rng = random.Random(179)
        for _ in range(300):
            alphabet = rng.choice((b"AC", DNA))
            text = bytes(rng.choice(alphabet) for _ in range(rng.randint(20, 300)))
            a = rng.randrange(len(text))
            pattern = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 20))) \
                + text[a:a + rng.randint(5, 60)] \
                + bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
            m = len(pattern)
            windows = []
            for _ in range(rng.randint(1, 5)):
                lo = rng.randint(1, m)
                windows.append((lo, rng.randint(lo, min(m, lo + 40))))
            rng.shuffle(windows)
            covered = set()
            for lo, hi in windows:
                covered.update(range(lo, hi + 1))
            f = rng.choice((1, 1, 2, 3))
            inside = [mem for mem in brute_force_f_mems(text, pattern, f)
                      if set(range(mem.start, mem.end + 1)) <= covered]
            index = char_index(text)
            pms = [PseudoMem(lo, hi, ORIGIN_KEBAB) for lo, hi in windows]
            L, t = rng.randint(1, 20), rng.randint(1, 6)
            for got, want in (
                    (find_long_mems(index, pms, pattern, f), inside),
                    (find_long_mems(index, pms, pattern, f, L=L),
                     [mem for mem in inside if mem.length >= L]),
                    (find_long_mems(index, pms, pattern, f, t=t),
                     top_t_cut(inside, t))):
                assert [(mem.start, mem.end, mem.freq) for mem in got] == \
                    [(mem.start, mem.end, mem.freq) for mem in want]

    def test_overlapping_windows_are_scanned_once(self):
        rng = random.Random(181)
        text = rand_dna(rng, 400)
        pattern = text[100:180]
        index = char_index(text)
        steps = []
        for windows in (((1, 40), (20, 60)), ((1, 60),)):
            before = index.steps
            find_long_mems(index, [PseudoMem(lo, hi, ORIGIN_KEBAB)
                                   for lo, hi in windows], pattern, t=1)
            steps.append(index.steps - before)
        assert steps[0] == steps[1]

    def test_t_and_l_are_exclusive(self):
        index = char_index(b"BANANA")
        with pytest.raises(ValueError):
            find_long_mems(index, [], b"ANA", t=1, L=1)
