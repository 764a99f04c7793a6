import logging
import random
from collections import Counter

import pytest

from parsemem import filters as flt
from parsemem import pseudomem, seqindex
from parsemem.oracle import brute_force_f_mems, top_t_cut
from parsemem.parsing import PhraseDictionary, choose_trigger, pfp_parse
from parsemem.pseudomem import (ORIGIN_KEBAB, ORIGIN_S1, ORIGIN_S2,
                                ORIGIN_WHOLE, CoarseSets, PseudoMem, _cutoff,
                                _emit_parse_pms, _runs, coarse_sets,
                                find_long_mems, kebab_pseudo_mems,
                                parse_pseudo_mems, refine, safe_discard)
from parsemem.seqindex import Mem, OccurrenceIndex, find_f_mems
from parsemem.verify import _parse_instance, copies_instance, cutoff_counts

DNA = b"ACGT"
SCAN = seqindex.threshold_scan  # as imported, for spies to call through


def rand_dna(rng, n):
    return bytes(rng.choice(DNA) for _ in range(n))


def redrawn(rng, seq, n):
    """``seq`` with ``n`` of its positions redrawn from DNA."""
    seq = bytearray(seq)
    for i in rng.sample(range(len(seq)), n):
        seq[i] = rng.choice(DNA)
    return bytes(seq)


def char_index(text):
    return OccurrenceIndex(text)


def parse_pair(text, pattern, w=4, p=5):
    d, trigger = PhraseDictionary(), choose_trigger(text, w, p)
    parse_t = pfp_parse(text, trigger, d)
    parse_p = pfp_parse(pattern, trigger, d)
    pidx = OccurrenceIndex(parse_t.symbols)
    return parse_t, parse_p, pidx


def exact_kmer_filter(text, k):
    return flt.filter_build([text], flt.TABLE_PARAMS, flt.KIND_TABLE, flt.ITEMS_KMER, k)


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
        filt = flt.filter_build(kmers, flt.TABLE_PARAMS, flt.KIND_TABLE,
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
        filt = flt.PhraseCounts({})
        with pytest.raises(ValueError):
            kebab_pseudo_mems(b"ACGTACGT", filt)

    def test_probe_counter(self):
        filt = exact_kmer_filter(b"ACGTACGT", 4)
        kebab_pseudo_mems(b"ACGTACGT", filt)
        assert filt.probes == 5  # one per k-mer position

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_table_runs_equal_exact_filter_runs(self, f):
        # the table extends present k-mers along the text; its runs are
        # those of one plain lookup per k-mer in the same table
        rng = random.Random(107 + f)
        k = 6
        for _ in range(30):
            text = rand_dna(rng, 400)
            pattern = text[50:150] + rand_dna(rng, 60) + text[200:260]
            table = exact_kmer_filter(text, k)
            plain = flt.MembershipFilter.kmers_at_least(table, pattern, f)
            truth = Counter(text[i:i + k] for i in range(len(text) - k + 1))
            assert plain == bytes(truth[pattern[i:i + k]] >= f
                                  for i in range(len(pattern) - k + 1))
            assert [(pm.char_start, pm.char_end)
                    for pm in kebab_pseudo_mems(pattern, table, f)] == \
                [(a, b + k - 1) for a, b in _runs(plain)]


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
        # a T-free text guarantees the pattern's phrases are all novel; the
        # text's anchors between runs of T break the pattern into phrases
        text = text.replace(b"T", b"G")
        anchors = choose_trigger(text, 4, 3).anchors
        pattern = b"".join(b"T" * 6 + anchor for anchor in anchors[:4]) + b"T" * 6
        parse_t, parse_p, pidx = parse_pair(text, pattern, w=4, p=3)
        assert len(parse_p) == 5
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

    def test_matches_clipped_to_one_interval_emit_one_s1(self):
        rng = random.Random(128)
        text = rand_dna(rng, 500)
        _, parse_p, _ = parse_pair(text, text[100:300])
        n = len(parse_p)
        assert n > 3
        lo, hi = parse_p.char_span(2, n - 1)
        pms = _emit_parse_pms(parse_p, [Mem(1, n - 1, 1), Mem(2, n, 1)], [])
        assert [(pm.phrase_start, pm.phrase_end, pm.origin, pm.lower_bound)
                for pm in pms] == [(1, n, ORIGIN_S1, hi - lo + 1)]

    def test_real_parse_f_mems_clipped_to_one_interval(self, monkeypatch):
        # the pattern is the first of three copies; its parse's f-MEMs are
        # phrases 1..8 and 2..9 of 9, and both extend to the whole pattern
        copy = b"GGACGAACACCAGCGCGAGGCCCGCCC"
        text = b"\0".join((copy, b"GGACGAACACAGGCGCGAGGCCCGCCC", copy))
        _, parse_p, pidx = parse_pair(text, copy, w=4, p=3)
        seen = []

        def spy(parsed, s1_matches, s2_pairs):
            seen.append([(m.start, m.end) for m in s1_matches])
            return _emit_parse_pms(parsed, s1_matches, s2_pairs)

        monkeypatch.setattr(pseudomem, "_emit_parse_pms", spy)
        pms = parse_pseudo_mems(parse_p, pidx)
        assert seen == [[(1, 8), (2, 9)]]
        lo, hi = parse_p.char_span(2, 8)
        assert [(pm.phrase_start, pm.phrase_end, pm.origin, pm.lower_bound)
                for pm in pms] == [(1, 9, ORIGIN_S1, hi - lo + 1)]

    def test_s2_phrases_count_below_f_and_intervals_are_distinct(self):
        # no S2 pair can equal an S1 interval, whose parse f-MEM's phrases
        # each count at least f, so S2 pairs are emitted untested
        rng, s2 = random.Random("s2-distinct"), 0
        for _ in range(1000):
            text, pattern = copies_instance(rng)
            w, p, f = rng.choice((2, 3, 4)), rng.choice((3, 4, 5)), rng.choice((1, 2, 3))
            _, parse_p, pidx = parse_pair(text, pattern, w, p)
            pms = parse_pseudo_mems(parse_p, pidx, f)
            for pm in pms:
                if pm.origin == ORIGIN_S2:
                    s2 += 1
                    ids = parse_p.symbols[pm.phrase_start - 1:pm.phrase_end]
                    assert all(pidx.count((sym,)) < f for sym in ids)
            intervals = [(pm.phrase_start, pm.phrase_end) for pm in pms]
            assert len(intervals) == len(set(intervals))
        assert s2 > 0


class TestLowerBound:
    # the bounds that emitted pseudo-MEMs carry, as safe_discard reads them
    def make(self, text, pattern, w=4, p=5):
        return parse_pair(text, pattern, w, p)

    def test_s1_inner_interval_length(self):
        rng = random.Random(131)
        text = rand_dna(rng, 800)
        pattern = rand_dna(rng, 12) + text[200:380] + rand_dna(rng, 12)
        parse_t, parse_p, pidx = self.make(text, pattern)
        pms = [pm for pm in parse_pseudo_mems(parse_p, pidx)
               if pm.origin == ORIGIN_S1]
        assert any(pm.lower_bound > 0 for pm in pms)
        for pm in pms:
            want = 0
            if pm.phrase_end - pm.phrase_start >= 2:
                lo, hi = parse_p.char_span(pm.phrase_start + 1, pm.phrase_end - 1)
                want = hi - lo + 1
            assert pm.lower_bound == want

    def test_non_s1_bound_is_zero(self):
        rng = random.Random(132)
        text = rand_dna(rng, 800)
        pattern = text[300:400] + rand_dna(rng, 200)
        parse_t, parse_p, pidx = self.make(text, pattern)
        pms = parse_pseudo_mems(parse_p, pidx)
        s2 = [pm for pm in pms if pm.origin == ORIGIN_S2]
        assert s2 and all(pm.lower_bound == 0 for pm in s2)
        parse_t, parse_p, pidx = self.make(text, text[:3])
        [whole] = parse_pseudo_mems(parse_p, pidx)
        assert (whole.origin, whole.lower_bound) == (ORIGIN_WHOLE, 0)

    def test_kebab_has_no_phrase_coordinates(self):
        rng = random.Random(133)
        text = rand_dna(rng, 800)
        pms = kebab_pseudo_mems(text[100:300] + rand_dna(rng, 50),
                                exact_kmer_filter(text, 8))
        assert pms
        assert all((pm.lower_bound, pm.phrase_start, pm.phrase_end) == (0, None, None)
                   for pm in pms)

    def test_two_phrase_s1_bound_is_zero(self):
        # a one-phrase match at either end of the pattern is clipped there
        rng = random.Random(134)
        text = rand_dna(rng, 800)
        parse_t, parse_p, pidx = self.make(text, text[100:300])
        n = len(parse_p)
        assert n > 4
        pms = _emit_parse_pms(parse_p, [Mem(1, 1, 1), Mem(n, n, 1), Mem(3, 3, 1)],
                              [(n - 2, n - 1)])
        lo, hi = parse_p.char_span(3, 3)
        assert [(pm.phrase_start, pm.phrase_end, pm.origin, pm.lower_bound)
                for pm in pms] == [(1, 2, ORIGIN_S1, 0), (2, 4, ORIGIN_S1, hi - lo + 1),
                                   (n - 2, n - 1, ORIGIN_S2, 0), (n - 1, n, ORIGIN_S1, 0)]


class TestSafeDiscard:
    def pm(self, start, length, bound):
        return PseudoMem(start, start + length - 1, ORIGIN_S1, lower_bound=bound,
                         phrase_start=1, phrase_end=3)

    def test_fewer_bounds_than_t_keeps_everything(self):
        pms = [self.pm(1, 30, 0), self.pm(31, 5, 0)]
        assert safe_discard(pms, 1) == pms

    def test_cutoff_is_tth_largest_bound(self):
        pms = [self.pm(1, 40, 35), self.pm(41, 20, 12), self.pm(61, 8, 0)]
        kept = safe_discard(pms, 1)  # cutoff 35
        assert kept == [pms[0]]
        kept = safe_discard(pms, 2)  # cutoff 12
        assert kept == [pms[0], pms[1]]
        kept = safe_discard(pms, 3)  # cutoff 0
        assert kept == pms

    def test_duplicate_bounds_count_separately(self):
        pms = [self.pm(1, 40, 30), self.pm(41, 35, 30), self.pm(76, 10, 0)]
        assert safe_discard(pms, 2) == [pms[0], pms[1]]  # cutoff is 30, not 0

    def test_nested_certificates_count_once(self):
        # a certificate whose window lies inside another's may owe its bound
        # to the same f-MEM, so only the outer one counts; windows that
        # overlap without nesting both count
        outer, inner, same_start = (self.pm(1, 40, 30), self.pm(5, 20, 18),
                                    self.pm(1, 30, 25))
        assert _cutoff([inner, outer], 2) == _cutoff([same_start, outer], 2) == 0
        assert _cutoff([outer, outer], 2) == 0  # one window, counted once
        pms = [inner, outer, self.pm(41, 10, 0)]
        assert safe_discard(pms, 2) == pms  # cutoff 0, not 18
        assert _cutoff([outer, self.pm(20, 41, 25)], 2) == 25
        assert _cutoff([outer, inner, self.pm(41, 12, 9)], 2) == 9

    def test_length_equal_to_cutoff_is_kept(self):
        pms = [self.pm(1, 30, 30), self.pm(31, 30, 0)]
        assert safe_discard(pms, 1) == pms

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            safe_discard([], 0)

    @pytest.mark.parametrize("records, w, p, pattern, s1, cutoff", [
        # S1 (19,34), bound 9, lies inside S1 (7,34), bound 16: both owe
        # their bounds to the f-MEM (8,34), so the cutoff at t = 2 is the
        # bound 3 of S1 (4,20), not 9, and the S2 window (1,7) that holds
        # the f-MEM (1,6) is kept
        ((b"GAGACAACACAACAACCGAAACGGCGCGAGC", b"GAGACAACACAACAACCCAAACGGCGCGAGC"),
         2, 4, b"CAACCGGCAACACAACAACCGAAACGGCGCGAGC",
         [(4, 20, 3), (7, 34, 16), (19, 34, 9)], 3),
        # S1 (24,50), bound 21, lies inside S1 (21,50), bound 24; the
        # cutoff is 8, so S1 (1,18) and its f-MEM (1,15) are kept
        ((b"AGGGGCGAGAAAGCACCAAGGCAGAAGGGGAGCAAACC",
          b"CGGGGCGAGAAGGCACCAAGGCAGAAGGGGAGCAAACC"),
         4, 3, b"AGAAGGCACCAAGGCCGAAGGGCAGCACCAAGGCAGAAGGGGAGCAAACC",
         [(1, 18, 8), (21, 50, 24), (24, 50, 21)], 8)],
        ids=["w2p4", "w4p3"])
    def test_nested_certificates_of_one_f_mem(self, records, w, p, pattern, s1,
                                              cutoff):
        # two records joined as build joins them; at the old cutoff, the
        # second largest bound, a top-2 f-MEM was discarded
        text = b"\0".join(records)
        _, parse_p, pidx = parse_pair(text, pattern, w, p)
        pms = parse_pseudo_mems(parse_p, pidx)
        assert [(pm.char_start, pm.char_end, pm.lower_bound) for pm in pms
                if pm.origin == ORIGIN_S1] == s1
        assert _cutoff(pms, 2) == cutoff
        want = top_t_cut(brute_force_f_mems(text, pattern), 2)
        kept = safe_discard(pms, 2)
        assert all(any(pm.char_start <= mem.start and mem.end <= pm.char_end
                       for pm in kept) for mem in want)
        got = find_long_mems(char_index(text), kept, pattern, t=2)
        assert [(m.start, m.end, m.freq) for m in got] == \
            [(m.start, m.end, m.freq) for m in want]

    def test_cutoff_on_mutated_copies(self):
        # short phrases over near-identical copies nest certificates; the
        # cutoff must still vouch for t distinct f-MEMs, so nothing of the
        # top t is discarded, the answer is the oracle's, and the search
        # never falls back to the whole pattern
        counts = cutoff_counts(random.Random("2:cutoff"), 1500)
        assert counts["nested"] > 0
        assert (counts["discarded"], counts["wrong"], counts["fallbacks"]) == \
            (0, 0, 0), counts


class TestCoarseRefine:
    def exact_phrase_filter(self, parse_t):
        return flt.PhraseCounts(seqindex.first_symbol_buckets(parse_t.symbols))

    def test_refine_reproduces_direct_with_exact_filter(self):
        rng = random.Random(137)
        for _ in range(25):
            text = rand_dna(rng, rng.randint(100, 600))
            pattern = rand_dna(rng, 10) + \
                text[rng.randrange(0, len(text) // 2):][:90] + rand_dna(rng, 10)
            f = rng.choice((1, 2))
            parse_t, parse_p, pidx = parse_pair(text, pattern)
            filt = self.exact_phrase_filter(parse_t)
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
        filt = self.exact_phrase_filter(parse_t)
        for f in (1, 2):
            coarse = coarse_sets(parse_p, filt, f)
            assert coarse.f == f
            assert list(coarse.present) == filt.at_least_many(parse_p.symbols, f)
            for hit, sym in zip(coarse.present, parse_p.symbols):
                assert hit or pidx.count((sym,)) < f

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_refine_ignores_what_the_sets_say(self, f):
        # any sets built for f, all false included, give the parse route's
        # list
        rng = random.Random(153 + f)
        text = rand_dna(rng, 500)
        pattern = text[100:200] + rand_dna(rng, 20) + text[100:160]
        _, parse_p, pidx = parse_pair(text + text[100:200], pattern, w=4, p=3)
        n = len(parse_p)
        direct = parse_pseudo_mems(parse_p, pidx, f)
        assert any(pm.origin == ORIGIN_S1 for pm in direct)
        for present in ((False,) * n, (True,) * n,
                        tuple(rng.random() < 0.5 for _ in range(n))):
            assert refine(CoarseSets(present, f), parse_p, pidx, f) == direct

    def test_mismatched_f_rejected(self):
        rng = random.Random(151)
        text = rand_dna(rng, 300)
        parse_t, parse_p, pidx = parse_pair(text, rand_dna(rng, 60))
        filt = self.exact_phrase_filter(parse_t)
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

    @staticmethod
    def spy_on_the_scan(monkeypatch, index):
        """Records, over find_long_mems calls on ``index``: the starting L
        (1 if none) and windows of each scan it makes, the finishes of
        scans started above 1, and the calls of threshold_scan through
        seqindex's own name, which only a scan calling itself would make.
        A forward ``grow_at`` after a backward growth shorter than the
        starting L can only be a finish."""
        seen = {"scans": [], "finishes": 0, "self_calls": 0}
        last = {"L": 1, "length": 0}
        grow, grow_at = index.backward.grow, index.forward.grow_at

        def entry(index, pattern, windows, *args, L=None, **kwargs):
            seen["scans"].append((L or 1, list(windows)))
            last["L"] = L or 1
            return SCAN(index, pattern, windows, *args, L=L, **kwargs)

        def self_call(*args, **kwargs):
            seen["self_calls"] += 1
            return SCAN(*args, **kwargs)

        def spy_grow(*args):
            interval = grow(*args)
            last["length"] = interval[2]
            return interval

        def spy_grow_at(*args):
            seen["finishes"] += last["length"] < last["L"]
            return grow_at(*args)

        monkeypatch.setattr(pseudomem, "threshold_scan", entry)
        monkeypatch.setattr(seqindex, "threshold_scan", self_call)
        monkeypatch.setattr(index.backward, "grow", spy_grow)
        monkeypatch.setattr(index.forward, "grow_at", spy_grow_at)
        return seen

    def test_floored_scan_over_discard_windows_equals_oracle(self, monkeypatch):
        # the top-t scan starts at the t-th best lower bound and finishes its
        # near-misses; over the windows safe_discard keeps it must return
        # the oracle's top t, with the floor above 1 and the finish taken
        # on some instances and never a fallback: one scan per call
        rng = random.Random(191)
        floored = finished = 0
        for _ in range(150):
            text, pattern, *_, f, mems, pms = _parse_instance(rng, 800, 200)
            index = char_index(text)
            seen = self.spy_on_the_scan(monkeypatch, index)
            for t in (1, 3, 10):
                got = find_long_mems(index, safe_discard(pms, t), pattern, f, t=t)
                assert [(m.start, m.end, m.freq) for m in got] == \
                    [(m.start, m.end, m.freq) for m in top_t_cut(mems, t)]
            floors = [floor for floor, _ in seen["scans"]]
            assert len(floors) == 3 and seen["self_calls"] == 0
            floored += any(floor > 1 for floor in floors)
            finished += seen["finishes"] > 0
        assert floored >= 40 and finished >= 20, (floored, finished)

    def test_inflated_bound_rescans_from_one(self, monkeypatch):
        # a floor that no f-MEM reaches: the floored scan of the kept
        # windows finds no match, so find_long_mems scans the whole pattern
        # from 1 once, and must return the oracle's top t
        rng = random.Random(193)
        for _ in range(20):
            text, pattern, *_, f, mems, pms = _parse_instance(rng, 800, 200)
            m = len(pattern)
            assert max(mem.length for mem in mems) < m
            index = char_index(text)
            seen = self.spy_on_the_scan(monkeypatch, index)
            whole = PseudoMem(1, m, ORIGIN_S1, lower_bound=m)
            for t in (1, 3):
                seen["scans"].clear()
                kept = safe_discard(pms, t)
                got = find_long_mems(index, kept, pattern, f, t=t, floor=m)
                assert [(mem.start, mem.end, mem.freq) for mem in got] == \
                    [(mem.start, mem.end, mem.freq) for mem in top_t_cut(mems, t)]
                assert [floor for floor, _ in seen["scans"]] == [m, 1]
                assert seen["scans"][1][1] == [(1, m)]
                assert seen["self_calls"] == 0
                # t copies of one window that holds every other one count
                # once: at t = 1 that bound inflates the cutoff to m, and
                # the fallback repairs it; above 1 the cutoff is 0
                seen["scans"].clear()
                kept = safe_discard([*pms, *[whole] * t], t)
                got = find_long_mems(index, kept, pattern, f, t=t)
                assert [(mem.start, mem.end, mem.freq) for mem in got] == \
                    [(mem.start, mem.end, mem.freq) for mem in top_t_cut(mems, t)]
                assert [floor for floor, _ in seen["scans"]] == \
                    ([m, 1] if t == 1 else [1])

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_kebab_runs_with_floor_k_equal_the_oracle(self, f):
        # KeBaB runs hold every f-MEM at least k long and certify nothing
        # shorter: with floor k, a top-t search scans them from k and falls
        # back to the whole pattern, and an L below k, or no flag, scans the
        # whole pattern, where f-MEMs outside the runs lie
        rng, k = random.Random(197 + f), 8
        outside = 0
        for _ in range(30):
            founder = rand_dna(rng, 150)
            text = b"".join(redrawn(rng, founder, 4) for _ in range(3))
            pattern = rand_dna(rng, 12) + redrawn(rng, founder[20:120], 3) + rand_dna(rng, 12)
            table = flt.filter_build([text], flt.TABLE_PARAMS, flt.KIND_TABLE,
                                     flt.ITEMS_KMER, k)
            runs = kebab_pseudo_mems(pattern, table, f)
            index, mems = char_index(text), brute_force_f_mems(text, pattern, f)
            outside += any(not any(run.char_start <= mem.start and mem.end <= run.char_end
                                   for run in runs) for mem in mems)
            cases = [({"t": t}, top_t_cut(mems, t)) for t in (1, 3, 20)]
            cases += [({"L": L}, [mem for mem in mems if mem.length >= L])
                      for L in (k, k + 6, k - 3, 1)]
            for flags, want in [*cases, ({}, mems)]:
                got = find_long_mems(index, runs, pattern, f, floor=k, **flags)
                assert [(mem.start, mem.end, mem.freq) for mem in got] == \
                    [(mem.start, mem.end, mem.freq) for mem in want], flags
        assert outside >= 10, outside

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
