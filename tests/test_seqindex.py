import random

import pytest

from parsemem.errors import EmptyInputError
from parsemem.oracle import brute_force_count, brute_force_f_mems, top_t_cut
from parsemem.seqindex import (Mem, OccurrenceIndex, bml_mems, bml_top_t,
                               find_f_mems)


def index_of(text: bytes) -> OccurrenceIndex:
    return OccurrenceIndex(text)


def intervals(mems):
    return [(m.start, m.end) for m in mems]


class TestCount:
    def setup_method(self):
        self.banana = index_of(b"BANANA")

    def test_overlapping_occurrences(self):
        assert self.banana.count(b"ANA") == 2

    def test_nan(self):
        assert self.banana.count(b"NAN") == 1

    def test_absent_symbol(self):
        assert self.banana.count(b"X") == 0

    def test_whole_text(self):
        assert self.banana.count(b"BANANA") == 1
        assert self.banana.count(b"BANANAS") == 0

    def test_empty_query_rejected(self):
        with pytest.raises(EmptyInputError):
            self.banana.count(b"")

    def test_counter_increments(self):
        before = self.banana.steps
        self.banana.count(b"ANA")
        assert self.banana.steps - before == 3

    def test_matches_oracle(self):
        rng = random.Random(21)
        text = bytes(rng.choice(b"ACGT") for _ in range(500))
        index = index_of(text)
        for _ in range(200):
            qlen = rng.randint(1, 12)
            s = rng.randrange(0, len(text) - qlen)
            q = text[s:s + qlen] if rng.random() < 0.7 else \
                bytes(rng.choice(b"ACGT") for _ in range(qlen))
            assert index.count(q) == brute_force_count(text, q)


class TestFindFMems:
    def test_banana_anas(self):
        index = index_of(b"BANANA")
        assert intervals(find_f_mems(index, b"ANAS")) == [(1, 3)]
        assert intervals(find_f_mems(index, b"ANAS", f=2)) == [(1, 3)]

    def test_disjoint_alphabets(self):
        index = index_of(b"BANANA")
        assert find_f_mems(index, b"XYZ") == []

    def test_pattern_equals_text(self):
        mems = find_f_mems(index_of(b"BANANA"), b"BANANA")
        assert intervals(mems) == [(1, 6)]
        assert mems[0].freq == 1

    def test_freqs_are_exact(self):
        index = index_of(b"BANANA")
        (mem,) = find_f_mems(index, b"ANAS", f=2)
        assert mem.freq == 2

    def test_invalid_arguments(self):
        index = index_of(b"BANANA")
        with pytest.raises(EmptyInputError):
            find_f_mems(index, b"")
        with pytest.raises(ValueError):
            find_f_mems(index, b"A", f=0)

    def test_matches_oracle_random(self):
        rng = random.Random(31)
        for _ in range(80):
            text = bytes(rng.choice(b"ACG") for _ in range(rng.randint(5, 300)))
            pattern = bytes(rng.choice(b"ACG") for _ in range(rng.randint(1, 60)))
            f = rng.choice((1, 2, 3))
            got = find_f_mems(index_of(text), pattern, f)
            want = brute_force_f_mems(text, pattern, f)
            assert [(m.start, m.end, m.freq) for m in got] == \
                   [(m.start, m.end, m.freq) for m in want]

    def test_staircase(self):
        rng = random.Random(41)
        text = bytes(rng.choice(b"ACGT") for _ in range(400))
        pattern = text[100:180] + bytes(rng.choice(b"ACGT") for _ in range(40))
        mems = find_f_mems(index_of(text), pattern, 1)
        starts = [m.start for m in mems]
        ends = [m.end for m in mems]
        assert starts == sorted(set(starts))
        assert ends == sorted(set(ends))

    def test_threshold_nesting(self):
        # every (f+1)-MEM interval sits inside some f-MEM
        rng = random.Random(43)
        for _ in range(30):
            text = bytes(rng.choice(b"AC") for _ in range(rng.randint(20, 200)))
            pattern = bytes(rng.choice(b"AC") for _ in range(rng.randint(5, 40)))
            index = index_of(text)
            for f in (1, 2):
                outer = find_f_mems(index, pattern, f)
                for m in find_f_mems(index, pattern, f + 1):
                    assert any(o.start <= m.start and m.end <= o.end
                               for o in outer)

    def test_generic_integer_alphabet(self):
        rng = random.Random(47)
        syms = tuple(rng.randrange(1000, 1010) for _ in range(200))
        pat = syms[40:70] + tuple(rng.randrange(1000, 1010) for _ in range(10))
        index = OccurrenceIndex(syms)
        got = find_f_mems(index, pat, 1)
        want = brute_force_f_mems(syms, pat, 1)
        assert intervals(got) == intervals(want)


class TestBml:
    def test_length_filter_examples(self):
        index = index_of(b"BANANA")
        assert bml_mems(index, b"ANAS", L=4) == []
        assert intervals(bml_mems(index, b"ANAS", L=3)) == [(1, 3)]

    def test_l_one_equals_find(self):
        rng = random.Random(53)
        for _ in range(50):
            text = bytes(rng.choice(b"ACGT") for _ in range(rng.randint(10, 300)))
            pattern = text[: rng.randint(1, min(60, len(text)))] \
                if rng.random() < 0.5 else \
                bytes(rng.choice(b"ACGT") for _ in range(rng.randint(1, 60)))
            f = rng.choice((1, 2))
            index = index_of(text)
            assert intervals(bml_mems(index, pattern, 1, f)) == \
                intervals(brute_force_f_mems(text, pattern, f))

    def test_exactly_the_long_ones(self):
        rng = random.Random(59)
        for _ in range(40):
            text = bytes(rng.choice(b"ACGT") for _ in range(300))
            pattern = text[50:110] + bytes(rng.choice(b"ACGT") for _ in range(30))
            index = index_of(text)
            all_mems = find_f_mems(index, pattern)
            for L in (2, 5, 12, 40):
                assert intervals(bml_mems(index, pattern, L)) == \
                    intervals([m for m in all_mems if m.length >= L])

    def test_top_t_lengths(self):
        rng = random.Random(61)
        for _ in range(40):
            text = bytes(rng.choice(b"ACGT") for _ in range(300))
            pattern = text[20:60] + bytes(rng.choice(b"ACGT") for _ in range(50))
            index = index_of(text)
            all_mems = find_f_mems(index, pattern)
            for t in (1, 2, 5):
                assert intervals(bml_top_t(index, pattern, t)) == \
                    intervals(top_t_cut(all_mems, t))

    def test_top_t_large_t_is_complete(self):
        rng = random.Random(67)
        text = bytes(rng.choice(b"ACGT") for _ in range(300))
        pattern = text[10:50] + bytes(rng.choice(b"ACGT") for _ in range(30))
        index = index_of(text)
        assert intervals(bml_top_t(index, pattern, t=10 ** 6)) == \
            intervals(find_f_mems(index, pattern))

    def test_invalid_arguments(self):
        index = index_of(b"BANANA")
        with pytest.raises(ValueError):
            bml_mems(index, b"ANA", L=0)
        with pytest.raises(ValueError):
            bml_top_t(index, b"ANA", t=0)
        with pytest.raises(EmptyInputError):
            bml_mems(index, b"", L=1)


def test_empty_sequence_not_indexable():
    with pytest.raises(EmptyInputError):
        OccurrenceIndex(b"")


def test_mem_length():
    assert Mem(start=3, end=7, freq=2).length == 5
