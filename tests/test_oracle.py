import random

import pytest

from parsemem.errors import EmptyInputError
from parsemem.oracle import brute_force_count, brute_force_f_mems


def definitional_f_mems(text: str, pattern: str, f: int):
    """Third opinion: test every substring of P directly against the definition."""
    m = len(pattern)

    def count(s: str) -> int:
        n = 0
        pos = text.find(s)
        while pos >= 0:
            n += 1
            pos = text.find(s, pos + 1)
        return n

    out = []
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            if count(pattern[i - 1:j]) < f:
                continue
            if i > 1 and count(pattern[i - 2:j]) >= f:
                continue
            if j < m and count(pattern[i - 1:j + 1]) >= f:
                continue
            out.append((i, j))
    return out


class TestCount:
    def test_overlaps(self):
        assert brute_force_count(b"BANANA", b"ANA") == 2
        assert brute_force_count(b"AAAA", b"AA") == 3

    def test_absent(self):
        assert brute_force_count(b"BANANA", b"Q") == 0

    def test_query_longer_than_text(self):
        assert brute_force_count(b"AB", b"ABC") == 0

    def test_query_equals_text(self):
        assert brute_force_count(b"BANANA", b"BANANA") == 1

    def test_empty_query_rejected(self):
        with pytest.raises(EmptyInputError):
            brute_force_count(b"BANANA", b"")

    def test_accepts_strings_and_symbol_tuples(self):
        assert brute_force_count("BANANA", "NA") == 2
        assert brute_force_count((5, 6, 5, 6), (5, 6)) == 2


class TestFMems:
    def test_banana_anas(self):
        mems = brute_force_f_mems(b"BANANA", b"ANAS")
        assert [(m.start, m.end, m.freq) for m in mems] == [(1, 3, 2)]

    def test_pattern_is_text(self):
        mems = brute_force_f_mems(b"BANANA", b"BANANA")
        assert [(m.start, m.end) for m in mems] == [(1, 6)]

    def test_f_above_max_occurrences(self):
        assert brute_force_f_mems(b"BANANA", b"ANA", f=10) == []

    def test_singleton_symbols(self):
        mems = brute_force_f_mems(b"ABC", b"CAB")
        # C cannot extend right (CA is absent); A alone extends into AB
        assert [(m.start, m.end) for m in mems] == [(1, 1), (2, 3)]

    def test_invalid_arguments(self):
        with pytest.raises(EmptyInputError):
            brute_force_f_mems(b"BANANA", b"")
        with pytest.raises(ValueError):
            brute_force_f_mems(b"BANANA", b"A", f=0)

    def test_agrees_with_definitional_scan(self):
        rng = random.Random(83)
        for _ in range(60):
            text = "".join(rng.choice("AC") for _ in range(rng.randint(3, 60)))
            pattern = "".join(rng.choice("AC") for _ in range(rng.randint(1, 15)))
            f = rng.choice((1, 2, 3))
            got = [(m.start, m.end) for m in brute_force_f_mems(text, pattern, f)]
            assert got == definitional_f_mems(text, pattern, f)

    def test_freq_matches_count(self):
        rng = random.Random(89)
        text = bytes(rng.choice(b"ACG") for _ in range(200))
        pattern = text[30:60]
        for mem in brute_force_f_mems(text, pattern, 2):
            sub = pattern[mem.start - 1:mem.end]
            assert mem.freq == brute_force_count(text, sub)
            assert mem.freq >= 2


class TestParseLevel:
    def test_identical_parses(self):
        seq = (3, 1, 4, 1, 5)
        mems = brute_force_f_mems(seq, seq)
        assert [(m.start, m.end) for m in mems] == [(1, 5)]

    def test_disjoint_alphabets(self):
        assert brute_force_f_mems((1, 2, 3), (7, 8, 9)) == []

    def test_same_as_char_level_logic(self):
        rng = random.Random(97)
        for _ in range(30):
            t = tuple(rng.randrange(1000, 1005) for _ in range(rng.randint(5, 60)))
            p = tuple(rng.randrange(1000, 1005) for _ in range(rng.randint(1, 15)))
            got = [(m.start, m.end) for m in brute_force_f_mems(t, p, 2)]
            text = "".join(map(chr, t))
            pattern = "".join(map(chr, p))
            assert got == definitional_f_mems(text, pattern, 2)

