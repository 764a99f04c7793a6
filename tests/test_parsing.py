import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsemem.errors import EmptyInputError, WindowError
from parsemem.parsing import (MinimizerParams, PhraseDictionary, RollingHasher,
                              minimizer_parse, pfp_parse)

MOD = (1 << 61) - 1


def direct_hash(chunk: bytes, base=256, mod=MOD) -> int:
    h = 0
    for c in chunk:
        h = (h * base + c) % mod
    return h


def naive_pfp_starts(text: bytes, hasher: RollingHasher) -> list[int]:
    """Phrase starts by scanning every window directly, no rolling."""
    starts = [1]
    for s in range(1, len(text) - hasher.window + 2):
        h = direct_hash(text[s - 1:s - 1 + hasher.window], hasher.base, hasher.modulus)
        if h % hasher.trigger_modulus == 0 and s > starts[-1]:
            starts.append(s)
    return starts


class TestRollWindows:
    def test_rolled_equals_direct(self):
        hasher = RollingHasher(window=2, trigger_modulus=7)
        assert hasher.roll(b"ABCD") == [
            direct_hash(b"AB"), direct_hash(b"BC"), direct_hash(b"CD")]

    def test_too_short_is_an_error(self):
        with pytest.raises(WindowError):
            RollingHasher(window=2, trigger_modulus=7).roll(b"A")

    def test_single_window(self):
        hasher = RollingHasher(window=3, trigger_modulus=7)
        assert hasher.roll(b"ACG") == [direct_hash(b"ACG")]

    @given(st.binary(min_size=6, max_size=200), st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_rolling_identity(self, text, w):
        hasher = RollingHasher(window=w, trigger_modulus=13)
        got = hasher.roll(text)
        assert got == [direct_hash(text[i:i + w]) for i in range(len(text) - w + 1)]


class TestPfpParse:
    def hasher(self, w=4, p=5):
        return RollingHasher(window=w, trigger_modulus=p)

    def test_short_text_single_phrase(self):
        parse = pfp_parse(b"ACG", self.hasher(w=8), PhraseDictionary())
        assert len(parse) == 1
        assert parse.phrase_start == (1,)
        assert parse.reconstruct() == b"ACG"

    def test_no_trigger_single_phrase(self):
        hasher = self.hasher(w=3, p=7)
        text = b"GATTACAGATT"
        assert not any(hasher.is_trigger(h) for h in hasher.roll(text))
        parse = pfp_parse(text, hasher, PhraseDictionary())
        assert len(parse) == 1

    def test_empty_text_rejected(self):
        with pytest.raises(EmptyInputError):
            pfp_parse(b"", self.hasher(), PhraseDictionary())

    def test_matches_naive_window_scan(self):
        rng = random.Random(7)
        for _ in range(60):
            w = rng.randint(2, 6)
            hasher = self.hasher(w=w, p=rng.randint(2, 9))
            text = bytes(rng.choice(b"ACGT") for _ in range(rng.randint(1, 300)))
            parse = pfp_parse(text, hasher, PhraseDictionary())
            assert list(parse.phrase_start) == naive_pfp_starts(text, hasher)
            assert parse.reconstruct() == text
            assert parse.overlap == w

    def test_offsets_and_overlap(self):
        rng = random.Random(11)
        text = bytes(rng.choice(b"ACGT") for _ in range(400))
        hasher = self.hasher(w=4, p=3)
        parse = pfp_parse(text, hasher, PhraseDictionary())
        assert len(parse) > 2
        for i in range(1, len(parse)):
            # consecutive phrases share exactly w characters
            a, b = parse.char_span(i, i), parse.char_span(i + 1, i + 1)
            assert a[1] - b[0] + 1 == hasher.window
            assert parse.phrase_bytes(i)[-hasher.window:] == \
                parse.phrase_bytes(i + 1)[:hasher.window]

    def test_context_free_inside_shared_substring(self):
        rng = random.Random(3)
        w, p = 4, 4
        hasher = self.hasher(w=w, p=p)
        for _ in range(30):
            shared = bytes(rng.choice(b"ACGT") for _ in range(rng.randint(40, 120)))
            x = bytes(rng.choice(b"ACGT") for _ in range(rng.randint(0, 30))) + shared
            y = shared + bytes(rng.choice(b"ACGT") for _ in range(rng.randint(0, 30)))
            px = pfp_parse(x, hasher, PhraseDictionary())
            py = pfp_parse(y, hasher, PhraseDictionary())
            off_x, off_y = x.index(shared), y.index(shared)

            def inner_breaks(parse, off):
                # boundaries whose trigger window lies strictly inside shared
                out = []
                for s in parse.phrase_start[1:]:
                    rel = s - off - 1  # 0-based within shared
                    if 1 <= rel and rel + w <= len(shared) - 1:
                        out.append(rel)
                return out

            assert inner_breaks(px, off_x) == inner_breaks(py, off_y)

    def test_dictionary_shared_between_strings(self):
        hasher = self.hasher(w=3, p=3)
        rng = random.Random(5)
        text = bytes(rng.choice(b"ACGT") for _ in range(300))
        pattern = text[50:150]
        d = PhraseDictionary()
        pt = pfp_parse(text, hasher, d)
        pp = pfp_parse(pattern, hasher, d)
        for i in range(1, len(pp) + 1):
            assert d.id_of(pp.phrase_bytes(i)) == pp.symbols[i - 1]
        # same contents, same IDs across both parses
        assert set(pp.symbols) & set(pt.symbols), "expected some shared phrases"

    def test_frozen_dictionary_rejects_new_phrases(self):
        d = PhraseDictionary()
        d.id_for(b"AAA")
        d.freeze()
        assert d.id_for(b"AAA") == 0
        # every unseen phrase gets the one reserved ID and nothing is stored
        assert d.id_for(b"CCC") == d.id_for(b"GGG") == 1
        assert len(d) == 1 and b"CCC" not in d


class TestCharSpan:
    def test_full_cover(self):
        rng = random.Random(2)
        text = bytes(rng.choice(b"ACGT") for _ in range(200))
        parse = pfp_parse(text, RollingHasher(window=4, trigger_modulus=3),
                          PhraseDictionary())
        assert parse.char_span(1, len(parse)) == (1, len(text))

    def test_single_phrase(self):
        parse = pfp_parse(b"ACG", RollingHasher(window=8, trigger_modulus=5),
                          PhraseDictionary())
        assert parse.char_span(1, 1) == (1, 3)

    def test_spans_match_phrase_bytes(self):
        rng = random.Random(9)
        text = bytes(rng.choice(b"ACGT") for _ in range(300))
        parse = pfp_parse(text, RollingHasher(window=3, trigger_modulus=3),
                          PhraseDictionary())
        for i in range(1, len(parse) + 1):
            lo, hi = parse.char_span(i, i)
            assert text[lo - 1:hi] == parse.phrase_bytes(i)

    def test_out_of_range(self):
        parse = pfp_parse(b"ACG", RollingHasher(window=8, trigger_modulus=5),
                          PhraseDictionary())
        with pytest.raises(IndexError):
            parse.char_span(0, 1)
        with pytest.raises(IndexError):
            parse.char_span(1, 2)


def naive_minimizer_boundaries(text: bytes, params: MinimizerParams) -> list[int]:
    """Minimizer ends by enumerating every window's minimum directly."""
    n, k, w = len(text), params.k, params.w
    ends = set()
    for s in range(n - w + 1):
        kmers = [(params.order_value(text[i:i + k]), i)
                 for i in range(s, s + w - k + 1)]
        best = min(v for v, _ in kmers)
        for v, i in kmers:
            if v == best:
                ends.add(i + k)
    return sorted(ends)


class TestMinimizerParse:
    def test_short_text_single_phrase(self):
        params = MinimizerParams(k=2, w=4)
        parse = minimizer_parse(b"ACG", params, PhraseDictionary())
        assert len(parse) == 1
        assert parse.overlap == 0

    def test_cacacgt_matches_brute_force(self):
        params = MinimizerParams(k=2, w=4)
        text = b"CACACGT"
        parse = minimizer_parse(text, params, PhraseDictionary())
        ends = naive_minimizer_boundaries(text, params)
        expected_starts = [1] + [e + 1 for e in ends if e < len(text)]
        assert list(parse.phrase_start) == expected_starts
        assert parse.reconstruct() == text

    @pytest.mark.parametrize("order", ["lex", "hash"])
    def test_matches_brute_force_random(self, order):
        rng = random.Random(13)
        for _ in range(60):
            k = rng.randint(1, 5)
            w = rng.randint(k + 1, k + 9)
            params = MinimizerParams(k=k, w=w, order=order, seed=rng.randrange(99))
            text = bytes(rng.choice(b"ACGT") for _ in range(rng.randint(w, 250)))
            parse = minimizer_parse(text, params, PhraseDictionary())
            ends = naive_minimizer_boundaries(text, params)
            expected_starts = [1] + [e + 1 for e in ends if e < len(text)]
            assert list(parse.phrase_start) == expected_starts
            assert parse.reconstruct() == text

    def test_phrase_length_bound(self):
        rng = random.Random(17)
        for _ in range(60):
            k = rng.randint(2, 5)
            w = rng.randint(k + 1, k + 10)
            params = MinimizerParams(k=k, w=w)
            text = bytes(rng.choice(b"ACGT") for _ in range(rng.randint(w, 300)))
            parse = minimizer_parse(text, params, PhraseDictionary())
            for i in range(2, len(parse) + 1):
                assert parse.phrase_length(i) <= w - k + 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MinimizerParams(k=4, w=4)
        with pytest.raises(EmptyInputError):
            minimizer_parse(b"", MinimizerParams(k=2, w=4), PhraseDictionary())


@given(st.binary(min_size=1, max_size=300), st.integers(2, 6), st.integers(2, 9))
@settings(max_examples=80, deadline=None)
def test_reconstruction_roundtrip(text, w, p):
    hasher = RollingHasher(window=w, trigger_modulus=p)
    parse = pfp_parse(text, hasher, PhraseDictionary())
    assert parse.reconstruct() == text
    starts = parse.phrase_start
    assert starts[0] == 1
    assert all(a < b for a, b in zip(starts, starts[1:]))
