import random
import zlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsemem.errors import EmptyInputError
from parsemem.parsing import (MinimizerParams, PhraseDictionary, Trigger,
                              anchor_length, choose_trigger, minimizer_parse,
                              pfp_parse)


def self_parse(text: bytes, w: int, p: int, dictionary=None):
    """The prefix-free parse of ``text`` with the trigger chosen from it."""
    return pfp_parse(text, choose_trigger(text, w, p), dictionary or PhraseDictionary())


def naive_pfp_starts(text: bytes, trigger: Trigger) -> list[int]:
    """Phrase starts by testing every complete window's last l bytes."""
    w, length, anchors = trigger.width, trigger.length, set(trigger.anchors)
    starts = [1]
    for s in range(2, len(text) - w + 2):
        if text[s - 1 + w - length:s - 1 + w] in anchors:
            starts.append(s)
    return starts


def naive_anchors(text: bytes, w: int, p: int) -> tuple[bytes, ...]:
    """The build rule spelled out: l-grams counted one offset at a time,
    tried in crc32 order, each kept while the kept total stays <= n // p."""
    sigma = len(set(text) - {0}) or 1
    length = 1
    while length < w and sigma ** length < 4 * p:
        length += 1
    counts = Counter(text[i:i + length] for i in range(len(text) - length + 1))
    kept, total = [], 0
    for gram in sorted(counts, key=lambda g: (zlib.crc32(g), g)):
        if 0 not in gram and total + counts[gram] <= len(text) // p:
            kept.append(gram)
            total += counts[gram]
    return tuple(sorted(kept))


class TestPfpParse:
    def test_short_text_single_phrase(self):
        parse = self_parse(b"ACG", 8, 5)
        assert len(parse) == 1
        assert parse.phrase_start == (1,)
        assert parse.reconstruct() == b"ACG"

    def test_no_trigger_single_phrase(self):
        text = b"GATTACAGATT"
        assert b"CC" not in text
        parse = pfp_parse(text, Trigger(3, 2, (b"CC",)), PhraseDictionary())
        assert len(parse) == 1

    def test_empty_text_rejected(self):
        with pytest.raises(EmptyInputError):
            self_parse(b"", 4, 5)

    @pytest.mark.parametrize("w, p, why", [
        (0, 5, "window width must be at least 1"),
        (4, 1, "trigger period must be at least 2")], ids=["w0", "p1"])
    def test_bad_window_or_modulus_rejected(self, w, p, why):
        with pytest.raises(ValueError, match=why):
            self_parse(b"ACGTACGT", w, p)

    @pytest.mark.parametrize("length, anchors, why", [
        (0, (), "anchor length must be in 1..window width"),
        (5, (), "anchor length must be in 1..window width"),
        (2, (b"ACG",), "not a NUL-free l-gram"),
        (2, (b"A\0",), "not a NUL-free l-gram"),
        (2, (b"CA", b"AC"), "anchors do not strictly increase")],
        ids=["l0", "l_above_w", "wrong_length", "nul", "unsorted"])
    def test_bad_trigger_rejected(self, length, anchors, why):
        with pytest.raises(ValueError, match=why):
            Trigger(4, length, anchors)

    def test_matches_naive_window_scan(self):
        # w from 1, alphabets of two letters (anchors overlap themselves and
        # each other) up to every byte but NUL, texts no longer than the
        # window (at most one window and so one phrase), the pattern parsed
        # with the text's trigger, and last 100 kb over 200 bytes at p = 60:
        # l = 2 and hundreds of anchors
        rng = random.Random(7)
        cases = [(rng.randint(1, 12), rng.randint(2, 9),
                  rng.choice((b"AC", b"ACGT", bytes(range(1, 256)))), None)
                 for _ in range(240)]
        cases.append((10, 60, bytes(range(1, 201)), 100_000))
        overlapped = 0  # triggers less than l apart: their anchors overlap
        for w, p, alphabet, n in cases:
            n = n or rng.choice((rng.randint(1, w), rng.randint(1, 300)))
            text = bytes(rng.choice(alphabet) for _ in range(n))
            pattern = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 200)))
            trigger = choose_trigger(text, w, p)
            if n == 100_000:
                assert trigger.length == 2 and len(trigger.anchors) > 500
            assert trigger.anchors == naive_anchors(text, w, p)
            for seq in (text, pattern):
                parse = pfp_parse(seq, trigger, PhraseDictionary())
                assert list(parse.phrase_start) == naive_pfp_starts(seq, trigger)
                assert parse.reconstruct() == seq
                assert parse.overlap == w
                overlapped += any(b - a < trigger.length for a, b in
                                  zip(parse.phrase_start[1:], parse.phrase_start[2:]))
        assert overlapped

    @pytest.mark.parametrize("alphabet", [b"ACGT", b"ACDEFGHIKLMNPQRSTVWY"],
                             ids=["dna", "protein"])
    def test_phrase_counts_follow_p(self, alphabet):
        # about one phrase per p characters, over a grid of p at w = 10
        rng = random.Random(len(alphabet))
        text = bytes(rng.choice(alphabet) for _ in range(100_000))
        for p in (4, 8, 16, 50, 64, 128):
            phrases = len(self_parse(text, 10, p))
            assert abs(phrases - len(text) / p) <= 0.15 * len(text) / p, (p, phrases)

    def test_anchor_length(self):
        assert anchor_length(4, 50, 10) == 4  # DNA: 4**4 >= 200
        assert anchor_length(20, 50, 10) == 2  # protein: 20**2 >= 200
        assert anchor_length(4, 50, 3) == 3  # at most w
        assert anchor_length(1, 50, 10) == 10  # one symbol: never 4p

    def test_one_symbol_text_is_one_phrase(self):
        # its one l-gram is more than n / p of the text: no anchors
        parse = self_parse(b"A" * 5000, 10, 50)
        assert choose_trigger(b"A" * 5000, 10, 50).anchors == ()
        assert len(parse) == 1 and parse.reconstruct() == b"A" * 5000

    def test_no_anchor_holds_nul(self):
        # NUL joins records and no pattern holds it
        rng = random.Random(4)
        records = [bytes(rng.choice(b"AC") for _ in range(6)) for _ in range(400)]
        trigger = choose_trigger(b"\0".join(records), 4, 4)
        assert trigger.length == 4 and trigger.anchors
        assert not any(0 in a for a in trigger.anchors)
        # records of three: every 4-gram spans a join, so no anchors at all
        records = [record[:3] for record in records]
        assert choose_trigger(b"\0".join(records), 4, 4).anchors == ()

    def test_offsets_and_overlap(self):
        rng = random.Random(11)
        text = bytes(rng.choice(b"ACGT") for _ in range(400))
        w = 4
        parse = self_parse(text, w, 3)
        assert len(parse) > 2
        for i in range(1, len(parse)):
            # consecutive phrases share exactly w characters
            a, b = parse.char_span(i, i), parse.char_span(i + 1, i + 1)
            assert a[1] - b[0] + 1 == w
            assert parse.phrase_bytes(i)[-w:] == parse.phrase_bytes(i + 1)[:w]

    def test_context_free_inside_shared_substring(self):
        rng = random.Random(3)
        w, p = 4, 4
        for _ in range(30):
            shared = bytes(rng.choice(b"ACGT") for _ in range(rng.randint(40, 120)))
            x = bytes(rng.choice(b"ACGT") for _ in range(rng.randint(0, 30))) + shared
            y = shared + bytes(rng.choice(b"ACGT") for _ in range(rng.randint(0, 30)))
            trigger = choose_trigger(x, w, p)  # y is parsed as a pattern of x
            px = pfp_parse(x, trigger, PhraseDictionary())
            py = pfp_parse(y, trigger, PhraseDictionary())
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
        rng = random.Random(5)
        text = bytes(rng.choice(b"ACGT") for _ in range(300))
        pattern = text[50:150]
        d, trigger = PhraseDictionary(), choose_trigger(text, 3, 3)
        pt = pfp_parse(text, trigger, d)
        pp = pfp_parse(pattern, trigger, d)
        phrases = [pp.phrase_bytes(i) for i in range(1, len(pp) + 1)]
        assert d.ids_for(phrases) == pp.symbols
        # same contents, same IDs across both parses
        assert set(pp.symbols) & set(pt.symbols), "expected some shared phrases"

    def test_frozen_dictionary_rejects_new_phrases(self):
        d = PhraseDictionary()
        assert d.ids_for([b"AAA", b"CC", b"AAA"]) == (0, 1, 0)
        d.freeze()
        # every unseen phrase gets the one reserved ID and nothing is stored
        assert d.ids_for([b"AAA", b"GGG", b"CC", b"TTT"]) == (0, 2, 1, 2)
        assert [d.string_of(i) for i in range(len(d))] == [b"AAA", b"CC"]


class TestCharSpan:
    def test_full_cover(self):
        rng = random.Random(2)
        text = bytes(rng.choice(b"ACGT") for _ in range(200))
        parse = self_parse(text, 4, 3)
        assert parse.char_span(1, len(parse)) == (1, len(text))

    def test_single_phrase(self):
        parse = self_parse(b"ACG", 8, 5)
        assert parse.char_span(1, 1) == (1, 3)

    def test_spans_match_phrase_bytes(self):
        rng = random.Random(9)
        text = bytes(rng.choice(b"ACGT") for _ in range(300))
        parse = self_parse(text, 3, 3)
        for i in range(1, len(parse) + 1):
            lo, hi = parse.char_span(i, i)
            assert text[lo - 1:hi] == parse.phrase_bytes(i)

    def test_out_of_range(self):
        parse = self_parse(b"ACG", 8, 5)
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
    parse = self_parse(text, w, p)
    assert parse.reconstruct() == text
    starts = parse.phrase_start
    assert starts[0] == 1
    assert all(a < b for a, b in zip(starts, starts[1:]))
