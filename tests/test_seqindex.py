import random
from bisect import bisect_left, bisect_right
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsemem import seqindex
from parsemem.errors import EmptyInputError
from parsemem.oracle import brute_force_count, brute_force_f_mems, top_t_cut
from parsemem.parsing import PhraseDictionary, Trigger, choose_trigger, pfp_parse
from parsemem.seqindex import (NARROW, Mem, OccurrenceIndex, _agreement,
                               _build_suffix_array, bml_mems, bml_top_t,
                               find_f_mems, parse_suffix_array, prefix_depth,
                               threshold_scan)


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

    @pytest.mark.parametrize("seq", [
        b"A", b"ACGT\0ACGT", tuple(b"A" * 40), (300, 7, 300, 70000, 7)])
    def test_query_longer_than_text(self, seq):
        index = OccurrenceIndex(seq)
        whole = tuple(seq)
        assert index.count(whole) == 1
        for extra in (whole[:1], whole[-1:], (1 << 20,), whole):
            assert index.count(whole + extra) == 0
            assert index.count(extra + whole) == 0

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


def recurring_words(seed: int) -> bytes:
    """Words of 20 to 40 DNA symbols recurring between runs of 3 random ones:
    suffixes that agree for fewer symbols than a seed key holds, and more."""
    rng = random.Random(seed)
    words = [bytes(rng.choices(b"ACGT", k=n)) for n in (20, 24, 28, 40)]
    return b"".join(rng.choice(words) + bytes(rng.choices(b"ACGT", k=3))
                    for _ in range(60))


# Tuples start from one symbol; bytes from a seed key of their first
# seqindex.SEED_BYTES bytes, 32 symbols under 16 distinct ones, else 16.
SEQUENCES = pytest.mark.parametrize("seq", [
    tuple(random.Random(191).choices(b"ACGT\0", k=2000)),
    tuple(b"A" * 300),  # every round ties: the most doubling rounds
    (7,),
    tuple(random.Random(193).choices((3, 256, 70000, 1 << 33), k=500)),
    bytes(random.Random(191).choices(b"ACGT\0", k=2000)),
    b"A" * 300,  # every seed key ties
    # lengths around the 32-symbol seed, periodic so that keys tie
    *((b"ACA" * 22)[:n] for n in (1, 31, 32, 33, 65)),
    # 16 byte values, the fewest for 8-bit ranks, 0 and 255 among them:
    # 16-symbol keys; the piece twice, so that ties outlast the seed
    bytes(random.Random(197).choices(bytes([0, 255, *range(100, 114)]), k=250)) * 2,
    bytes(range(256)) * 2,  # every byte value: no seed, one symbol
    recurring_words(199),
], ids=["bytes-with-nul", "A300", "n1", "phrase-ids", "real-bytes-with-nul",
        "real-A300", "real-n1", "real-n31", "real-n32", "real-n33", "real-n65",
        "real-wide", "real-all-256", "real-words"])


@SEQUENCES
def test_suffix_array_sorts_suffixes(seq):
    n = len(seq)
    assert _build_suffix_array(seq) == sorted(range(n), key=lambda i: seq[i:])


@given(st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=4),
       st.lists(st.integers(0, 3), max_size=16), st.integers(1, 24))
@settings(max_examples=300, deadline=None)
def test_suffix_array_of_any_bytes(words, picks, sigma):
    # words of up to 40 bytes, strung together, repeat across the seed's
    # length; sigma from 1 to 24 values, 0 among them, takes both seed widths
    seq = bytes(b % sigma for b in b"".join(words[i % len(words)] for i in picks))
    assert _build_suffix_array(seq) == sorted(range(len(seq)), key=lambda i: seq[i:])


@SEQUENCES
def test_suffix_array_keys_slice_by_slice(seq, monkeypatch):
    # slices of 3 ranks: k and the slices' edges cross in every way
    monkeypatch.setattr(seqindex, "_KEY_SLICE", 3)
    n = len(seq)
    assert _build_suffix_array(seq) == sorted(range(n), key=lambda i: seq[i:])


def assert_sorted_from_the_parse(text, trigger):
    """Both of the text's arrays, built from its parse at any phrase total,
    sort its suffixes: the text's under ``trigger``, the reverse's under
    ``trigger.reversed()``."""
    for seq, trig in ((text, trigger), (text[::-1], trigger.reversed())):
        parse = pfp_parse(seq, trig, PhraseDictionary())
        assert parse_suffix_array(parse, most=float("inf")) == sorted(
            range(len(seq)), key=lambda i: seq[i:])


@st.composite
def copies_and_trigger(draw):
    """1-5 copies of a founder of up to 80 symbols over 2, 4 or 40 values,
    up to 3 positions of each redrawn, joined by NUL; and the trigger
    ``choose_trigger`` picks for them at w in 1..6 and p in 2..8."""
    symbol = st.sampled_from(draw(st.sampled_from((b"AC", b"ACGT", bytes(range(1, 41))))))
    founder = draw(st.lists(symbol, min_size=1, max_size=80))
    copies = []
    for _ in range(draw(st.integers(1, 5))):
        copy = list(founder)
        for i, sym in draw(st.lists(st.tuples(st.integers(0, len(founder) - 1), symbol),
                                    max_size=3)):
            copy[i] = sym
        copies.append(bytes(copy))
    text = b"\0".join(copies)
    return text, choose_trigger(text, draw(st.integers(1, 6)), draw(st.integers(2, 8)))


@given(copies_and_trigger())
@settings(max_examples=300, deadline=None)
def test_suffix_array_from_the_parse(case):
    assert_sorted_from_the_parse(*case)


# Each text's phrase starts (1-based) and w show the edge it is named for.
@pytest.mark.parametrize("text, trigger, shape", [
    (b"ACGTTGCAACGT", Trigger(3, 2, ()), lambda text, starts, w: starts == [1]),
    (b"CCAGTCCAGT", Trigger(3, 2, (b"GT",)),
     lambda text, starts, w: starts == [1, 3, len(text) - w + 1]),
    (b"ACG", Trigger(5, 2, (b"CG",)), lambda text, starts, w: len(text) < w),
    # phrases AAGT, GTACCGT and GTA: the last one's suffixes GTA, TA and A
    # begin the tails GTACCGT, TACCGT and ACCGT
    (b"AAGTACCGTA", Trigger(2, 2, (b"GT",)), lambda text, starts, w: starts == [1, 3, 8]),
    # D holds every phrase's bytes, so all 256 values: the seed ranks none
    (bytes(range(256)) * 2, Trigger(2, 1, (b"\x80",)),
     lambda text, starts, w: starts == [1, 128, 384] and seqindex._seed_order(text) is None),
], ids=["no-anchors", "window-at-the-end", "shorter-than-w", "last-phrase-begins-tails",
        "all-256-bytes"])
def test_suffix_array_from_the_parse_at_the_edges(text, trigger, shape):
    assert shape(text, trigger.phrase_starts(text), trigger.width)
    assert_sorted_from_the_parse(text, trigger)


def test_suffix_array_from_the_parse_takes_its_phrases_alone():
    # a dictionary that also holds another string's phrases would put them
    # among the text's in D, so it is refused
    trigger = Trigger(2, 1, (b"G",))
    dictionary = PhraseDictionary()
    pfp_parse(b"TTGAAGT", trigger, dictionary)
    parse = pfp_parse(b"ACGTACGTTA", trigger, dictionary)
    with pytest.raises(ValueError):
        parse_suffix_array(parse)


def test_index_sorts_from_the_parse_where_phrases_repeat():
    # 8 copies of 400 bp, one symbol redrawn in each, share most phrases and
    # sort from the parse; the founder alone is all distinct phrases and
    # keeps the doubling, as does an index given no trigger
    rng = random.Random(211)
    founder = bytes(rng.choices(b"ACGT", k=400))
    copies = b"\0".join(founder[:i] + b"T" + founder[i + 1:] for i in range(0, 400, 50))
    for text, route in ((copies, "parse"), (founder, "doubling")):
        trigger = choose_trigger(text, 10, 20)
        index = OccurrenceIndex(text, parse=pfp_parse(text, trigger, PhraseDictionary()),
                                trigger=trigger)
        assert (index.forward.built_by, index.backward.built_by) == (route, route)
        for view, seq in ((index.forward, text), (index.backward, text[::-1])):
            assert list(view.sa) == sorted(range(len(seq)), key=lambda i: seq[i:])
    assert OccurrenceIndex(copies).forward.built_by == "doubling"


# On A^40 the suffix of length l sits at row l - 1, so the match A^d has the
# rows d-1..39: 41 - d of them, at most NARROW = 16 from d = 25 on.  The Cs
# before pos are not in the text, so a growth that read them would stop.
# NARROW picks only threshold_scan's finish, so patching it moves nothing in
# grow: the two passes run one path and must agree to the step.
@pytest.mark.parametrize("query, pos, limit, f, want", [
    (b"A" * 50, 0, 50, 1, (39, 40, 40, 41)),
    (b"A" * 50, 0, 50, 3, (37, 40, 38, 39)),
    (b"A" * 10, 0, 10, 1, (9, 40, 10, 10)),
    (b"A" * 30 + b"C", 0, 31, 1, (29, 40, 30, 31)),
    (b"C" * 10 + b"A" * 30, 10, 30, 1, (29, 40, 30, 30)),
    (b"C" * 10 + b"A" * 45, 10, 45, 2, (38, 40, 39, 40)),
    (b"A" * 5, 0, 5, 41, (0, 40, 0, 1)),
], ids=["past-the-text", "f3", "wide-only", "mismatch", "mid-match", "mid-match-f2",
        "too-few-rows"])
def test_grow_counts_the_same_steps_on_both_paths(monkeypatch, query, pos, limit,
                                                  f, want):
    # (lo, hi, grown, steps): one step per symbol grown plus the failing one
    for narrow in (NARROW, 0):
        monkeypatch.setattr(seqindex, "NARROW", narrow)
        view = OccurrenceIndex(b"A" * 40).forward
        lo, hi, grown = view.grow(query, pos, limit, f)
        assert (lo, hi, grown, view.steps) == want


def mutated_copies(rng, symbols, founder_len, copies):
    """A random founder, and a text of ``copies`` copies of it with two
    substitutions each, joined by 0 as records are."""
    founder = [rng.choice(symbols) for _ in range(founder_len)]
    text = []
    for _ in range(copies):
        copy = list(founder)
        for i in rng.sample(range(founder_len), 2):
            copy[i] = rng.choice(symbols)
        text += copy + [0]
    return founder, text[:-1]


def cut_windows(rng, m):
    """Disjoint windows of 1..m, some touching, whose edges cut matches."""
    cuts = sorted(rng.sample(range(1, m), min(m - 1, rng.randint(0, 4))))
    spans = list(zip([1] + [c + 1 for c in cuts], cuts + [m]))
    kept = [span for span in spans if rng.random() < 0.7] or spans[:1]
    rng.shuffle(kept)
    return kept


def scan_both_paths(monkeypatch, index, pattern, windows, f, L, t):
    """The scan's matches and steps as it is, then with NARROW at 0."""
    runs = []
    for narrow in (NARROW, 0):
        monkeypatch.setattr(seqindex, "NARROW", narrow)
        before = index.steps
        mems = threshold_scan(index, pattern, windows, f, L=L, t=t)
        runs.append(([(m.start, m.end, m.freq) for m in mems],
                     index.steps - before))
    return runs


@pytest.mark.parametrize("copies", [1, 15, 16, 17, 48])
@pytest.mark.parametrize("kind", ["bytes", "phrase-ids"])
def test_direct_comparison_equals_binary_search_and_oracle(monkeypatch, kind,
                                                           copies):
    rng = random.Random(f"{kind}{copies}")
    symbols = b"ACGT" if kind == "bytes" else (256, 300, 4097, 70000)
    founder, text = mutated_copies(rng, symbols, 60, copies)
    text = bytes(text) if kind == "bytes" else tuple(text)
    index = OccurrenceIndex(text)
    saved = 0
    for _ in range(12):
        a, b = sorted(rng.sample(range(60), 2))
        pattern = founder[a:] + [rng.choice(symbols)] + founder[:b]
        pattern[rng.randrange(len(pattern))] = rng.choice(symbols)
        pattern = bytes(pattern) if kind == "bytes" else tuple(pattern)
        m = len(pattern)
        windows = [(1, m)] if rng.random() < 0.3 else cut_windows(rng, m)
        for f in (1, 2, 16, 17):
            inside = [mem for mem in brute_force_f_mems(text, pattern, f)
                      if any(lo <= mem.start and mem.end <= hi
                             for lo, hi in windows)]
            L, t = rng.randint(1, 30), rng.randint(1, 4)
            for scan, want in (((None, None), inside),
                               ((L, None), [m for m in inside if m.length >= L]),
                               ((None, t), top_t_cut(inside, t)),
                               ((L, t), top_t_cut([m for m in inside if m.length >= L], t))):
                (got, steps), (binary, binary_steps) = scan_both_paths(
                    monkeypatch, index, pattern, windows, f, *scan)
                assert got == binary == [(m.start, m.end, m.freq) for m in want]
                assert steps <= binary_steps
                saved += binary_steps - steps
    assert saved > 0  # the direct path ran and dropped re-walks


@pytest.mark.parametrize("copies", [1, 4, 16])
def test_floored_top_t_equals_oracle_at_any_floor(copies):
    # a top-t scan given a floor as L returns the t longest matches inside
    # the windows among those at least L long, or all of those if fewer
    # than t reach it: a floor at or below the t-th longest match's length
    # finishes near-misses from the first candidate, whose matches may
    # reach either edge of a window that cuts them, and a floor above it
    # leaves it short of t matches
    rng = random.Random(f"floor{copies}")
    founder, text = mutated_copies(rng, b"ACGT", 60, copies)
    text = bytes(text)
    index = OccurrenceIndex(text)
    for _ in range(40):
        a, b = sorted(rng.sample(range(60), 2))
        pattern = founder[a:] + [rng.choice(b"ACGT")] + founder[:b]
        pattern[rng.randrange(len(pattern))] = rng.choice(b"ACGT")
        pattern = bytes(pattern)
        m = len(pattern)
        windows = cut_windows(rng, m)
        for f in (1, 2, 3):
            inside = [mem for mem in brute_force_f_mems(text, pattern, f)
                      if any(lo <= mem.start and mem.end <= hi
                             for lo, hi in windows)]
            for t in (1, 3):
                tth = min((mem.length for mem in top_t_cut(inside, t)), default=1)
                for floor in {2, tth - 2, tth - 1, tth, tth + 1, rng.randint(2, m)}:
                    floor = max(floor, 1)
                    want = top_t_cut([mem for mem in inside if mem.length >= floor], t)
                    got = threshold_scan(index, pattern, windows, f, L=floor, t=t)
                    assert [(mem.start, mem.end, mem.freq) for mem in got] == \
                        [(mem.start, mem.end, mem.freq) for mem in want]


def spy_on_finishes(monkeypatch, index, L, t):
    """Counts the near-miss finishes of scans on ``index`` started at ``L``
    with ``t``, by path: a forward growth after a backward growth shorter
    than the threshold, which the spy follows from L and the matches the
    scan records.  A near-miss starts inside its window, so its re-walk
    makes no left-edge count."""
    finishes = {"narrow": 0, "wide": 0}
    lengths, last = [], {"length": None}
    grow, fwd_grow, grow_at = (index.backward.grow, index.forward.grow,
                               index.forward.grow_at)

    def threshold():
        return lengths[t - 1] if t and len(lengths) >= t else L or 1

    def record(**fields):
        mem = Mem(**fields)
        lengths.append(mem.length)
        lengths.sort(reverse=True)
        return mem

    def spy_grow(*args):
        interval = grow(*args)
        last["length"] = interval[2]
        return interval

    def spy_forward(path, call):
        def spy(*args):
            if last["length"] is not None and last["length"] < threshold():
                finishes[path] += 1
            last["length"] = None
            return call(*args)
        return spy

    monkeypatch.setattr(seqindex, "Mem", record)
    monkeypatch.setattr(index.backward, "grow", spy_grow)
    monkeypatch.setattr(index.forward, "grow_at", spy_forward("narrow", grow_at))
    monkeypatch.setattr(index.forward, "grow", spy_forward("wide", fwd_grow))
    return finishes, lengths


@pytest.mark.parametrize("copies, path", [(4, "narrow"), (48, "wide")])
def test_unfloored_scan_finishes_near_misses(monkeypatch, copies, path):
    # exact's scan, from L or, with t alone, from 1, finishes near-misses
    # too: from their occurrences when at most NARROW rows are left, and by
    # the forward re-walk when 48 copies leave more; either way it must
    # return the oracle's rows
    rng = random.Random(f"near{copies}")
    founder, text = mutated_copies(rng, b"ACGT", 200, copies)
    text = bytes(text)
    index = OccurrenceIndex(text)
    taken = 0
    for _ in range(15):
        a = rng.randrange(100)
        pattern = bytearray(founder[a:a + 100])
        for i in rng.sample(range(100), 3):
            pattern[i] = rng.choice(b"ACGT")
        pattern = bytes(pattern)
        mems = brute_force_f_mems(text, pattern, 1)
        L = rng.randint(10, 40)
        for scan, want in (((None, 1), top_t_cut(mems, 1)),
                           ((None, 3), top_t_cut(mems, 3)),
                           ((L, None), [m for m in mems if m.length >= L])):
            finishes, lengths = spy_on_finishes(monkeypatch, index, *scan)
            got = threshold_scan(index, pattern, [(1, len(pattern))], 1,
                                 L=scan[0], t=scan[1])
            assert [(m.start, m.end, m.freq) for m in got] == \
                [(m.start, m.end, m.freq) for m in want]
            taken += finishes[path] > 0
    assert taken >= 20, taken


def test_patterns_of_any_type(monkeypatch):
    # a pattern is converted to the index's type, and a symbol that bytes
    # cannot hold is a ValueError for the scan and a 0 count
    rng = random.Random(197)
    founder, text = mutated_copies(rng, b"ACGT", 60, 17)
    odd = founder[5:45] + [300] + founder[20:55]
    for seq, pattern in ((bytes(text), founder[10:] + founder[:30]),
                         (tuple(text), founder[10:] + founder[:30]),
                         (tuple(text), odd)):
        index = OccurrenceIndex(seq)
        want = [(m.start, m.end, m.freq)
                for m in brute_force_f_mems(seq, pattern, 2)]
        (got, steps), (binary, binary_steps) = scan_both_paths(
            monkeypatch, index, pattern, [(1, len(pattern))], 2, 20, None)
        assert got == binary == [w for w in want if w[1] - w[0] >= 19]
        assert steps < binary_steps
    index = OccurrenceIndex(bytes(text))
    for pattern in (tuple(odd), odd, [65, 300]):
        with pytest.raises(ValueError):
            threshold_scan(index, pattern, [(1, len(pattern))], 2, L=20)
        assert index.count(pattern) == 0
    assert OccurrenceIndex(b"A").count((1 << 20,)) == 0


def brute_intervals(heads, word):
    """The rows of ``heads``, a sequence's sorted suffixes cut to at least
    ``len(word)`` symbols, that begin with each prefix of ``word`` in turn,
    from the empty one, as (lo, hi), up to the first no head begins with."""
    rows, found = range(len(heads)), []
    for k in range(len(word) + 1):
        rows = [r for r in rows if heads[r][:k] == word[:k]]
        if not rows:
            break
        assert len(rows) == rows[-1] + 1 - rows[0]
        found.append((rows[0], rows[-1] + 1))
    return found


# bytes with NUL, as records are joined; 150 and 120 copies of a founder, so
# a growth that stops inside them ties with 100 rows and more; phrase IDs at
# skewed odds, so first-symbol buckets run from one row to hundreds
GROW_SEQS = pytest.mark.parametrize("seq", [
    bytes(random.Random(411).choices(b"ACGT\0", k=1500)),
    bytes(mutated_copies(random.Random(412), b"ACGT", 40, 150)[1]),
    tuple(random.Random(413).choices((0, 0, 0, 2, 5, 9, 300, 70000), k=1200)),
    tuple(mutated_copies(random.Random(414), (256, 300, 4097, 70000), 30, 120)[1]),
], ids=["bytes", "byte-copies", "phrase-ids", "phrase-id-copies"])


@GROW_SEQS
def test_grow_equals_brute_force_over_sorted_suffixes(seq):
    rng = random.Random(len(seq))
    n, symbols = len(seq), sorted(set(seq))
    index = OccurrenceIndex(seq)
    taken = {"table hit": 0, "bucket": 0, "ties": 0, "runs out": 0}
    for view in (index.forward, index.backward):
        s = view.seq
        queries = []
        for _ in range(40):  # pieces of the sequence, now and then mutated
            a = rng.randrange(n)
            word = list(s[a:a + rng.randint(1, 60)])
            for _ in range(rng.choice((0, 0, 1, 2))):
                word[rng.randrange(len(word))] = rng.choice(symbols + [1])
            queries.append(word)
        # whole suffixes grown on: the rows they begin run out in the run
        queries += [list(s[n - k:]) + [rng.choice(symbols)] * j
                    for k in (1, 2, 5, 30) for j in (0, 3)]
        heads = sorted(s[i:i + 70] for i in range(n))
        for word in queries:
            query = type(seq)(word)
            pos = rng.randrange(min(3, len(query)))
            found = brute_intervals(heads, query[pos:])
            for limit in {len(query) - pos, rng.randint(0, len(query) - pos)}:
                for f in (1, 2, 3, 17, n + 1):
                    steps, hits = view.steps, view.hits
                    lo, hi, grown = view.grow(query, pos, limit, f)
                    want = max(k for k, (a, b) in enumerate(found[:limit + 1])
                               if k == 0 or b - a >= f)
                    assert (lo, hi, grown) == (*found[want], want), (query, pos, limit, f)
                    assert view.steps - steps == grown + (grown < limit)
                    taken["table hit"] += view.hits - hits
                    taken["bucket"] += view.buckets is not None and grown > 0
                    taken["ties"] += hi - lo >= 100 and 0 < grown < limit
                    taken["runs out"] += any(view.sa[r] + grown == n for r in range(lo, hi))
    kind = "table hit" if type(seq) is bytes else "bucket"
    assert taken[kind] and taken["runs out"], taken
    assert taken["ties"] or n < 3000, taken  # the copies are the longer two


def random_text(rng, symbols, n):
    return bytes(rng.choice(symbols) for _ in range(n))


# (text, q): one symbol has no table; NUL joins records as the CLI does.
# Skewed symbol odds leave some buckets with fewer rows than f.
TABLE_TEXTS = pytest.mark.parametrize("text, q", [
    (b"A" * 400, 0),
    (b"ACGT" * 3, 0),
    (random_text(random.Random(401), b"AAAB", 900), 5),
    (random_text(random.Random(402), b"AAAACCGT", 5000), 4),
    (random_text(random.Random(403), b"AAAAAAAACDEFGHIKLMNPQRSTVWY", 7000), 2),
    (bytes(mutated_copies(random.Random(404), b"ACGT", 150, 30)[1]), 3),
], ids=["sigma1", "short", "sigma2", "sigma4", "sigma20", "records"])


@TABLE_TEXTS
def test_prefix_table_is_a_count_over_sorted_suffixes(text, q):
    index = OccurrenceIndex(text)
    table, rev = index.prefix_table, index.backward.seq
    alphabet = sorted(set(text))
    assert (table.alphabet, table.q) == (bytes(alphabet), q)
    assert q == prefix_depth(len(text), len(alphabet))
    assert (index.backward.table is table) == (q > 0)
    if not q:
        assert len(table.starts) == 0
        return
    assert len(table.starts) == len(alphabet) ** q + 1
    # every suffix cut to q symbols, so one that runs out sorts before the
    # longer ones it begins, and the full ones
    cut = sorted(rev[i:i + q] for i in range(len(rev)))
    heads = [head for head in cut if len(head) == q]
    for code, word in enumerate(map(bytes, product(alphabet, repeat=q))):
        assert table.code(word) == code
        assert table.starts[code] == bisect_left(heads, word)
        assert table.rows(code) == (bisect_left(cut, word), bisect_right(cut, word))
    assert table.starts[-1] == len(heads)


def grow_both_ways(view, query, pos, limit, f):
    """``grow`` from the empty match as it is, then with the table off:
    (lo, hi, grown, steps) and table hits of each."""
    runs, table = [], view.table
    for view.table in (table, None):
        steps, hits = view.steps, view.hits
        lo, hi, grown = view.grow(query, pos, limit, f)
        runs.append(((lo, hi, grown, view.steps - steps), view.hits - hits))
    view.table = table
    return runs


@TABLE_TEXTS
@pytest.mark.parametrize("narrow", [NARROW, 0])
def test_grow_from_the_table_equals_binary_search(monkeypatch, text, q, narrow):
    # NARROW picks only threshold_scan's finish: both values grow alike here
    monkeypatch.setattr(seqindex, "NARROW", narrow)
    rng = random.Random(len(text))
    view = OccurrenceIndex(text).backward
    rev, n = view.seq, len(view.seq)
    alphabet = bytes(sorted(set(text)))
    queries = []
    for _ in range(150):  # pieces of the text with a mutation now and then
        a = rng.randrange(n)
        word = bytearray(rev[a:a + rng.randint(1, 30)])
        if rng.random() < 0.3:
            word[rng.randrange(len(word))] = rng.choice(alphabet)
        queries.append(bytes(word))
    # the suffixes shorter than q, alone and grown on: the text's start
    queries += [rev[n - i:] + bytes([sym]) * j for i in range(1, q + 2)
                for sym in alphabet[:2] for j in (0, 1, 3)]
    queries += [b"Z" + rev[:10], rev[:2] + b"\x01" + rev[3:12]]  # absent symbols
    if q:  # strings whose bucket holds 1 to 4 rows
        def rows(word):
            lo, hi = view.table.rows(view.table.code(word))
            return hi - lo
        queries += [word + rev[:5] for word in map(bytes, product(alphabet, repeat=q))
                    if 0 < rows(word) < 5]
    taken = {"hit": 0, "short limit": 0, "absent": 0, "few rows": 0}
    for query in queries:
        for f in (1, 2, 3, 5):
            pos = rng.randrange(min(3, len(query)))
            limits = {len(query) - pos, rng.randint(1, len(query) - pos)}
            for limit in limits:
                (table_run, hits), (plain_run, none) = grow_both_ways(
                    view, query, pos, limit, f)
                assert table_run == plain_run, (query, pos, limit, f)
                assert none == 0
                if not q:
                    assert hits == 0
                    continue
                code = view.table.code(query[pos:pos + q])
                if hits:
                    taken["hit"] += 1
                elif limit < q:
                    taken["short limit"] += 1
                elif code < 0:
                    taken["absent"] += 1
                else:
                    lo, hi = view.table.rows(code)
                    assert hi - lo < f
                    taken["few rows"] += 1
    assert not q or all(taken.values()), taken


def test_scan_with_the_table_equals_the_scan_without(monkeypatch):
    rng = random.Random(405)
    founder, text = mutated_copies(rng, b"ACGT", 200, 40)
    index = OccurrenceIndex(bytes(text))
    table = index.prefix_table
    assert table.q == 3
    cases = ((1, None, 3), (2, 12, None), (5, None, 1), (3, None, None))
    hits = {(on, case): 0 for on in (True, False) for case in cases}
    for _ in range(10):
        a, b = sorted(rng.sample(range(200), 2))
        pattern = bytes(founder[a:] + founder[:b])
        windows = cut_windows(rng, len(pattern))
        for case in cases:
            runs = []
            for on in (True, False):
                index.backward.table = table if on else None
                before = index.prefix_table_hits
                runs.append(scan_both_paths(monkeypatch, index, pattern,
                                            windows, *case))
                hits[on, case] += index.prefix_table_hits - before
            assert runs[0] == runs[1]
    # every growth starts from nothing, so a scan at L=1 takes table hits too
    assert all(hits[True, case] > 0 == hits[False, case] for case in cases), hits


def brute_agreement(seq, p, run):
    k = 0
    while k < len(run) and p + k < len(seq) and seq[p + k] == run[k]:
        k += 1
    return k


@pytest.mark.parametrize("kind", [bytes, tuple])
def test_agreement_is_the_longest_common_prefix(kind):
    seq = kind(random.Random(408).choices(b"ACGT", k=100))

    # runs from p that agree wholly, or up to a mismatch at 0, at a power of
    # two, between two or at the last symbol; from p = 90 the longer ones run
    # past the end of seq
    for p in (0, 37, 90):
        for n in (1, 2, 3, 8, 9, 16, 33, 64):
            for at in (None, 0, 1, 2, 4, 8, 16, 32, 3, 5, 6, 7, 12, 20, n - 1):
                if at is not None and at >= n:
                    continue
                head = list(seq[p:p + n])
                head += [ord("A")] * (n - len(head))
                if at is not None:
                    head[at] = 0  # a symbol seq does not hold
                run = kind(head)
                want = brute_agreement(seq, p, run)
                if p + n <= len(seq):
                    assert want == (n if at is None else at)
                assert _agreement(seq, p, run) == want, (p, n, at)


class Unread:
    """A sequence that fails the test if any symbol of it is read."""

    def __getitem__(self, key):
        raise AssertionError(f"read {key!r}")


# 12 mutated copies of a founder, so agreements at the copies tie, as bytes
# and as phrase IDs
COPY_SEQS = pytest.mark.parametrize("kind", [bytes, tuple])


def copies_and_runs(kind, seed):
    """A text of 12 mutated copies of a 50-symbol founder and runs cut
    from the founder, mutated now and then: ``(seq, runs)``."""
    rng = random.Random(seed)
    symbols = b"ACGT" if kind is bytes else (256, 300, 4097, 70000)
    founder, text = mutated_copies(rng, symbols, 50, 12)
    runs = []
    for _ in range(60):
        a = rng.randrange(50)
        run = founder[a:a + rng.randint(0, 60)]
        if run and rng.random() < 0.5:
            run[rng.randrange(len(run))] = rng.choice(symbols)
        runs.append(kind(run))
    return kind(text), runs


@COPY_SEQS
def test_agreement_is_exact_from_least_on(kind):
    # the exact agreement when it is at least least, least - 1 below it;
    # starts at the copies' aligned offsets tie, and starts near the end
    # run out inside the run
    seq, runs = copies_and_runs(kind, f"least{kind.__name__}")
    rng = random.Random(409)
    n, taken = len(seq), {"exact": 0, "below": 0, "past the run": 0}
    for run in runs:
        starts = {rng.randrange(n), n - 1, n, 51 * rng.randrange(12)}
        for p in starts:
            exact = brute_agreement(seq, p, run)
            for least in range(-1, len(run) + 3):
                want = exact if exact >= least else least - 1
                assert _agreement(seq, p, run, least) == want, (p, run, least)
                taken["exact" if exact >= least else
                      "past the run" if least > len(run) else "below"] += 1
    assert all(taken.values()), taken
    # past the run, the answer is known without reading a symbol
    for run in (kind(), kind(b"AC")):
        for least in (len(run) + 1, len(run) + 5):
            assert _agreement(Unread(), 3, run, least) == least - 1


@COPY_SEQS
def test_grow_at_takes_the_f_largest_agreement(kind):
    # more is sorted(agreements)[-f], 0 with fewer than f starts, and steps
    # rise by more plus one unless the run is used up; a run of 0 symbols
    # (a pattern's last symbol) with a start at the text's end reads 0
    seq, runs = copies_and_runs(kind, f"grow_at{kind.__name__}")
    rng = random.Random(410)
    view = OccurrenceIndex(seq).forward
    n, ties = len(seq), 0
    query = kind(seq[:40])
    for run in runs + [kind()]:
        query_at = query + run
        for f in (1, 2, 3, 5):
            aligned = 51 * rng.randrange(12) + rng.randrange(50)
            starts = [aligned % 51 + 51 * c for c in rng.sample(range(12), rng.randint(1, 8))]
            starts += rng.sample(range(n + 1), rng.randint(0, 6)) + [n] * rng.randint(0, 2)
            rng.shuffle(starts)
            agree = [brute_agreement(seq, p, run) for p in starts]
            want = sorted(agree)[-f] if len(agree) >= f else 0
            steps = view.steps
            assert view.grow_at(starts, query_at, len(query), len(run), f) == want, \
                (starts, run, f)
            assert view.steps - steps == want + (want < len(run))
            ties += agree.count(want) > 1 and want > 0
    assert ties > 20, ties


@COPY_SEQS
def test_narrow_finish_keeps_the_rows_that_agree_to_the_end(monkeypatch, kind):
    # every match the scan finishes from its occurrences: more is the f-th
    # largest agreement there, and freq counts the occurrences agreeing at
    # least min(more, window reach), as the eager definitions give them
    rng = random.Random(f"kept{kind.__name__}")
    symbols = b"ACGT" if kind is bytes else (256, 300, 4097, 70000)
    founder, text = mutated_copies(rng, symbols, 80, 12)
    text = kind(text)
    index = OccurrenceIndex(text)
    grow_at, last = index.forward.grow_at, {}
    finished = 0

    def spy_grow_at(starts, query, pos, limit, f):
        run = query[pos:pos + limit]
        agree = [brute_agreement(text, p, run) for p in starts]
        more = grow_at(starts, query, pos, limit, f)
        assert more == (sorted(agree)[-f] if len(agree) >= f else 0)
        last.update(agree=agree, pos=pos)
        return more

    def spy_mem(start, end, freq):
        nonlocal finished
        if last:  # the last finish was from the occurrences
            assert freq == sum(a >= end - last["pos"] for a in last["agree"])
            finished += 1
        return Mem(start=start, end=end, freq=freq)

    def spy_forward_grow(*args):
        last.clear()
        return fwd_grow(*args)

    fwd_grow = index.forward.grow
    monkeypatch.setattr(index.forward, "grow_at", spy_grow_at)
    monkeypatch.setattr(index.forward, "grow", spy_forward_grow)
    monkeypatch.setattr(seqindex, "Mem", spy_mem)
    for _ in range(12):
        a, b = sorted(rng.sample(range(80), 2))
        pattern = founder[a:] + [rng.choice(symbols)] + founder[:b]
        pattern[rng.randrange(len(pattern))] = rng.choice(symbols)
        pattern = kind(pattern)
        windows = cut_windows(rng, len(pattern))
        for f in (1, 2, 3, 5):
            want = [(m.start, m.end, m.freq) for m in brute_force_f_mems(text, pattern, f)
                    if any(lo <= m.start and m.end <= hi for lo, hi in windows)]
            for L in (None, rng.randint(2, 20)):
                last.clear()
                got = threshold_scan(index, pattern, windows, f, L=L)
                assert [(m.start, m.end, m.freq) for m in got] == \
                    [w for w in want if L is None or w[1] - w[0] + 1 >= L]
    assert finished > 100, finished


def test_left_edge_check_at_the_start_of_the_text():
    # ABC occurs only at text position 0, with no symbol before it: the
    # text's last symbol, Z, must not be read as one
    index = OccurrenceIndex(b"ABCZ")
    assert [(m.start, m.end) for m in
            threshold_scan(index, b"ZABC", [(2, 4)])] == [(2, 4)]


def test_empty_sequence_not_indexable():
    with pytest.raises(EmptyInputError):
        OccurrenceIndex(b"")


def test_mem_length():
    assert Mem(start=3, end=7, freq=2).length == 5


def phrase_ids_of_copies():
    """The phrase IDs of 12 mutated copies of a DNA founder, and pieces of
    the copies with a fresh mutation parsed with the frozen dictionary, which
    gives each new phrase its one reserved ID."""
    rng = random.Random(406)
    founder, text = mutated_copies(rng, b"ACGT", 300, 12)
    trigger, dictionary = choose_trigger(bytes(text), 4, 6), PhraseDictionary()
    seq = pfp_parse(bytes(text), trigger, dictionary).symbols
    dictionary.freeze()
    pieces = []
    for _ in range(30):
        a = rng.randrange(250)
        piece = bytearray(founder[a:a + rng.randint(20, 120)])
        piece[rng.randrange(len(piece))] = rng.choice(b"ACGT")
        pieces.append(pfp_parse(bytes(piece), trigger, dictionary).symbols)
    assert any(len(dictionary) in piece for piece in pieces)
    return seq, pieces


def random_phrase_ids(rng, symbols, n):
    """``n`` IDs drawn from ``symbols``, repeats and all."""
    return tuple(rng.choice(symbols) for _ in range(n))


# (sequence, queries): one ID repeated but for one; a sequence of at most
# NARROW rows; skewed odds over IDs with gaps, so buckets run from 1 row to
# hundreds and some IDs of the queries are absent; a parse of mutated copies
# with pieces that hold a frozen dictionary's reserved ID.
BUCKET_SEQS = pytest.mark.parametrize("seq, queries", [
    ((7,) * 30 + (8,) + (7,) * 30, [(7,) * 3, (7, 8, 7), (6,)]),
    ((4, 1, 4, 4, 9, 1, 4, 2, 4, 1), [(4, 1, 4), (1, 4, 4, 9), (9, 9), (3, 4)]),
    (random_phrase_ids(random.Random(407), [0, 0, 0, 0, 2, 2, 5, 9, 40, 41, 300], 700)
     + (50, 51, 51, 52, 52, 52, 52, 0),
     [random_phrase_ids(random.Random(i), [0, 0, 2, 5, 7, 9, 40, 300, 301, 50, 51, 52],
                        25) for i in range(30)]),
    phrase_ids_of_copies(),
], ids=["one_id", "narrow", "skewed", "parse"])


def both_ways(index, call):
    """``call()`` and the steps it took, with the index's first-symbol
    buckets, then with both views searching by binary search alone."""
    buckets, runs = index.forward.buckets, []
    for index.forward.buckets in (buckets, None):
        index.backward.buckets = index.forward.buckets
        steps = index.steps
        runs.append((call(), index.steps - steps))
    index.forward.buckets = index.backward.buckets = buckets
    return runs


@BUCKET_SEQS
@pytest.mark.parametrize("narrow", [NARROW, 0])
def test_grow_from_the_buckets_equals_binary_search(monkeypatch, seq, queries, narrow):
    # NARROW picks only threshold_scan's finish: both values grow alike here
    monkeypatch.setattr(seqindex, "NARROW", narrow)
    rng = random.Random(len(seq))
    index = OccurrenceIndex(seq)
    buckets = index.forward.buckets
    assert buckets is index.backward.buckets
    for view in (index.forward, index.backward):  # each ID's rows, both arrays
        for sym, (lo, hi) in buckets.items():
            assert hi - lo == seq.count(sym)
            assert all(view.seq[view.sa[r]] == sym for r in range(lo, hi))
    queries = queries + [seq[a:a + rng.randint(1, 20)]
                         for a in rng.sample(range(len(seq)), min(len(seq), 30))]
    taken = {"grown": 0, "too few rows": 0, "absent": 0}
    for query in queries:
        for f in (1, 2, 3, 5):
            for view in (index.forward, index.backward):
                pos = rng.randrange(len(query))
                for limit in {len(query) - pos, rng.randint(1, len(query) - pos)}:
                    run, plain = both_ways(index, lambda: view.grow(query, pos, limit, f))
                    assert run == plain, (query, pos, limit, f)
                    rows = buckets.get(query[pos], (0, 0))
                    taken["absent" if query[pos] not in buckets else
                          "grown" if rows[1] - rows[0] >= f else "too few rows"] += 1
            for sym in query:
                count, plain = both_ways(index, lambda: index.count((sym,)))
                assert count == plain and count[1] == 1, sym
    assert taken["grown"] and taken["too few rows"] and taken["absent"], taken


@BUCKET_SEQS
def test_parse_scan_with_the_buckets_equals_the_scan_without(monkeypatch, seq, queries):
    rng = random.Random(len(queries))
    index = OccurrenceIndex(seq)
    for query in queries:
        windows = cut_windows(rng, len(query))
        for f, L, t in ((1, None, None), (2, None, None), (3, 2, None), (5, None, 2),
                        (1, None, 1)):
            scans, plain = both_ways(index, lambda: scan_both_paths(
                monkeypatch, index, query, windows, f, L, t))
            assert scans[0] == plain[0], (query, windows, f, L, t)


def test_one_symbol_counts_read_the_buckets():
    # a phrase-ID index counts one ID by its bucket's size, one step, for
    # every ID of the parse, the frozen dictionary's reserved ID and an ID
    # above it; a byte text has no buckets and counts by binary search
    seq, pieces = phrase_ids_of_copies()
    reserved = max(seq) + 1
    assert any(reserved in piece for piece in pieces)
    index = OccurrenceIndex(seq)
    for sym in sorted(set(seq)) + [reserved, reserved + 1]:
        steps = index.steps
        assert index.count((sym,)) == brute_force_count(seq, (sym,)), sym
        assert index.steps - steps == 1, sym
    text = bytes(random.Random(408).choices(b"ACGT\0", k=600))
    index = OccurrenceIndex(text)
    assert index.forward.buckets is None and index.backward.buckets is None
    for sym in b"ACGT\0N":
        steps = index.steps
        assert index.count(bytes([sym])) == brute_force_count(text, bytes([sym]))
        assert index.count((sym,)) == brute_force_count(text, bytes([sym]))
        assert index.steps - steps == 2
    assert index.count((300,)) == 0
