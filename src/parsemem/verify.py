"""Randomized property suites: every guarantee, checked against brute force.

Each suite generates seeded random instances, runs the real implementation
and the oracle side by side, and reports how many checks were made and how
many violated the property.  ``parsemem verify`` runs each suite at its
defaults, and the acceptance tests reuse them with the criterion parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import filters as flt
from . import pseudomem as pmm
from .oracle import brute_force_count, brute_force_f_mems, top_t_cut
from .parsing import (MinimizerParams, ParsedString, PhraseDictionary,
                      choose_trigger, minimizer_parse, pfp_parse)
from .seqindex import (Mem, OccurrenceIndex, bml_mems, bml_top_t, find_f_mems,
                       is_suffix_array, parse_suffix_array, threshold_scan)

DNA = b"ACGT"


@dataclass
class SuiteResult:
    name: str
    instances: int
    checked: int
    violations: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        msg = (f"{status} {self.name}: {self.checked} checks over "
               f"{self.instances} instances, {self.violations} violations")
        if self.detail:
            msg += f" ({self.detail})"
        return msg


def random_bytes(rng: random.Random, length: int, alphabet: bytes = DNA) -> bytes:
    return bytes(rng.choice(alphabet) for _ in range(length))


def make_instance(rng: random.Random, max_text: int, max_pattern: int,
                  alphabet: bytes = DNA,
                  plant: tuple[int, int] | None = None,
                  margin: int = 8) -> tuple[bytes, bytes]:
    """A random (text, pattern) pair, optionally sharing a planted substring.

    The planted substring is copied out of the text into the middle of the
    pattern, leaving at least ``margin`` random characters on each flank.
    """
    text = random_bytes(rng, rng.randint(max(4 * margin, 50), max_text), alphabet)
    plen = rng.randint(max(2 * margin + 4, 20), max_pattern)
    if plant is None:
        return text, random_bytes(rng, plen, alphabet)
    lo, hi = plant
    shared = min(rng.randint(lo, hi), len(text), plen - 2 * margin)
    start = rng.randrange(0, len(text) - shared + 1)
    piece = text[start:start + shared]
    left = rng.randint(margin, plen - shared - margin)
    pattern = (random_bytes(rng, left, alphabet) + piece
               + random_bytes(rng, plen - shared - left, alphabet))
    return text, pattern


def build_parse_pair(text: bytes, pattern: bytes, w: int, p: int
                     ) -> tuple[ParsedString, ParsedString, OccurrenceIndex]:
    """Shared-dictionary PFP of text and pattern with the text's trigger,
    plus an index of the text parse."""
    dictionary, trigger = PhraseDictionary(), choose_trigger(text, w, p)
    parse_t = pfp_parse(text, trigger, dictionary)
    parse_p = pfp_parse(pattern, trigger, dictionary)
    parse_index = OccurrenceIndex(parse_t.symbols)
    return parse_t, parse_p, parse_index


def _contained(a: int, b: int, mems: list[Mem]) -> bool:
    return any(m.start <= a and b <= m.end for m in mems)


def _mems_equal(got: list[Mem], want: list[Mem]) -> bool:
    return [(m.start, m.end, m.freq) for m in got] == \
           [(m.start, m.end, m.freq) for m in want]


def suite_oracle_equivalence(rng: random.Random, instances: int,
                             max_text: int = 800, max_pattern: int = 200,
                             fs=(1, 2, 3, 5)) -> SuiteResult:
    """find_f_mems output equals the brute-force oracle, interval for interval."""
    checked = violations = 0
    for _ in range(instances):
        text, pattern = make_instance(
            rng, max_text, max_pattern,
            plant=(20, 100) if rng.random() < 0.5 else None)
        index = OccurrenceIndex(text)
        f = rng.choice(fs)
        got = find_f_mems(index, pattern, f)
        want = brute_force_f_mems(text, pattern, f)
        checked += 1
        if not _mems_equal(got, want):
            violations += 1
    return SuiteResult("oracle equivalence (find_f_mems)", instances, checked, violations)


def suite_bml(rng: random.Random, instances: int,
              max_text: int = 800, max_pattern: int = 200) -> SuiteResult:
    """bml_mems and bml_top_t return exactly the f-MEMs of length >= L and
    the t longest, ties included, and a scan given both the t longest of
    those at least L long."""
    checked = violations = 0
    for _ in range(instances):
        text, pattern = make_instance(rng, max_text, max_pattern, plant=(15, 60))
        index = OccurrenceIndex(text)
        f = rng.choice((1, 2))
        want = brute_force_f_mems(text, pattern, f)
        for L in (1, 3, rng.randint(4, 30)):
            got = bml_mems(index, pattern, L, f)
            checked += 1
            if not _mems_equal(got, [m for m in want if m.length >= L]):
                violations += 1
        long = [m for m in want if m.length >= L]
        for t in (1, 3, 10):
            got = bml_top_t(index, pattern, t, f)
            checked += 1
            if not _mems_equal(got, top_t_cut(want, t)):
                violations += 1
            got = threshold_scan(index, pattern, ((1, len(pattern)),), f, L=L, t=t)
            checked += 1
            if not _mems_equal(got, top_t_cut(long, t)):
                violations += 1
    return SuiteResult("BML threshold and top-t modes", instances, checked, violations)


@dataclass
class LemmaCounts:
    """Tallies of the parse-interval / f-MEM checks made by ``lemma1_counts``.

    ``boundary`` counts the intervals touching the pattern's first or last
    phrase whose characters lie inside an f-MEM; ``boundary_strict_violations``
    counts those among them whose exact phrase IDs occur fewer than f times
    in the text's parse.  It is a diagnostic of how often the string ends cut
    a phrase, not a violation of anything the parse promises.
    """

    intervals: int = 0
    forward_violations: int = 0
    internal: int = 0
    internal_violations: int = 0
    boundary: int = 0
    boundary_violations: int = 0
    boundary_strict_violations: int = 0

    @property
    def converse_violations(self) -> int:
        return self.internal_violations + self.boundary_violations


def _phrase_matches(text_phrase: bytes, phrase: bytes, cut_left: bool,
                    cut_right: bool) -> bool:
    """Whether a text phrase can hold a pattern phrase whose left or right
    end, or both, is cut by the pattern's ends rather than by a trigger."""
    if cut_left and cut_right:
        return phrase in text_phrase
    if cut_left:
        return text_phrase.endswith(phrase)
    if cut_right:
        return text_phrase.startswith(phrase)
    return text_phrase == phrase


def phrase_placements(parse_t: ParsedString, parse_p: ParsedString,
                      i: int, j: int) -> int:
    """Number of text offsets at which PFP(T) holds phrases ``i..j`` of PFP(P).

    Counted by brute force over the text's phrase IDs and the shared
    dictionary, without an index.  A run of j-i+1 consecutive text phrases
    holds them when its inner phrases equal the pattern's and its end
    phrases match as far as the parse promises: the pattern's phrase 1
    starts at the string's start, not at a trigger, so where i = 1 the text
    phrase need only end with it; phrase n ends at the string's end, so
    where j = n the text phrase need only begin with it; where n = 1 it need
    only contain it.  On internal intervals this is plain phrase equality.
    Runs are counted by the offset at which the pattern's characters sit,
    since one text phrase can contain a one-phrase pattern more than once.
    """
    n, m = len(parse_p), j - i + 1
    first, last = parse_p.phrase_bytes(i), parse_p.phrase_bytes(j)
    inner = parse_p.symbols[i:j - 1]
    offsets = set()
    for k in range(1, len(parse_t) - m + 2):
        if parse_t.symbols[k:k + m - 2] != inner:
            continue
        head, tail = parse_t.phrase_bytes(k), parse_t.phrase_bytes(k + m - 1)
        if not (_phrase_matches(head, first, i == 1, i == n)
                and _phrase_matches(tail, last, j == 1, j == n)):
            continue
        if i == 1 and n == 1:
            at = head.find(first)
            while at >= 0:
                offsets.add(parse_t.phrase_start[k - 1] + at)
                at = head.find(first, at + 1)
        elif i == 1:
            offsets.add(parse_t.phrase_end(k) - len(first) + 1)
        else:
            offsets.add(parse_t.phrase_start[k - 1])
    return len(offsets)


def lemma1_counts(rng: random.Random, instances: int, w: int = 4, p: int = 5,
                  max_text: int = 600, max_pattern: int = 100,
                  max_parse_len: int = 30) -> LemmaCounts:
    """Both directions of the parse-interval / f-MEM equivalence, on every
    phrase interval of ``instances`` parses with at most ``max_parse_len``
    phrases.

    Forward, on every interval: if the phrase interval occurs at least f
    times in the text's parse, its characters lie inside some brute-force
    f-MEM of the pattern.  Converse, on internal intervals, whose first
    phrase starts at a trigger and whose last phrase ends at one: containment
    in an f-MEM implies at least f occurrences of the exact phrase IDs.  On
    intervals touching the pattern's first or last phrase, which the string
    ends cut, the text's parser carries those phrases on to an earlier or
    later trigger, so the converse takes the form ``phrase_placements``
    checks: containment implies at least f placements.
    """
    c = LemmaCounts()
    done = 0
    while done < instances:
        text, pattern = make_instance(rng, max_text, max_pattern, plant=(30, 80))
        parse_t, parse_p, parse_index = build_parse_pair(text, pattern, w, p)
        n = len(parse_p)
        if n > max_parse_len:
            continue
        done += 1
        f = rng.choice((1, 2))
        mems = brute_force_f_mems(text, pattern, f)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                occurs = parse_index.count(parse_p.symbols[i - 1:j]) >= f
                a, b = parse_p.char_span(i, j)
                inside = _contained(a, b, mems)
                c.intervals += 1
                if occurs and not inside:
                    c.forward_violations += 1
                if 2 <= i and j <= n - 1:
                    c.internal += 1
                    if inside and not occurs:
                        c.internal_violations += 1
                elif inside:
                    c.boundary += 1
                    if not occurs:
                        c.boundary_strict_violations += 1
                    if phrase_placements(parse_t, parse_p, i, j) < f:
                        c.boundary_violations += 1
    return c


def suite_lemma1(rng: random.Random, instances: int, w: int = 4, p: int = 5,
                 max_text: int = 800, max_pattern: int = 200,
                 max_parse_len: int = 30) -> SuiteResult:
    """Parse-interval occurrence vs f-MEM containment, as ``lemma1_counts``
    states it: forward on every interval, the exact converse on internal
    intervals and the boundary form of the converse on the others."""
    c = lemma1_counts(rng, instances, w, p, max_text, max_pattern, max_parse_len)
    return SuiteResult(
        "parse-interval / f-MEM equivalence", instances,
        c.intervals + c.internal + c.boundary,
        c.forward_violations + c.converse_violations,
        f"{c.boundary} boundary intervals inside an f-MEM")


def _parse_instance(rng: random.Random, max_text: int, max_pattern: int,
                    w: int = 4, p: int = 5, plant=(50, 150)):
    text, pattern = make_instance(
        rng, max_text, max_pattern,
        plant=plant if rng.random() < 0.7 else None)
    parse_t, parse_p, parse_index = build_parse_pair(text, pattern, w, p)
    f = rng.choice((1, 2, 3))
    mems = brute_force_f_mems(text, pattern, f)
    pms = pmm.parse_pseudo_mems(parse_p, parse_index, f)
    return text, pattern, parse_t, parse_p, parse_index, f, mems, pms


def suite_property1(rng: random.Random, instances: int,
                    max_text: int = 800, max_pattern: int = 200) -> SuiteResult:
    """Every brute-force f-MEM is contained in some parse pseudo-MEM."""
    checked = violations = 0
    for _ in range(instances):
        *_, mems, pms = _parse_instance(rng, max_text, max_pattern)
        for mem in mems:
            checked += 1
            if not any(pm.char_start <= mem.start and mem.end <= pm.char_end
                       for pm in pms):
                violations += 1
    return SuiteResult("containment of all f-MEMs", instances, checked, violations)


def suite_property2(rng: random.Random, instances: int,
                    max_text: int = 800, max_pattern: int = 200) -> SuiteResult:
    """Trimmed unclipped extensions are proper substrings of some f-MEM.

    For every parse-level f-MEM [i..j] whose one-phrase extension stays
    inside the parse and spans at least 4 phrases, deleting 2 phrases from
    one end of the extension and 1 from the other leaves characters that are
    a proper substring of some brute-force f-MEM.
    """
    checked = violations = 0
    for _ in range(instances):
        text, pattern, parse_t, parse_p, parse_index, f, mems, _ = \
            _parse_instance(rng, max_text, max_pattern)
        if len(parse_p) < 2:
            continue
        for pmem in find_f_mems(parse_index, parse_p.symbols, f):
            i, j = pmem.start, pmem.end
            if i < 2 or j > len(parse_p) - 1 or j < i + 1:
                continue  # clipped extension or fewer than 4 phrases
            for lo, hi in ((i + 1, j), (i, j - 1)):
                a, b = parse_p.char_span(lo, hi)
                checked += 1
                if not any(m.start <= a and b <= m.end
                           and (m.start, m.end) != (a, b) for m in mems):
                    violations += 1
    return SuiteResult("parsimony of trimmed pseudo-MEMs", instances, checked,
                       violations)


def suite_property3(rng: random.Random, instances: int,
                    max_text: int = 800, max_pattern: int = 200) -> SuiteResult:
    """A pseudo-MEM with lower bound b > 0 contains an f-MEM of length >= b."""
    checked = violations = 0
    for _ in range(instances):
        *_, mems, pms = _parse_instance(rng, max_text, max_pattern)
        for pm in pms:
            if pm.lower_bound <= 0:
                continue
            checked += 1
            if not any(pm.char_start <= m.start and m.end <= pm.char_end
                       and m.length >= pm.lower_bound for m in mems):
                violations += 1
    return SuiteResult("lower bounds certify contained f-MEMs", instances,
                       checked, violations)


def suite_safe_discard(rng: random.Random, instances: int,
                       ts=(1, 3, 10), max_text: int = 800,
                       max_pattern: int = 200) -> SuiteResult:
    """The t longest oracle f-MEMs all survive discarding."""
    checked = violations = 0
    for _ in range(instances):
        *_, mems, pms = _parse_instance(rng, max_text, max_pattern)
        ranked = sorted(mems, key=lambda m: (-m.length, m.start))
        for t in ts:
            retained = pmm.safe_discard(pms, t)
            for mem in ranked[:t]:
                checked += 1
                if not any(pm.char_start <= mem.start and mem.end <= pm.char_end
                           for pm in retained):
                    violations += 1
    return SuiteResult("safe discarding keeps the top-t f-MEMs", instances,
                       checked, violations)


def mutate(rng: random.Random, seq: bytes, subs: int,
           alphabet: bytes = DNA) -> bytes:
    """``seq`` with ``subs`` distinct positions (at most its length) each
    redrawn as another symbol of ``alphabet``."""
    out = bytearray(seq)
    for i in rng.sample(range(len(seq)), min(subs, len(seq))):
        out[i] = rng.choice([c for c in alphabet if c != out[i]])
    return bytes(out)


def copies_instance(rng: random.Random) -> tuple[bytes, bytes]:
    """A text of 1-4 copies of a 20-150 bp founder over AC, ACG or ACGT,
    each with 0-3 substitutions and joined by NUL as ``build`` joins
    records, and a pattern of 1-4 founder pieces of 5-60 bp, each with 0-2
    substitutions, with 0-6 bp of random junk between them.  Short phrases
    over near-identical copies make S1 pseudo-MEMs whose windows nest."""
    alphabet = rng.choice((b"AC", b"ACG", DNA))
    founder = random_bytes(rng, rng.randint(20, 150), alphabet)
    text = b"\0".join(mutate(rng, founder, rng.randint(0, 3), alphabet)
                      for _ in range(rng.randint(1, 4)))
    pattern = b""
    for i in range(rng.randint(1, 4)):
        length = rng.randint(5, 60)
        a = rng.randrange(max(len(founder) - length, 0) + 1)
        if i:
            pattern += random_bytes(rng, rng.randint(0, 6), alphabet)
        pattern += mutate(rng, founder[a:a + length], rng.randint(0, 2), alphabet)
    return text, pattern


def cutoff_counts(rng: random.Random, instances: int) -> dict[str, int]:
    """Tallies of the parse route's top-t search on ``copies_instance``
    texts, at w in {2,3,4}, p in {3,4,5}, f in {1,2,3} and t in
    {1,2,3,5,8}: ``discarded`` counts the instances where safe discarding
    drops one of the oracle's top t, ``wrong`` those where find_long_mems
    over what it keeps does not return them, and ``fallbacks`` those where
    fewer than t f-MEMs inside the kept windows reach a cutoff above 1, so
    the search falls back to the whole pattern.  ``nested`` counts the
    instances whose cutoff skipped a certificate nested in another's
    window, which shows the generator reaches that regime."""
    counts = dict.fromkeys(("discarded", "wrong", "fallbacks", "nested"), 0)
    for _ in range(instances):
        text, pattern = copies_instance(rng)
        w, p = rng.choice((2, 3, 4)), rng.choice((3, 4, 5))
        f, t = rng.choice((1, 2, 3)), rng.choice((1, 2, 3, 5, 8))
        _, parse_p, parse_index = build_parse_pair(text, pattern, w, p)
        pms = pmm.parse_pseudo_mems(parse_p, parse_index, f)
        mems = brute_force_f_mems(text, pattern, f)
        retained = pmm.safe_discard(pms, t)
        want = top_t_cut(mems, t)
        counts["discarded"] += any(
            not any(pm.char_start <= mem.start and mem.end <= pm.char_end
                    for pm in retained) for mem in want)
        got = pmm.find_long_mems(OccurrenceIndex(text), retained, pattern, f, t=t)
        counts["wrong"] += not _mems_equal(got, want)
        cutoff = pmm._cutoff(pms, t)
        covered = {i for pm in retained for i in range(pm.char_start, pm.char_end + 1)}
        counts["fallbacks"] += cutoff > 1 and sum(
            mem.length >= cutoff and covered.issuperset(range(mem.start, mem.end + 1))
            for mem in mems) < t
        bounds = sorted(pm.lower_bound for pm in pms if pm.lower_bound)
        counts["nested"] += cutoff != (bounds[-t] if len(bounds) >= t else 0)
    return counts


def suite_cutoff(rng: random.Random, instances: int) -> SuiteResult:
    """The cutoff vouches for t distinct f-MEMs, as ``cutoff_counts``
    checks it: nothing of the top t discarded, no wrong answer and no
    fallback."""
    c = cutoff_counts(rng, instances)
    return SuiteResult(
        "cutoff vouches for t distinct f-MEMs", instances, 3 * instances,
        c["discarded"] + c["wrong"] + c["fallbacks"],
        f"{c['discarded']} discarded, {c['wrong']} wrong, {c['fallbacks']} "
        f"fallbacks; {c['nested']} cutoffs lowered by nesting")


def suite_suffix_array(rng: random.Random, instances: int) -> SuiteResult:
    """The suffix arrays built from the prefix-free parse, forced at any
    phrase total, sort the suffixes of ``copies_instance`` texts and of
    their reverses (under the reversed trigger), at w in 1..6 and p in
    2..8, as ``is_suffix_array`` checks them in linear time."""
    checked = violations = 0
    for _ in range(instances):
        text, _ = copies_instance(rng)
        trigger = choose_trigger(text, rng.randint(1, 6), rng.randint(2, 8))
        for seq, trig in ((text, trigger), (text[::-1], trigger.reversed())):
            checked += 1
            parse = pfp_parse(seq, trig, PhraseDictionary())
            violations += not is_suffix_array(seq, parse_suffix_array(parse, most=float("inf")))
    return SuiteResult("parse-route suffix arrays sort the suffixes", instances,
                       checked, violations)


def suite_kebab(rng: random.Random, instances: int, k: int = 8,
                kind: str = flt.KIND_TABLE, max_text: int = 800,
                max_pattern: int = 200) -> SuiteResult:
    """Every oracle f-MEM of length >= k sits inside a KeBaB pseudo-MEM.

    The table counts the whole text as one record, as ``build`` counts
    each, so its lookups can extend along the text; the Bloom filter takes
    the text's k-mers one by one.
    """
    checked = violations = 0
    for _ in range(instances):
        text, pattern = make_instance(rng, max_text, max_pattern, plant=(30, 120))
        f = 1 if kind == flt.KIND_BLOOM else rng.choice((1, 2, 3))
        items = ([text] if kind == flt.KIND_TABLE
                 else (text[i:i + k] for i in range(len(text) - k + 1)))
        params = flt.size_for(max(len(text), 1), 0.01)
        filt = flt.filter_build(items, params, kind, flt.ITEMS_KMER, k)
        pms = pmm.kebab_pseudo_mems(pattern, filt, f)
        for mem in brute_force_f_mems(text, pattern, f):
            if mem.length < k:
                continue
            checked += 1
            if not any(pm.char_start <= mem.start and mem.end <= pm.char_end
                       for pm in pms):
                violations += 1
    return SuiteResult(f"KeBaB guarantee (k={k}, {kind})", instances, checked,
                       violations)


def kebab_split_holds(pattern: bytes, gap: int, k: int) -> bool:
    """Whether KeBaB, given every k-mer of ``pattern`` but the one at
    ``gap`` in a k-mer table, each k-mer a record of its own, splits the
    pattern at each position that holds that k-mer.

    The expected runs are the stretches of k-mer positions between those
    positions, the pattern's ends included; neighbouring runs with one such
    position between them must overlap by exactly k-2 characters.
    """
    m = len(pattern)
    absent = pattern[gap - 1:gap - 1 + k]
    kmers = [pattern[i - 1:i - 1 + k] for i in range(1, m - k + 2)]
    holes = [i for i, kmer in enumerate(kmers, 1) if kmer == absent]
    present = [kmer for kmer in kmers if kmer != absent]
    filt = flt.filter_build(present, flt.TABLE_PARAMS, flt.KIND_TABLE, flt.ITEMS_KMER, k)
    got = [(pm.char_start, pm.char_end)
           for pm in pmm.kebab_pseudo_mems(pattern, filt, 1)]
    edges = [0, *holes, m - k + 2]
    expected = [(a + 1, b + k - 2) for a, b in zip(edges, edges[1:]) if b - a > 1]
    lone = [(left, right) for left, right in zip(got, got[1:])
            if right[0] - (left[1] - k + 1) == 2]  # one k-mer position between
    return got == expected and all(left[1] - right[0] + 1 == k - 2
                                   for left, right in lone)


def suite_kebab_overlap(rng: random.Random, instances: int, k: int = 8
                        ) -> SuiteResult:
    """One absent k-mer strictly inside P splits it into pseudo-MEMs
    overlapping by exactly k-2 characters, wherever that k-mer occurs."""
    checked = violations = 0
    for _ in range(instances):
        m = rng.randint(3 * k, 6 * k)
        pattern = random_bytes(rng, m)
        positions = list(range(1, m - k + 2))
        gap = rng.choice(positions[1:-1])
        checked += 1
        if not kebab_split_holds(pattern, gap, k):
            violations += 1
    return SuiteResult(f"KeBaB k-2 overlap around one absent k-mer (k={k})",
                       instances, checked, violations)


def suite_refine_equivalence(rng: random.Random, instances: int, fpr: float = 0.01,
                             max_text: int = 800, max_pattern: int = 200,
                             w: int = 4, p: int = 5) -> SuiteResult:
    """No phrase a Bloom phrase filter rejects occurs in the text's parse,
    which is why ``refine``, which runs the parse route itself, may leave
    the coarse sets' answers out.

    The phrase filter an index holds, ``PhraseCounts``, answers from the
    parse index's own counts, so the check cannot fail with it.
    """
    checked = violations = 0
    for _ in range(instances):
        text, pattern = make_instance(
            rng, max_text, max_pattern,
            plant=(40, 120) if rng.random() < 0.7 else None)
        parse_t, parse_p, parse_index = build_parse_pair(text, pattern, w, p)
        params = flt.size_for(max(len(set(parse_t.symbols)), 1), fpr)
        phrase_filter = flt.filter_build(parse_t.symbols, params, flt.KIND_BLOOM,
                                         flt.ITEMS_PHRASE)
        coarse = pmm.coarse_sets(parse_p, phrase_filter, 1)
        checked += 1
        if any(not hit and parse_index.count((sym,))
               for hit, sym in zip(coarse.present, parse_p.symbols)):
            violations += 1  # the filter rejected a phrase that occurs
    return SuiteResult("coarse sets reject no phrase the text's parse holds (Bloom)",
                       instances, checked, violations)


def suite_minimizer_bounds(rng: random.Random, instances: int,
                           ) -> SuiteResult:
    """No phrase after the first is longer than w - k + 1; parses reconstruct."""
    checked = violations = 0
    for _ in range(instances):
        k = rng.randint(2, 6)
        w = rng.randint(k + 1, k + 12)
        order = rng.choice(("lex", "hash"))
        params = MinimizerParams(k=k, w=w, order=order, seed=rng.randrange(1 << 30))
        text = random_bytes(rng, rng.randint(w, 200))
        parse = minimizer_parse(text, params, PhraseDictionary())
        checked += 1
        bad = any(parse.phrase_length(i) > w - k + 1
                  for i in range(2, len(parse) + 1))
        if bad or parse.reconstruct() != text:
            violations += 1
    return SuiteResult("minimizer phrase-length bound", instances, checked,
                       violations)


def suite_minimizer_consistency(rng: random.Random, instances: int) -> SuiteResult:
    """Shared substrings of length l > 2w-2 parse identically on their
    central l - 2w + 2 characters."""
    checked = violations = 0
    for _ in range(instances):
        k = rng.randint(2, 5)
        w = rng.randint(k + 1, k + 8)
        order = rng.choice(("lex", "hash"))
        params = MinimizerParams(k=k, w=w, order=order, seed=rng.randrange(1 << 30))
        ell = rng.randint(2 * w - 1, 2 * w + 60)
        shared = random_bytes(rng, ell)
        x = random_bytes(rng, rng.randint(0, 40)) + shared + \
            random_bytes(rng, rng.randint(0, 40))
        y = random_bytes(rng, rng.randint(0, 40)) + shared + \
            random_bytes(rng, rng.randint(0, 40))
        off_x = x.index(shared)
        off_y = y.index(shared)
        checked += 1
        if _central_breaks(x, off_x, ell, w, params) != \
                _central_breaks(y, off_y, ell, w, params):
            violations += 1
    return SuiteResult("minimizer parse consistency window", instances, checked,
                       violations)


def _central_breaks(text: bytes, offset: int, ell: int, w: int,
                    params: MinimizerParams) -> list[int]:
    """Phrase boundaries inside the central part of a shared substring,
    relative to the substring start."""
    parse = minimizer_parse(text, params, PhraseDictionary())
    lo = offset + w - 1  # first central character, 0-based: offset + (w - 1)
    hi = offset + ell - w + 1  # one past the last central character
    breaks = []
    for i in range(1, len(parse)):
        end = parse.phrase_end(i)  # 1-based boundary after phrase i
        if lo < end <= hi:
            breaks.append(end - offset)
    return breaks


def suite_pipeline(rng: random.Random, instances: int,
                   max_text: int = 800, max_pattern: int = 200) -> SuiteResult:
    """find_long_mems returns the oracle's top t over the pseudo-MEMs that
    survive discarding, and its f-MEMs of length >= L, or all of them, over
    every pseudo-MEM."""
    checked = violations = 0
    for _ in range(instances):
        text, pattern, parse_t, parse_p, parse_index, f, mems, pms = \
            _parse_instance(rng, max_text, max_pattern)
        index = OccurrenceIndex(text)
        for t in (1, 10):
            retained = pmm.safe_discard(pms, t)
            got = pmm.find_long_mems(index, retained, pattern, f, t=t)
            checked += 1
            if not _mems_equal(got, top_t_cut(mems, t)):
                violations += 1
        for L in (None, rng.randint(2, 30)):
            got = pmm.find_long_mems(index, pms, pattern, f, L=L)
            checked += 1
            if not _mems_equal(got, [m for m in mems if m.length >= (L or 1)]):
                violations += 1
    return SuiteResult("pipeline matches the oracle", instances,
                       checked, violations)


def suite_filters(rng: random.Random, instances: int) -> SuiteResult:
    """No false negatives, no undercounts, across random insert/query mixes,
    and no false positives from the k-mer table."""
    checked = violations = 0
    for _ in range(instances):
        kind = rng.choice((flt.KIND_BLOOM, flt.KIND_TABLE))
        k = rng.randint(4, 12)
        n = rng.randint(1, 200)
        items = [random_bytes(rng, k) for _ in range(n)]
        params = flt.size_for(n, 10 ** rng.uniform(-3, -0.5))
        filt = flt.filter_build(items, params, kind, flt.ITEMS_KMER, k)
        truth: dict[bytes, int] = {}
        for item in items:
            truth[item] = truth.get(item, 0) + 1
        for item, count in truth.items():
            checked += 1
            if not filt.query(item):
                violations += 1
            if kind == flt.KIND_TABLE:
                checked += 1
                if filt.min_count(item) < count:
                    violations += 1
        if kind == flt.KIND_TABLE:  # its k-mers are stored exactly
            for _ in range(20):
                probe = random_bytes(rng, k)
                checked += 1
                if (probe in truth) != filt.query(probe):
                    violations += 1
    return SuiteResult("filter no-false-negative / no-undercount", instances,
                       checked, violations)


ALL_SUITES = (
    ("oracle", suite_oracle_equivalence),
    ("bml", suite_bml),
    ("lemma", suite_lemma1),
    ("containment", suite_property1),
    ("parsimony", suite_property2),
    ("lower-bound", suite_property3),
    ("safe-discard", suite_safe_discard),
    ("cutoff", suite_cutoff),
    ("suffix-array", suite_suffix_array),
    ("kebab", suite_kebab),
    ("kebab-overlap", suite_kebab_overlap),
    ("refine", suite_refine_equivalence),
    ("minimizer-bound", suite_minimizer_bounds),
    ("minimizer-consistency", suite_minimizer_consistency),
    ("pipeline", suite_pipeline),
    ("filters", suite_filters),
)


def run_all(seed: int, instances: int) -> list[SuiteResult]:
    """Run every suite at its defaults with its own deterministic RNG stream."""
    return [suite(random.Random(f"{seed}:{name}"), instances)
            for name, suite in ALL_SUITES]
