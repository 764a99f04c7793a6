"""Acceptance checks: one test per criterion, each printing a pass/fail line.

Every check runs the real implementation against an independent brute-force
oracle on seeded random instances, at the sizes and tolerances fixed below.
"""

import random
import time

import pytest

from parsemem import filters as flt
from parsemem.bundle import load_bundle, save_bundle
from parsemem.cli import main
from parsemem.filters import PhraseCounts
from parsemem.pseudomem import (coarse_sets, kebab_pseudo_mems,
                                parse_pseudo_mems, refine)
from parsemem.verify import (build_parse_pair, kebab_split_holds,
                             lemma1_counts, make_instance, random_bytes,
                             suite_kebab, suite_kebab_overlap,
                             suite_minimizer_bounds,
                             suite_minimizer_consistency,
                             suite_oracle_equivalence, suite_property1,
                             suite_property2, suite_property3,
                             suite_refine_equivalence, suite_safe_discard)

from conftest import record_criterion

SEED = 20240817


def rng_for(name: str) -> random.Random:
    return random.Random(f"{SEED}:{name}")


def report(number: int, ok: bool, description: str, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    record_criterion(line)
    return line


def test_criterion_01_oracle_equivalence():
    t0 = time.monotonic()
    res = suite_oracle_equivalence(rng_for("c1"), 1000, max_text=2000,
                                   max_pattern=200, fs=(1, 2, 3, 5))
    elapsed = time.monotonic() - t0
    ok = res.ok and elapsed < 60.0
    line = report(1, ok, "find_f_mems equals the brute-force oracle on 1000 "
                         "instances, |T| <= 2000, |P| <= 200, f in {1,2,3,5}",
                  f"{res.checked} checks, {res.violations} violations, {elapsed:.1f}s")
    assert ok, line


def test_criterion_02_parse_interval_equivalence():
    """Both directions of the parse-interval / f-MEM equivalence, over every
    phrase interval of 200 small parses.

    The forward direction (parse occurrence implies containment in an f-MEM)
    is checked on every interval.  The converse is checked on every interval
    in the form the parse promises: exact phrase IDs on internal intervals,
    and on intervals touching the pattern's first or last phrase, which the
    string ends cut rather than triggers, text phrases that end with
    the first phrase, begin with the last, or contain a lone phrase
    (``verify.phrase_placements``).  How many boundary intervals would fail
    an exact-ID converse is reported alongside for diagnosis.
    """
    t0 = time.monotonic()
    c = lemma1_counts(rng_for("c2"), 200, w=4, p=5, max_text=600,
                      max_pattern=100, max_parse_len=30)
    elapsed = time.monotonic() - t0
    ok = (c.forward_violations == 0 and c.converse_violations == 0
          and c.boundary > 0 and elapsed < 120.0)
    line = report(
        2, ok,
        "parse-interval occurrence iff f-MEM containment, all intervals of "
        "200 parses with |PFP(P)| <= 30",
        f"{c.intervals} checks, {c.forward_violations} forward / "
        f"{c.converse_violations} converse violations; internal intervals: "
        f"{c.internal} checks, {c.internal_violations} violations; boundary "
        f"intervals inside an f-MEM: {c.boundary} checks, "
        f"{c.boundary_violations} violations "
        f"({c.boundary_strict_violations} with exact phrase IDs); {elapsed:.1f}s")
    assert ok, line


def test_criterion_03_pseudo_mems_contain_all_f_mems():
    res = suite_property1(rng_for("c3"), 1000)
    line = report(3, res.ok, "every oracle f-MEM is contained in a parse "
                             "pseudo-MEM over 1000 instances with planted "
                             "substrings of length 50-150",
                  f"{res.checked} checks, {res.violations} violations")
    assert res.ok, line


def test_criterion_04_lower_bounds_are_certificates():
    res = suite_property3(rng_for("c4"), 1000)
    line = report(4, res.ok, "every pseudo-MEM with lower bound b > 0 contains "
                             "an oracle f-MEM of length >= b over 1000 instances",
                  f"{res.checked} checks, {res.violations} violations")
    assert res.ok, line


def test_criterion_05_trimmed_extensions_are_proper_substrings():
    res = suite_property2(rng_for("c5"), 500)
    line = report(5, res.ok, "trimmed unclipped S1 pseudo-MEMs (>= 4 phrases) "
                             "are proper substrings of oracle f-MEMs over 500 "
                             "instances",
                  f"{res.checked} checks, {res.violations} violations")
    assert res.ok, line


def test_criterion_06_safe_discard_keeps_top_t():
    res = suite_safe_discard(rng_for("c6"), 1000, ts=(1, 3, 10))
    line = report(6, res.ok, "the oracle's t longest f-MEMs survive safe "
                             "discarding for t in {1,3,10} over 1000 instances",
                  f"{res.checked} checks, {res.violations} violations")
    assert res.ok, line


def test_criterion_07_kebab_guarantee():
    checked = violations = 0
    details = []
    for k in (8, 20):
        for kind in (flt.KIND_BLOOM, flt.KIND_EXACT, flt.KIND_TABLE):
            res = suite_kebab(rng_for(f"c7:{k}:{kind}"), 125, k=k, kind=kind)
            checked += res.checked
            violations += res.violations
            details.append(f"k={k}/{kind}: {res.violations}")
        res = suite_kebab_overlap(rng_for(f"c7o:{k}"), 100, k=k)
        checked += res.checked
        violations += res.violations
        details.append(f"k={k}/overlap: {res.violations}")
    ok = violations == 0
    line = report(7, ok, "KeBaB misses no MEM of length >= k for k in {8,20} "
                         "with Bloom and exact filters and the k-mer table, "
                         "and one absent k-mer splits runs overlapping by k-2",
                  f"{checked} checks, " + ", ".join(details))
    assert ok, line


def test_kebab_overlap_with_the_absent_kmer_repeated():
    # criterion 7's overlap check at verify seed 2, instance 15: the k-mer
    # drawn as absent at 13 occurs again at 28, so KeBaB rightly returns
    # three runs, each neighbour overlapping the next by k-2
    pattern = b"CACTTCTTCGACATATTACGCTCTCGCATATTACGGCAGCGAGT"
    kmers = [pattern[i:i + 8] for i in range(len(pattern) - 7)]
    present = [kmer for kmer in kmers if kmer != pattern[12:20]]
    filt = flt.filter_build(present, flt.size_for(len(present), 0.01),
                            flt.KIND_EXACT, flt.ITEMS_KMER, 8)
    assert [(pm.char_start, pm.char_end)
            for pm in kebab_pseudo_mems(pattern, filt, 1)] == \
        [(1, 19), (14, 34), (29, 44)]
    assert kebab_split_holds(pattern, 13, 8) and kebab_split_holds(pattern, 28, 8)
    res = suite_kebab_overlap(random.Random("2:kebab-overlap"), 16)
    assert res.ok and res.checked == 16, res.line()


def test_kebab_guarantee_with_the_stored_kmer_table():
    # criterion 7's check with the k-mer table an index stores, f in {1,2,3}
    for k in (8, 20):
        res = suite_kebab(rng_for(f"c7t:{k}"), 125, k=k, kind=flt.KIND_TABLE)
        assert res.ok and res.checked > 0, res.line()


def test_criterion_08_minimizer_guarantees():
    bound = suite_minimizer_bounds(rng_for("c8a"), 10000)
    consistency = suite_minimizer_consistency(rng_for("c8b"), 2000)
    ok = bound.ok and consistency.ok
    line = report(8, ok, "minimizer phrases after the first are <= w-k+1 on "
                         "10^4 strings; shared substrings longer than 2w-2 "
                         "parse identically on their central part",
                  f"bound: {bound.checked} checks, {bound.violations} violations; "
                  f"consistency: {consistency.checked} checks, "
                  f"{consistency.violations} violations")
    assert ok, line


def test_criterion_09_refine_equals_direct():
    exact = suite_refine_equivalence(rng_for("c9e"), 500, kind=flt.KIND_EXACT)
    bloom = suite_refine_equivalence(rng_for("c9b"), 500, kind=flt.KIND_BLOOM,
                                     fpr=0.01)
    ok = exact.ok and bloom.ok
    line = report(9, ok, "coarse-then-refine equals direct parse pseudo-MEMs "
                         "on 500 instances each with exact and 1%-FPR Bloom "
                         "phrase filters",
                  f"exact: {exact.violations} violations, "
                  f"bloom: {bloom.violations} violations")
    assert ok, line


def test_refine_equivalence_with_the_parse_index_counts():
    # criterion 9's check with the phrase filter an index holds, its parse
    # index's own counts, f in {1,2,3}: each answer is the exact count's
    rng = rng_for("c9t")
    for _ in range(300):
        text, pattern = make_instance(rng, 800, 200,
                                      plant=(40, 120) if rng.random() < 0.7 else None)
        _, parse_p, parse_index = build_parse_pair(text, pattern, 4, 5)
        filt = PhraseCounts(parse_index.forward.buckets)
        for f in (1, 2, 3):
            coarse = coarse_sets(parse_p, filt, f)
            assert list(coarse.present) == [parse_index.count((sym,)) >= f
                                            for sym in parse_p.symbols]
            assert refine(coarse, parse_p, parse_index, f) == \
                parse_pseudo_mems(parse_p, parse_index, f)


def test_criterion_10_bloom_statistics():
    rng = rng_for("c10")
    t0 = time.monotonic()
    n = 10 ** 4
    inserted = set()
    while len(inserted) < n:
        inserted.add(random_bytes(rng, 12))
    params = flt.size_for(n, 0.01)
    filt = flt.filter_build(inserted, params, flt.KIND_BLOOM, flt.ITEMS_KMER, 12)
    false_negatives = sum(not filt.query(item) for item in inserted)
    fresh = 0
    positives = 0
    while fresh < 10 ** 5 - n:
        item = random_bytes(rng, 12)
        if item in inserted:
            continue
        fresh += 1
        positives += filt.query(item)
    observed = positives / fresh
    predicted = flt.expected_fpr(params, n)
    elapsed = time.monotonic() - t0
    ok = (false_negatives == 0 and predicted / 2 <= observed <= 2 * predicted
          and elapsed < 10.0)
    line = report(10, ok, "Bloom FPR within 2x of the design estimate at "
                          "n=10^4; no false negatives across 10^5 queries",
                  f"observed {observed:.4f} vs predicted {predicted:.4f}, "
                  f"{false_negatives} false negatives, {elapsed:.1f}s")
    assert ok, line


def test_criterion_11_end_to_end_determinism(tmp_path, capsys):
    rng = rng_for("c11")
    text = random_bytes(rng, 1200)
    pattern = random_bytes(rng, 15) + text[200:320] + random_bytes(rng, 15)
    text_path = tmp_path / "t.fa"
    text_path.write_bytes(b">r\n" + text + b"\n")
    pat_path = tmp_path / "p.fa"
    pat_path.write_bytes(b">q\n" + pattern + b"\n")

    index_a, index_b = str(tmp_path / "a.pmidx"), str(tmp_path / "b.pmidx")
    for out in (index_a, index_b):
        assert main(["build", str(text_path), "-o", out,
                     "-w", "6", "-p", "5", "-k", "8"]) == 0
    capsys.readouterr()
    with open(index_a, "rb") as fa, open(index_b, "rb") as fb:
        builds_identical = fa.read() == fb.read()

    round_trip = str(tmp_path / "c.pmidx")
    save_bundle(load_bundle(index_a), round_trip)
    with open(index_a, "rb") as fa, open(round_trip, "rb") as fc:
        round_trip_identical = fa.read() == fc.read()

    outputs = []
    for _ in range(2):
        assert main(["query", str(pat_path), "--index", index_a,
                     "--mode", "combined", "-t", "5"]) == 0
        outputs.append(capsys.readouterr().out)
    queries_identical = outputs[0] == outputs[1] and "mem\t" in outputs[0]

    ok = builds_identical and round_trip_identical and queries_identical
    line = report(11, ok, "index builds, index round-trips, and query TSV are "
                          "byte-identical across runs",
                  f"build={builds_identical}, round_trip={round_trip_identical}, "
                  f"query={queries_identical}")
    assert ok, line
