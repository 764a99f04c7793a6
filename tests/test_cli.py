import argparse
import bisect
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import pkgutil
import random
import re
import struct
import subprocess
import sys
from array import array
from collections import Counter
from typing import NamedTuple

import pytest

import parsemem
from parsemem import cli
from parsemem import filters as flt
from parsemem.bundle import (FORMAT_VERSION, MAGIC, SECTIONS, _below,
                             load_bundle, save_bundle)
from parsemem.cli import main
from parsemem.errors import IndexFormatError, ItemKindMismatch
from parsemem.oracle import brute_force_f_mems, top_t_cut
from parsemem.parsing import PhraseDictionary, choose_trigger, pfp_parse
from parsemem.seqindex import OccurrenceIndex, PrefixTable, _build_suffix_array

MODES = ("exact", "kebab", "parse", "combined")


def rand_dna(rng, n):
    return bytes(rng.choice(b"ACGT") for _ in range(n))


def corpus_records():
    """The corpus's text and pattern records."""
    rng = random.Random(201)
    text = rand_dna(rng, 1500)
    pattern = rand_dna(rng, 20) + text[300:420] + rand_dna(rng, 20)
    return [("chr1", text)], [("q1", pattern)]


def write_records(path, records, raw):
    """Write (name, sequence) records as FASTA, or as raw lines when ``raw``."""
    path.write_bytes(b"".join(seq + b"\n" if raw else b">%s\n%s\n" % (name.encode(), seq)
                              for name, seq in records))


@pytest.fixture
def corpus(tmp_path):
    """A text, a pattern sharing a long substring with it, and their files."""
    records, patterns = corpus_records()
    text_path, pat_path = tmp_path / "text.fa", tmp_path / "patterns.fa"
    write_records(text_path, records, False)
    write_records(pat_path, patterns, False)
    return {"text": records[0][1], "pattern": patterns[0][1], "text_path": str(text_path),
            "pat_path": str(pat_path), "index": str(tmp_path / "index.pmidx")}


def build(corpus, *extra):
    rc = main(["build", corpus["text_path"], "-o", corpus["index"],
               "-w", "6", "-p", "5", "-k", "8", *extra])
    assert rc == 0


def query(corpus, capsys, *extra):
    rc = main(["query", corpus["pat_path"], "--index", corpus["index"], *extra])
    out = capsys.readouterr().out
    return rc, out


def mutate(rng, seq, n, differ, alphabet=b"ACGT"):
    """``seq`` with ``n`` positions redrawn from ``alphabet``; when
    ``differ``, each from the symbols other than the one it replaces."""
    seq = bytearray(seq)
    for i in rng.sample(range(len(seq)), n):
        seq[i] = rng.choice([c for c in alphabet if c != seq[i]] if differ else alphabet)
    return bytes(seq)


def mutated_copies(rng, length, copies):
    """``copies`` copies of one random DNA founder, 1% of each copy's
    positions redrawn."""
    founder = rand_dna(rng, length)
    return [mutate(rng, founder, length // 100, False) for _ in range(copies)]


def pieces(rng, seq, count, size, subs, differ, alphabet=b"ACGT"):
    """``count`` pattern records, each ``size`` symbols of ``seq`` from a
    random start with ``subs`` of them redrawn."""
    out = []
    for i in range(count):
        a = rng.randrange(len(seq) - size)
        out.append((f"q{i + 1}", mutate(rng, seq[a:a + size], subs, differ, alphabet)))
    return out


def copies_records(seed, length, count, subs, differ, queries, size):
    """``count`` copies of a random DNA founder of ``length``, ``subs``
    positions of each redrawn, and ``queries`` pieces of the founder."""
    rng = random.Random(seed)
    founder = bytes(rng.choices(b"ACGT", k=length))
    haps = [(f"hap{i + 1}", mutate(rng, founder, subs, differ)) for i in range(count)]
    return haps, pieces(rng, founder, queries, size, 2, differ)


def piece_records():
    """A 3 kb text and a pattern of two of its pieces joined by ACGT."""
    text = rand_dna(random.Random(1), 3000)
    return [("r1", text)], [("q1", text[500:700] + b"ACGT" + text[900:1000])]


def protein_records():
    """3,000 protein letters as two records, and a pattern across them."""
    rng = random.Random(2)
    text = bytes(rng.choice(b"ACDEFGHIKLMNPQRSTVWY") for _ in range(3000))
    return ([("p1", text[:1200]), ("p2", text[1200:])],
            [("q1", text[1100:1300] + b"WWW" + text[2000:2100])])


def random_dna_records():
    """20 kb of random DNA and 8 pieces of it with 10 substitutions each."""
    rng = random.Random(7)
    text = bytes(rng.choices(b"ACGT", k=20000))
    return [("r1", text)], pieces(rng, text, 8, 1000, 10, True)


def byte_records():
    """100 kb over the 200 byte values 14..213 (no NUL or line break) and
    8 pieces of it with two bytes redrawn, as raw lines."""
    rng = random.Random(5)
    alphabet = bytes(range(14, 214))
    text = bytes(rng.choice(alphabet) for _ in range(100000))
    patterns = pieces(rng, text, 8, 2000, 2, False, alphabet)
    # the raw reader names lines p1, p2, ...
    return [("r1", text)], [(f"p{i}", seq) for i, (_, seq) in enumerate(patterns, 1)]


def dna_records():
    """100 kb of random DNA, and no patterns."""
    return [("r1", rand_dna(random.Random(4), 100000))], []


def numbered(*seqs):
    """Text records ``r0``, ``r1``, ... and no patterns."""
    return [(f"r{i}", seq) for i, seq in enumerate(seqs)], []


# Each scenario's inputs, build flags and format flags; the fixture
# ``scenarios`` builds each index once per module.
SCENARIOS = {
    "corpus": (corpus_records, ("-w", "6", "-p", "5", "-k", "8"), ()),
    "pieces": (piece_records, (), ()),
    # 24 copies of a 600 bp founder, 3 redrawn each: a match's left growth
    # ends with more or fewer rows than seqindex.NARROW (16), so the scan
    # both re-walks matches forward and finishes them from their
    # occurrences, near-misses included
    "copies24": (lambda: copies_records(3, 600, 24, 3, False, 6, 200), (), ()),
    # 3,859 phrases over 108 distinct IDs, all derived on load
    "copies24_w1p3": (lambda: copies_records(3, 600, 24, 3, False, 6, 200),
                      ("-w", "1", "-p", "3"), ()),
    # 6 copies, 12 substitutions each: left growths end with 2 to 16 rows,
    # so at f >= 2 the scan finishes matches from their occurrences by the
    # f-th largest agreement
    "copies6": (lambda: copies_records(8, 600, 6, 12, True, 6, 200), (), ()),
    # 100 copies of a 300 bp founder, one substitution each: a growth that
    # stops inside them ties with about 100 rows, so grow bisects for its
    # interval's edges; the text suffix array takes five doubling rounds
    # after the 32-symbol seed
    "copies100": (lambda: copies_records(6, 300, 100, 1, True, 4, 150), (), ()),
    # kebab's runs and the parse windows start inside the pattern, so
    # matches that reach a window's left edge are checked by a count after
    # a forward re-walk, or by the text before their occurrences; the
    # 32-symbol seed alone sorts the suffix array, as its 32-mers all differ
    "random20k": (random_dna_records, (), ()),
    # a text outside ACGT, no --dna, through the same k-mer table
    "protein": (protein_records, (), ()),
    # a one-symbol text has no prefix table
    "one_symbol": (lambda: ([("a", b"A" * 5000)], [("q1", b"A" * 40 + b"C" + b"A" * 70)]),
                   (), ()),
    # l = 2 at -p 60 and about 600 anchors, each found by its own search
    "bytes200": (byte_records, ("-p", "60"), ("--format", "raw")),
    "dna100k_p4": (dna_records, ("-p", "4"), ()),
    "dna100k_p8": (dna_records, ("-p", "8"), ()),
    "dna100k_w4p8": (dna_records, ("-w", "4", "-p", "8"), ()),
    # TestBundleFormat.PHRASE_SHAPES says what these five show
    "nul_joined_copies": (lambda: numbered(*mutated_copies(random.Random(5), 300, 6)),
                          ("-w", "4", "-p", "7"), ()),
    "shorter_than_w": (lambda: numbered(b"ACG", b"T"), ("-w", "6", "-p", "5"), ()),
    "no_trigger": (lambda: numbered(b"ACGTTGCA" * 40), ("-w", "6", "-p", str(1 << 50)), ()),
    "w1_p3": (lambda: numbered(b"ACGT" * 30, b"TTGCA" * 40), ("-w", "1", "-p", "3"), ()),
    "w10_p50": (lambda: numbered(*mutated_copies(random.Random(8), 900, 2)),
                ("-w", "10", "-p", "50"), ()),
}


class Scenario(NamedTuple):
    text: bytes  # the text's records joined by NUL, as the index holds it
    patterns: list  # the patterns' (name, sequence) records
    pat_path: str
    index: str
    fmt: tuple  # the format flags its files are read with
    log: str  # what the build printed to standard error


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory):
    """The scenario of a name, its files written and its index built on
    first use."""
    built = {}

    def scenario(name):
        if name not in built:
            make, flags, fmt = SCENARIOS[name]
            records, patterns = make()
            work = tmp_path_factory.mktemp(name)
            text_path, pat_path = work / "text", work / "patterns"
            write_records(text_path, records, bool(fmt))
            write_records(pat_path, patterns, bool(fmt))
            index, log = str(work / "index.pmidx"), io.StringIO()
            with contextlib.redirect_stderr(log):
                assert main(["build", str(text_path), "-o", index, *fmt, *flags]) == 0
            built[name] = Scenario(b"\0".join(seq for _, seq in records), patterns,
                                   str(pat_path), index, fmt, log.getvalue())
        return built[name]
    return scenario


def scenario_output(capsys, command, scenario, *flags):
    """What ``command`` prints for the scenario's patterns."""
    assert main([command, scenario.pat_path, "--index", scenario.index,
                 *scenario.fmt, *flags]) == 0
    return capsys.readouterr().out


def cases(name, *flag_sets):
    """A parameter set on scenario ``name`` per query flag set, named by the
    scenario and the flags; the corpus's by the flags alone."""
    out = []
    for flags in flag_sets:
        tag = "-".join(flag[1:] + value for flag, value
                       in zip(flags[::2], flags[1::2])) or "none"
        out.append(pytest.param(name, flags, id=tag if name == "corpus" else f"{name}-{tag}"))
    return out


# -L 5 sits below k=8, where KeBaB runs need not hold every match
CORPUS_CASES = cases("corpus", ("-L", "25"), ("-L", "5"), ("-t", "1"), ("-t", "3"), ())


def rewrite_section(path, name, change):
    """Replace section ``name`` of an index file by ``change(payload)``,
    with a fresh checksum, so only the loader's own checks can catch it."""
    with open(path, "rb") as fh:
        data = fh.read()
    out, off = [data[:len(MAGIC) + 8]], len(MAGIC) + 8
    while off < len(data):
        (name_len,) = struct.unpack_from("<H", data, off)
        section = data[off + 2:off + 2 + name_len].decode("ascii")
        (size,) = struct.unpack_from("<Q", data, off + 2 + name_len)
        start = off + 2 + name_len + 8 + 32
        payload = data[start:start + size]
        if section == name:
            payload = change(payload)
        out.append(data[off:off + 2 + name_len] + struct.pack("<Q", len(payload))
                   + hashlib.sha256(payload).digest() + payload)
        off = start + size
    with open(path, "wb") as fh:
        fh.write(b"".join(out))


def repeat_first_section(data):
    """``data`` with its first section written again after the last, and
    the section count raised by one to take it."""
    start = len(MAGIC) + 8
    (name_len,) = struct.unpack_from("<H", data, start)
    (size,) = struct.unpack_from("<Q", data, start + 2 + name_len)
    version, count = struct.unpack_from("<II", data, len(MAGIC))
    return (MAGIC + struct.pack("<II", version, count + 1) + data[start:]
            + data[start:start + 2 + name_len + 40 + size])


def mem_rows(output):
    rows = []
    for line in output.splitlines():
        cols = line.split("\t")
        if cols[0] == "mem":
            # drop the mode column so rows compare across modes
            rows.append((cols[1], cols[3], cols[4], cols[5], cols[6]))
    return sorted(rows)


def oracle_rows(text, patterns, flags):
    """The brute-force oracle's mem rows for ``patterns`` under the query
    ``flags``, as ``mem_rows`` gives them."""
    opts = dict(zip(flags[::2], map(int, flags[1::2])))
    rows = []
    for name, pattern in patterns:
        mems = brute_force_f_mems(text, pattern, opts.get("-f", 1))
        if "-t" in opts:
            mems = top_t_cut(mems, opts["-t"])
        elif "-L" in opts:
            mems = [m for m in mems if m.length >= opts["-L"]]
        rows += [(name, str(m.start), str(m.end), str(m.length), str(m.freq))
                 for m in mems]
    return sorted(rows)


class TestBuildQuery:
    def test_round_trip(self, corpus, capsys):
        build(corpus)
        rc, out = query(corpus, capsys, "--mode", "parse")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("# parsemem query mode=parse")
        kinds = {line.split("\t")[0] for line in lines[1:]}
        assert "pmem" in kinds and "mem" in kinds
        # the planted 120-char substring must surface as a long MEM
        assert any(int(c[3]) >= 120 for c in mem_rows(out))

    def test_kmer_table_of_a_multi_record_protein_text(self, tmp_path, capsys):
        # the stored table holds each record's k-mers with their counts and
        # none across the NUL between records; kebab reports exact's matches
        rng = random.Random(211)
        records = [bytes(rng.choice(b"ACDEFGHIKL") for _ in range(n))
                   for n in (300, 5, 400)]
        records[2] = records[2][:100] + records[0][50:150] + records[2][100:]
        text_path = tmp_path / "t.fa"
        text_path.write_bytes(b"".join(b">r%d\n%s\n" % (i, r)
                                       for i, r in enumerate(records)))
        pattern = records[0][40:160] + b"WYWY" + records[2][300:380]
        pat_path = tmp_path / "p.fa"
        pat_path.write_bytes(b">q1\n" + pattern + b"\n")
        index = str(tmp_path / "i.pmidx")
        assert main(["build", str(text_path), "-o", index, "-k", "8"]) == 0
        truth = {}
        for record in records:
            for i in range(len(record) - 7):
                truth[record[i:i + 8]] = truth.get(record[i:i + 8], 0) + 1
        table = load_bundle(index).kmer_filter
        assert len(table.starts) == len(truth)
        assert all(table.min_count(kmer) == count for kmer, count in truth.items())
        joined = b"\x00".join(records)
        assert not any(table.query(joined[i:i + 8]) for i in range(len(joined) - 7)
                       if 0 in joined[i:i + 8])
        for flags in (["-t", "3"], ["-L", "10"], ["-f", "2", "-t", "1"]):
            rows = {}
            for mode in ("exact", "kebab"):
                assert main(["query", str(pat_path), "--index", index,
                             "--mode", mode, *flags]) == 0
                rows[mode] = mem_rows(capsys.readouterr().out)
            assert rows["kebab"] == rows["exact"] and rows["exact"], flags

    def test_pmem_rows_are_well_formed(self, corpus, capsys):
        build(corpus)
        _, out = query(corpus, capsys, "--mode", "parse", "-t", "3")
        for line in out.splitlines():
            cols = line.split("\t")
            if cols[0] != "pmem":
                continue
            assert cols[1] == "q1"
            assert cols[2] in ("S1", "S2", "WHOLE")
            assert int(cols[3]) <= int(cols[4])
            assert int(cols[5]) >= 0
            assert cols[6] in ("0", "1")

    @pytest.mark.parametrize("name, flags", [
        *CORPUS_CASES,
        *cases("pieces", ("-t", "3")),
        # at -t 1 the parse route's cutoff (17-176 here; 0 at -t 3) is the L
        # its scan starts at; with neither -t nor -L every f-MEM is printed
        # and every growth of at least q symbols starts from the table; at
        # -f 2 kebab reads the k-mer table's counts and parse and combined
        # the parse index's phrase counts; at f = 5 a match finished from its
        # occurrences grows by the 5th largest of their agreements: at -L 20
        # every left growth here keeps more than 16 rows, and at -t 1 the
        # parse route's scan, started at its cutoff, finishes three matches
        # from 9-14 occurrences
        *cases("copies24", ("-t", "3"), ("-t", "1"), ("-L", "30"), (),
               ("-f", "2", "-t", "3"), ("-f", "5", "-L", "20"), ("-f", "5", "-t", "1")),
        *cases("copies24_w1p3", ("-t", "3")),
        # 30-37 finishes from occurrences per mode at -f 2 -t 3 and 58-60 at
        # -f 3 -L 20, where the 24 copies reach one and none
        *cases("copies6", ("-f", "2", "-t", "3"), ("-f", "3", "-L", "20")),
        # at -L 12 near-misses with about 100 rows are finished by the
        # forward re-walk
        *cases("copies100", ("-t", "3"), ("-L", "30"), ("-L", "12"), ("-f", "40", "-t", "3")),
        *cases("random20k", ("-t", "3"), ("-L", "30")),
        *cases("protein", ("-t", "3")),
        *cases("one_symbol", ("-t", "3"))])
    def test_modes_agree_on_long_mems(self, scenarios, capsys, name, flags):
        scenario = scenarios(name)
        want = oracle_rows(scenario.text, scenario.patterns, flags)
        assert want
        for mode in MODES:
            out = scenario_output(capsys, "query", scenario, "--mode", mode, *flags)
            assert mem_rows(out) == want, mode

    # kebab looks up k-mers over all 200 byte values, sliced from the text
    # at the table's starts; at -f 2 it looks up every k-mer, where at -f 1
    # it extends present k-mers along the text
    @pytest.mark.parametrize("name, flags", cases("bytes200", ("-t", "3"), ("-f", "2", "-t", "3")))
    def test_modes_print_exacts_mem_rows(self, scenarios, capsys, name, flags):
        # a text too long for the oracle to judge within the suite's time
        scenario = scenarios(name)
        want = mem_rows(scenario_output(capsys, "query", scenario, "--mode", "exact", *flags))
        assert want
        for mode in MODES[1:]:
            out = scenario_output(capsys, "query", scenario, "--mode", mode, *flags)
            assert mem_rows(out) == want, mode

    # bytes200 parses into many distinct phrase IDs
    @pytest.mark.parametrize("name, flags", [*CORPUS_CASES, *cases("pieces", ("-t", "3")),
                                             *cases("bytes200", ("-t", "3"))])
    def test_parse_and_combined_are_one_route(self, scenarios, capsys, name, flags):
        # combined runs the parse route as it is: the same pmem rows, the
        # same mem rows once their mode column is masked, and the same
        # stats row, counted work included
        scenario = scenarios(name)
        printed = {}
        for mode in ("parse", "combined"):
            lines = []
            for command in ("query", "stats"):
                lines += scenario_output(capsys, command, scenario, "--mode", mode,
                                         *flags).splitlines()
            rows = [line.split("\t") for line in lines if not line.startswith("#")]
            printed[mode] = [row[:2] + ["-"] + row[3:] if row[0] == "mem" else row
                             for row in rows]
        assert printed["parse"] == printed["combined"]
        assert {row[0] for row in printed["parse"]} >= {"pmem", "mem",
                                                         scenario.patterns[0][0]}

    @pytest.mark.parametrize("records, flags, pattern", [
        ((b"GAGACAACACAACAACCGAAACGGCGCGAGC", b"GAGACAACACAACAACCCAAACGGCGCGAGC"),
         ("-w", "2", "-p", "4"), b"CAACCGGCAACACAACAACCGAAACGGCGCGAGC"),
        ((b"AGGGGCGAGAAAGCACCAAGGCAGAAGGGGAGCAAACC",
          b"CGGGGCGAGAAGGCACCAAGGCAGAAGGGGAGCAAACC"),
         ("-w", "4", "-p", "3"), b"AGAAGGCACCAAGGCCGAAGGGCAGCACCAAGGCAGAAGGGGAGCAAACC")],
        ids=["w2p4", "w4p3"])
    def test_modes_agree_over_nested_certificates(self, tmp_path, capsys, records,
                                                  flags, pattern):
        # two S1 pseudo-MEMs, one window inside the other, owe their bounds
        # to one f-MEM; counting both overstated the parse route's cutoff,
        # which discarded the window of the second longest f-MEM at -t 2
        text_path = tmp_path / "t.fa"
        text_path.write_bytes(b">a\n" + records[0] + b"\n>b\n" + records[1] + b"\n")
        pat_path = tmp_path / "p.fa"
        pat_path.write_bytes(b">q\n" + pattern + b"\n")
        index = str(tmp_path / "i.pmidx")
        assert main(["build", str(text_path), "-o", index, *flags]) == 0
        want_rows = oracle_rows(b"\0".join(records), [("q", pattern)], ("-t", "2"))
        capsys.readouterr()
        for mode in MODES:
            assert main(["query", str(pat_path), "--index", index,
                         "--mode", mode, "-t", "2"]) == 0
            assert mem_rows(capsys.readouterr().out) == want_rows, mode

    def test_queries_do_not_grow_the_dictionary(self, corpus, capsys,
                                                monkeypatch):
        build(corpus)
        size = len(load_bundle(corpus["index"]).dictionary)
        loaded = []

        def spy(path):
            loaded.append(load_bundle(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_bundle", spy)
        for mode in ("parse", "combined"):
            assert query(corpus, capsys, "--mode", mode)[0] == 0
        assert [len(bundle.dictionary) for bundle in loaded] == [size, size]

    def test_modes_agree_past_saturated_counters(self, tmp_path, capsys):
        # f above 255 must not turn saturated filter counters into "absent"
        text_path = tmp_path / "t.txt"
        text_path.write_bytes(b"A" * 400 + b"\n")
        pat_path = tmp_path / "p.txt"
        pat_path.write_bytes(b"A" * 60 + b"\n")
        index = str(tmp_path / "i.pmidx")
        assert main(["build", str(text_path), "-o", index, "--format", "raw"]) == 0
        for mode in ("exact", "kebab", "parse", "combined"):
            rc = main(["query", str(pat_path), "--index", index, "--format",
                       "raw", "--mode", mode, "-f", "300", "-L", "20"])
            assert rc == 0
            assert mem_rows(capsys.readouterr().out) == [
                ("p1", "1", "60", "60", "341")], mode

    def test_exact_mode_top_t(self, corpus, capsys):
        build(corpus)
        rc, out = query(corpus, capsys, "--mode", "exact", "-t", "1")
        assert rc == 0
        rows = mem_rows(out)
        assert rows
        assert max(int(c[3]) for c in rows) >= 120

    def test_empty_pattern_gets_status_row(self, corpus, tmp_path, capsys):
        build(corpus)
        raw = tmp_path / "pats.txt"
        raw.write_bytes(b"ACGTACGTACGTACGT\n\n")
        rc = main(["query", str(raw), "--index", corpus["index"],
                   "--format", "raw"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "status\tp2\tempty pattern" in out

    def test_separator_blocks_cross_record_mems(self, tmp_path, capsys):
        # two records; a pattern stitched across them must not match whole
        rng = random.Random(203)
        a, b = rand_dna(rng, 200), rand_dna(rng, 200)
        text_path = tmp_path / "t.fa"
        text_path.write_bytes(b">r1\n" + a + b"\n>r2\n" + b + b"\n")
        pat_path = tmp_path / "p.fa"
        pat_path.write_bytes(b">q\n" + a[-30:] + b[:30] + b"\n")
        index = str(tmp_path / "i.pmidx")
        assert main(["build", str(text_path), "-o", index]) == 0
        rc = main(["query", str(pat_path), "--index", index, "--mode", "exact"])
        out = capsys.readouterr().out
        assert rc == 0
        assert all(int(c[3]) < 60 for c in mem_rows(out))

    def test_env_var_supplies_index(self, corpus, capsys, monkeypatch):
        build(corpus)
        monkeypatch.setenv("PARSEMEM_INDEX", corpus["index"])
        rc = main(["query", corpus["pat_path"], "--mode", "exact"])
        assert rc == 0
        assert mem_rows(capsys.readouterr().out)

    def test_missing_index_is_usage_error(self, corpus, capsys, monkeypatch):
        monkeypatch.delenv("PARSEMEM_INDEX", raising=False)
        rc = main(["query", corpus["pat_path"]])
        assert rc == 2

    def test_blank_fasta_header_names_the_empty_record(self, tmp_path, capsys):
        # a header of only whitespace names its record "", as a bare ">" does
        text = rand_dna(random.Random(213), 400)
        text_path, pat_path = tmp_path / "t.fa", tmp_path / "p.fa"
        text_path.write_bytes(b">  \n" + text + b"\n")
        pat_path.write_bytes(b"> \t\n" + text[100:160] + b"\n")
        index = str(tmp_path / "i.pmidx")
        assert main(["build", str(text_path), "-o", index]) == 0
        assert load_bundle(index).params["records"] == [""]
        assert main(["query", str(pat_path), "--index", index, "-t", "1"]) == 0
        assert mem_rows(capsys.readouterr().out) == [("", "1", "60", "60", "1")]

    @pytest.mark.parametrize("flags, l, warned", [
        ([], 4, False),  # -w 10 -p 50: 4**4 >= 200
        (["-w", "1", "-p", "3"], 1, True),  # 4**1 < 12: l is capped at w
        (["-w", "2", "-p", "3"], 2, False)])  # 4**2 >= 12: l = w, not capped
    def test_build_reports_the_phrase_target_and_a_capped_anchor(
            self, corpus, capsys, flags, l, warned):
        assert main(["build", corpus["text_path"], "-o", corpus["index"], *flags]) == 0
        lines = capsys.readouterr().err.splitlines()
        p = int(flags[-1]) if flags else 50
        assert re.fullmatch(r"# wrote \S+: \|T\|=1500 phrases=\d+ dict=\d+ "
                            rf"target={1500 // p} anchor_length={l} "
                            r"text_sa=(parse|doubling) text_rsa=(parse|doubling)", lines[0])
        assert re.fullmatch(r"# seconds: kmer_table=\d+\.\d{3} trigger=\d+\.\d{3} "
                            r"parse=\d+\.\d{3} text_index=\d+\.\d{3} save=\d+\.\d{3}",
                            lines[1])
        assert [line.startswith("warning: ") for line in lines[2:]] == [True] * warned

    @pytest.mark.parametrize("name, l", [("dna100k_p4", 2), ("dna100k_p8", 3),
                                         ("dna100k_w4p8", 3), ("bytes200", 2)])
    def test_anchored_trigger_keeps_phrases_near_the_target(self, scenarios, name, l):
        # the phrase count stays within 15 % of |T|/p, where a hash trigger
        # had given one phrase
        scenario = scenarios(name)
        p = load_bundle(scenario.index).params["p"]
        n, phrases, anchor_length = map(int, re.search(
            r"\|T\|=(\d+) phrases=(\d+) .* anchor_length=(\d+)", scenario.log).groups())
        assert anchor_length == l
        assert abs(phrases - n / p) <= 0.15 * n / p

    @pytest.mark.parametrize("text, warned", [(b"A", False), (b"A" * 5000, True)])
    def test_capped_anchor_warns_only_when_phrases_can_fall_short(
            self, tmp_path, capsys, text, warned):
        # every parse has a phrase, so |T|/p = 0 or 1 cannot be missed
        text_path = tmp_path / "t.txt"
        text_path.write_bytes(text + b"\n")
        assert main(["build", str(text_path), "-o", str(tmp_path / "i.pmidx"),
                     "--format", "raw"]) == 0
        err = capsys.readouterr().err
        assert ("\nwarning: " in err) == warned

    def test_dna_flag_rejects_other_bytes(self, tmp_path, capsys):
        text_path = tmp_path / "t.txt"
        text_path.write_bytes(b"HELLOWORLD\n")
        rc = main(["build", str(text_path), "-o", str(tmp_path / "i.pmidx"),
                   "--dna", "--format", "raw"])
        assert rc == 3


class TestDeterminism:
    def test_build_is_byte_identical(self, corpus, tmp_path):
        build(corpus)
        other = str(tmp_path / "again.pmidx")
        rc = main(["build", corpus["text_path"], "-o", other,
                   "-w", "6", "-p", "5", "-k", "8"])
        assert rc == 0
        with open(corpus["index"], "rb") as f1, open(other, "rb") as f2:
            assert f1.read() == f2.read()

    @pytest.mark.parametrize("kmer, digest", [
        ("8", "16fa38116c25851c554e22a0da4fc15b7ce71e2b532918db51e42308a6b3e3c0"),
        ("12", "20365336c6d7c2df28acf13c15913ea922f33a755a61617e4018b1b010c55995")],
        ids=["k8", "k12"])
    def test_index_bytes_are_pinned(self, corpus, kmer, digest):
        # Format 11's bytes for this corpus: a change to the k-mer table, the
        # prefix table, the trigger or the parse, suffix-array order or the
        # set of sections must bump FORMAT_VERSION and this digest with it.
        build(corpus, "-k", kmer)
        with open(corpus["index"], "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest

    @pytest.mark.parametrize("mode, t, row", [
        ("exact", "3", "q1 160 0 0 0 0 274 0 21"),
        ("kebab", "3", "q1 160 121 121 0 0 397 47 22"),
        ("parse", "3", "q1 160 281 281 31 52 274 0 21"),
        ("combined", "3", "q1 160 281 281 31 52 274 0 21"),
        ("exact", "1", "q1 160 0 0 0 0 207 0 12"),
        ("kebab", "1", "q1 160 121 121 0 0 123 47 1"),
        ("parse", "1", "q1 160 281 124 31 52 129 0 2"),
        ("combined", "1", "q1 160 281 124 31 52 129 0 2")],
        ids=["exact", "kebab", "parse", "combined",
             "exact-t1", "kebab-t1", "parse-t1", "combined-t1"])
    def test_stats_work_is_pinned(self, corpus, capsys, mode, t, row):
        # The counted search work of each mode on this corpus at -t 3 and
        # -t 1: parse_backward_steps, char_backward_steps and filter_probes
        # are the three columns before prefix_table_hits, the growths that
        # started from the q = 3 table (their steps are in
        # char_backward_steps).  A rewrite of the scan or of the filters
        # must leave them as they are, or change them here on purpose.
        # Kebab's char_backward_steps at -t 3 went 463 -> 462 when the
        # re-walk's left-edge check lost the one-symbol extension it made
        # before its count, and then to 455 (-t 1: 130 -> 123) when its scan
        # of the runs started at floor k, not 1, and so from the table (hits
        # 33 -> 34 and 0 -> 1).  At -t 3 the parse route's cutoff is 0, so its
        # scan starts at 1 like exact's; at -t 1 it starts at the cutoff and
        # finishes its near-misses, which took its char_backward_steps from
        # 142 to 129.  Then every scan finished its near-misses, and one
        # that falls short moved the next candidate one symbol further:
        # char_backward_steps / prefix_table_hits went 332 / 33 -> 274 / 21
        # for exact, parse and combined at -t 3, 455 / 34 -> 397 / 22 for
        # kebab, and 216 / 15 -> 207 / 12 for exact at -t 1; the other -t 1
        # rows did not move.  Kebab's filter_probes went 153 -> 47 when the
        # table, at f = 1, came to look up only the k-mers past a mismatch
        # and to prove the others present by comparing the pattern with the
        # text at a present k-mer's start; its flags did not change.  The
        # parse route's parse_backward_steps went 64 -> 52 when it came to
        # count every phrase first, one step each, and to scan only the runs
        # of phrases that occur; combined, which had scanned the runs of
        # phrases its phrase filter reported and counted only those (40
        # steps, 31 probes), became that same route: 52 steps, 0 probes.
        build(corpus)
        capsys.readouterr()
        rc = main(["stats", corpus["pat_path"], "--index", corpus["index"],
                   "--mode", mode, "-t", t])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[0] == ("pattern_id\tm\tpseudo_total\tretained_total\t"
                            "parse_len\tparse_backward_steps\t"
                            "char_backward_steps\tfilter_probes\tprefix_table_hits")
        assert lines[1:] == [row.replace(" ", "\t")]

    def test_query_output_is_identical_across_runs(self, corpus, capsys):
        build(corpus)
        _, first = query(corpus, capsys, "--mode", "combined", "-t", "5")
        _, second = query(corpus, capsys, "--mode", "combined", "-t", "5")
        assert first == second


TABLE_MISMATCH = "kmer_starts or kmer_counts do not match the text"


class TestBundleFormat:
    def test_load_round_trip(self, corpus):
        build(corpus)
        with open(corpus["index"], "rb") as fh:
            header = fh.read(len(MAGIC) + 4)
        assert header == MAGIC + struct.pack("<I", FORMAT_VERSION)
        assert FORMAT_VERSION == 11
        bundle = load_bundle(corpus["index"])
        # n is the text section's length: no text_length param; the parse's
        # phrase IDs are cut from the text at the phrase starts and its
        # suffix arrays built from them: no parse, parse_sa or parse_rsa;
        # the k-mer table stores text starts, not hashes: no base or modulus
        assert len(SECTIONS) == 10
        assert not {"parse", "parse_sa", "parse_rsa"} & set(SECTIONS)
        assert not {"text_length", "base", "modulus"} & set(bundle.params)
        assert bundle.params["w"] == 6
        assert bundle.params["p"] == 5
        # the trigger the build chose, 3-grams as 4**3 >= 4p, stored as is
        assert bundle.params["anchor_length"] == 3
        assert bundle.trigger == choose_trigger(corpus["text"], 6, 5)
        assert bundle.trigger.anchors and bundle.trigger.width == 6
        assert bundle.parse_text.phrase_start == tuple(
            bundle.trigger.phrase_starts(corpus["text"]))
        assert bundle.params["kebab_k"] == 8
        assert bundle.params["records"] == ["chr1"]
        assert bytes(bundle.text_index.sequence) == corpus["text"]
        assert bundle.parse_text.reconstruct() == corpus["text"]
        assert (bundle.text_index.steps, bundle.kmer_filter.probes,
                bundle.phrase_filter.probes) == (0, 0, 0)
        # the phrase filter reads each phrase ID's count off the parse index
        symbols = bundle.parse_text.symbols
        assert bundle.phrase_filter.kind == flt.KIND_EXACT
        ids = range(len(bundle.dictionary) + 1)  # the last one absent
        assert [bundle.phrase_filter.min_count(i) for i in ids] == list(map(symbols.count, ids))
        # the reversed text's prefix table, at q = 3 for 1,500 symbols of ACGT
        table = bundle.text_index.prefix_table
        fresh = PrefixTable.build(corpus["text"][::-1])
        assert (table.alphabet, table.q, table.short) == (b"ACGT", 3, fresh.short)
        assert table.starts == fresh.starts and len(table.starts) == 4 ** 3 + 1
        assert bundle.text_index.backward.table is table

    # what each scenario's distinct phrases and its parse's length m show
    PHRASE_SHAPES = {
        # phrases repeat, and some span a record join
        "nul_joined_copies":
            lambda phrases, m: len(phrases) < m and any(b"\0" in x for x in phrases),
        "shorter_than_w": lambda phrases, m: m == 1,  # 5 bytes, w = 6
        # n // p is 0, so no l-gram is rare enough to be an anchor
        "no_trigger": lambda phrases, m: m == 1,
        "w1_p3": lambda phrases, m: len(phrases) < m,
        "w10_p50": lambda phrases, m: 1 < len(phrases) < m,
        "copies24": lambda phrases, m: len(phrases) < m and any(b"\0" in x for x in phrases),
        "copies24_w1p3": lambda phrases, m: (len(phrases), m) == (108, 3859)}

    @pytest.mark.parametrize("name, shape", PHRASE_SHAPES.items(), ids=PHRASE_SHAPES)
    def test_load_derives_the_dictionary_and_phrase_table(self, scenarios, tmp_path,
                                                          monkeypatch, name, shape):
        scenario = scenarios(name)
        index, text = scenario.index, scenario.text
        builds = []  # the k-mer table is stored and the phrase counts read: no build
        monkeypatch.setattr(flt, "filter_build", lambda *args: builds.append(args))
        bundle = load_bundle(index)
        assert builds == []
        dictionary, w, p = PhraseDictionary(), bundle.params["w"], bundle.params["p"]
        fresh = pfp_parse(text, choose_trigger(text, w, p), dictionary)
        phrases = [dictionary.string_of(i) for i in range(len(dictionary))]
        assert shape(phrases, len(fresh))
        assert [bundle.dictionary.string_of(i)
                for i in range(len(bundle.dictionary))] == phrases
        assert bundle.parse_text.symbols == fresh.symbols
        assert bundle.parse_text.phrase_start == fresh.phrase_start
        parse_index = OccurrenceIndex(fresh.symbols)
        for loaded, built in ((bundle.parse_index.forward, parse_index.forward),
                              (bundle.parse_index.backward, parse_index.backward)):
            assert list(loaded.sa) == list(built.sa)
        ids, truth = range(len(dictionary) + 1), Counter(fresh.symbols)
        assert [bundle.phrase_filter.min_count(i) for i in ids] == [truth[i] for i in ids]
        again = str(tmp_path / "again.pmidx")
        save_bundle(bundle, again)
        with open(index, "rb") as f1, open(again, "rb") as f2:
            assert f1.read() == f2.read()

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_text_suffix_arrays_equal_the_doubling(self, scenarios, name):
        # the build may take either array from the text's parse; the loaded
        # arrays equal the doubling's, which a call with no trigger runs
        scenario = scenarios(name)
        index = load_bundle(scenario.index).text_index
        assert list(index.forward.sa) == _build_suffix_array(scenario.text)
        assert list(index.backward.sa) == _build_suffix_array(scenario.text[::-1])

    def test_scenarios_take_both_routes(self, scenarios):
        # the build line names each array's route; the scenarios hold
        # repetitive texts sorted from the parse and others doubled
        routes = [re.search(r" text_sa=(\w+) text_rsa=(\w+)$", scenarios(name).log,
                            re.MULTILINE).groups() for name in SCENARIOS]
        assert {forward for forward, _ in routes} == {"parse", "doubling"}
        assert {backward for _, backward in routes} == {"parse", "doubling"}

    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    def test_phrase_filter_answers_like_the_counter(self, tmp_path, monkeypatch, loaded):
        # 400 copies of a 40 bp founder, a few redrawn: phrase IDs counted
        # from 1 to past 300, each answered exactly, with no saturation
        rng = random.Random(41)
        founder, copies = rand_dna(rng, 40), []
        for _ in range(400):
            seq = bytearray(founder)
            if rng.random() < 0.3:
                seq[rng.randrange(40)] = rng.choice(b"ACGT")
            copies.append(bytes(seq))
        fasta, index = tmp_path / "text.fa", str(tmp_path / "index.pmidx")
        fasta.write_bytes(b">r\n" + b"".join(copies) + b"\n")
        built = []
        if not loaded:  # the bundle build queries with, as it goes to disk
            monkeypatch.setattr(cli, "save_bundle", lambda bundle, path: built.append(bundle))
        assert main(["build", str(fasta), "-o", index, "-w", "4", "-p", "5"]) == 0
        bundle = load_bundle(index) if loaded else built[0]
        truth, filt = Counter(bundle.parse_text.symbols), bundle.phrase_filter
        probes = [*range(len(bundle.dictionary) + 2), 1 << 70, -1]  # absent IDs too
        counts = [truth[sym] for sym in probes]
        assert {1, 2, 3} <= set(counts) and max(counts) > 300 and 0 in counts
        assert [filt.min_count(sym) for sym in probes] == counts
        for f in (1, 2, 3, 255, 300):
            want = [count >= f for count in counts]
            assert filt.at_least_many(iter(probes), f) == want
            assert [filt.at_least(sym, f) for sym in probes] == want
        assert filt.probes == 10 * len(probes)
        for bad in (True, 1.0, b"A"):
            with pytest.raises(ItemKindMismatch):
                filt.at_least_many([0, bad], 1)
        assert not hasattr(filt, "insert")  # the counts take no inserts

    def test_range_check_matches_max(self):
        # the u32 checks answer as max() and a pairwise comparison would, on
        # entries near the bound in every byte and at random, risen or not,
        # through both the one-integer path and the one past 2^31
        rng = random.Random(31)
        top = (1 << 32) - 1
        for most in (0, 1, 255, 256, 65535, 2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1, 2 ** 40 + 7):
            near = {top} | {most + d for d in (-1, 0, 1)} | {
                most ^ 1 << bit for bit in range(0, 32, 7)}
            near = sorted(v for v in near if 0 <= v <= top)
            for _ in range(40):
                values = array("I", (
                    rng.choice(near) if rng.random() < 0.9 else rng.randint(0, top)
                    for _ in range(rng.choice((0, 1, rng.randint(2, 300))))))
                if rng.random() < 0.5:
                    values = array("I", sorted(set(values)))
                little = array("I", values)
                if sys.byteorder == "big":
                    little.byteswap()
                raw = little.tobytes()
                assert _below(raw, most + 1) == (not values or max(values) <= most), most
                assert _below(raw) == all(a < b for a, b in zip(values, values[1:])), most

    def test_queries_leave_the_saved_bundle_unchanged(self, corpus, tmp_path):
        # counters, the frozen flag and derived copies are not in the file
        build(corpus)
        bundle = load_bundle(corpus["index"])
        bundle.dictionary.freeze()
        for mode in ("exact", "kebab", "parse", "combined"):
            args = argparse.Namespace(mode=mode, f=1, t=3, L=None)
            assert cli._query_one(bundle, corpus["pattern"], args)[2]
        assert bundle.text_index.steps > 0
        again = str(tmp_path / "again.pmidx")
        save_bundle(bundle, again)
        with open(corpus["index"], "rb") as f1, open(again, "rb") as f2:
            assert f1.read() == f2.read()

    def test_only_kebab_queries_gather_the_kmer_set(self, corpus, capsys, monkeypatch):
        # the k-mer set costs a pass over the table per process: exact,
        # parse and combined queries must never pay it
        build(corpus)
        gathered = []
        present = flt.FingerprintTable._present

        def spy(table, f):
            gathered.append(table.item_kind)
            return present(table, f)
        monkeypatch.setattr(flt.FingerprintTable, "_present", spy)
        for mode in ("exact", "parse", "combined", "kebab"):
            for flags in (["-t", "3"], ["-L", "10"], ["-f", "2", "-t", "1"]):
                _, out = query(corpus, capsys, "--mode", mode, *flags)
                assert mem_rows(out), (mode, flags)
            assert (flt.ITEMS_KMER in gathered) == (mode == "kebab"), mode

    def test_no_module_binds_a_code_running_loader(self):
        banned = {"pickle", "_pickle", "marshal", "shelve"}
        for info in pkgutil.iter_modules(parsemem.__path__):
            module = importlib.import_module(f"parsemem.{info.name}")
            for name, value in vars(module).items():
                owner = (value.__name__ if inspect.ismodule(value)
                         else getattr(value, "__module__", None))
                assert owner not in banned, f"parsemem.{info.name}.{name}"

    @pytest.mark.parametrize("section, change, why", [
        ("params", lambda p: json.dumps(
            {k: v for k, v in json.loads(p).items() if k != "kebab_k"}).encode(),
         "kebab_k"),
        ("params", lambda p: json.dumps({**json.loads(p), "w": 0}).encode(),
         "malformed index parameters: 'w' must be at least 1"),
        ("params", lambda p: json.dumps({**json.loads(p), "p": 1}).encode(),
         "malformed index parameters: 'p' must be at least 2"),
        ("text_sa", lambda p: p[:-4] + struct.pack("<i", 10 ** 6),
         "text_sa entry out of range"),
        ("text_rsa", lambda p: p[:-2], "text_rsa is not a whole number of u32s"),
        ("kmer_starts", lambda p: p[:-3], "kmer_starts is not a whole number of u32s"),
        # the last k-mer of 1,500 symbols starts at 1492
        ("kmer_starts", lambda p: p[:-4] + struct.pack("<I", 1493),
         "kmer_starts entry out of range"),
        ("kmer_starts", lambda p: p[:4] + p[8:12] + p[4:8] + p[12:],
         "kmer_starts do not strictly increase"),
        ("kmer_starts", lambda p: p[:4] + p[:4] + p[8:],
         "kmer_starts do not strictly increase"),
        ("kmer_counts", lambda p: p[:-1], "kmer_counts and kmer_starts differ"),
        ("kmer_counts", lambda p: b"\x00" + p[1:], "kmer_counts holds a zero count"),
        # the last phrase starts at n = 1500, so the one before ends past it
        ("phrase_start", lambda p: p[:-4] + struct.pack("<I", 1500),
         "a phrase ends past the text"),
        ("prefix_rows", lambda p: p[:-4], "prefix_rows does not hold sigma"),
        ("prefix_rows", lambda p: p[:4] + struct.pack("<I", 10 ** 6) + p[8:],
         "prefix_rows decrease"),
        ("prefix_rows", lambda p: p[:-4] + struct.pack("<I", 10 ** 6),
         "prefix_rows do not run from 0 to the number of length-q suffixes"),
        ("alphabet", lambda p: p[::-1], "alphabet does not strictly increase"),
        ("anchors", lambda p: p[:-1], "an anchor is not a NUL-free l-gram"),
        ("anchors", lambda p: p[3:6] + p[:3] + p[6:], "anchors do not strictly increase"),
        ("params", lambda p: json.dumps({**json.loads(p), "anchor_length": 7}).encode(),
         "anchor length must be in 1..window width"),
        (None, repeat_first_section, "section 'params' appears twice"),
        (None, lambda data: data + b"\x00", "data after the last section")],
        ids=["missing_kebab_k", "window_zero", "trigger_modulus_one",
             "sa_out_of_range", "rsa_not_whole_u32s", "starts_not_whole_u32s",
             "starts_out_of_range", "starts_swapped", "starts_repeated",
             "counts_length_differs", "zero_count", "phrase_past_text",
             "prefix_rows_wrong_length", "prefix_rows_fall",
             "prefix_rows_out_of_range", "alphabet_not_increasing",
             "anchors_not_whole_grams", "anchors_not_increasing",
             "anchor_longer_than_w",
             "repeated_section", "bytes_after_last_section"])
    def test_checksummed_malformed_index_is_rejected(self, corpus, capsys,
                                                     section, change, why):
        # a section name of None applies the change to the whole file
        build(corpus)
        if section is None:
            with open(corpus["index"], "rb") as fh:
                data = change(fh.read())
            with open(corpus["index"], "wb") as fh:
                fh.write(data)
        else:
            rewrite_section(corpus["index"], section, change)
        with pytest.raises(IndexFormatError, match=why):
            load_bundle(corpus["index"])
        assert main(["query", corpus["pat_path"], "--index", corpus["index"]]) == 3
        rc = main(["verify", "--check-index", corpus["index"], "--instances", "0"])
        assert rc == 1
        assert "FAIL index integrity" in capsys.readouterr().out

    @staticmethod
    def kmer_entries(corpus):
        """The k-mer table's starts and counts, as the corpus index stores them."""
        table = load_bundle(corpus["index"]).kmer_filter
        return list(table.starts), list(table.counts)

    @staticmethod
    def rewrite_kmer_table(corpus, starts, counts):
        rewrite_section(corpus["index"], "kmer_starts",
                        lambda _: struct.pack(f"<{len(starts)}I", *starts))
        rewrite_section(corpus["index"], "kmer_counts", lambda _: bytes(counts))

    def check_index_fails(self, corpus, capsys, why):
        load_bundle(corpus["index"])  # well formed: load leaves it to the writer
        rc = main(["verify", "--check-index", corpus["index"], "--instances", "0"])
        assert rc == 1
        assert why in capsys.readouterr().out

    def test_check_index_rejects_a_dropped_kmer(self, corpus, capsys):
        # one entry gone, starts still rising: a k-mer of the text is missing
        build(corpus)
        starts, counts = self.kmer_entries(corpus)
        self.rewrite_kmer_table(corpus, starts[:5] + starts[6:], counts[:5] + counts[6:])
        self.check_index_fails(corpus, capsys, TABLE_MISMATCH)

    def test_check_index_rejects_a_wrong_kmer_count(self, corpus, capsys):
        build(corpus)
        starts, counts = self.kmer_entries(corpus)
        counts[7] += 1
        self.rewrite_kmer_table(corpus, starts, counts)
        self.check_index_fails(corpus, capsys, TABLE_MISMATCH)

    def test_check_index_rejects_a_duplicated_kmer(self, corpus, capsys):
        # a second start of a stored k-mer, put in its place among the
        # starts: they still rise, but the k-mer is stored twice
        build(corpus)
        text, k = corpus["text"], 8
        starts, counts = self.kmer_entries(corpus)
        again = next(i for i in range(len(text) - k + 1)
                     if i not in starts and text[i:i + k] in text[:i + k - 1])
        at = bisect.bisect(starts, again)
        self.rewrite_kmer_table(corpus, starts[:at] + [again] + starts[at:],
                                counts[:at] + [1] + counts[at:])
        self.check_index_fails(corpus, capsys, TABLE_MISMATCH)

    def test_check_index_rejects_a_kmer_across_records(self, scenarios, tmp_path, capsys):
        # the last stored start before the first NUL moved to one symbol
        # before it: that k-mer holds the NUL that joins two records, which
        # no record holds, and the starts still rise
        scenario = scenarios("copies24")
        index = tmp_path / "index.pmidx"
        with open(scenario.index, "rb") as fh:
            index.write_bytes(fh.read())
        corpus = {"index": str(index)}
        starts, counts = self.kmer_entries(corpus)
        k = load_bundle(corpus["index"]).params["kebab_k"]
        across = scenario.text.index(0) - 1
        assert 0 in scenario.text[across:across + k]
        at = bisect.bisect(starts, across)
        assert starts[at - 1] < across < starts[at]
        starts[at - 1] = across
        self.rewrite_kmer_table(corpus, starts, counts)
        self.check_index_fails(corpus, capsys, TABLE_MISMATCH)

    def test_check_index_rejects_a_moved_phrase_start(self, corpus, capsys):
        # one phrase start one place on, still rising and inside the text:
        # load takes it, and verify --check-index finds it off the triggers
        build(corpus)
        starts = load_bundle(corpus["index"]).parse_text.phrase_start
        assert starts[2] + 1 < starts[3]

        def move_start(payload):
            return payload[:8] + struct.pack("<I", starts[2] + 1) + payload[12:]
        rewrite_section(corpus["index"], "phrase_start", move_start)
        assert load_bundle(corpus["index"]).parse_text.phrase_start[2] == starts[2] + 1
        rc = main(["verify", "--check-index", corpus["index"], "--instances", "0"])
        assert rc == 1
        assert "phrase starts are not the text's triggers" in capsys.readouterr().out

    def test_check_index_rejects_anchors_the_text_does_not_choose(self, corpus, capsys):
        # one anchor dropped: well formed, so load takes it; the build rule
        # picks it from the text, so verify --check-index does not
        build(corpus)
        rewrite_section(corpus["index"], "anchors", lambda p: p[3:])
        load_bundle(corpus["index"])
        rc = main(["verify", "--check-index", corpus["index"], "--instances", "0"])
        assert rc == 1
        assert "anchors are not the ones the text chooses" in capsys.readouterr().out

    def test_check_index_rejects_swapped_text_sa_rows(self, corpus, capsys):
        # two rows of text_sa swapped: still a permutation in range, so load
        # takes it, and verify --check-index is what catches the order
        build(corpus)

        def swap_rows(payload):
            a, b = payload[40:44], payload[4000:4004]
            return payload[:40] + b + payload[44:4000] + a + payload[4004:]
        rewrite_section(corpus["index"], "text_sa", swap_rows)
        load_bundle(corpus["index"])
        rc = main(["verify", "--check-index", corpus["index"], "--instances", "0"])
        assert rc == 1
        assert "text_sa is not in suffix order" in capsys.readouterr().out

    def test_check_index_rejects_a_wrong_prefix_table(self, corpus, capsys):
        # a well-formed table that is not the text's: one row moved from one
        # bucket to the next; load takes it, verify --check-index does not
        build(corpus)
        starts = load_bundle(corpus["index"]).text_index.prefix_table.starts
        code = next(c for c in range(1, len(starts) - 1)
                    if starts[c - 1] < starts[c] < starts[c + 1])

        def move_row(payload):
            return (payload[:4 * code] + struct.pack("<I", starts[code] - 1)
                    + payload[4 * code + 4:])
        rewrite_section(corpus["index"], "prefix_rows", move_row)
        load_bundle(corpus["index"])
        rc = main(["verify", "--check-index", corpus["index"], "--instances", "0"])
        assert rc == 1
        assert "prefix_rows do not match the text" in capsys.readouterr().out

    def test_corrupted_payload_fails_checksum(self, corpus):
        build(corpus)
        with open(corpus["index"], "rb") as fh:
            data = bytearray(fh.read())
        data[-1] ^= 0xFF
        with open(corpus["index"], "wb") as fh:
            fh.write(data)
        with pytest.raises(IndexFormatError, match="checksum"):
            load_bundle(corpus["index"])

    def test_corrupted_index_exit_code(self, corpus, capsys):
        build(corpus)
        with open(corpus["index"], "r+b") as fh:
            fh.seek(-3, 2)
            byte = fh.read(1)
            fh.seek(-1, 1)
            fh.write(bytes([byte[0] ^ 0xFF]))
        rc = main(["query", corpus["pat_path"], "--index", corpus["index"]])
        assert rc == 3

    def test_bad_magic_rejected(self, corpus, tmp_path):
        bogus = tmp_path / "bogus.pmidx"
        bogus.write_bytes(b"NOTANIDX" + b"\x00" * 32)
        with pytest.raises(IndexFormatError, match="magic"):
            load_bundle(str(bogus))

    def test_unsupported_version_rejected(self, corpus, capsys):
        # the pickled format 2, format 5, which has no prefix table, format
        # 6, which stores the dictionary and the phrase table, format 7,
        # which stores the parse's phrase IDs, and format 8, which stores
        # the parse's suffix arrays, are refused; such indexes must be rebuilt
        for version in (2, 5, 6, 7, 8):
            build(corpus)
            with open(corpus["index"], "r+b") as fh:
                fh.seek(len(MAGIC))
                fh.write(version.to_bytes(4, "little"))
            with pytest.raises(IndexFormatError, match=(
                    f"index format version {version} is not supported")):
                load_bundle(corpus["index"])
            assert main(["query", corpus["pat_path"], "--index", corpus["index"]]) == 3
            assert f"version {version} is not supported" in capsys.readouterr().err


class TestParameterChecks:
    def test_build_flags_are_unknown_at_query_time(self, corpus, capsys):
        # w, p and k come from the index alone: argparse rejects the flags;
        # neither the k-mer table nor the phrase counts have a size to
        # choose, and verify runs each suite at its own sizes
        build(corpus)
        index = ["--index", corpus["index"]]
        for argv in (["query", corpus["pat_path"], *index, "-w", "10"],
                     ["stats", corpus["pat_path"], *index, "-k", "20"],
                     ["build", corpus["text_path"], "-o", corpus["index"],
                      "--filter-fpr", "0.01"],
                     ["verify", "--max-text", "800"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_t_and_l_conflict(self, corpus, capsys):
        build(corpus)
        rc = main(["query", corpus["pat_path"], "--index", corpus["index"],
                   "-t", "3", "-L", "10"])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ("query", "-t", "0"), ("query", "-L", "0"), ("query", "-f", "0"),
        ("build", "-w", "0"), ("build", "-p", "1"), ("build", "-k", "0"),
        ("verify", "--instances", "-2")],
        ids=["t0", "L0", "f0", "w0", "p1", "k0", "instances-2"])
    def test_out_of_range_flag_is_usage_error(self, corpus, tmp_path, capsys,
                                              argv):
        build(corpus)
        capsys.readouterr()
        if argv[0] == "query":
            args = ["query", corpus["pat_path"], "--index", corpus["index"]]
        elif argv[0] == "build":
            args = ["build", corpus["text_path"], "-o", str(tmp_path / "i.pmidx")]
        else:  # its message names the flag as typed
            args = ["verify", "--instances", "1"]
        rc = main([*args, *argv[1:]])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert args[0] != "verify" or err.startswith(f"error: {argv[1]}=")


class TestStatsAndVerify:
    def test_stats_rows(self, corpus, capsys):
        build(corpus)
        rc = main(["stats", corpus["pat_path"], "--index", corpus["index"],
                   "--mode", "parse"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("pattern_id\tm\t")
        cols = lines[1].split("\t")
        assert cols[0] == "q1"
        assert int(cols[1]) == len(corpus["pattern"])
        assert int(cols[4]) > 1  # parse length
        assert int(cols[5]) > 0  # parse-level backward steps

    def test_stats_rows_are_per_pattern(self, corpus, tmp_path, capsys):
        # the counts of a pattern must not include the work of the one before
        build(corpus)
        twice = tmp_path / "twice.fa"
        twice.write_bytes(b">a\n%s\n>b\n%s\n" % (corpus["pattern"],
                                                    corpus["pattern"]))
        for mode in ("exact", "kebab", "parse", "combined"):
            rc = main(["stats", str(twice), "--index", corpus["index"],
                       "--mode", mode, "-t", "1"])
            assert rc == 0
            first, second = (line.split("\t")[1:] for line in
                             capsys.readouterr().out.splitlines()[1:])
            assert first == second, mode
            assert int(first[5]) > 0, mode  # character-level backward steps

    def test_stats_has_a_row_for_every_pattern(self, corpus, tmp_path, capsys):
        # rows join with query's by pattern id, so skipped patterns get one too
        build(corpus)
        raw = tmp_path / "pats.txt"
        raw.write_bytes(b"ACGTACGTACGTACGT\n\nACGTACGTACGTACGT\n")
        rc = main(["stats", str(raw), "--index", corpus["index"],
                   "--format", "raw"])
        rows = [line.split("\t") for line in
                capsys.readouterr().out.splitlines()[1:]]
        assert rc == 0
        assert [row[0] for row in rows] == ["p1", "p2", "p3"]
        assert rows[1][1:] == ["0"] * 8

    def test_verify_small_run_passes(self, capsys):
        # every suite runs at its defaults; a drift in one moves the total
        rc = main(["verify", "--instances", "2", "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") >= 17  # 16 suites plus the total line
        assert out.splitlines()[-1] == "PASS total: 543 checks"

    # copies24 has a q = 4 prefix table over ACGT and NUL, checked against
    # the text and its reverse suffix array; copies100's text suffix array
    # is sorted by doubling rounds after the 32-symbol seed and random20k's
    # by the seed alone; bytes200's anchors are chosen again from the text,
    # its phrase starts from them and its k-mer table recounted
    @pytest.mark.parametrize("name", ["corpus", "copies24", "copies100", "random20k",
                                      "bytes200", "protein"])
    def test_verify_check_index(self, scenarios, capsys, name):
        index = scenarios(name).index
        rc = main(["verify", "--check-index", index, "--instances", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS index integrity" in out

    def test_verify_check_index_detects_corruption(self, corpus, capsys):
        build(corpus)
        with open(corpus["index"], "r+b") as fh:
            fh.seek(-2, 2)
            byte = fh.read(1)
            fh.seek(-1, 1)
            fh.write(bytes([byte[0] ^ 0xFF]))
        rc = main(["verify", "--check-index", corpus["index"], "--instances", "0"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL index integrity" in out


class TestSeparateProcesses:
    def test_module_entry_point_exit_codes(self, corpus, tmp_path, capsys):
        # the exit codes of ``python -m parsemem.cli`` as another process
        # sees them, which calls to main() in this one cannot show
        def run(*argv):
            return subprocess.run([sys.executable, "-m", "parsemem.cli", *argv],
                                  capture_output=True, text=True, timeout=120)
        assert run("build", corpus["text_path"], "-o", corpus["index"]).returncode == 0
        done = run("query", corpus["pat_path"], "--index", corpus["index"], "-t", "3")
        assert done.returncode == 0
        assert mem_rows(done.stdout) == mem_rows(query(corpus, capsys, "-t", "3")[1])
        assert mem_rows(done.stdout)
        done = run("verify", "--check-index", corpus["index"], "--instances", "0")
        assert done.returncode == 0 and "PASS index integrity" in done.stdout
        corrupted = tmp_path / "corrupted.pmidx"
        with open(corpus["index"], "rb") as fh:
            data = bytearray(fh.read())
        data[-1] ^= 0xFF
        corrupted.write_bytes(data)
        assert run("query", corpus["pat_path"], "--index", str(corrupted)).returncode == 3
        assert run("query", corpus["pat_path"], "--index", corpus["index"],
                   "--window", "10").returncode == 2
