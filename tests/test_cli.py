import random

import pytest

from parsemem import cli
from parsemem.bundle import (FORMAT_VERSION, MAGIC, check_integrity,
                             load_bundle)
from parsemem.cli import main
from parsemem.errors import IndexFormatError
from parsemem.oracle import brute_force_f_mems, top_t_cut


def rand_dna(rng, n):
    return bytes(rng.choice(b"ACGT") for _ in range(n))


@pytest.fixture
def corpus(tmp_path):
    """A text, a pattern sharing a long substring with it, and their files."""
    rng = random.Random(201)
    text = rand_dna(rng, 1500)
    pattern = rand_dna(rng, 20) + text[300:420] + rand_dna(rng, 20)
    text_path = tmp_path / "text.fa"
    text_path.write_bytes(b">chr1\n" + text + b"\n")
    pat_path = tmp_path / "patterns.fa"
    pat_path.write_bytes(b">q1\n" + pattern + b"\n")
    index_path = tmp_path / "index.pmidx"
    return {"text": text, "pattern": pattern, "text_path": str(text_path),
            "pat_path": str(pat_path), "index": str(index_path)}


def build(corpus, *extra):
    rc = main(["build", corpus["text_path"], "-o", corpus["index"],
               "-w", "6", "-p", "5", "-k", "8", *extra])
    assert rc == 0


def query(corpus, capsys, *extra):
    rc = main(["query", corpus["pat_path"], "--index", corpus["index"], *extra])
    out = capsys.readouterr().out
    return rc, out


def mem_rows(output):
    rows = []
    for line in output.splitlines():
        cols = line.split("\t")
        if cols[0] == "mem":
            # drop the mode column so rows compare across modes
            rows.append((cols[1], cols[3], cols[4], cols[5], cols[6]))
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

    @pytest.mark.parametrize("flags", [("-L", "25"), ("-L", "5"), ("-t", "1"),
                                       ("-t", "3"), ()],
                             ids=["L25", "L5", "t1", "t3", "none"])
    def test_modes_agree_on_long_mems(self, corpus, capsys, flags):
        # -L 5 sits below k=8, where KeBaB runs need not hold every match
        build(corpus)
        want = brute_force_f_mems(corpus["text"], corpus["pattern"])
        if flags and flags[0] == "-L":
            want = [m for m in want if m.length >= int(flags[1])]
        elif flags:
            want = top_t_cut(want, int(flags[1]))
        want_rows = sorted(("q1", str(m.start), str(m.end), str(m.length),
                            str(m.freq)) for m in want)
        for mode in ("exact", "kebab", "parse", "combined"):
            rc, out = query(corpus, capsys, "--mode", mode, *flags)
            assert rc == 0
            assert mem_rows(out) == want_rows, mode

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

    def test_query_output_is_identical_across_runs(self, corpus, capsys):
        build(corpus)
        _, first = query(corpus, capsys, "--mode", "combined", "-t", "5")
        _, second = query(corpus, capsys, "--mode", "combined", "-t", "5")
        assert first == second


class TestBundleFormat:
    def test_load_round_trip(self, corpus):
        build(corpus)
        bundle = load_bundle(corpus["index"])
        assert bundle.format_version == FORMAT_VERSION
        assert bundle.params["w"] == 6
        assert bundle.params["p"] == 5
        assert bundle.params["kebab_k"] == 8
        assert bundle.params["records"] == ["chr1"]
        assert len(bundle.text_index) == len(corpus["text"])
        check_integrity(corpus["index"])

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

    def test_unsupported_version_rejected(self, corpus):
        build(corpus)
        with open(corpus["index"], "r+b") as fh:
            fh.seek(len(MAGIC))
            fh.write((99).to_bytes(4, "little"))
        with pytest.raises(IndexFormatError, match="version"):
            load_bundle(corpus["index"])


class TestParameterChecks:
    def test_mismatched_window_is_usage_error(self, corpus, capsys):
        build(corpus)
        rc = main(["query", corpus["pat_path"], "--index", corpus["index"],
                   "-w", "12"])
        assert rc == 2
        assert "does not match the index" in capsys.readouterr().err

    def test_matching_flags_are_accepted(self, corpus, capsys):
        build(corpus)
        rc, out = query(corpus, capsys, "-w", "6", "-p", "5", "-k", "8",
                        "--mode", "exact")
        assert rc == 0

    def test_t_and_l_conflict(self, corpus, capsys):
        build(corpus)
        rc = main(["query", corpus["pat_path"], "--index", corpus["index"],
                   "-t", "3", "-L", "10"])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ("query", "-t", "0"), ("query", "-L", "0"), ("query", "-f", "0"),
        ("build", "-w", "0"), ("build", "-p", "1"), ("build", "-k", "0"),
        ("build", "--filter-fpr", "1.5")],
        ids=["t0", "L0", "f0", "w0", "p1", "k0", "fpr1.5"])
    def test_out_of_range_flag_is_usage_error(self, corpus, tmp_path, capsys,
                                              argv):
        build(corpus)
        capsys.readouterr()
        if argv[0] == "query":
            args = ["query", corpus["pat_path"], "--index", corpus["index"]]
        else:
            args = ["build", corpus["text_path"], "-o", str(tmp_path / "i.pmidx")]
        rc = main([*args, *argv[1:]])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


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
        assert rows[1][1:] == ["0"] * 7

    def test_verify_small_run_passes(self, capsys):
        rc = main(["verify", "--instances", "2", "--max-text", "200",
                   "--max-pattern", "60", "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") >= 15  # 14 suites plus the total line

    def test_verify_check_index(self, corpus, capsys):
        build(corpus)
        rc = main(["verify", "--check-index", corpus["index"], "--instances", "0"])
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
