"""Tests of the benchmark itself: generators, checker, tail rule, metric names.

    python3 -m pytest bench/test_bench.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
from parsemem import oracle  # noqa: E402
from parsemem.oracle import brute_force_count, brute_force_f_mems  # noqa: E402
from workloads import WORKLOADS, Workload, fasta, generate, mutate  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY_T = Workload(name="tiny_t", why="", divergence=0.01, patterns=20,
                  pattern_len=80, t=2, founder_len=400, copies=4)
TINY_L = Workload(name="tiny_L", why="", divergence=0.01, patterns=20,
                  pattern_len=80, f=2, L=25, founder_len=400, copies=4)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic(name):
    first = [fasta(records) for records in generate(WORKLOADS[name], 5)]
    again = [fasta(records) for records in generate(WORKLOADS[name], 5)]
    other = [fasta(records) for records in generate(WORKLOADS[name], 6)]
    assert first == again
    assert first[0] == other[0]  # the text is the workload's fixed collection
    assert first[1] != other[1]  # the patterns follow the seed


def test_mutations_hit_exact_counts():
    rng = random.Random(3)
    seq = bytes(rng.choices(b"ACGT", k=1000))
    assert sum(a != b for a, b in zip(seq, mutate(rng, seq, 0.01))) == 10


@pytest.mark.parametrize("seed", range(10))
def test_text_counts_match_the_oracle_counter(seed):
    rng = random.Random(seed)
    founder = "".join(rng.choices("ACGT", k=rng.randrange(30, 200)))
    text = "\0".join("".join(rng.choice("ACGT") if rng.random() < 0.05 else c
                              for c in founder) for _ in range(rng.randrange(1, 5)))
    counts = check.TextCounts(text)
    for _ in range(60):
        n = rng.randrange(1, 25)  # below, between and above the table k-mers
        if rng.random() < 0.8:
            start = rng.randrange(len(text))
            query = text[start:start + n]
        else:
            query = "".join(rng.choices("ACGT", k=n))
        assert counts.count(query) == brute_force_count(text, query), query


def test_reference_is_the_oracle_with_its_counter_restored():
    rng = random.Random(7)
    founder = bytes(rng.choices(b"ACGT", k=150))
    text = b"\0".join(mutate(rng, founder, 0.04) for _ in range(3))
    patterns = [(f"q{i}", mutate(rng, founder[i * 20:i * 20 + 60], 0.05))
                for i in range(5)]
    for f in (1, 2):
        refs = check.reference_f_mems(text, patterns, f)
        for name, seq in patterns:
            assert refs[name] == [(m.start, m.end, m.freq)
                                  for m in brute_force_f_mems(text, seq, f)]
    assert oracle.brute_force_count is brute_force_count


def _block(rows):
    return "".join(f"mem\tq1\tparse\t{s}\t{e}\t{e - s + 1}\t{n}\n" for s, e, n in rows)


REFERENCE = [(1, 30, 2), (20, 44, 1), (40, 52, 3), (50, 70, 1), (65, 72, 4)]


@pytest.mark.parametrize("t, L", [(2, None), (None, 12)])
def test_checker_flags_removed_added_and_changed_rows(t, L):
    cut = check.cutoff_length(REFERENCE, t, L)
    good = [r for r in REFERENCE if check.length(r) >= cut]
    s, e, n = good[0]
    variants = {
        "exact": good,
        "removed": good[1:],
        "added": good + [r for r in REFERENCE if r not in good][:1],
        "length changed": [(s, e - 1, n)] + good[1:],
    }
    for label, rows in variants.items():
        tally = check.Tally()
        tally.add("parse", _block(rows), ["q1"], {"q1": REFERENCE}, t, L)
        assert tally.total_failed == (label != "exact"), label
    combined = [(s, e - 1, n)] + good[2:] + [r for r in REFERENCE if r not in good][:1]
    tally = check.Tally()
    tally.add("parse", _block(combined), ["q1"], {"q1": REFERENCE}, t, L)
    assert (tally.total_attempted, tally.total_failed) == (1, 1)
    assert not tally.sound


def test_extra_true_rows_fail_the_contract_but_stay_sound():
    rows = [(1, 30, 2), (20, 44, 1), (50, 70, 1)]  # two longest plus one more
    assert check.judge(rows, REFERENCE, 2, None) == (False, True)


def test_tail_percentile_rule():
    assert run.tail_percentile(100) == 900
    assert run.tail_percentile(40) == 750
    assert run.tail_percentile(20) == 500
    with pytest.raises(ValueError):
        run.tail_percentile(19)
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 900) == 90.0
    assert sum(v > run.percentile(values, 900) for v in values) == 10


def test_stretches_leave_probes_out_and_rescale_by_every_probe_within():
    sampler = run.Sampler()
    sampler.samples, sampler.starts = [(0.5, 0.003, 0.503)], [0.5]
    clock = run.ProbedClock(sampler)
    clock.marks = [(0.0, 0.001, 0.001), (1.001, 0.002, 1.003), (2.003, 0.002, 2.005)]
    (raw1, scaled1), (raw2, scaled2) = clock.stretches()
    assert raw1 == pytest.approx(0.997) and raw2 == pytest.approx(1.0)
    assert scaled1 == pytest.approx(0.997 * 0.5 ** run.SPEED_EXPONENT)
    assert scaled2 == pytest.approx(0.5 ** run.SPEED_EXPONENT)


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_end_to_end_prints_the_declared_metrics(tmp_path, capsys):
    run.end_to_end(run.Run(TINY_T, 1, tmp_path), seconds=0)
    result = _last_json(capsys.readouterr().out)
    assert result["attempted"] == 4 * TINY_T.patterns
    declared = {(m["name"], m["unit"]) for m in SPEC["end_to_end"]}
    printed = {(k, v["unit"]) for k, v in result["metrics"].items()}
    assert printed == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [TINY_T, TINY_L], ids=lambda w: w.name)
def test_traced_run_prints_the_declared_metrics(workload, tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    run.traced(run.Run(workload, 1, tmp_path))
    result = _last_json(capsys.readouterr().out)
    assert result["attempted"] == 4 * workload.patterns
    declared = {(m["name"], m["unit"]) for m in SPEC["per_layer"]}
    printed = {(k, v["unit"]) for k, v in result["metrics"].items()}
    assert printed == declared
    spans = json.loads(next(tmp_path.glob("spans-*.json")).read_text())
    assert {"cli.cmd_build", "cli.cmd_query", "seqindex.count"} <= {
        s["name"] for s in spans}
    assert all(s["request"].split("/")[0] in run.MODES + ("build",)
               for s in spans)


def test_spec_lists_the_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "random_dna", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout
