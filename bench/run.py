"""Seeded build-and-query benchmark of the parsemem command line.

    python3 bench/run.py --workload pangenome_top1 --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; the program under test is imported
from ``src/`` of that checkout and nowhere else.  The run generates the
workload's FASTA files (the text fixed, the patterns from the seed), then
drives ``parsemem.cli.main`` in-process, in one thread: ``build`` three
times, then rounds of one ``query`` call per mode (exact, kebab, parse,
combined) over all patterns, as many rounds as ``--seconds`` holds at a
nominal round time.  The load is a closed loop with one client: each
pattern of a query file is handled after the previous one.  Every
(pattern, mode) result is checked against reference f-MEMs computed after
the timed work.

``--trace 0`` prints the end-to-end metrics.  Their times are rescaled to a
fixed host speed measured by probes (see ProbedClock); raw wall times are
printed beside them.  ``--trace 1`` builds and queries with span-recording
wrappers installed (see tracing.py), prints per-layer metrics (raw times)
and the tracing overhead against untraced rounds, and writes the spans to
``.bench_work/``.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import parsemem  # noqa: E402
from parsemem import cli, oracle  # noqa: E402
from parsemem.bundle import load_bundle  # noqa: E402
from parsemem.filters import expected_fpr  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload, fasta, generate  # noqa: E402

MODES = ("exact", "kebab", "parse", "combined")
SETUP_REPEATS = 3  # builds per run; setup_s is their median
LOADS_PER_SETUP = 5  # load_bundle calls after each build; load_s is their median
MIN_ROUNDS = 2  # query rounds per run; a pattern's latency is its fastest
NOMINAL_ROUND_S = 4.0  # --seconds per query round, whatever a round takes
PROBE_STEPS = 4000
PROBE_REFERENCE_S = 0.001  # times are reported as if a probe took this long
SPEED_EXPONENT = 0.75  # the program's time moves as the probe's to this power
SAMPLE_INTERVAL_S = 0.02  # timer probes while end-to-end work runs
SPEED_WINDOW_S = 0.25  # timer probes this near a stretch rescale it too
PER_MILLE_LADDER = (999, 990, 950, 900, 750, 500)
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
WORK_DIR = ROOT / ".bench_work"


def tail_percentile(n: int) -> int:
    """Highest ladder percentile, in per mille, with >= 10 of n samples above.

    The nearest-rank position of per-mille q is ceil(q * n / 1000).
    """
    for q in PER_MILLE_LADDER:
        if n - (-(-q * n // 1000)) >= TAIL_BEYOND:
            return q
    raise ValueError(f"{n} samples are too few for a tail percentile")


def percentile(values: list[float], per_mille: int) -> float:
    ordered = sorted(values)
    return ordered[-(-per_mille * len(ordered) // 1000) - 1]


def percentile_label(per_mille: int) -> str:
    return f"p{per_mille / 10:g}"


def probe() -> float:
    """Seconds that a fixed piece of interpreter work takes right now.

    Dict updates, tuple allocation and list appends, like the program's own
    inner loops; about a millisecond on an idle core.  The cyclic garbage
    collector is held off meanwhile: a collection the probe's allocations
    set off would walk the program's whole heap and time that instead.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = perf_counter()
    table: dict[int, int] = {}
    items = []
    for i in range(PROBE_STEPS):
        table[i & 255] = table.get((i * 7) & 255, 0) + i
        items.append((i, i >> 3))
    seconds = perf_counter() - start
    if collecting:
        gc.enable()
    return seconds


def rescale(seconds: float, probe_seconds: float) -> float:
    return seconds * (PROBE_REFERENCE_S / probe_seconds) ** SPEED_EXPONENT


class Sampler:
    """Probes taken every SAMPLE_INTERVAL_S from a timer signal, while
    ``running()``, so that a stretch of work is rescaled by the host speed
    all through it and around it, not only at its ends."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, probe, end)
        self.starts: list[float] = []

    def _on_timer(self, signum, frame):
        start = perf_counter()
        seconds = probe()
        self.samples.append((start, seconds, perf_counter()))
        self.starts.append(start)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def between(self, start: float, end: float) -> list[tuple[float, float, float]]:
        return self.samples[bisect.bisect_left(self.starts, start):
                            bisect.bisect_left(self.starts, end)]


class ProbedClock:
    """Marks inside timed work, with a probe at each, to rescale the work.

    On a shared host this process runs up to 2x slower or faster from one
    second to the next, whatever it does.  Each mark notes the time and runs
    a probe; the stretch between two marks, probes left out, is multiplied
    by ``PROBE_REFERENCE_S`` over the median of the probes at its two ends
    and of those a Sampler took within it or within SPEED_WINDOW_S of it,
    raised to SPEED_EXPONENT: the time it would have taken on a host where
    the probe takes exactly ``PROBE_REFERENCE_S``.  The window makes the
    median of many probes even for a stretch of a few milliseconds.  The
    exponent is below 1 because the program slows less than the probe when
    the host is busy: timed against the probe, query calls moved as its
    time to the power 0.6-0.8, loads 0.5-0.6.
    """

    def __init__(self, sampler: Sampler | None = None):
        self.marks: list[tuple[float, float, float]] = []  # (reached, probe, resumed)
        self.sampler = sampler

    def mark(self):
        reached = perf_counter()
        self.marks.append((reached, probe(), perf_counter()))

    def stretches(self) -> list[tuple[float, float]]:
        """(raw seconds, rescaled seconds) between consecutive marks."""
        out = []
        for a, b in zip(self.marks, self.marks[1:]):
            inside, around = [], []
            if self.sampler:
                inside = self.sampler.between(a[2], b[0])
                around = self.sampler.between(a[2] - SPEED_WINDOW_S,
                                              b[0] + SPEED_WINDOW_S)
            raw = b[0] - a[2] - sum(end - start for start, _, end in inside)
            probes = [a[1], b[1], *(seconds for _, seconds, _ in around)]
            out.append((raw, rescale(raw, statistics.median(probes))))
        return out

    def total(self) -> tuple[float, float]:
        """(raw, rescaled) seconds from the first mark to the last."""
        raw, scaled = zip(*self.stretches())
        return sum(raw), sum(scaled)


class RowClock(ProbedClock, io.StringIO):
    """Query output sink that marks when each pattern's result arrives.

    ``parsemem query`` writes a header once the index is loaded, then each
    pattern's rows as soon as that pattern is done, one row per write.  The
    clock marks the start and end of the call (see run_cli), the header and
    each pattern's first row.  The stretch from the previous pattern's first
    row (or the header) to a pattern's first row is that pattern's latency.
    With a tracer, the clock also names the pattern that work is now being
    done for.
    """

    def __init__(self, names: list[str], mode: str, tracer=None,
                 sampler: Sampler | None = None):
        ProbedClock.__init__(self, sampler)
        io.StringIO.__init__(self)
        self.names, self.mode, self.tracer = names, mode, tracer
        self.arrived: list[str] = []  # "#" for the header, then pattern ids

    def write(self, s: str) -> int:
        key = "#" if s.startswith("#") else s.split("\t", 2)[1]
        if not self.arrived or self.arrived[-1] != key:
            self.mark()
            self.arrived.append(key)
            if self.tracer is not None:
                k = len(self.arrived) - 1
                upcoming = self.names[k] if k < len(self.names) else "-"
                self.tracer.request = f"{self.mode}/{upcoming}"
        return super().write(s)

    def split(self) -> tuple[tuple[float, float], list[tuple[float, float]]]:
        """The call's (raw, rescaled) seconds outside every pattern, then
        each pattern's (raw, rescaled) latency."""
        if self.arrived != ["#", *self.names]:
            raise RuntimeError("query output does not have one block per "
                               "pattern, in order, after its header")
        stretches = self.stretches()
        first, *patterns, last = stretches
        return (first[0] + last[0], first[1] + last[1]), patterns


def run_cli(argv: list[str], out: io.StringIO,
            clock: ProbedClock | None = None) -> None:
    """``parsemem.cli.main(argv)``, marked on ``clock`` (if any) just before
    and after; raises unless it exits 0."""
    err = io.StringIO()
    gc.collect()
    if clock is not None:
        clock.mark()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv)
    if clock is not None:
        clock.mark()
    if status != 0:
        raise RuntimeError(f"parsemem {argv[0]} exited {status}: "
                           f"{err.getvalue().strip()}")


class Run:
    """One workload at one seed: its files, references and CLI calls."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w, self.seed = workload, seed
        text, patterns = generate(workload, seed)
        self.text = bytes([cli.SEPARATOR]).join(seq for _, seq in text)
        self.patterns = patterns
        self.names = [name for name, _ in patterns]
        self.pattern_bases = sum(len(seq) for _, seq in patterns)
        self.text_path = str(work / "text.fa")
        self.pattern_path = str(work / "patterns.fa")
        self.index_path = str(work / "index.pmidx")
        Path(self.text_path).write_bytes(fasta(text))
        Path(self.pattern_path).write_bytes(fasta(patterns))

    def build(self, clock: ProbedClock | None = None) -> None:
        run_cli(["build", self.text_path, "-o", self.index_path, "--dna"],
                io.StringIO(), clock)

    def load(self, clock: ProbedClock) -> None:
        """``load_bundle`` on the built index, marked on ``clock``."""
        gc.collect()
        clock.mark()
        load_bundle(self.index_path)
        clock.mark()

    def query(self, mode: str, clock: RowClock) -> None:
        run_cli(self._query_argv("query", mode), clock, clock)

    def stats(self, mode: str) -> str:
        out = io.StringIO()
        run_cli(self._query_argv("stats", mode), out)
        return out.getvalue()

    def _query_argv(self, command: str, mode: str) -> list[str]:
        return [command, self.pattern_path, "--index", self.index_path,
                "--mode", mode, *self.w.query_flags()]

    def references(self) -> dict[str, list[check.Row]]:
        """Reference f-MEMs of every pattern, cross-checked by the oracle.

        The oracle with its own counter (quadratic, seconds per pattern)
        re-derives the first pattern's f-MEMs; a disagreement stops the run.
        """
        refs = check.reference_f_mems(self.text, self.patterns, self.w.f)
        name, seq = self.patterns[0]
        judged = oracle.brute_force_f_mems(self.text.decode("latin-1"),
                                           seq.decode("latin-1"), self.w.f)
        if [(m.start, m.end, m.freq) for m in judged] != refs[name]:
            raise RuntimeError(f"reference f-MEMs of {name} disagree with the oracle")
        return refs

    def tally(self, outputs: dict[str, str]) -> check.Tally:
        refs = self.references()
        tally = check.Tally()
        for mode in MODES:
            tally.add(mode, outputs[mode], self.names, refs, self.w.t, self.w.L)
        return tally


class Report:
    """Metrics in order, printed as lines and as the closing JSON object."""

    def __init__(self):
        self.metrics: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str, note: str = ""):
        self.metrics[name] = {"value": value, "unit": unit}
        print(f"{name:40s} {value:14.6g} {unit:8s} {note}".rstrip())

    def finish(self, correct: bool, tally: check.Tally):
        for mode in MODES:
            print(f"ops.{mode:34s} failed {tally.failed[mode]} / attempted "
                  f"{tally.attempted[mode]}, unsound {tally.unsound[mode]}")
        print(f"ops_failed / ops_attempted: {tally.total_failed} / "
              f"{tally.total_attempted}")
        print(json.dumps({"correct": correct, "attempted": tally.total_attempted,
                          "failed": tally.total_failed, "metrics": self.metrics}))


def end_to_end(run: Run, seconds: float) -> None:
    """Set up SETUP_REPEATS times, then query in every mode, round after
    round, for as many rounds as ``seconds`` holds at NOMINAL_ROUND_S each.

    Timer probes (see Sampler) run all through, and times are rescaled
    (see ProbedClock): a build as a whole, a query call pattern by pattern.
    A pattern's latency is its fastest round, and a query call's time is
    its fixed part (load, argument and file handling) at its fastest plus
    every pattern's latency.  The number of rounds depends on ``seconds``
    alone, never on how fast the host or the program runs, so every commit
    takes its minima over as many samples.
    """
    rounds = max(MIN_ROUNDS, int(seconds // NOMINAL_ROUND_S))
    builds, loads = [], []
    calls: dict[str, list[RowClock]] = {mode: [] for mode in MODES}
    with Sampler().running() as sampler:
        for _ in range(SETUP_REPEATS):
            builds.append(ProbedClock(sampler))
            run.build(builds[-1])
            for _ in range(LOADS_PER_SETUP):
                loads.append(ProbedClock(sampler))
                run.load(loads[-1])
        for _ in range(rounds):
            for mode in MODES:
                calls[mode].append(RowClock(run.names, mode, sampler=sampler))
                run.query(mode, calls[mode][-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    setups = [tuple(b + l for b, l in zip(build.total(), load.total()))
              for build, load in zip(builds, loads[::LOADS_PER_SETUP])]
    loads = [load.total() for load in loads]
    outputs = {mode: clocks[0].getvalue() for mode, clocks in calls.items()}
    deterministic = all(clock.getvalue() == outputs[mode]
                        for mode, clocks in calls.items() for clock in clocks)
    fixed, latencies = {}, {}  # per mode and call: (raw, rescaled) seconds
    for mode, clocks in calls.items():
        fixed[mode], latencies[mode] = zip(*(clock.split() for clock in clocks))
    tally = run.tally(outputs)
    report = Report()
    report.add("setup_s", statistics.median(x[1] for x in setups), "s",
               f"median of {SETUP_REPEATS} builds + first load "
               f"({', '.join(f'{x[1]:.3f}' for x in setups)}); raw "
               f"{statistics.median(x[0] for x in setups):.3f} s")
    report.add("load_s", statistics.median(x[1] for x in loads), "s",
               f"median of {len(loads)} loads; raw "
               f"{statistics.median(x[0] for x in loads):.4f} s")
    report.add("index_bytes_per_char",
               os.path.getsize(run.index_path) / len(run.text), "B/char",
               f"|T| = {len(run.text)}")
    report.add("peak_rss_mb", peak_rss_mb, "MB", "build and query, one process")
    n = len(run.names)
    tail = tail_percentile(n)
    for mode in MODES:
        raw, per_pattern = fastest(latencies[mode])
        raw_call, call = call_seconds(fixed[mode], latencies[mode])
        report.add(f"query_bp_per_s.{mode}", run.pattern_bases / call, "bp/s",
                   f"{run.pattern_bases} bp, load included; raw "
                   f"{run.pattern_bases / raw_call:.0f}")
        report.add(f"query_ms_p50.{mode}", percentile(per_pattern, 500) * 1e3,
                   "ms", f"p50 of {n} patterns x {rounds} rounds; raw "
                   f"{percentile(raw, 500) * 1e3:.3f}")
        report.add(f"query_ms_tail.{mode}", percentile(per_pattern, tail) * 1e3,
                   "ms", f"{percentile_label(tail)} of {n} patterns; raw "
                   f"{percentile(raw, tail) * 1e3:.3f}")
    report.finish(deterministic and tally.sound, tally)


def fastest(latencies: list[list[tuple[float, float]]]
            ) -> tuple[list[float], list[float]]:
    """Each pattern's fastest latency over the calls: (raw, rescaled) lists."""
    per_pattern = list(zip(*latencies))
    return ([min(x[0] for x in samples) for samples in per_pattern],
            [min(x[1] for x in samples) for samples in per_pattern])


def call_seconds(fixed: list[tuple[float, float]],
                 latencies: list[list[tuple[float, float]]]) -> tuple[float, float]:
    """One query call's (raw, rescaled) time: its fastest fixed part plus
    every pattern's fastest latency."""
    raw, scaled = fastest(latencies)
    return (min(x[0] for x in fixed) + sum(raw),
            min(x[1] for x in fixed) + sum(scaled))


def parse_stats(tsv: str) -> list[dict[str, int]]:
    lines = tsv.splitlines()
    header = lines[0].split("\t")
    return [{key: int(v) for key, v in zip(header[1:], line.split("\t")[1:])}
            for line in lines[1:]]


def pmem_rows(tsv: str) -> dict[str, list[tuple[int, int, int, int]]]:
    """(char start, char end, lower bound, retained) per pattern id."""
    rows: dict[str, list] = {}
    for line in tsv.splitlines():
        if line.startswith("pmem\t"):
            _, name, _origin, start, end, bound, kept = line.split("\t")
            rows.setdefault(name, []).append(
                (int(start), int(end), int(bound), int(kept)))
    return rows


def observed_fpr(filt, items, true_count, f: int) -> float:
    """Share of items truly below f that the filter reports at least f."""
    negatives = [x for x in set(items) if true_count.get(x, 0) < f]
    return sum(filt.at_least(x, f) for x in negatives) / max(len(negatives), 1)


def traced(run: Run) -> None:
    """A traced build, query rounds with and without tracing, and counts
    from ``parsemem stats``.

    Query rounds run plain, traced, traced, plain; the per-layer spans are
    those of the first traced round, and the tracing overhead compares the
    fastest of each side, as end_to_end takes them.
    """
    w, n, report = run.w, len(run.names), Report()
    tracer = tracing.Tracer(len(run.text))
    tracer.install()
    try:
        run.build()
    finally:
        tracer.uninstall()
    base = load_bundle(run.index_path)

    def query_round(tracer=None) -> dict[str, RowClock]:
        clocks = {}
        if tracer is not None:
            tracer.install()
        try:
            for mode in MODES:
                if tracer is not None:
                    tracer.request = f"{mode}/load"
                clocks[mode] = RowClock(run.names, mode, tracer)
                run.query(mode, clocks[mode])
        finally:
            if tracer is not None:
                tracer.uninstall()
        return clocks

    plain = [query_round()]
    timed = query_round(tracer)
    traced_rounds = [timed, query_round(tracing.Tracer(len(run.text)))]
    plain.append(query_round())
    outputs = {mode: clock.getvalue() for mode, clock in plain[0].items()}
    same = all(clocks[mode].getvalue() == outputs[mode]
               for clocks in plain[1:] + traced_rounds for mode in MODES)
    stats = {mode: parse_stats(run.stats(mode)) for mode in MODES}
    tally = run.tally(outputs)

    spans = tracing.SpanIndex(tracer.spans)
    WORK_DIR.mkdir(exist_ok=True)
    span_path = WORK_DIR / f"spans-{w.name}-s{run.seed}.json"
    tracer.dump(str(span_path))

    def total(mode: str, key: str) -> int:
        return sum(row[key] for row in stats[mode])

    def per_pattern_ms(names, mode: str, tag: str | None = None) -> float:
        return spans.seconds(names, mode, tag) / n * 1e3

    searches = ("seqindex.bml_mems", "seqindex.bml_top_t", "seqindex.find_f_mems")
    pmem_builders = ("pseudomem.kebab_pseudo_mems", "pseudomem.parse_pseudo_mems",
                     "pseudomem.coarse_sets", "pseudomem.refine",
                     "pseudomem.safe_discard")
    routes = MODES[1:]

    # parsing
    loaded = dict(tracer.loaded)
    report.add("parsing.text_parse_s",
               spans.seconds("parsing.pfp_parse", "build", "text"), "s")
    report.add("parsing.text_phrases", len(base.parse_text), "count")
    report.add("parsing.dict_phrases", len(base.dictionary), "count")
    for mode in ("parse", "combined"):
        report.add(f"parsing.pattern_parse_ms.{mode}",
                   per_pattern_ms("parsing.pfp_parse", mode, "pattern"), "ms")
    report.add("parsing.dict_growth",
               len(loaded["parse"].dictionary) - len(base.dictionary), "count",
               "phrases one parse-mode query call added")

    # seqindex
    report.add("seqindex.text_index_build_s",
               spans.seconds("seqindex.OccurrenceIndex", "build", tracing.CHAR), "s")
    report.add("seqindex.parse_index_build_s",
               spans.seconds("seqindex.OccurrenceIndex", "build", tracing.PARSE), "s")
    exact_steps = total("exact", "char_backward_steps")
    for mode in MODES:
        report.add(f"seqindex.char_steps_per_pattern.{mode}",
                   total(mode, "char_backward_steps") / n, "count")
    for mode in ("parse", "combined"):
        report.add(f"seqindex.parse_steps_per_pattern.{mode}",
                   total(mode, "parse_backward_steps") / n, "count")
    for mode in routes:
        report.add(f"seqindex.steps_vs_exact.{mode}",
                   total(mode, "char_backward_steps") / exact_steps, "ratio",
                   f"of {exact_steps / n:.0f} exact char steps per pattern")
    for mode in MODES:
        report.add(f"seqindex.char_search_ms.{mode}",
                   per_pattern_ms(searches, mode, tracing.CHAR), "ms")
    index_seconds = sum(spans.seconds(searches + ("seqindex.count",), mode)
                        for mode in MODES)
    all_steps = sum(total(mode, "char_backward_steps")
                    + total(mode, "parse_backward_steps") for mode in MODES)
    report.add("seqindex.us_per_step", index_seconds / all_steps * 1e6, "us",
               f"over {all_steps} steps")
    for mode in routes:
        report.add(f"seqindex.count_calls_per_pattern.{mode}",
                   spans.calls("seqindex.count", mode) / n, "count")
        report.add(f"seqindex.count_ms.{mode}",
                   per_pattern_ms("seqindex.count", mode), "ms")

    # filters
    kmer_filter, phrase_filter = base.kmer_filter, base.phrase_filter
    k = kmer_filter.k
    text_kmers: dict[bytes, int] = {}
    for i in range(len(run.text) - k + 1):
        kmer = run.text[i:i + k]
        if cli.SEPARATOR not in kmer:
            text_kmers[kmer] = text_kmers.get(kmer, 0) + 1
    pattern_kmers = [seq[i:i + k] for _, seq in run.patterns
                     for i in range(len(seq) - k + 1)]
    text_phrases: dict[int, int] = {}
    for sym in base.parse_text.symbols:
        text_phrases[sym] = text_phrases.get(sym, 0) + 1
    pattern_phrases = [sym for mode, parsed in tracer.pattern_parses
                       if mode == "parse" for sym in parsed.symbols]
    report.add("filters.kmer_build_s",
               spans.seconds("filters.filter_build", "build", "kmer"), "s")
    report.add("filters.phrase_build_s",
               spans.seconds("filters.filter_build", "build", "phrase"), "s")
    for mode in ("kebab", "combined"):
        report.add(f"filters.probes_per_pattern.{mode}",
                   total(mode, "filter_probes") / n, "count")
    report.add("filters.kmer_fpr_observed",
               observed_fpr(kmer_filter, pattern_kmers, text_kmers, w.f), "frac",
               f"pattern k-mers below f={w.f}")
    report.add("filters.kmer_fpr_expected",
               expected_fpr(kmer_filter.params, len(text_kmers)), "frac")
    report.add("filters.phrase_fpr_observed",
               observed_fpr(phrase_filter, pattern_phrases, text_phrases, w.f),
               "frac", f"pattern phrases below f={w.f}")
    report.add("filters.phrase_fpr_expected",
               expected_fpr(phrase_filter.params, len(text_phrases)), "frac")

    # pseudomem
    for mode in routes:
        report.add(f"pseudomem.pmem_ms.{mode}", per_pattern_ms(pmem_builders, mode), "ms")
        report.add(f"pseudomem.find_long_ms.{mode}",
                   per_pattern_ms("pseudomem.find_long_mems", mode), "ms")
    for mode in routes:
        report.add(f"pseudomem.cover.{mode}",
                   total(mode, "pseudo_total") / total(mode, "m"), "bp/bp")
        report.add(f"pseudomem.retained_cover.{mode}",
                   total(mode, "retained_total") / total(mode, "m"), "bp/bp")
    parse_pmems = pmem_rows(outputs["parse"])
    cutoffs = []
    for name in run.names:
        bounds = sorted((row[2] for row in parse_pmems.get(name, [])), reverse=True)
        cutoffs.append(bounds[w.t - 1] if w.t is not None and len(bounds) >= w.t else 0)
    report.add("pseudomem.discard_cutoff", statistics.mean(cutoffs), "bp",
               "mean over patterns, parse mode" if w.t else "no discard with -L")
    report.add("pseudomem.retained_frac",
               total("parse", "retained_total") / total("parse", "pseudo_total"),
               "frac", "of pseudomem.cover.parse")
    retained = sum(row[3] for rows in parse_pmems.values() for row in rows)
    mems = sum(len(rows) for rows in check.mem_blocks(outputs["parse"]).values())
    report.add("pseudomem.mems_per_pmem", mems / retained, "ratio",
               f"{mems} mem rows over {retained} retained pseudo-MEMs, parse mode")

    # bundle
    report.add("bundle.save_s", spans.seconds("cli.save_bundle", "build"), "s")
    report.add("bundle.load_s",
               statistics.mean(spans.seconds("cli.load_bundle", mode) for mode in MODES),
               "s", "mean of one load per mode")
    report.add("bundle.index_bytes", os.path.getsize(run.index_path), "B")

    # cli
    report.add("cli.build_self_s", spans.self_seconds("cli.cmd_build", "build"), "s")
    for mode in MODES:  # the clock's probes at output rows run inside cmd_query
        probes = sum(resumed - reached
                     for reached, _, resumed in timed[mode].marks[1:-1])
        report.add(f"cli.query_self_ms.{mode}",
                   (spans.self_seconds("cli.cmd_query", mode) - probes) / n * 1e3,
                   "ms")

    def side_seconds(rounds: list[dict[str, RowClock]]) -> float:
        """Rescaled seconds of one fastest call per mode over ``rounds``."""
        return sum(call_seconds(*zip(*(r[mode].split() for r in rounds)))[1]
                   for mode in MODES)

    traced_s, plain_s = side_seconds(traced_rounds), side_seconds(plain)
    report.add("trace.overhead_pct", (traced_s / plain_s - 1) * 100, "%",
               f"traced {traced_s:.2f}s vs untraced {plain_s:.2f}s (rescaled), "
               "fastest of two rounds each")
    print(f"# {len(tracer.spans)} spans written to {os.path.relpath(span_path, ROOT)}")
    report.finish(same and tally.sound, tally)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="least time the query rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(parsemem.__file__).resolve().parent != ROOT / "src" / "parsemem":
        print(f"error: parsemem was not imported from {ROOT / 'src'}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-s{args.seed}-", dir=WORK_DIR))
    try:
        run = Run(w, args.seed, work)
        print(f"# {w.name} seed {args.seed}: {w.describe()}; |T| = {len(run.text)}")
        if args.trace:
            traced(run)
        else:
            end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
