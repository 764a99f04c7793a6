"""Command-line surface: build an index, query patterns, verify, report stats.

``build`` stores a table of every record's k-mers, for kebab mode, as one
text start and a count per distinct k-mer, beside the text index and the
parse's phrase starts; the parse's phrase IDs and suffix arrays are
derived from the text on load.  ``--mode combined`` runs the parse route
as it is, as ``pseudomem.refine`` does: that route reads each phrase's
count off the parse index before it scans, so a phrase filter's answers
would add nothing.  The table has no size or seed.  The parse window ``-w``,
phrase period ``-p`` and k-mer length ``-k`` are build flags only:
``build`` picks the parse's trigger, the l-grams that end a phrase's
first window, so that the text has about one phrase per p characters,
and ``query`` and ``stats`` parse each pattern with the index's trigger.
``verify --check-index`` checks what load leaves to the writer: the
orders of the text's suffix arrays, the k-mer table and the trigger and
phrase starts against the text, among others.

Output is TSV on standard output.  Rows are type-tagged in the first column:

    pmem    pattern_id  origin  char_start  char_end  lower_bound  retained
    mem     pattern_id  mode    start       end       length       freq
    status  pattern_id  message

``build`` sorts the text and its reverse at once where it can fork: one
child process builds the reversed text's suffix array and prefix table
(``seqindex.reverse_half``) while the build goes on with the k-mer table,
the parse and the text's own array, and sends them back as u32 bytes.
A process with a thread running, or a platform without fork, builds them
inline; either way the index file is the same.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O or
format error, a ``build`` whose child process died without sending its
arrays included.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

from . import filters as flt
from . import pseudomem as pmm
from .bundle import IndexBundle, check_order, load_bundle, save_bundle
from .errors import (EmptyInputError, IndexFormatError, ParameterMismatch,
                     ParsememError)
from .filters import SEPARATOR
from .parsing import (ANCHOR_GRAIN, PhraseDictionary, Trigger, choose_trigger,
                      pfp_parse, text_sigma)
from .seqindex import OccurrenceIndex, PrefixTable, reverse_half, suffix_array
# Not called here; bench/tracing.py wraps these names on this module.
from .seqindex import bml_mems, bml_top_t, find_f_mems  # noqa: F401
from .verify import run_all

ENV_INDEX = "PARSEMEM_INDEX"

DEFAULT_W = 10
DEFAULT_P = 50
DEFAULT_KEBAB_K = 20

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _read_records(path: str, fmt: str) -> list[tuple[str, bytes]]:
    """(name, sequence) records from a FASTA or raw file.

    In raw mode each line is one record.  FASTA sequences are uppercased.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if fmt == "auto":
        fmt = "fasta" if data.startswith(b">") else "raw"
    records: list[tuple[str, bytes]] = []
    if fmt == "fasta":
        name, chunks = None, []
        for line in data.splitlines():
            if line.startswith(b">"):
                if name is not None:
                    records.append((name, b"".join(chunks).upper()))
                fields = line[1:].split()  # none for a bare or blank header
                name = fields[0].decode("utf-8", "replace") if fields else ""
                chunks = []
            elif name is not None:
                chunks.append(line.strip())
        if name is not None:
            records.append((name, b"".join(chunks).upper()))
    else:
        for i, line in enumerate(data.splitlines()):
            records.append((f"p{i + 1}", line))
    return records


def _check_alphabet(records: list[tuple[str, bytes]], dna: bool):
    for name, seq in records:
        if SEPARATOR in seq:
            raise EmptyInputError(f"record {name!r} contains the reserved NUL byte")
        if dna and seq.translate(None, b"ACGT"):
            raise EmptyInputError(f"record {name!r} has non-ACGT characters")


def _timed_reverse_half(text: bytes,
                        trigger: Trigger) -> tuple[array, str, PrefixTable, float]:
    """``reverse_half(text, trigger)`` and the seconds it took."""
    start = perf_counter()
    return (*reverse_half(text, trigger), perf_counter() - start)


def _send_reverse_half(reader, conn, text: bytes, trigger: Trigger) -> None:
    """The child's work: build the reversed text's half and send the route,
    the prefix table's alphabet and the seconds, then the suffix array and
    the table's starts as u32 bytes; or send the exception that stopped it.
    ``reader`` is the pipe's other end, which the fork copied: closed here,
    so that a send the parent no longer reads fails, not blocks."""
    reader.close()
    try:
        sa, route, table, seconds = _timed_reverse_half(text, trigger)
    except Exception as exc:  # the parent raises it
        conn.send(exc)
        return
    conn.send((route, table.alphabet, seconds))
    conn.send_bytes(sa)
    conn.send_bytes(table.starts)


def _receive_reverse_half(conn, text: bytes) -> tuple[array, str, PrefixTable, float]:
    """What ``_send_reverse_half`` sent, as ``_timed_reverse_half`` gives it."""
    try:
        head = conn.recv()
        if isinstance(head, Exception):
            raise head
        sa, starts = conn.recv_bytes(), conn.recv_bytes()
    except EOFError:
        raise ChildProcessError("the build's child process ended without sending "
                                "the reversed text's suffix array") from None
    route, alphabet, seconds = head
    table = PrefixTable(memoryview(text)[::-1], alphabet, array("I", starts))
    return array("I", sa), route, table, seconds


@contextmanager
def _reverse_half_beside(text: bytes, trigger: Trigger):
    """Start the reversed text's half of the index in a forked child; yields
    a function that waits for it and returns ``_timed_reverse_half``'s
    tuple.  On leaving, the child is stopped if the caller failed, and
    joined.  Where fork is missing, or a thread runs (a forked child gets
    only the forking thread, so a lock another held stays held), the
    function builds the half inline."""
    import multiprocessing  # here, not at the top: only build forks
    if ("fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1):
        yield lambda: _timed_reverse_half(text, trigger)
        return
    # forkserver or spawn would import the package again and pickle the text
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    child = context.Process(target=_send_reverse_half,
                            args=(reader, writer, text, trigger), daemon=True)
    try:
        child.start()
        writer.close()  # so a child that dies leaves the reader at its end
        yield lambda: _receive_reverse_half(reader, text)
    except BaseException:
        if child.pid is not None:
            child.terminate()
        raise
    finally:
        reader.close()  # a child still sending stops at the broken pipe
        writer.close()
        if child.pid is not None:
            child.join()


def cmd_build(args) -> int:
    _check_ranges(args)
    records = _read_records(args.text, args.format)
    records = [(n, s) for n, s in records if s]
    if not records:
        raise EmptyInputError("input text is empty")
    _check_alphabet(records, args.dna)
    text = bytes([SEPARATOR]).join(seq for _, seq in records)

    k = args.kmer
    laps = [perf_counter()]  # the start, then each stage's end
    trigger = choose_trigger(text, args.window, args.trigger)
    laps.append(perf_counter())
    with _reverse_half_beside(text, trigger) as reversed_text:
        # The k-mer table first: its build peaks before the suffix arrays are held.
        kmer_filter = flt.filter_build((seq for _, seq in records), flt.TABLE_PARAMS,
                                       flt.KIND_TABLE, flt.ITEMS_KMER, k)
        laps.append(perf_counter())
        dictionary = PhraseDictionary()
        parse_text = pfp_parse(text, trigger, dictionary)
        parse_index = OccurrenceIndex(parse_text.symbols)
        laps.append(perf_counter())
        sa, sa_route = suffix_array(text, parse_text)
        laps.append(perf_counter())
        reverse_sa, rsa_route, prefix_table, reverse_seconds = reversed_text()
    laps.append(perf_counter())
    text_index = OccurrenceIndex(text, sa, reverse_sa, prefix_table)
    params = {"w": args.window, "p": args.trigger, "anchor_length": trigger.length,
              "kebab_k": k, "records": [n for n, _ in records]}
    bundle = IndexBundle(params, trigger, dictionary, parse_text, text_index,
                         parse_index, kmer_filter)
    save_bundle(bundle, args.out)
    laps.append(perf_counter())
    target = len(text) // args.trigger
    print(f"# wrote {args.out}: |T|={len(text)} phrases={len(parse_text)} "
          f"dict={len(dictionary)} target={target} "
          f"anchor_length={trigger.length} text_sa={sa_route} "
          f"text_rsa={rsa_route}", file=sys.stderr)
    # parse holds the parse's suffix arrays and text_sa the text's; wait is
    # how long the reversed text's half, built in the child where one
    # forked, then held the build, and text_rsa the time it took
    stages = ("trigger", "kmer_table", "parse", "text_sa", "wait", "save")
    print("# seconds:", *(f"{stage}={end - start:.3f}" for stage, start, end
                          in zip(stages, laps, laps[1:])),
          f"text_rsa={reverse_seconds:.3f} wall={laps[-1] - laps[0]:.3f}",
          file=sys.stderr)
    # a parse has at least one phrase, so it meets a target below 2
    grain = ANCHOR_GRAIN * args.trigger
    if (target >= 2 and trigger.length == args.window
            and text_sigma(text) ** args.window < grain):
        print(f"warning: the anchor length is capped at w={args.window}, as "
              f"sigma^w < {ANCHOR_GRAIN}p = {grain}: the parse may fall short of "
              f"|T|/p = {target} phrases", file=sys.stderr)
    return EXIT_OK


# The least value each integer flag accepts.
_LEAST = {"f": 1, "t": 1, "L": 1, "window": 1, "trigger": 2, "kmer": 1,
          "instances": 0}


def _check_ranges(args):
    """Reject flag values the index or the search cannot take, as usage errors."""
    for dest, least in _LEAST.items():
        given = getattr(args, dest, None)
        if given is not None and given < least:
            flag = f"-{dest}" if len(dest) == 1 else f"--{dest}"
            raise ParameterMismatch(f"{flag}={given} must be at least {least}")


def _query_one(bundle: IndexBundle, pattern: bytes, args):
    """Run one pattern in one mode; returns (pms, retained, mems, parse_len).

    Every mode ends in the same find_long_mems search and differs only in
    the windows it gives it and their floor, the length from which they
    hold every f-MEM: the whole pattern for exact and the pseudo-MEMs that
    survive safe discarding for parse and combined, from 1, and the KeBaB
    runs for kebab, from k.  Parse and combined are one route: the parse
    route counts every phrase before its scan, so the phrase filter's
    answers, which ``coarse_sets`` gives and ``refine`` takes, would only
    ask again.
    """
    mode, f, t, L = args.mode, args.f, args.t, args.L
    pms: list[pmm.PseudoMem] = []
    retained, parse_len, floor = pms, 0, 1
    if mode == "exact":
        windows = [pmm.PseudoMem(1, len(pattern), pmm.ORIGIN_WHOLE)]
    elif mode == "kebab":
        pms = retained = windows = pmm.kebab_pseudo_mems(pattern, bundle.kmer_filter, f)
        floor = bundle.params["kebab_k"]
    else:  # parse and combined
        parse_p = pfp_parse(pattern, bundle.trigger, bundle.dictionary)
        pms = pmm.parse_pseudo_mems(parse_p, bundle.parse_index, f)
        windows = retained = pmm.safe_discard(pms, t) if t is not None else pms
        parse_len = len(parse_p)
    mems = pmm.find_long_mems(bundle.text_index, windows, pattern, f, t=t, L=L,
                              floor=floor)
    return pms, retained, mems, parse_len


def _load_for_query(args) -> tuple[IndexBundle, list[tuple[str, bytes]]]:
    _check_ranges(args)
    if args.t is not None and args.L is not None:
        raise ParameterMismatch("-t and -L are mutually exclusive")
    index_path = args.index or os.environ.get(ENV_INDEX)
    if not index_path:
        raise ParameterMismatch("no index given (use --index or PARSEMEM_INDEX)")
    bundle = load_bundle(index_path)
    bundle.dictionary.freeze()  # pattern phrases the text lacks get no new IDs
    return bundle, _read_records(args.patterns, args.format)


def _run_patterns(bundle: IndexBundle, records: list[tuple[str, bytes]], args):
    """Run each pattern record: yields (name, pattern, status, found).

    A pattern that is empty or holds NUL is not run: ``status`` says why
    and ``found`` is None.  Otherwise ``status`` is None and ``found`` is
    ``_query_one``'s (pms, retained, mems, parse_len).  Between one yield
    and the next the index does that pattern's work alone."""
    for name, pattern in records:
        if not pattern:
            yield name, pattern, "empty pattern", None
        elif SEPARATOR in pattern:
            yield name, pattern, "pattern contains the reserved NUL byte", None
        else:
            yield name, pattern, None, _query_one(bundle, pattern, args)


def cmd_query(args) -> int:
    bundle, records = _load_for_query(args)
    out = sys.stdout
    out.write("# parsemem query mode=%s f=%d t=%s L=%s\n"
              % (args.mode, args.f, args.t, args.L))
    for name, _, status, found in _run_patterns(bundle, records, args):
        if status is not None:
            out.write(f"status\t{name}\t{status}\n")
            continue
        pms, retained, mems, _ = found
        kept = {(pm.char_start, pm.char_end) for pm in retained}
        for pm in pms:
            out.write("pmem\t%s\t%s\t%d\t%d\t%d\t%d\n" % (
                name, pm.origin, pm.char_start, pm.char_end, pm.lower_bound,
                int((pm.char_start, pm.char_end) in kept)))
        for mem in mems:
            out.write("mem\t%s\t%s\t%d\t%d\t%d\t%d\n" % (
                name, args.mode, mem.start, mem.end, mem.length, mem.freq))
        if not pms and not mems:
            out.write(f"status\t{name}\tno matches\n")
    return EXIT_OK


def _work(bundle: IndexBundle) -> tuple[int, int, int, int]:
    """Search work so far: parse-index steps, text-index steps, k-mer table
    probes, and the text's prefix-table hits (whose steps are in the second)."""
    return (bundle.parse_index.steps, bundle.text_index.steps,
            bundle.kmer_filter.probes, bundle.text_index.prefix_table_hits)


def cmd_stats(args) -> int:
    bundle, records = _load_for_query(args)
    out = sys.stdout
    out.write("pattern_id\tm\tpseudo_total\tretained_total\tparse_len\t"
              "parse_backward_steps\tchar_backward_steps\tfilter_probes\t"
              "prefix_table_hits\n")
    before = _work(bundle)
    for name, pattern, _, found in _run_patterns(bundle, records, args):
        pms, retained, _, parse_len = found or ([], [], [], 0)
        now = _work(bundle)
        work = [a - b for a, b in zip(now, before)]
        before = now
        out.write("%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n" % (
            name, len(pattern),
            sum(pm.length for pm in pms),
            sum(pm.length for pm in retained),
            parse_len, *work))
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_ranges(args)
    if args.check_index:
        try:
            check_order(load_bundle(args.check_index))
            print(f"PASS index integrity: {args.check_index}")
        except IndexFormatError as exc:
            print(f"FAIL index integrity: {exc}")
            return EXIT_VERIFY
        if args.instances == 0:
            return EXIT_OK
    results = run_all(args.seed, args.instances)
    failed = False
    for res in results:
        print(res.line())
        failed = failed or not res.ok
    total = sum(r.checked for r in results)
    print(f"{'FAIL' if failed else 'PASS'} total: {total} checks")
    return EXIT_VERIFY if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parsemem",
        description="Find (f-)maximal exact matches through parse-indexed "
                    "pseudo-MEMs with safe discarding.")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build and persist an index")
    b.add_argument("text", help="text file (FASTA or raw bytes)")
    b.add_argument("-o", "--out", default=os.environ.get(ENV_INDEX, "index.pmidx"))
    b.add_argument("-w", "--window", type=int, default=DEFAULT_W,
                   help="prefix-free parsing window width")
    b.add_argument("-p", "--trigger", type=int, default=DEFAULT_P,
                   help="prefix-free parsing: about one phrase per p characters")
    b.add_argument("-k", "--kmer", type=int, default=DEFAULT_KEBAB_K,
                   help="k-mer length of the KeBaB k-mer table")
    b.add_argument("--format", choices=("auto", "fasta", "raw"), default="auto")
    b.add_argument("--dna", action="store_true",
                   help="reject characters outside ACGT")
    b.set_defaults(func=cmd_build)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("patterns", help="pattern file (FASTA or raw lines)")
    common.add_argument("--index", default=None,
                        help=f"index file (default ${ENV_INDEX})")
    common.add_argument("--mode", choices=("exact", "kebab", "parse", "combined"),
                        default="parse")
    common.add_argument("-f", type=int, default=1,
                        help="occurrence-count threshold")
    common.add_argument("-t", type=int, default=None,
                        help="report the t longest matches")
    common.add_argument("-L", type=int, default=None,
                        help="report matches of length at least L")
    common.add_argument("--format", choices=("auto", "fasta", "raw"),
                        default="auto")

    q = sub.add_parser("query", parents=[common],
                       help="find MEMs for each pattern record")
    q.set_defaults(func=cmd_query)

    s = sub.add_parser("stats", parents=[common],
                       help="per-pattern totals and step counters")
    s.set_defaults(func=cmd_stats)

    v = sub.add_parser("verify", help="run the randomized property suites")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--instances", type=int, default=1000)
    v.add_argument("--check-index", default=None,
                   help="also verify the integrity of an index file")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, IndexFormatError, EmptyInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ParsememError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
