"""Command-line surface: build an index, query patterns, verify, report stats.

Output is TSV on standard output.  Rows are type-tagged in the first column:

    pmem    pattern_id  origin  char_start  char_end  lower_bound  retained
    mem     pattern_id  mode    start       end       length       freq
    status  pattern_id  message

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O or
format error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import filters as flt
from . import pseudomem as pmm
from .bundle import IndexBundle, check_integrity, load_bundle, save_bundle
from .errors import (EmptyInputError, IndexFormatError, ParameterMismatch,
                     ParsememError)
from .parsing import PhraseDictionary, RollingHasher, pfp_parse
from .seqindex import OccurrenceIndex
# Not called here; bench/tracing.py wraps these names on this module.
from .seqindex import bml_mems, bml_top_t, find_f_mems  # noqa: F401
from .verify import run_all

SEPARATOR = 0  # joins multi-record texts; outside every sequence alphabet
ENV_INDEX = "PARSEMEM_INDEX"

DEFAULT_W = 10
DEFAULT_P = 50
DEFAULT_KEBAB_K = 20
DEFAULT_FPR = 0.01

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
                name = line[1:].split()[0].decode("utf-8", "replace") if len(line) > 1 else ""
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
        if dna and any(c not in b"ACGT" for c in seq):
            raise EmptyInputError(f"record {name!r} has non-ACGT characters")


def cmd_build(args) -> int:
    _check_ranges(args)
    records = _read_records(args.text, args.format)
    records = [(n, s) for n, s in records if s]
    if not records:
        raise EmptyInputError("input text is empty")
    _check_alphabet(records, args.dna)
    text = bytes([SEPARATOR]).join(seq for _, seq in records)

    hasher = RollingHasher(window=args.window, trigger_modulus=args.trigger)
    dictionary = PhraseDictionary()
    parse_text = pfp_parse(text, hasher, dictionary)
    text_index = OccurrenceIndex(text)
    parse_index = OccurrenceIndex(parse_text.symbols)

    k = args.kmer
    kmers = [text[i:i + k] for i in range(len(text) - k + 1)
             if SEPARATOR not in text[i:i + k]]
    n_kmers = max(len(set(kmers)), 1)
    kparams = replace(flt.size_for(n_kmers, args.filter_fpr), seed=args.seed)
    kmer_filter = flt.filter_build(kmers, kparams, flt.KIND_COUNTING,
                                   flt.ITEMS_KMER, k)
    n_phrases = max(len(set(parse_text.symbols)), 1)
    pparams = replace(flt.size_for(n_phrases, args.filter_fpr), seed=args.seed)
    phrase_filter = flt.filter_build(parse_text.symbols, pparams,
                                     flt.KIND_COUNTING, flt.ITEMS_PHRASE)

    params = {
        "w": args.window,
        "p": args.trigger,
        "base": hasher.base,
        "modulus": hasher.modulus,
        "kebab_k": k,
        "seed": args.seed,
        "filter_fpr": args.filter_fpr,
        "text_length": len(text),
        "records": [n for n, _ in records],
    }
    bundle = IndexBundle(
        params=params,
        dictionary=dictionary,
        parse_text=parse_text,
        text_index=text_index,
        parse_index=parse_index,
        kmer_filter=kmer_filter,
        phrase_filter=phrase_filter,
    )
    save_bundle(bundle, args.out)
    print(f"# wrote {args.out}: |T|={len(text)} phrases={len(parse_text)} "
          f"dict={len(dictionary)}", file=sys.stderr)
    return EXIT_OK


# The least value each integer flag accepts; float flags are checked apart.
_LEAST = {"f": 1, "t": 1, "L": 1, "window": 1, "trigger": 2, "kmer": 1}


def _check_ranges(args):
    """Reject flag values the index or the search cannot take, as usage errors."""
    for dest, least in _LEAST.items():
        given = getattr(args, dest, None)
        if given is not None and given < least:
            flag = f"-{dest}" if len(dest) == 1 else f"--{dest}"
            raise ParameterMismatch(f"{flag}={given} must be at least {least}")
    fpr = getattr(args, "filter_fpr", None)
    if fpr is not None and not 0.0 < fpr < 1.0:
        raise ParameterMismatch(
            f"--filter-fpr={fpr} must be strictly between 0 and 1")


def _check_params(bundle: IndexBundle, args):
    for flag, key in (("window", "w"), ("trigger", "p"), ("kmer", "kebab_k")):
        given = getattr(args, flag, None)
        if given is not None and given != bundle.params[key]:
            raise ParameterMismatch(
                f"--{flag}={given} does not match the index ({bundle.params[key]}); "
                "rebuild the index or drop the flag")


def _query_one(bundle: IndexBundle, pattern: bytes, args):
    """Run one pattern in one mode; returns (pms, retained, mems, parse_len).

    Every mode ends in the same find_long_mems search and differs only in
    the windows it searches: exact searches the whole pattern, parse and
    combined the pseudo-MEMs that survive safe discarding.  KeBaB runs hold
    every f-MEM of length >= k and certify nothing shorter, so kebab
    searches them only while the cutoff (L, or the t-th longest length they
    yield) is at least k, and otherwise the whole pattern.
    """
    mode, f, t, L = args.mode, args.f, args.t, args.L
    whole = [pmm.PseudoMem(1, len(pattern), pmm.ORIGIN_WHOLE)]
    pms: list[pmm.PseudoMem] = []
    retained, windows, parse_len = pms, whole, 0
    k = bundle.params["kebab_k"]
    if mode == "kebab":
        pms = retained = pmm.kebab_pseudo_mems(pattern, bundle.kmer_filter, f)
        if t is not None or (L is not None and L >= k):
            windows = retained
    elif mode != "exact":
        hasher = RollingHasher(window=bundle.params["w"],
                               trigger_modulus=bundle.params["p"],
                               base=bundle.params["base"],
                               modulus=bundle.params["modulus"])
        parse_p = pfp_parse(pattern, hasher, bundle.dictionary)
        if mode == "parse":
            pms = pmm.parse_pseudo_mems(parse_p, bundle.parse_index, f)
        else:  # combined
            coarse = pmm.coarse_sets(parse_p, bundle.phrase_filter, f)
            pms = pmm.refine(coarse, parse_p, bundle.parse_index, f)
        windows = retained = pmm.safe_discard(pms, t) if t is not None else pms
        parse_len = len(parse_p)
    mems = pmm.find_long_mems(bundle.text_index, windows, pattern, f, t=t, L=L)
    if mode == "kebab" and t is not None and (
            len(mems) < t or min(m.length for m in mems) < k):
        mems = pmm.find_long_mems(bundle.text_index, whole, pattern, f, t=t)
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
    _check_params(bundle, args)
    return bundle, _read_records(args.patterns, args.format)


def cmd_query(args) -> int:
    bundle, records = _load_for_query(args)
    out = sys.stdout
    out.write("# parsemem query mode=%s f=%d t=%s L=%s\n"
              % (args.mode, args.f, args.t, args.L))
    for name, pattern in records:
        if not pattern:
            out.write(f"status\t{name}\tempty pattern\n")
            continue
        if SEPARATOR in pattern:
            out.write(f"status\t{name}\tpattern contains the reserved NUL byte\n")
            continue
        pms, retained, mems, _ = _query_one(bundle, pattern, args)
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


def _work(bundle: IndexBundle) -> tuple[int, int, int]:
    """Search work so far: parse-index steps, text-index steps, filter probes."""
    return (bundle.parse_index.steps, bundle.text_index.steps,
            bundle.kmer_filter.probes + bundle.phrase_filter.probes)


def cmd_stats(args) -> int:
    bundle, records = _load_for_query(args)
    out = sys.stdout
    out.write("pattern_id\tm\tpseudo_total\tretained_total\tparse_len\t"
              "parse_backward_steps\tchar_backward_steps\tfilter_probes\n")
    for name, pattern in records:
        pms, retained, parse_len, work = [], [], 0, [0, 0, 0]
        if pattern and SEPARATOR not in pattern:
            before = _work(bundle)
            pms, retained, _, parse_len = _query_one(bundle, pattern, args)
            work = [now - then for now, then in zip(_work(bundle), before)]
        out.write("%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n" % (
            name, len(pattern),
            sum(pm.length for pm in pms),
            sum(pm.length for pm in retained),
            parse_len, *work))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.check_index:
        try:
            check_integrity(args.check_index)
            print(f"PASS index integrity: {args.check_index}")
        except IndexFormatError as exc:
            print(f"FAIL index integrity: {exc}")
            return EXIT_VERIFY
        if args.instances == 0:
            return EXIT_OK
    results = run_all(args.seed, args.instances,
                      max_text=args.max_text, max_pattern=args.max_pattern)
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
                   help="prefix-free parsing trigger modulus")
    b.add_argument("-k", "--kmer", type=int, default=DEFAULT_KEBAB_K,
                   help="k-mer length for the KeBaB filter")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--filter-fpr", type=float, default=DEFAULT_FPR)
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
    common.add_argument("-w", "--window", type=int, default=None,
                        help="must match the index if given")
    common.add_argument("-p", "--trigger", type=int, default=None,
                        help="must match the index if given")
    common.add_argument("-k", "--kmer", type=int, default=None,
                        help="must match the index if given")
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
    v.add_argument("--max-text", type=int, default=800)
    v.add_argument("--max-pattern", type=int, default=200)
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
