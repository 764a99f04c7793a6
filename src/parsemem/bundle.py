"""On-disk index bundle: everything a query needs, in one checksummed file.

This module alone knows the format: an 8-byte magic, a little-endian u32
format version and u32 section count, then the SECTIONS, each framed as (u16
name length, name, u64 payload length, 32-byte SHA-256, payload), each name
once and nothing after the last.  All are plain data, so loading runs no
code: params as JSON, the text, the suffix arrays of the text and its
reverse, the reversed text's prefix table (its row starts and the text's
alphabet, one byte per symbol), the text parse's phrase starts and the
trigger's anchors (the l-grams, joined in increasing order), then the
k-mer table as the increasing text starts of distinct separator-free
k-mers and their one-byte counts.  Each integer section is one
little-endian typed array of u32s.  Load derives
the reversed sequences, the parse's phrase IDs and the phrase dictionary
(the text cut at the phrase starts, each new phrase taking the next ID),
the parse's two suffix arrays, whose first-symbol buckets give the phrase
filter its counts, and starts step, hit and probe counters at 0; a
prefix-table hit counts the q steps it stands for.
Load checks every value it reads and rejects other versions, as results
are only meaningful with the build-time parsing parameters, which the
params record: the window w >= 1, phrase period p >= 2, anchor length
1 <= l <= w and k-mer length k >= 1, which queries take from the index
alone.  The version pins the trigger rule, and the prefix table's depth q
is derived from the text's length and alphabet.  What the writer
guarantees and only a pass over the text could confirm is not checked on
load: the order of the text's suffix arrays, the k-mer table's k-mers and
counts, the prefix table, the anchors and the phrase starts.
``check_order`` checks it all for ``verify --check-index``.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import product, repeat
from operator import le, lt
from typing import Any

from .errors import IndexFormatError
from .filters import (ITEMS_KMER, SEPARATOR, TABLE_PARAMS, FingerprintTable,
                      PhraseCounts)
from .parsing import (ParsedString, PhraseDictionary, Trigger, choose_trigger,
                      pfp_phrases)
from .seqindex import OccurrenceIndex, PrefixTable, prefix_depth

MAGIC = b"PMEMIDX\x00"
FORMAT_VERSION = 11  # 11: the k-mer table stores a text start per k-mer
SECTIONS = ("params", "text", "text_sa", "text_rsa", "prefix_rows", "alphabet",
            "phrase_start", "anchors", "kmer_starts", "kmer_counts")


@dataclass
class IndexBundle:
    """Built structures over one text, plus the parameters that shaped them.

    Queries parse patterns with ``trigger``, the text's, whose w and l
    ``params`` records beside p.  The phrase filter reads each ID's count
    off ``parse_index``: nothing counts the parse's IDs a second time.
    """

    params: dict[str, Any]
    trigger: Trigger
    dictionary: PhraseDictionary
    parse_text: ParsedString
    text_index: OccurrenceIndex
    parse_index: OccurrenceIndex
    kmer_filter: FingerprintTable
    phrase_filter: PhraseCounts = field(init=False)

    def __post_init__(self):
        self.phrase_filter = PhraseCounts(self.parse_index.forward.buckets)


def _little_endian(values: array) -> array:
    """``values``, a fresh array, put in little-endian order in place."""
    if sys.byteorder == "big":
        values.byteswap()
    return values


def save_bundle(bundle: IndexBundle, path: str) -> None:
    text, kmers = bundle.text_index, bundle.kmer_filter
    u32s = (text.forward.sa, text.backward.sa, text.prefix_table.starts)
    blobs = [json.dumps(bundle.params, sort_keys=True).encode("utf-8"), text.sequence,
             *(_little_endian(array("I", a)).tobytes() for a in u32s),
             text.prefix_table.alphabet,
             _little_endian(array("I", bundle.parse_text.phrase_start)).tobytes(),
             b"".join(bundle.trigger.anchors),
             _little_endian(array("I", kmers.starts)).tobytes(), bytes(kmers.counts)]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(SECTIONS)))
        for name, blob in zip(SECTIONS, blobs, strict=True):
            raw_name = name.encode("ascii")
            fh.write(struct.pack("<H", len(raw_name)) + raw_name + struct.pack(
                "<Q32s", len(blob), hashlib.sha256(blob).digest()) + blob)


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise IndexFormatError(f"malformed index: {what}")


_SLICE = 2048  # u32s per integer in _below: few enough to stay in cache


def _below(raw: bytes, bound: int | None = None) -> bool:
    """Whether each little-endian u32 of ``raw`` is below ``bound``, or,
    with no bound, below the next one, so that they strictly increase.

    Without an int per entry while all are below 2^31 and 0 <= bound <=
    2^31, a slice at a time: read as an integer s with 32-bit digits s_i,
    bound - s, or (s >> 32) - s less its top digit, has digits b_i - s_i.
    Plus 2^31 - 1 each, they lie in [0, 2^32), so none borrows from the
    next, and a digit's top bit is set exactly when s_i < b_i.
    """
    rising = bound is None
    if (not rising and not 0 <= bound <= 1 << 31
            or raw[3::4].translate(None, bytes(range(0x80)))):  # an entry of 2^31 or more
        values = _little_endian(array("I", raw))
        return all(map(lt, values, values[1:] if rising else repeat(bound)))
    view, width, step = memoryview(raw), -1, 4 * _SLICE
    for at in range(0, len(raw) - 4 * rising, step):
        part = view[at:at + step + 4 * rising]
        if len(part) != width:  # the first slice, or a shorter last one
            width = len(part)
            tops = int.from_bytes(b"\0\0\0\x80" * (width // 4 - rising), "little")
            ones = tops >> 31
            lift = tops - ones + (0 if rising else bound * ones)
        s = int.from_bytes(part, "little")
        if ((s >> 32) if rising else 0) - s + lift & tops != tops:
            return False
    return True


def _array(sections: dict[str, memoryview], name: str, most: int | None = None) -> array:
    """Section ``name`` as an array of u32s, each at most ``most`` if given."""
    raw, values = sections[name], array("I")
    _check(len(raw) % 4 == 0, f"{name} is not a whole number of u32s")
    _check(most is None or _below(bytes(raw), most + 1), f"{name} entry out of range")
    values.frombytes(raw)
    return _little_endian(values)


def _kmer_table(sections: dict[str, memoryview], text: bytes, k: int) -> FingerprintTable:
    """The table stored as sections ``kmer_starts`` and ``kmer_counts``."""
    raw, starts = bytes(sections["kmer_starts"]), _array(sections, "kmer_starts")
    _check(_below(raw), "kmer_starts do not strictly increase")
    _check(not starts or starts[-1] <= len(text) - k, "kmer_starts entry out of range")
    counts = bytearray(sections["kmer_counts"])
    _check(len(counts) == len(starts), "kmer_counts and kmer_starts differ in length")
    _check(0 not in counts, "kmer_counts holds a zero count")
    return FingerprintTable(TABLE_PARAMS, ITEMS_KMER, k, counts, starts=starts, text=text)


def _prefix_table(sections: dict[str, memoryview], text: bytes) -> PrefixTable:
    """The reversed text's prefix table, checked without a pass over the text."""
    alphabet = bytes(sections["alphabet"])
    _check(len(alphabet) > 0 and all(map(lt, alphabet, alphabet[1:])),
           "alphabet does not strictly increase")
    q = prefix_depth(len(text), len(alphabet))
    starts = _array(sections, "prefix_rows")
    _check(len(starts) == (len(alphabet) ** q + 1 if q else 0),
           f"prefix_rows does not hold sigma**q + 1 = {len(alphabet)}**{q} + 1 u32s")
    if q:
        _check(starts[0] == 0 and starts[-1] == len(text) - q + 1,
               "prefix_rows do not run from 0 to the number of length-q suffixes")
        _check(all(map(le, starts, starts[1:])), "prefix_rows decrease")
        # the suffixes shorter than q: the reversed text's last, the text's first
        _check(all(sym in alphabet for sym in text[:q - 1]),
               "alphabet lacks a symbol of the text")
    return PrefixTable(memoryview(text)[::-1], alphabet, starts)  # a view, not a copy


def _int(spec: Any, key: str, least: int) -> int:
    value = spec.get(key) if isinstance(spec, dict) else None
    if type(value) is not int or not 0 <= value < 1 << 64:
        raise ValueError(f"{key!r} is missing or not a 64-bit count")
    if value < least:
        raise ValueError(f"{key!r} must be at least {least}")
    return value


def load_bundle(path: str) -> IndexBundle:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 8 or not data.startswith(MAGIC):
        raise IndexFormatError("not an index file (bad magic)")
    version, n_sections = struct.unpack_from("<II", data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise IndexFormatError(
            f"index format version {version} is not supported (expected {FORMAT_VERSION})")
    off = len(MAGIC) + 8
    view = memoryview(data)  # section payloads are checked and read in place
    sections: dict[str, memoryview] = {}
    for _ in range(n_sections):
        try:
            (name_len,) = struct.unpack_from("<H", data, off)
            name = data[off + 2:off + 2 + name_len].decode("ascii")
            payload_len, digest = struct.unpack_from("<Q32s", data, off + 2 + name_len)
        except (struct.error, UnicodeDecodeError) as exc:
            raise IndexFormatError("truncated or corrupt index file") from exc
        off += 2 + name_len + 40
        payload = view[off:off + payload_len]
        off += payload_len
        if len(payload) != payload_len:
            raise IndexFormatError("truncated index file")
        if hashlib.sha256(payload).digest() != digest:
            raise IndexFormatError(f"checksum failure in section {name!r}")
        if name in sections:
            raise IndexFormatError(f"section {name!r} appears twice")
        sections[name] = payload
    if off != len(data):
        raise IndexFormatError("data after the last section")
    if sorted(sections) != sorted(SECTIONS):
        raise IndexFormatError("index file does not hold the expected sections")
    try:  # JSON and UTF-8 errors are ValueErrors too
        params = json.loads(bytes(sections["params"]).decode("utf-8"))
        w, p, k, length = (_int(params, key, least) for key, least in (
            ("w", 1), ("p", 2), ("kebab_k", 1), ("anchor_length", 1)))
        raw = bytes(sections["anchors"])  # a short last anchor fails Trigger's check
        trigger = Trigger(w, length, tuple(raw[i:i + length]
                                           for i in range(0, len(raw), length)))
    except ValueError as exc:
        raise IndexFormatError(f"malformed index parameters: {exc}") from exc
    text = bytes(sections["text"])
    n = len(text)
    text_sa, text_rsa = (_array(sections, s, most=n - 1) for s in ("text_sa", "text_rsa"))
    _check(0 < n == len(text_sa) == len(text_rsa),
           "text_sa or text_rsa differs from the text in length")
    starts = tuple(_array(sections, "phrase_start", most=n))
    _check(starts[:1] == (1,) and all(map(lt, starts, starts[1:])),
           "phrase starts do not rise from 1")
    _check(len(starts) == 1 or starts[-1] - 1 + w <= n,  # phrase m-1 ends last
           "a phrase ends past the text")
    dictionary = PhraseDictionary()  # the parse's IDs are dense in order of first use
    symbols = dictionary.ids_for(pfp_phrases(text, starts, w))
    return IndexBundle(params, trigger, dictionary,
                       ParsedString(n, symbols, starts, w, dictionary),
                       OccurrenceIndex(text, text_sa, text_rsa, _prefix_table(sections, text)),
                       OccurrenceIndex(symbols), _kmer_table(sections, text, k))


def _check_suffix_array(seq: bytes, sa: array, name: str) -> None:
    """Check that ``sa`` is the suffix array of ``seq`` in linear time: each
    suffix sorts before the next by its first symbol, then by the row of the
    suffix one symbol on, so no row repeats and the order is the suffixes'."""
    rank = [0] * (len(seq) + 1)  # rank[n] = 0: the empty suffix sorts first
    for r, i in enumerate(sa, 1):
        rank[i] = r
    keys = [(seq[i], rank[i + 1]) for i in sa]
    _check(all(map(lt, keys, keys[1:])), f"{name} is not in suffix order")


def check_order(bundle: IndexBundle) -> None:
    """Check that ``text_sa`` and ``text_rsa`` are the suffix arrays of the
    text and its reverse, that the k-mer table holds the distinct k-mers of
    the text free of separators with their counts (recounted from the
    text), that the prefix table is the one the text and
    ``text_rsa`` give (recounted from the text, and with every row of each
    bucket a suffix that begins with the bucket's string), and that the
    anchors are the ones ``choose_trigger`` picks from the text, at the
    phrase starts of their triggers.

    Searches bisect the suffix arrays, so a row out of order could hide a
    match.  A k-mer the table lacks or undercounts breaks a KeBaB run
    where an f-MEM passes, and one stored twice has its counts read apart.
    A wrong prefix table starts probes at wrong rows, and a wrong trigger
    or phrase start breaks the text's parse where the patterns' parses do
    not.  Load leaves this to the writer.
    """
    text, params = bundle.text_index.sequence, bundle.params
    fresh = choose_trigger(text, params["w"], params["p"])
    _check(bundle.trigger == fresh, "anchors are not the ones the text chooses")
    _check(bundle.parse_text.phrase_start == tuple(fresh.phrase_starts(text)),
           "phrase starts are not the text's triggers")
    for view, name in ((bundle.text_index.forward, "text_sa"),
                       (bundle.text_index.backward, "text_rsa")):
        _check_suffix_array(view.seq, view.sa, name)
    k, table = params["kebab_k"], bundle.kmer_filter  # its counts cap at 255
    truth = Counter(text[i:i + k] for i in range(len(text) - k + 1))
    stored = [text[start:start + k] for start in table.starts]
    _check(all(SEPARATOR not in kmer for kmer in stored),
           "a kmer_starts k-mer holds a separator")
    _check(len(set(stored)) == len(stored), "kmer_starts repeat a k-mer")
    _check(sum(SEPARATOR not in kmer for kmer in truth) == len(stored),
           "kmer_starts lack a k-mer of the text")
    _check(all(min(truth[kmer], 255) == n for kmer, n in zip(stored, table.counts)),
           "kmer_counts do not match the text")
    view, stored = bundle.text_index.backward, bundle.text_index.prefix_table
    fresh = PrefixTable.build(view.seq)
    _check(stored.alphabet == fresh.alphabet, "alphabet is not the text's")
    _check(stored.starts == fresh.starts, "prefix_rows do not match the text")
    rev, rsa, q = view.seq, view.sa, stored.q
    for code, word in enumerate(map(bytes, product(stored.alphabet, repeat=q))):
        lo, hi = stored.rows(code) if q else (0, 0)
        _check(all(rev[rsa[r]:rsa[r] + q] == word for r in range(lo, hi)),
               "prefix_rows do not match text_rsa")
