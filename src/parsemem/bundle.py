"""On-disk index bundle: everything a query needs, in one checksummed file.

This module alone knows the format: an 8-byte magic, a little-endian u32
format version and u32 section count, then the SECTIONS, each framed as (u16
name length, name, u64 payload length, 32-byte SHA-256, payload), each name
once and nothing after the last.  All are plain data, so loading runs no
code: params as JSON, the text, the suffix arrays of the text and its
reverse, the reversed text's prefix table (its row starts and the text's
alphabet, one byte per symbol), the text parse's phrase starts and two
suffix arrays, then the k-mer table as its sorted u64 keys and one-byte
counts.  Integers are little-endian, u32 unless named.  Load derives the
reversed sequences, the parse's phrase IDs and the phrase dictionary (the
text cut at the phrase starts, each new phrase taking the next ID), the
phrase table, and starts step, hit and probe counters at 0; a prefix-table
hit counts the q steps it stands for.  Load checks every value it reads and
rejects other versions, as results are only meaningful with the build-time
parsing parameters.  The params record the window w >= 1, trigger modulus
p >= 2 and k-mer length k >= 1, which queries take from the index alone,
and the hash's base and modulus, which load requires to be those of
``parsing.kmer_keys``.  The prefix table's depth q is derived from the
text's length and alphabet.
Orders the writer guarantees, of the suffix arrays and of the k-mer keys,
are not checked on load, nor is the prefix table against the text, nor are
the phrase starts against the triggers, as each would take a pass over the
text; ``check_order`` checks the keys and the prefix table for
``verify --check-index``.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from array import array
from dataclasses import dataclass, field
from itertools import product
from operator import le, lt
from typing import Any

from . import filters as flt
from .errors import IndexFormatError
from .filters import ITEMS_KMER, TABLE_PARAMS, FingerprintTable
from .parsing import (KEY_BASE, KEY_MODULUS, ParsedString, PhraseDictionary,
                      pfp_phrases)
from .seqindex import OccurrenceIndex, PrefixTable, prefix_depth

MAGIC = b"PMEMIDX\x00"
FORMAT_VERSION = 8  # 8: the parse's phrase IDs are derived on load
SECTIONS = ("params", "text", "text_sa", "text_rsa", "prefix_rows", "alphabet",
            "phrase_start", "parse_sa", "parse_rsa", "kmer_keys", "kmer_counts")


@dataclass
class IndexBundle:
    """Built structures over one text, plus the parameters that shaped them.

    Queries parse patterns with the w and p that ``params`` records.  The
    phrase table counts the IDs of ``parse_text`` (through ``filters``, so a
    wrapper set there sees the call).
    """

    params: dict[str, Any]
    dictionary: PhraseDictionary
    parse_text: ParsedString
    text_index: OccurrenceIndex
    parse_index: OccurrenceIndex
    kmer_filter: FingerprintTable
    phrase_filter: FingerprintTable = field(init=False)

    def __post_init__(self):
        self.phrase_filter = flt.filter_build(self.parse_text.symbols, flt.TABLE_PARAMS,
                                              flt.KIND_TABLE, flt.ITEMS_PHRASE)


def _little_endian(values: array) -> array:
    """``values`` in little-endian byte order (a copy on big-endian hosts)."""
    if sys.byteorder == "big":
        values = array(values.typecode, values)
        values.byteswap()
    return values


def save_bundle(bundle: IndexBundle, path: str) -> None:
    text, parse, pidx = bundle.text_index, bundle.parse_text, bundle.parse_index
    arrays = (parse.phrase_start, pidx.forward.sa, pidx.backward.sa)
    blobs = [json.dumps(bundle.params, sort_keys=True).encode("utf-8"), text.sequence,
             *(struct.pack(f"<{len(a)}I", *a) for a in (text.forward.sa, text.backward.sa)),
             _little_endian(text.prefix_table.starts).tobytes(), text.prefix_table.alphabet,
             *(struct.pack(f"<{len(a)}I", *a) for a in arrays),
             _little_endian(bundle.kmer_filter.keys).tobytes(),
             bytes(bundle.kmer_filter.counts)]
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


def _ints(blob: memoryview, most: int, what: str) -> tuple[int, ...]:
    """All of ``blob`` as u32 values, each at most ``most``."""
    _check(len(blob) % 4 == 0, f"{what} is not a whole number of u32s")
    values = struct.unpack(f"<{len(blob) // 4}I", blob)
    _check(not values or max(values) <= most, f"{what} entry out of range")
    return values


def _kmer_table(sections: dict[str, memoryview], k: int) -> FingerprintTable:
    """The table stored as sections ``kmer_keys`` and ``kmer_counts``."""
    raw = sections["kmer_keys"]
    _check(len(raw) % 8 == 0, "kmer_keys is not a whole number of u64s")
    keys = array("Q")
    keys.frombytes(raw)
    counts = bytearray(sections["kmer_counts"])
    _check(len(counts) == len(keys), "kmer_counts and kmer_keys differ in length")
    _check(0 not in counts, "kmer_counts holds a zero count")
    return FingerprintTable(TABLE_PARAMS, ITEMS_KMER, k, _little_endian(keys), counts)


def _prefix_table(sections: dict[str, memoryview], text: bytes) -> PrefixTable:
    """The reversed text's prefix table, checked without a pass over the text."""
    alphabet = bytes(sections["alphabet"])
    _check(len(alphabet) > 0 and all(map(lt, alphabet, alphabet[1:])),
           "alphabet does not strictly increase")
    q = prefix_depth(len(text), len(alphabet))
    raw = sections["prefix_rows"]
    _check(len(raw) == 4 * (len(alphabet) ** q + 1 if q else 0),
           f"prefix_rows does not hold sigma**q + 1 = {len(alphabet)}**{q} + 1 u32s")
    starts = array("I")
    starts.frombytes(raw)
    starts = _little_endian(starts)
    if q:
        _check(starts[0] == 0 and starts[-1] == len(text) - q + 1,
               "prefix_rows do not run from 0 to the number of length-q suffixes")
        _check(all(map(le, starts, starts[1:])), "prefix_rows decrease")
        # the suffixes shorter than q: the reversed text's last, the text's first
        _check(all(sym in alphabet for sym in text[:q - 1]),
               "alphabet lacks a symbol of the text")
    return PrefixTable(memoryview(text)[::-1], alphabet, starts)  # a view, not a copy


def _int(spec: Any, key: str) -> int:
    value = spec.get(key) if isinstance(spec, dict) else None
    if type(value) is not int or not 0 <= value < 1 << 64:
        raise ValueError(f"{key!r} is missing or not a 64-bit count")
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
        w, p, base, modulus, k = (_int(params, key) for key in (
            "w", "p", "base", "modulus", "kebab_k"))
        if (base, modulus) != (KEY_BASE, KEY_MODULUS):
            raise ValueError(f"hash base {base} and modulus {modulus} are not "
                             f"{KEY_BASE} and {KEY_MODULUS}")
        for key, value, least in (("w", w, 1), ("p", p, 2), ("kebab_k", k, 1)):
            if value < least:
                raise ValueError(f"{key!r} must be at least {least}")
    except ValueError as exc:
        raise IndexFormatError(f"malformed index parameters: {exc}") from exc
    text = bytes(sections["text"])
    n = len(text)
    starts = _ints(sections["phrase_start"], n, "phrase_start")
    m = len(starts)
    text_sa, text_rsa = (_ints(sections[s], n - 1, s) for s in ("text_sa", "text_rsa"))
    parse_sa, parse_rsa = (_ints(sections[s], m - 1, s) for s in ("parse_sa", "parse_rsa"))
    _check(0 < n == len(text_sa) == len(text_rsa) and
           0 < m == len(parse_sa) == len(parse_rsa),
           "sections of the text or of its parse differ in length")
    _check(starts[0] == 1 and all(a < b for a, b in zip(starts, starts[1:])),
           "phrase starts do not rise from 1")
    _check(m == 1 or starts[-1] - 1 + w <= n,  # of phrases 1..m-1, m-1 ends last
           "a phrase ends past the text")
    dictionary = PhraseDictionary()  # the parse's IDs are dense in order of first use
    symbols = tuple(map(dictionary.id_for, pfp_phrases(text, starts, w)))
    return IndexBundle(params, dictionary, ParsedString(n, symbols, starts, w, dictionary),
                       OccurrenceIndex(text, text_sa, text_rsa, _prefix_table(sections, text)),
                       OccurrenceIndex(symbols, parse_sa, parse_rsa),
                       _kmer_table(sections, k))


def check_order(bundle: IndexBundle) -> None:
    """Check that the k-mer table's keys strictly increase, as the table
    writes them, and that the prefix table is the one the text and
    ``text_rsa`` give: recounted from the text, and with every row of each
    bucket a suffix that begins with the bucket's string.

    Lookups bisect the keys, so out-of-order keys could hide a stored item,
    and a wrong prefix table starts probes at wrong rows.  Load leaves this
    to the writer, as it does suffix-array order.
    """
    keys = bundle.kmer_filter.keys
    _check(all(map(lt, keys, keys[1:])), "kmer_keys do not strictly increase")
    view, stored = bundle.text_index.backward, bundle.text_index.prefix_table
    fresh = PrefixTable.build(view.seq)
    _check(stored.alphabet == fresh.alphabet, "alphabet is not the text's")
    _check(stored.starts == fresh.starts, "prefix_rows do not match the text")
    rev, rsa, q = view.seq, view.sa, stored.q
    for code, word in enumerate(map(bytes, product(stored.alphabet, repeat=q))):
        lo, hi = stored.rows(code) if q else (0, 0)
        _check(all(rev[rsa[r]:rsa[r] + q] == word for r in range(lo, hi)),
               "prefix_rows do not match text_rsa")
