"""On-disk index bundle: everything a query needs, in one checksummed file.

Layout: an 8-byte magic, a little-endian u32 format version, and a u32
section count, followed by sections of (u16 name length, name, u64 payload
length, 32-byte SHA-256 of the payload, payload).  Section "params" is JSON;
section "payload" is a pickle of the built structures.  Checksums are
verified on load, and a version mismatch is rejected outright, because query
results are only meaningful when the build-time parsing parameters are
reused exactly.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import struct
from dataclasses import dataclass, field
from typing import Any

from .errors import IndexFormatError
from .filters import MembershipFilter
from .parsing import ParsedString, PhraseDictionary
from .seqindex import OccurrenceIndex

MAGIC = b"PMEMIDX\x00"
FORMAT_VERSION = 1


@dataclass
class IndexBundle:
    """Built structures over one text, plus the parameters that shaped them."""

    params: dict[str, Any]
    dictionary: PhraseDictionary
    parse_text: ParsedString
    text_index: OccurrenceIndex
    parse_index: OccurrenceIndex
    kmer_filter: MembershipFilter
    phrase_filter: MembershipFilter
    format_version: int = FORMAT_VERSION


def _section(name: str, payload: bytes) -> bytes:
    raw_name = name.encode("ascii")
    return b"".join([
        struct.pack("<H", len(raw_name)),
        raw_name,
        struct.pack("<Q", len(payload)),
        hashlib.sha256(payload).digest(),
        payload,
    ])


def save_bundle(bundle: IndexBundle, path: str) -> None:
    params_blob = json.dumps(bundle.params, sort_keys=True).encode("utf-8")
    payload_blob = pickle.dumps(
        {
            "dictionary": bundle.dictionary,
            "parse_text": bundle.parse_text,
            "text_index": bundle.text_index,
            "parse_index": bundle.parse_index,
            "kmer_filter": bundle.kmer_filter,
            "phrase_filter": bundle.phrase_filter,
        },
        protocol=4,
    )
    sections = [("params", params_blob), ("payload", payload_blob)]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", bundle.format_version, len(sections)))
        for name, blob in sections:
            fh.write(_section(name, blob))


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
            off += 2
            name = data[off:off + name_len].decode("ascii")
            off += name_len
            (payload_len,) = struct.unpack_from("<Q", data, off)
            off += 8
            digest = data[off:off + 32]
            off += 32
            payload = view[off:off + payload_len]
            off += payload_len
        except (struct.error, UnicodeDecodeError) as exc:
            raise IndexFormatError("truncated or corrupt index file") from exc
        if len(payload) != payload_len:
            raise IndexFormatError("truncated index file")
        if hashlib.sha256(payload).digest() != digest:
            raise IndexFormatError(f"checksum failure in section {name!r}")
        sections[name] = payload
    if "params" not in sections or "payload" not in sections:
        raise IndexFormatError("index file is missing required sections")
    params = json.loads(bytes(sections["params"]).decode("utf-8"))
    parts = pickle.loads(sections["payload"])
    return IndexBundle(
        params=params,
        dictionary=parts["dictionary"],
        parse_text=parts["parse_text"],
        text_index=parts["text_index"],
        parse_index=parts["parse_index"],
        kmer_filter=parts["kmer_filter"],
        phrase_filter=parts["phrase_filter"],
        format_version=version,
    )


def check_integrity(path: str) -> None:
    """Raise IndexFormatError if the file fails any structural or checksum check."""
    load_bundle(path)
