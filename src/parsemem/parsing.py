"""Prefix-free and minimizer parsing of byte strings over a shared phrase dictionary.

Both parsers turn a byte string into a sequence of phrase IDs with exact
character-offset bookkeeping:

* the prefix-free parse breaks the string after every sliding window whose
  rolling hash is congruent to 0 modulo a trigger modulus; consecutive
  phrases overlap by the window width;
* the minimizer parse breaks the string after the last character of every
  window-minimal k-mer; phrases partition the string with no overlap.

The repository-wide reference hash is a polynomial rolling hash with base 256
and modulus 2**61 - 1, so worked examples stay stable across machines.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field

from .errors import EmptyInputError, WindowError

DEFAULT_BASE = 256
DEFAULT_MODULUS = (1 << 61) - 1

SCHEME_PFP = "PFP"
SCHEME_MINIMIZER = "MINIMIZER"


@dataclass(frozen=True)
class RollingHasher:
    """Karp-Rabin rolling hash with a window width and a trigger modulus.

    The hash of a window equals the direct polynomial evaluation of its
    bytes, so the rolled stream can always be cross-checked window by window.
    """

    window: int
    trigger_modulus: int
    base: int = DEFAULT_BASE
    modulus: int = DEFAULT_MODULUS

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window width must be at least 1")
        if self.trigger_modulus < 2:
            raise ValueError("trigger modulus must be at least 2")
        if self.base < 2:
            raise ValueError("hash base must be at least 2")
        if self.modulus <= self.base:
            raise ValueError("hash modulus must exceed the base")

    def hash_direct(self, chunk: bytes) -> int:
        """Polynomial evaluation of ``chunk``, most significant byte first."""
        h = 0
        for c in chunk:
            h = (h * self.base + c) % self.modulus
        return h

    def roll(self, text: bytes) -> list[int]:
        """Hash of every width-``window`` substring of ``text``, left to right."""
        w = self.window
        if len(text) < w:
            raise WindowError(f"text of length {len(text)} is shorter than window {w}")
        shift = pow(self.base, w - 1, self.modulus)
        h = self.hash_direct(text[:w])
        out = [h]
        for i in range(w, len(text)):
            h = ((h - text[i - w] * shift) * self.base + text[i]) % self.modulus
            out.append(h)
        return out

    def is_trigger(self, window_hash: int) -> bool:
        return window_hash % self.trigger_modulus == 0


class PhraseDictionary:
    """Content-keyed store mapping phrase strings to dense integer IDs.

    The same content always gets the same ID, whether it was first seen while
    parsing the text or a pattern.  Identity is by content: the backing dict
    hashes the full phrase bytes and verifies equality on collision, so
    correctness never depends on hash luck.
    """

    def __init__(self):
        self._id_of: dict[bytes, int] = {}
        self._phrases: list[bytes] = []
        self._frozen = False

    def __len__(self) -> int:
        return len(self._phrases)

    def __contains__(self, phrase: bytes) -> bool:
        return phrase in self._id_of

    def id_for(self, phrase: bytes) -> int:
        """ID of ``phrase``, inserting it if unseen.

        A frozen dictionary inserts nothing and gives every unseen phrase
        the one reserved ID ``len(self)``, which no parse made before the
        freeze contains.
        """
        pid = self._id_of.get(phrase)
        if pid is None:
            pid = len(self._phrases)
            if self._frozen:
                return pid
            self._id_of[phrase] = pid
            self._phrases.append(phrase)
        return pid

    def id_of(self, phrase: bytes) -> int:
        return self._id_of[phrase]

    def string_of(self, pid: int) -> bytes:
        return self._phrases[pid]

    def freeze(self):
        """Make the dictionary read-only; lookups stay valid, inserts stop."""
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen


@dataclass(frozen=True)
class ParsedString:
    """A phrase-ID sequence plus the character offset of every phrase.

    ``phrase_start`` holds 1-based offsets into the source string.  With
    ``overlap`` o, phrase i ends at ``phrase_start[i+1] - 1 + o`` (the last
    phrase ends at ``source_length``), and concatenating phrase contents with
    o characters of overlap between consecutive phrases reconstructs the
    source exactly.
    """

    source_length: int
    symbols: tuple[int, ...]
    phrase_start: tuple[int, ...]
    overlap: int
    scheme: str
    dictionary: PhraseDictionary = field(repr=False)

    def __len__(self) -> int:
        return len(self.symbols)

    def phrase_end(self, i: int) -> int:
        """1-based inclusive end offset of phrase ``i`` (phrases are 1-based)."""
        self._check_index(i)
        if i == len(self.symbols):
            return self.source_length
        return self.phrase_start[i] - 1 + self.overlap  # phrase_start[i] is start of phrase i+1

    def phrase_length(self, i: int) -> int:
        return self.phrase_end(i) - self.phrase_start[i - 1] + 1

    def char_span(self, i: int, j: int) -> tuple[int, int]:
        """Character interval covered by phrases ``i..j`` (1-based, inclusive)."""
        self._check_index(i)
        self._check_index(j)
        if i > j:
            raise IndexError(f"phrase interval [{i}..{j}] is empty")
        return self.phrase_start[i - 1], self.phrase_end(j)

    def phrase_bytes(self, i: int) -> bytes:
        self._check_index(i)
        return self.dictionary.string_of(self.symbols[i - 1])

    def reconstruct(self) -> bytes:
        """Overlap-aware concatenation of phrase contents."""
        out = bytearray(self.phrase_bytes(1))
        for i in range(2, len(self.symbols) + 1):
            out += self.phrase_bytes(i)[self.overlap:]
        return bytes(out)

    def _check_index(self, i: int):
        if not 1 <= i <= len(self.symbols):
            raise IndexError(f"phrase index {i} out of range 1..{len(self.symbols)}")


def pfp_parse(text: bytes, hasher: RollingHasher, dictionary: PhraseDictionary) -> ParsedString:
    """Prefix-free parse of ``text``.

    A phrase break is placed at every window whose hash is congruent to
    0 modulo the trigger modulus: the current phrase ends at the window's last
    character and the next phrase begins with the window's contents, so
    consecutive phrases overlap by the window width.  Triggering is stateless
    (every complete window is tested), which makes breaks strictly inside a
    shared substring identical in any context.  The first phrase starts at
    position 1 with no artificial trigger and the last runs to the end; a text
    with no complete window, or no trigger window, is a single phrase.
    """
    if len(text) == 0:
        raise EmptyInputError("cannot parse an empty string")
    w = hasher.window
    starts = [1]
    if len(text) >= w:
        for idx, h in enumerate(hasher.roll(text)):
            s = idx + 1  # 1-based window start
            if hasher.is_trigger(h) and s > starts[-1]:
                starts.append(s)
    n = len(text)
    symbols = []
    for pos, s in enumerate(starts):
        end = starts[pos + 1] + w - 1 if pos + 1 < len(starts) else n
        symbols.append(dictionary.id_for(text[s - 1:end]))
    return ParsedString(
        source_length=n,
        symbols=tuple(symbols),
        phrase_start=tuple(starts),
        overlap=w,
        scheme=SCHEME_PFP,
        dictionary=dictionary,
    )


@dataclass(frozen=True)
class MinimizerParams:
    """Parameters of the minimizer parse: k-mer length, window length, order.

    ``order`` is "lex" for lexicographic comparison of k-mers or "hash" for
    comparison of a seeded 64-bit digest of each k-mer.
    """

    k: int
    w: int
    order: str = "lex"
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.w <= self.k:
            raise ValueError("window length w must exceed k")
        if self.order not in ("lex", "hash"):
            raise ValueError(f"unknown order {self.order!r}")

    def order_value(self, kmer: bytes):
        if self.order == "lex":
            return kmer
        digest = hashlib.blake2b(
            kmer, digest_size=8, key=self.seed.to_bytes(8, "little")
        ).digest()
        return int.from_bytes(digest, "little")


def minimizer_parse(text: bytes, params: MinimizerParams,
                    dictionary: PhraseDictionary) -> ParsedString:
    """Minimizer parse of ``text``: phrases partition it, with no overlap.

    A k-mer occurrence is a minimizer iff it attains the minimum order value
    in at least one complete length-w window covering it; when several k-mers
    of a window tie for the minimum, all of them are minimizers.  A boundary
    is placed after the last character of each minimizer occurrence.  Texts
    shorter than w are a single phrase.
    """
    if len(text) == 0:
        raise EmptyInputError("cannot parse an empty string")
    n, k, w = len(text), params.k, params.w
    boundaries: set[int] = set()
    if n >= w:
        vals = [params.order_value(text[i:i + k]) for i in range(n - k + 1)]
        span = w - k  # k-mer starts per window minus one
        window: deque[int] = deque()  # k-mer start indices, values non-decreasing
        for i, v in enumerate(vals):
            while window and vals[window[-1]] > v:
                window.pop()
            window.append(i)
            lo = i - span
            if lo < 0:
                continue
            while window[0] < lo:
                window.popleft()
            mv = vals[window[0]]
            for idx in window:  # ties sit contiguously at the front
                if vals[idx] != mv:
                    break
                boundaries.add(idx + k)  # 1-based end of the k-mer at idx
    starts = [1] + [b + 1 for b in sorted(boundaries) if b < n]
    symbols = []
    for pos, s in enumerate(starts):
        end = starts[pos + 1] - 1 if pos + 1 < len(starts) else n
        symbols.append(dictionary.id_for(text[s - 1:end]))
    return ParsedString(
        source_length=n,
        symbols=tuple(symbols),
        phrase_start=tuple(starts),
        overlap=0,
        scheme=SCHEME_MINIMIZER,
        dictionary=dictionary,
    )
