"""Prefix-free and minimizer parsing of byte strings over a shared phrase dictionary.

Both parsers turn a byte string into a sequence of phrase IDs with exact
character-offset bookkeeping:

* the prefix-free parse breaks the string after every window of width w
  whose last l bytes are one of a set S of l-grams, its anchors, which a
  ``Trigger`` holds; consecutive phrases overlap by w;
* the minimizer parse breaks the string after the last character of every
  window-minimal k-mer; phrases partition the string with no overlap.

``choose_trigger`` is the build rule that picks S from a text so that it
parses into about one phrase per p characters; the text and every pattern
parse with the text's trigger.  Whether a window triggers depends on its
bytes alone, so breaks strictly inside a shared substring are the same in
any context.
"""

from __future__ import annotations

import hashlib
import zlib
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Iterable, Iterator, Sequence

from .errors import EmptyInputError

ANCHOR_GRAIN = 4  # l is the least with sigma**l >= ANCHOR_GRAIN * p


def anchor_length(sigma: int, p: int, w: int) -> int:
    """The anchor length l for a text of ``sigma`` distinct symbols: the
    least l with sigma**l >= 4p, so that on a uniform text 4 or more l-grams
    fill the budget of ``choose_trigger``, and at most w."""
    length = 1
    while length < w and sigma ** length < ANCHOR_GRAIN * p:
        length += 1
    return length


@dataclass(frozen=True)
class Trigger:
    """The anchored phrase trigger: a window of width ``width`` triggers iff
    its last ``length`` bytes are one of ``anchors``, which strictly
    increase and hold no NUL.

    ``phrase_starts`` finds the triggers of a sequence with one ``bytes.find``
    loop per anchor, each resuming one byte past its last hit, so
    overlapping anchors are all found; the anchors are distinct l-grams, so
    no offset is found twice.
    """

    width: int
    length: int
    anchors: tuple[bytes, ...]

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("window width must be at least 1")
        if not 1 <= self.length <= self.width:
            raise ValueError("anchor length must be in 1..window width")
        if any(len(a) != self.length or 0 in a for a in self.anchors):
            raise ValueError("an anchor is not a NUL-free l-gram")
        if any(a >= b for a, b in zip(self.anchors, self.anchors[1:])):
            raise ValueError("anchors do not strictly increase")

    def phrase_starts(self, seq: bytes) -> list[int]:
        """The 1-based phrase starts of ``seq``: 1, then the start of every
        triggering window but the first.  An anchor at 0-based offset g
        ends the window that starts at g + l - w + 1, so anchors from
        offset w - l + 1 on open a phrase."""
        first, starts = self.width - self.length + 1, [1]
        for anchor in self.anchors:
            g = seq.find(anchor, first)
            while g >= 0:
                starts.append(g - first + 2)
                g = seq.find(anchor, g + 1)
        starts.sort()
        return starts

    def reversed(self) -> Trigger:
        """The trigger of a reversed sequence: the anchors reversed, sorted.
        It breaks the reverse at the anchors' occurrences, as this trigger
        breaks the sequence, but for those in either one's first window."""
        return Trigger(self.width, self.length,
                       tuple(sorted(anchor[::-1] for anchor in self.anchors)))


def text_sigma(text: bytes) -> int:
    """The anchor rule's alphabet size: the text's distinct bytes other than
    NUL, and 1 for a text of NULs."""
    return len(set(text) - {0}) or 1


def choose_trigger(text: bytes, w: int, p: int) -> Trigger:
    """The trigger that parses ``text`` into about one phrase per p >= 2
    characters at window width ``w``.

    The anchor length is ``anchor_length`` of the text's distinct bytes
    other than NUL.  The text's l-grams are taken in order of ``zlib.crc32``
    (then of their bytes), each one kept while the kept l-grams' total count
    in the text stays at most len(text) // p; an l-gram holding NUL, which
    no pattern holds, is never kept.  A text with no l-gram rare enough,
    one symbol repeated say, gets no anchors and parses as one phrase.
    """
    if p < 2:
        raise ValueError("trigger period must be at least 2")
    length = anchor_length(text_sigma(text), p, w)
    counts = {bytes(gram): count for gram, count in  # zip: C speed, unlike slices
              Counter(zip(*(text[i:] for i in range(length)))).items()}
    budget, anchors = len(text) // p, []
    for gram in sorted(counts, key=lambda g: (zlib.crc32(g), g)):
        count = counts[gram]
        if count <= budget and 0 not in gram:
            anchors.append(gram)
            budget -= count
    return Trigger(w, length, tuple(sorted(anchors)))


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

    def ids_for(self, phrases: Iterable[bytes]) -> tuple[int, ...]:
        """The ID of each phrase, in one pass over a dict: an unseen phrase
        takes the next ID.

        A frozen dictionary inserts nothing and gives every unseen phrase
        the one reserved ID ``len(self)``, which no parse made before the
        freeze contains.
        """
        ids = self._id_of
        if self._frozen:
            return tuple(map(ids.get, phrases, repeat(len(ids))))
        before, setdefault = len(ids), ids.setdefault
        out = tuple([setdefault(phrase, len(ids)) for phrase in phrases])
        self._phrases.extend(islice(ids, before, None))
        return out

    def string_of(self, pid: int) -> bytes:
        return self._phrases[pid]

    def freeze(self):
        """Make the dictionary read-only; lookups stay valid, inserts stop."""
        self._frozen = True


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


def pfp_phrases(text: bytes, starts: Sequence[int], w: int) -> Iterator[bytes]:
    """The phrases of the prefix-free parse of ``text`` with these 1-based
    phrase starts: each ends w - 1 characters past the next start, and the
    last at the end of ``text``."""
    ends = [s - 1 + w for s in starts[1:]]
    ends.append(len(text))
    return (text[s - 1:end] for s, end in zip(starts, ends))


def pfp_parse(text: bytes, trigger: Trigger, dictionary: PhraseDictionary) -> ParsedString:
    """Prefix-free parse of ``text`` with ``trigger``, whose window width w
    is the phrases' overlap.

    A phrase break is placed at every window that triggers: the current
    phrase ends at the window's last character and the next phrase begins
    with the window's contents, so consecutive phrases overlap by w.
    Triggering is stateless (every complete window is tested), which makes
    breaks strictly inside a shared substring identical in any context.  The
    first phrase starts at position 1 with no artificial trigger and the
    last runs to the end; a text with no complete window, or no trigger
    window, is a single phrase.
    """
    if len(text) == 0:
        raise EmptyInputError("cannot parse an empty string")
    starts = trigger.phrase_starts(text)
    return ParsedString(
        source_length=len(text),
        symbols=dictionary.ids_for(pfp_phrases(text, starts, trigger.width)),
        phrase_start=tuple(starts),
        overlap=trigger.width,
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
    ends = [s - 1 for s in starts[1:]] + [n]
    return ParsedString(
        source_length=n,
        symbols=dictionary.ids_for(text[s - 1:end] for s, end in zip(starts, ends)),
        phrase_start=tuple(starts),
        overlap=0,
        dictionary=dictionary,
    )
