"""Reference f-MEMs and the check of `parsemem query` output against them.

The reference is ``parsemem.oracle.brute_force_f_mems`` itself, run with
its substring counter replaced by ``TextCounts.count``, which finds
occurrences through k-mer position tables instead of rescanning the whole
text for every substring.  That makes a 2 kb pattern cost milliseconds
instead of seconds, so every pattern of a run can be checked.  It shares no
code with the modes under test; ``run.py`` re-derives one pattern per run
with the oracle's own counter and the tests compare the two counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from parsemem import oracle

SEED_LENS = (12, 6)  # k-mer lengths of the position tables, longest first


class TextCounts:
    """Occurrence counts of strings in one text; overlaps count."""

    def __init__(self, text: str):
        self.text = text
        self.tables: dict[int, dict[str, list[int]]] = {}
        for k in SEED_LENS:
            table = self.tables[k] = {}
            for i in range(len(text) - k + 1):
                table.setdefault(text[i:i + k], []).append(i)

    def count(self, query: str) -> int:
        for k in SEED_LENS:
            if len(query) >= k:
                return sum(self.text.startswith(query, pos)
                           for pos in self.tables[k].get(query[:k], ()))
        n = 0
        pos = self.text.find(query)
        while pos >= 0:
            n += 1
            pos = self.text.find(query, pos + 1)
        return n


Row = tuple[int, int, int]  # (start, end, occurrence count), 1-based inclusive


def reference_f_mems(text: bytes, patterns: list[tuple[str, bytes]],
                     f: int) -> dict[str, list[Row]]:
    """All f-MEMs of every pattern, by the oracle with ``TextCounts``."""
    text_str = text.decode("latin-1")
    counts = TextCounts(text_str)
    original = oracle.brute_force_count
    oracle.brute_force_count = lambda _text, query: counts.count(query)
    try:
        return {name: [(m.start, m.end, m.freq) for m in oracle.brute_force_f_mems(
                    text_str, seq.decode("latin-1"), f)]
                for name, seq in patterns}
    finally:
        oracle.brute_force_count = original


def length(row: Row) -> int:
    return row[1] - row[0] + 1


def cutoff_length(reference: list[Row], t: int | None, L: int | None) -> int:
    """Shortest length the contract keeps: L, or the t-th longest (ties in)."""
    if L is not None:
        return L
    lengths = sorted((length(r) for r in reference), reverse=True)
    return lengths[min(t, len(lengths)) - 1] if lengths else 0


def judge(got: list[Row], reference: list[Row], t: int | None,
          L: int | None) -> tuple[bool, bool]:
    """(meets the contract, sound) for one (pattern, mode) block.

    The contract: with ``-t`` exactly the f-MEMs at least as long as the
    t-th longest, ties included; with ``-L`` exactly those of length >= L.
    Sound: every row is a true f-MEM with its true count, every f-MEM
    longer than the cutoff is present, and (with ``-t``) at least t rows
    reach the cutoff, so the t longest lengths are right.
    """
    cut = cutoff_length(reference, t, L)
    want = {r for r in reference if length(r) >= cut}
    got_set = set(got)
    exact = len(got) == len(got_set) and got_set == want
    if L is not None:
        must = want
        enough = True
    else:
        must = {r for r in want if length(r) > cut}
        enough = sum(length(r) >= cut for r in got_set) >= min(t, len(reference))
    sound = got_set <= set(reference) and must <= got_set and enough
    return exact, sound


def mem_blocks(tsv: str) -> dict[str, list[Row]]:
    """``mem`` rows of query output, grouped by pattern id."""
    blocks: dict[str, list[Row]] = {}
    for line in tsv.splitlines():
        if line.startswith("mem\t"):
            _, name, _mode, start, end, _len, freq = line.split("\t")
            blocks.setdefault(name, []).append((int(start), int(end), int(freq)))
    return blocks


@dataclass
class Tally:
    """Operations (one per pattern and mode) and how many broke the contract."""

    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    unsound: dict[str, int] = field(default_factory=dict)

    def add(self, mode: str, tsv: str, names: list[str],
            references: dict[str, list[Row]], t: int | None, L: int | None):
        blocks = mem_blocks(tsv)
        for name in names:
            exact, sound = judge(blocks.get(name, []), references[name], t, L)
            self.attempted[mode] = self.attempted.get(mode, 0) + 1
            self.failed[mode] = self.failed.get(mode, 0) + (not exact)
            self.unsound[mode] = self.unsound.get(mode, 0) + (not sound)

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def sound(self) -> bool:
        return not any(self.unsound.values())
