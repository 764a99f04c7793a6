"""Seeded workload generators: sequence collections written as FASTA files.

A workload's text is its fixed collection, drawn from ``TEXT_SEED`` like a
reference panel that every run queries; the patterns are drawn from the
run's seed, so a seed fixes the files byte for byte.  On one random
pangenome, how many patterns hit a region that several copies share unbroken
(and cost the pseudo-MEM routes 3-5x the median) depends on where that
text's mutations fell; drawing a new text per seed made the p90 latency of
the parse route spread 0.5 of its median from seed to seed, on 120
patterns, where a fixed text leaves the spread of pattern sampling, 0.05-0.07.
Mutations are point substitutions at an exact number of
distinct positions (``round(rate * length)``), which keeps pattern lengths
fixed and makes workloads of different seeds alike in shape: a 2 kb pattern
at 0.1% carries exactly two fresh mutations, not anywhere from zero to six.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DNA = b"ACGT"
FASTA_LINE = 80
TEXT_SEED = 0  # the text of every workload; fixed, never chosen per run


@dataclass(frozen=True)
class Workload:
    """One benchmark input family and the query flags it is run with.

    ``founder_len`` > 0 makes a pangenome: ``copies`` mutated copies of one
    random founder.  ``founder_len`` == 0 makes one uniformly random record
    of ``text_len``.  Each pattern is a window of the founder (or of the
    record) with fresh mutations at ``divergence``, as if cut from one more
    mutated copy.
    """

    name: str
    why: str
    divergence: float
    patterns: int
    pattern_len: int
    f: int = 1
    t: int | None = None
    L: int | None = None
    founder_len: int = 0
    copies: int = 1
    text_len: int = 0

    def query_flags(self) -> list[str]:
        flags = ["-f", str(self.f)]
        if self.t is not None:
            flags += ["-t", str(self.t)]
        if self.L is not None:
            flags += ["-L", str(self.L)]
        return flags

    def describe(self) -> str:
        if self.founder_len:
            text = (f"{self.copies} copies of a {self.founder_len} bp founder "
                    f"at {self.divergence:.1%} divergence")
        else:
            text = f"one random record of {self.text_len} bp"
        return (f"{text}; {self.patterns} patterns of {self.pattern_len} bp; "
                f"query {' '.join(self.query_flags())}")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pangenome_top1",
        why="8 copies of an 8 kb founder at 0.1%, 120 x 2 kb patterns, -t 1: "
            "the paper's target regime, where safe discard drops candidates; "
            "discard, parse and pseudo-MEM changes show here",
        divergence=0.001, patterns=120, pattern_len=2000, t=1,
        founder_len=8000, copies=8),
    Workload(
        name="random_dna",
        why="one 100 kb uniform record, 40 x 2 kb patterns at 1%, -t 5: every "
            "phrase is unique and safe discard keeps ~all candidates, so parse "
            "and discard changes gain nothing; build work scales with |T|",
        divergence=0.01, patterns=40, pattern_len=2000, t=5,
        text_len=100000),
)}


def random_dna(rng: random.Random, length: int) -> bytes:
    return bytes(rng.choices(DNA, k=length))


def mutate(rng: random.Random, seq: bytes, rate: float) -> bytes:
    """Substitute a different base at exactly round(rate * len) positions."""
    out = bytearray(seq)
    for pos in rng.sample(range(len(seq)), round(rate * len(seq))):
        out[pos] = rng.choice([c for c in DNA if c != out[pos]])
    return bytes(out)


def generate(workload: Workload, seed: int
             ) -> tuple[list[tuple[str, bytes]], list[tuple[str, bytes]]]:
    """(text records, pattern records) of ``workload`` for ``seed``: the
    text from TEXT_SEED, the patterns from ``seed``."""
    rng = random.Random(TEXT_SEED)
    m = workload.pattern_len
    patterns = []
    if workload.founder_len:
        founder = random_dna(rng, workload.founder_len)
        text = [(f"hap{i + 1}", mutate(rng, founder, workload.divergence))
                for i in range(workload.copies)]
        source = founder
    else:
        source = random_dna(rng, workload.text_len)
        text = [("chr1", source)]
    rng = random.Random(seed)
    for i in range(workload.patterns):
        start = rng.randrange(len(source) - m + 1)
        patterns.append((f"q{i + 1}", mutate(rng, source[start:start + m],
                                             workload.divergence)))
    return text, patterns


def fasta(records: list[tuple[str, bytes]]) -> bytes:
    lines = []
    for name, seq in records:
        lines.append(b">" + name.encode())
        lines.extend(seq[i:i + FASTA_LINE] for i in range(0, len(seq), FASTA_LINE))
    return b"\n".join(lines) + b"\n"
