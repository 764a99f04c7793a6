"""Brute-force ground truth: occurrence counts and f-MEMs by definition.

Everything here is written to be obviously correct and is used to validate
the real implementations; it is quadratic and proud of it.  Symbol sequences
are internally mapped to Python strings (one code point per symbol) so that
the overlapping-occurrence scan can lean on str.find.
"""

from __future__ import annotations

from .errors import EmptyInputError
from .seqindex import Mem


def _as_text(seq) -> str:
    if isinstance(seq, str):
        return seq
    if isinstance(seq, (bytes, bytearray)):
        return "".join(map(chr, seq))
    symbols = getattr(seq, "symbols", seq)
    return "".join(chr(s) for s in symbols)


def brute_force_count(text, query) -> int:
    """Number of starting positions of ``query`` in ``text``; overlaps count."""
    t, q = _as_text(text), _as_text(query)
    if not q:
        raise EmptyInputError("query must be nonempty")
    n = 0
    pos = t.find(q)
    while pos >= 0:
        n += 1
        pos = t.find(q, pos + 1)
    return n


def brute_force_f_mems(text, pattern, f: int = 1) -> list[Mem]:
    """All f-MEMs of ``pattern`` with respect to ``text``, straight from the
    definition.

    For each start i the longest end j with count(P[i..j]) >= f is computed
    (the reach; it is non-decreasing in i because counts only grow when a
    substring shrinks, so the scan resumes from the previous reach).  (i, j)
    is kept iff extending one symbol left or right drops the count below f.
    """
    t, p = _as_text(text), _as_text(pattern)
    if not p:
        raise EmptyInputError("pattern must be nonempty")
    if f < 1:
        raise ValueError("f must be at least 1")
    m = len(p)
    reach = [0] * (m + 1)  # reach[i] = longest j with count >= f, else i - 1
    j = 0
    for i in range(1, m + 1):
        if j < i:
            j = i - 1
        while j < m and brute_force_count(t, p[i - 1:j + 1]) >= f:
            j += 1
        reach[i] = j
    mems = []
    for i in range(1, m + 1):
        j = reach[i]
        if j < i:
            continue
        if i > 1 and reach[i - 1] >= j:
            continue  # extensible to the left
        mems.append(Mem(start=i, end=j, freq=brute_force_count(t, p[i - 1:j])))
    return mems


def top_t_cut(mems: list[Mem], t: int) -> list[Mem]:
    """The t longest of ``mems``, ties included: every one at least as long
    as the t-th longest, or all of them when there are fewer than t."""
    lengths = sorted((m.length for m in mems), reverse=True)
    cutoff = lengths[t - 1] if len(lengths) >= t else 0
    return [m for m in mems if m.length >= cutoff]
