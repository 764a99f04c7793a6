"""Spans around calls into parsemem's layers, installed from the benchmark.

Wrappers replace module attributes for the time a traced phase runs and are
removed afterwards; nothing under ``src/`` changes.  Where ``cli`` or
``pseudomem`` imported a function into their own namespace, that name is
wrapped, since it is the one their code calls.  Spans stay in memory until
the run ends and are then written out as JSON.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

from parsemem import cli, filters, pseudomem, seqindex

CHAR, PARSE = "char", "parse"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 at the top
    request: str  # "<mode>/<pattern id>", "<mode>/load" or "build"
    tag: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def mode(self) -> str:
        return self.request.split("/")[0]


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record.

    ``text_len`` tells the character-level index (length |T|) apart from the
    phrase-level one, so index calls are tagged ``char`` or ``parse``, and
    the text parse apart from pattern parses.  ``request`` is set by the
    caller as work moves from one pattern to the next.
    """

    def __init__(self, text_len: int):
        self.text_len = text_len
        self.spans: list[Span] = []
        self.request = "build"
        self.loaded = []  # (mode, bundle) of every cli.load_bundle call
        self.pattern_parses = []  # (mode, ParsedString) of every pattern parse
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _level(self, args) -> str:
        return CHAR if len(args[0]) == self.text_len else PARSE

    def _parse_kind(self, args) -> str:
        return "text" if len(args[0]) == self.text_len else "pattern"

    def _keep_parse(self, span: Span, parsed):
        if span.tag == "pattern":
            self.pattern_parses.append((span.mode, parsed))

    def _wrap(self, owner, attr: str, name: str, tag=None, keep=None):
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, 0.0, 0.0,
                        stack[-1] if stack else -1, self.request,
                        tag(args) if tag else "")
            spans.append(span)
            stack.append(span.id)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if keep is not None:
                keep(span, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def install(self):
        for attr in ("cmd_build", "cmd_query", "save_bundle"):
            self._wrap(cli, attr, f"cli.{attr}")
        self._wrap(cli, "load_bundle", "cli.load_bundle",
                   keep=lambda span, bundle: self.loaded.append((span.mode, bundle)))
        self._wrap(cli, "pfp_parse", "parsing.pfp_parse", self._parse_kind,
                   self._keep_parse)
        self._wrap(cli, "OccurrenceIndex", "seqindex.OccurrenceIndex",
                   self._level)
        for attr in ("bml_mems", "bml_top_t", "find_f_mems"):
            self._wrap(cli, attr, f"seqindex.{attr}", self._level)
        for attr in ("bml_mems", "find_f_mems"):
            self._wrap(pseudomem, attr, f"seqindex.{attr}", self._level)
        self._wrap(seqindex.OccurrenceIndex, "count", "seqindex.count",
                   self._level)
        self._wrap(filters, "filter_build", "filters.filter_build",
                   lambda args: args[3])
        for attr in ("kebab_pseudo_mems", "parse_pseudo_mems", "coarse_sets",
                     "refine", "safe_discard", "find_long_mems"):
            self._wrap(pseudomem, attr, f"pseudomem.{attr}")

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


class SpanIndex:
    """Sums over recorded spans by name, mode and tag, and their self time."""

    def __init__(self, spans: list[Span]):
        self.groups: dict[tuple[str, str], list[Span]] = defaultdict(list)
        child_seconds = [0.0] * len(spans)
        for s in spans:
            self.groups[s.name, s.mode].append(s)
            if s.parent >= 0:
                child_seconds[s.parent] += s.seconds
        self.child_seconds = child_seconds

    def select(self, names, mode: str, tag: str | None = None) -> list[Span]:
        names = (names,) if isinstance(names, str) else names
        return [s for name in names for s in self.groups.get((name, mode), ())
                if tag is None or s.tag == tag]

    def seconds(self, names, mode: str, tag: str | None = None) -> float:
        return sum(s.seconds for s in self.select(names, mode, tag))

    def calls(self, names, mode: str, tag: str | None = None) -> int:
        return len(self.select(names, mode, tag))

    def self_seconds(self, names, mode: str, tag: str | None = None) -> float:
        """Span time not covered by child spans (children never overlap)."""
        return sum(s.seconds - self.child_seconds[s.id]
                   for s in self.select(names, mode, tag))
