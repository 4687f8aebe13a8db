"""In-memory span recording around kbcanon's public functions.

Spans are recorded from the benchmark's side only: ``Tracer.install``
rebinds module attributes (every module that holds a binding to the
function, since ``pipeline`` and ``baselines`` import names directly) to
a wrapper that records name, start, end and parent. Nothing inside
``src/`` is changed. Per-pair functions (``jaro_winkler``,
``idf_overlap_score``) are deliberately not wrapped: their call counts are
in the hundreds of thousands and wrapping them inflates their callers.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Modules whose namespaces may hold a binding of a traced function.
MODULES = ("pipeline", "canonicalize", "baselines", "side_info", "embedding",
           "kb", "metrics")

# (defining module, function name) pairs to trace. The span name is
# "<module>.<function>".
TRACED = (
    ("kb", "load_triples"), ("kb", "audit"), ("kb", "save_triples"),
    ("kb", "split_validation"), ("kb", "load_gold"),
    ("side_info", "assemble_side_info"), ("side_info", "entity_link_equivalences"),
    ("side_info", "ppdb_equivalences"), ("side_info", "idf_equivalences"),
    ("side_info", "build_df"), ("side_info", "morph_equivalences"),
    ("side_info", "amie_mine"), ("side_info", "save_side_info"),
    ("side_info", "coverage_report"),
    ("embedding", "init_embeddings"), ("embedding", "load_word_vectors"),
    ("embedding", "train"), ("embedding", "make_batch"),
    ("embedding", "save_embeddings"),
    ("canonicalize", "choose_threshold"), ("canonicalize", "cosine_distance_matrix"),
    ("canonicalize", "hac_merge_history"), ("canonicalize", "cut_history"),
    ("canonicalize", "hac_from_distance_matrix"),
    ("canonicalize", "hac_complete_linkage"), ("canonicalize", "cluster_phrases"),
    ("canonicalize", "build_clustering"), ("canonicalize", "canonicalize_kb"),
    ("canonicalize", "save_clusters"), ("canonicalize", "save_canonicalized"),
    ("metrics", "evaluate"),
    ("baselines", "run_baseline"), ("baselines", "tune_threshold_on_matrix"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "attrs": self.attrs}


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), name,
                    self._stack[-1] if self._stack else None, self.clock())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        """``fn`` inside a span; ``observe(span, args, kwargs, result)``
        may attach attributes after the call (outside the timed part)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    def install(self, observers=None) -> list[tuple[object, str, object]]:
        """Rebind every traced function in every module that holds it.
        Returns the (module, attribute, original) list that ``uninstall``
        restores."""
        observers = observers or {}
        mods = {m: importlib.import_module(f"kbcanon.{m}") for m in MODULES}
        undo = []
        for mod_name, fn_name in TRACED:
            original = getattr(mods[mod_name], fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = self.wrap(name, original, observers.get(name))
            for mod in mods.values():
                if getattr(mod, fn_name, None) is original:
                    undo.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(children[s["id"]], s["start"], s["end"])
        for s in spans
    }


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total seconds (a span nested in a span of the
    same name is not counted twice) and self seconds."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                "self_s": 0.0})
    for s in spans:
        row = out[s["name"]]
        row["calls"] += 1
        row["self_s"] += selfs[s["id"]]
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != s["name"]:
            parent = by_id[parent]["parent"]
        if parent is None:
            row["total_s"] += s["end"] - s["start"]
    return dict(out)
