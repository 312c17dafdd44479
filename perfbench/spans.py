"""In-memory span tracing of the sparsescene pipeline, from outside the package.

``Tracer.installed()`` swaps each public pipeline function for a wrapper in
every ``sparsescene`` module namespace that binds it, which is where the
pipeline looks the function up at call time (``from .solvers import
code_frames`` makes ``sparsescene.classify.code_frames`` one such binding).
On exit the original objects are put back.  Nothing under ``src/`` changes.

A wrapper records a span only while an operation is open (``Tracer.op``):
name, start, end, parent span and operation id, plus a few counts taken at
the boundary.  Spans stay in memory; ``Tracer.dump`` writes them once.
The span stack is not thread-safe, so traced operations run single-threaded
(``parallelism`` 1).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import sparsescene
from sparsescene.bank import DictionaryBank
from sparsescene.solvers import generalized_kl

#: (span name, module, attribute) of every wrapped function.  The span name's
#: first component is the layer; ``bank`` entries are methods of
#: ``DictionaryBank``.
TARGETS = (
    ("features.stft", "features", "stft"),
    ("features.istft", "features", "istft"),
    ("features.magnitudes", "features", "magnitudes"),
    ("features.frame_energies", "features", "frame_energies"),
    ("vad.detect_speech_frames", "vad", "detect_speech_frames"),
    ("vad.frames_to_intervals", "vad", "frames_to_intervals"),
    ("vad.intervals_to_frame_mask", "vad", "intervals_to_frame_mask"),
    ("vad.miss_false_rates", "vad", "miss_false_rates"),
    ("solvers.code_frames", "solvers", "code_frames"),
    ("solvers.mu", "solvers", "solve_mu"),
    ("solvers.asna", "solvers", "solve_asna"),
    ("classify.noise", "classify", "classify_noise"),
    ("classify.speakers", "classify", "rank_speakers"),
    ("separate.separate", "separate", "separate"),
    ("separate.estimate_snr_db", "separate", "estimate_snr_db"),
    ("metrics.snr_db", "metrics", "snr_db"),
    ("metrics.si_sdr_db", "metrics", "si_sdr_db"),
    ("metrics.restrict_to_spans", "metrics", "restrict_to_spans"),
    ("metrics.spans_to_sample_mask", "metrics", "spans_to_sample_mask"),
    ("dictionary.learn", "dictionary", "learn_dictionary"),
    ("training.learn_bank", "training", "learn_bank"),
    ("bank.save", "bank", "save"),
    ("bank.load", "bank", "load"),
    ("scenario.render", "scenario", "render_scenario"),
    ("scenario.generate", "scenario", "generate_scenarios"),
    ("regimes.run_regime", "regimes", "run_regime"),
    ("evaluate.run_manifest", "evaluate", "run_manifest"),
    ("evaluate.analyze_signal", "evaluate", "analyze_signal"),
    ("report.result_to_json", "report", "result_to_json"),
    ("report.write_csv", "report", "write_csv"),
    ("report.write_aggregate", "report", "write_aggregate"),
)

#: span that holds the tracer's own post-call bookkeeping (final KL etc.)
POST = "trace.post"


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _columns(a) -> int:
    a = np.asarray(a)
    return 1 if a.ndim == 1 else int(a.shape[1])


def _solver_post(args, kwargs, result) -> dict:
    """Counts of a solver's returned weights, computed outside its span."""
    y = np.asarray(args[0] if args else kwargs["y"], dtype=np.float64)
    d = np.asarray(args[1] if len(args) > 1 else kwargs["dictionary"], dtype=np.float64)
    w = np.asarray(result, dtype=np.float64)
    tiny = np.finfo(np.float64).tiny
    return {
        "final_kl": generalized_kl(y, d @ w),
        "nnz": int(np.count_nonzero(w)),
        "subnormal": int(np.count_nonzero((w != 0.0) & (np.abs(w) < tiny))),
        "weights": int(w.size),
    }


class Tracer:
    """Records spans of wrapped pipeline calls made inside an open operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ops: list[dict] = []
        self._stack: list[int] = []
        self._op: int | None = None

    @contextlib.contextmanager
    def op(self, kind: str, **attrs):
        """Open one operation (a clip, a campaign or a set-up); spans inside share its id."""
        if self._op is not None:
            raise RuntimeError("operations do not nest")
        self._op = len(self.ops)
        rec = {"op": self._op, "kind": kind, **attrs}
        self.ops.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._op = None
            self._stack.clear()

    def _open(self, name: str, attrs: dict) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self._op, name, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        attrs_of = _PRE.get(name)
        solver = name in ("solvers.mu", "solvers.asna")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = self._open(name, attrs_of(args, kwargs) if attrs_of else {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if solver:
                post = self._open(POST, {})
                try:
                    span.attrs.update(_solver_post(args, kwargs, result))
                finally:
                    self._close(post)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target where the pipeline looks it up; restore on exit."""
        modules = [sparsescene] + [
            m
            for key, m in sys.modules.items()
            if key.startswith("sparsescene.") and m is not None
        ]
        saved: list[tuple[object, str, object]] = []
        try:
            for name, module, attr in TARGETS:
                if module == "bank":
                    raw = DictionaryBank.__dict__[attr]
                    saved.append((DictionaryBank, attr, raw))
                    if isinstance(raw, classmethod):
                        setattr(DictionaryBank, attr, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        setattr(DictionaryBank, attr, self.wrap(name, raw))
                    continue
                original = getattr(sys.modules[f"sparsescene.{module}"], attr)
                wrapper = self.wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            saved.append((m, key, original))
                            setattr(m, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)

    def dump(self, path) -> None:
        """Write every operation and span as JSON (once, at the end of a run)."""
        payload = {
            "ops": self.ops,
            "spans": [
                {
                    "id": s.sid,
                    "parent": s.parent,
                    "op": s.op,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    **({"attrs": s.attrs} if s.attrs else {}),
                }
                for s in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _regime_attrs(args, kwargs) -> dict:
    rendered = args[0] if args else kwargs["rendered"]
    regime = args[1] if len(args) > 1 else kwargs["regime"]
    return {"regime": regime, "samples": int(len(rendered.mixture))}


#: boundary counts taken when a span opens
_PRE = {
    "solvers.code_frames": lambda a, k: {"columns": _columns(a[0] if a else k["features"])},
    "solvers.mu": lambda a, k: {"columns": _columns(a[0] if a else k["y"])},
    "solvers.asna": lambda a, k: {"columns": _columns(a[0] if a else k["y"])},
    "regimes.run_regime": _regime_attrs,
}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out[s.sid] = (s.end - s.start) - covered
    return out
