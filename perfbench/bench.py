"""One benchmark run: set-up, the measured loop, and the metrics it yields."""

from __future__ import annotations

import contextlib
import time
from pathlib import Path
from statistics import median

import sparsescene as ss

from spans import Tracer, self_times
from workloads import (
    SETUP_REPEATS,
    SETUP_SECONDS,
    WORKLOADS,
    ClipSource,
    Smoke,
    Tally,
    campaign_manifest,
    make_corpus,
    quality_metrics,
    row_quality,
    run_campaign,
    run_clip,
    set_up,
    stft_config,
)

REGIMES = ss.ALL_REGIMES

#: unit of every metric the benchmark can print
UNITS = {
    "setup_s": "s",
    "rtf": "s/s",
    "runs_per_s": "1/s",
    "error_rate": "frac",
    "noise_acc": "frac",
    "speaker_acc": "frac",
    "switch_err_s": "s",
    "sdr_gain_db": "dB",
    "peak_rss_mb": "MB",
    "solvers.mu.self_s": "s",
    "solvers.mu.frames": "count",
    "solvers.mu.us_per_frame": "us",
    "solvers.mu.final_kl": "nat/frame",
    "solvers.mu.subnormal_frac": "frac",
    "solvers.asna.self_s": "s",
    "solvers.asna.frames": "count",
    "solvers.asna.ms_per_frame": "ms",
    "solvers.asna.nnz_per_frame": "count",
    "solvers.asna.final_kl": "nat/frame",
    "solvers.code_calls_per_clip": "count",
    "solvers.frames_coded_ratio": "ratio",
    "features.self_s": "s",
    "vad.self_s": "s",
    "classify.noise.self_s": "s",
    "classify.speakers.self_s": "s",
    "separate.self_s": "s",
    "training.learn_bank.s": "s",
    "bank.io_s": "s",
    "dictionary.learn.calls": "count",
    "dictionary.learn.self_s": "s",
    "scenario.render.s": "s",
    "metrics.self_s": "s",
    "report.self_s": "s",
    "evaluate.run_manifest.self_s": "s",
    "regimes.self_s": "s",
    **{f"regimes.{r}.s": "s" for r in REGIMES},
    "evaluate.analyze_signal.s": "s",
    "evaluate.resume.s": "s",
    "evaluate.pool2_ratio": "ratio",
    "trace.overhead_frac": "frac",
}


def metric(name: str, value, n: int) -> dict:
    return {"value": None if value is None else float(value), "unit": UNITS[name], "n": n}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Run:
    """State of one run: inputs, set-up bank, counters and measurements."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.smoke = Smoke() if args.smoke else None
        self.seconds = 0.0 if args.smoke else float(args.seconds)
        self.method = self.smoke.method if self.smoke else self.workload.method
        workdir.mkdir(parents=True)
        self.workdir = workdir
        self.corpus = make_corpus(workdir)
        self.tally = Tally()
        self.tracer = Tracer()
        self.counts = {"clips": 0, "frames": 0, "rows": 0, "campaigns": 0}
        self.samples: dict[str, list[float]] = {}

    def set_up(self, traced: bool = False):
        path = self.workdir / f"{self.method}.npz"
        if not traced:
            return set_up(self.corpus, self.method, self.args.seed, path, self.tally, SETUP_REPEATS, SETUP_SECONDS)
        with self.tracer.installed(), self.tracer.op("setup"):
            return set_up(self.corpus, self.method, self.args.seed, path, self.tally, 1, 0.0)

    # -- clips ------------------------------------------------------------------

    def clips(self, bank, source: ClipSource, count: int | None = None, traced: bool = False):
        """Analyse clips 0, 1, ... until ``seconds`` pass (or exactly ``count``)."""
        params = ss.EvalParams(solver=self.workload.solver)
        out = []
        start = time.perf_counter()
        i = 0
        with self.tracer.installed() if traced else contextlib.nullcontext():
            while (i < count) if count is not None else (i == 0 or time.perf_counter() - start < self.seconds):
                clip = source.clip(i)
                frames = stft_config(bank).n_frames(len(clip.samples))
                op = (lambda: self.tracer.op("clip", index=i, frames=frames)) if traced else None
                seconds, quality = run_clip(bank, clip, params, self.tally, op)
                out.append((clip.seconds, seconds, quality))
                self.counts["clips"] += 1
                self.counts["frames"] += frames
                i += 1
        return out

    def clip_end_to_end(self, bank) -> dict:
        source = ClipSource(self.corpus, self.workload, self.args.seed, self.smoke)
        done = self.clips(bank, source)
        timed = [(c, s) for c, s, _ in done if s is not None]
        self.samples["clip_s"] = [s for _, s in timed]
        quality = [q for _, _, q in done if q is not None]
        return {
            "rtf": metric("rtf", median(s / c for c, s in timed) if timed else None, len(timed)),
            "runs_per_s": metric("runs_per_s", 1.0 / median(s for _, s in timed) if timed else None, len(timed)),
            **self.quality(quality),
        }

    # -- campaigns ----------------------------------------------------------------

    def manifest(self, j: int = 0, parallelism: int = 1) -> ss.Manifest:
        return campaign_manifest(self.corpus, self.args.seed, j, self.method, self.smoke, parallelism)

    def campaign(self, bank, name: str, reference, manifest=None, op=None, resume_of=False):
        manifest = manifest or self.manifest()
        seconds, rows, files = run_campaign(
            manifest, bank, self.workdir / name, self.tally, reference, op=op, resume_of=resume_of
        )
        if not resume_of:
            self.counts["campaigns"] += 1
            self.counts["rows"] += len(rows or ())
        return seconds, rows, files

    def campaign_end_to_end(self, bank) -> dict:
        """Campaigns 0, 1, ... (each with its own scenarios) until ``seconds`` pass.

        Scenario content moves a campaign's cost by up to 40 %, so ``rtf`` and
        ``runs_per_s`` pool every campaign of the run rather than taking one.
        """
        wall, rows_done, audio, quality = 0.0, 0, 0.0, []
        first = None
        start = time.perf_counter()
        j = 0
        while j == 0 or time.perf_counter() - start < self.seconds:
            seconds, rows, files = self.campaign(bank, f"c{j}", None, manifest=self.manifest(j))
            if rows is not None:
                first = first or files
                wall += seconds
                rows_done += len(rows)
                audio += sum(r["transition_true_s"] * 2.0 for r in rows)
                quality += row_quality(rows)
                self.samples.setdefault("campaign_s", []).append(seconds)
            j += 1
        if first is not None:
            self.campaign(bank, "c0", first, manifest=self.manifest(0), resume_of=True)
        n = len(self.samples.get("campaign_s", ()))
        return {
            "rtf": metric("rtf", wall / audio if audio else None, n),
            "runs_per_s": metric("runs_per_s", rows_done / wall if wall else None, n),
            **self.quality(quality),
        }

    # -- metrics ------------------------------------------------------------------

    def quality(self, quality: list[dict]) -> dict:
        return {name: metric(name, v, n) for name, (v, n) in quality_metrics(quality).items()}

    def end_to_end(self) -> dict:
        bank, setup_times = self.set_up()
        self.samples["setup_s"] = setup_times
        body = (self.clip_end_to_end if self.workload.kind == "clip" else self.campaign_end_to_end)(bank)
        return {
            "setup_s": metric("setup_s", median(setup_times), len(setup_times)),
            **body,
            "error_rate": metric("error_rate", _ratio(self.tally.failed, self.tally.attempted), self.tally.attempted),
        }

    def per_layer(self) -> dict:
        bank, _ = self.set_up(traced=True)
        extra = {}
        if self.workload.kind == "clip":
            source = ClipSource(self.corpus, self.workload, self.args.seed, self.smoke)
            plain = self.clips(bank, source)
            self.clips(bank, source, count=len(plain), traced=True)
            self.samples["clip_s"] = [s for _, s, _ in plain if s is not None]
            base = sum(self.samples["clip_s"])
            with_trace = sum(op["end"] - op["start"] for op in self.tracer.ops if op["kind"] == "clip")
            extra["trace.overhead_frac"] = metric("trace.overhead_frac", _ratio(with_trace, base) - 1.0, len(plain))
            extra["evaluate.resume.s"] = metric("evaluate.resume.s", 0.0, 0)
            extra["evaluate.pool2_ratio"] = metric("evaluate.pool2_ratio", 0.0, 0)
        else:
            wall, _, reference = self.campaign(bank, "plain", None)
            with self.tracer.installed():
                self.campaign(bank, "traced", reference, op=lambda: self.tracer.op("campaign"))
            pool2, _, _ = self.campaign(bank, "pool2", reference, manifest=self.manifest(0, parallelism=2))
            resume, _, _ = self.campaign(bank, "plain", reference, resume_of=True)
            traced_wall = sum(op["end"] - op["start"] for op in self.tracer.ops if op["kind"] == "campaign")
            self.samples.update(campaign_s=[wall], traced_s=[traced_wall], pool2_s=[pool2], resume_s=[resume])
            ok = None not in (wall, pool2, resume, reference)
            extra["trace.overhead_frac"] = metric("trace.overhead_frac", _ratio(traced_wall, wall) - 1.0 if ok else None, 1)
            extra["evaluate.resume.s"] = metric("evaluate.resume.s", resume if ok else None, 1)
            extra["evaluate.pool2_ratio"] = metric("evaluate.pool2_ratio", _ratio(pool2, wall) if ok else None, 1)
        return {**layer_metrics(self.tracer, stft_config(bank)), **extra}


def layer_metrics(tracer: Tracer, config: ss.StftConfig) -> dict:
    """Per-layer metrics from the spans: per clip (clip runs) or per campaign."""
    selfs = self_times(tracer.spans)
    by_op: dict[int, list] = {}
    for s in tracer.spans:
        by_op.setdefault(s.op, []).append(s)

    def tally(spans):
        t = {}
        for s in spans:
            e = t.setdefault(s.name, {"n": 0, "dur": 0.0, "self": 0.0, "attrs": {}})
            e["n"] += 1
            e["dur"] += s.end - s.start
            e["self"] += selfs[s.sid]
            for k, v in s.attrs.items():
                if isinstance(v, (int, float)):
                    e["attrs"][k] = e["attrs"].get(k, 0) + v
        return t

    def get(t, name, key="self", attr=None):
        e = t.get(name)
        if e is None:
            return 0.0
        return e["attrs"].get(attr, 0) if attr else e[key]

    def layer_self(t, prefix):
        return sum(e["self"] for name, e in t.items() if name.startswith(prefix))

    setup_ops = [op["op"] for op in tracer.ops if op["kind"] == "setup"]
    work_ops = [op for op in tracer.ops if op["kind"] != "setup"]
    per_op: list[dict] = []
    for op in work_ops:
        spans = by_op.get(op["op"], [])
        t = tally(spans)
        runs = [s for s in spans if s.name == "regimes.run_regime"]
        if op["kind"] == "clip":
            clips, clip_frames = 1, op["frames"]
        else:
            clips = len(runs)
            clip_frames = sum(config.n_frames(s.attrs["samples"]) for s in runs)
        v = {}
        for solver, unit_scale, per in (("mu", 1e6, "us_per_frame"), ("asna", 1e3, "ms_per_frame")):
            name = f"solvers.{solver}"
            frames = get(t, name, attr="columns")
            v[f"{name}.self_s"] = get(t, name)
            v[f"{name}.frames"] = frames
            v[f"{name}.{per}"] = _ratio(get(t, name) * unit_scale, frames)
            v[f"{name}.final_kl"] = _ratio(get(t, name, attr="final_kl"), frames)
        v["solvers.mu.subnormal_frac"] = _ratio(
            get(t, "solvers.mu", attr="subnormal"), get(t, "solvers.mu", attr="weights")
        )
        v["solvers.asna.nnz_per_frame"] = _ratio(get(t, "solvers.asna", attr="nnz"), get(t, "solvers.asna", attr="columns"))
        v["solvers.code_calls_per_clip"] = _ratio(get(t, "solvers.code_frames", key="n"), clips)
        v["solvers.frames_coded_ratio"] = _ratio(get(t, "solvers.code_frames", attr="columns"), clip_frames)
        for name, prefix in (
            ("features.self_s", "features."),
            ("vad.self_s", "vad."),
            ("classify.noise.self_s", "classify.noise"),
            ("classify.speakers.self_s", "classify.speakers"),
            ("separate.self_s", "separate."),
            ("dictionary.learn.self_s", "dictionary.learn"),
            ("metrics.self_s", "metrics."),
            ("report.self_s", "report."),
            ("evaluate.run_manifest.self_s", "evaluate.run_manifest"),
            ("regimes.self_s", "regimes."),
        ):
            v[name] = layer_self(t, prefix)
        v["dictionary.learn.calls"] = get(t, "dictionary.learn", key="n")
        v["scenario.render.s"] = get(t, "scenario.render", key="dur")
        v["evaluate.analyze_signal.s"] = get(t, "evaluate.analyze_signal", key="dur")
        for regime in REGIMES:
            v[f"regimes.{regime}.s"] = sum(s.end - s.start for s in runs if s.attrs["regime"] == regime)
        per_op.append(v)

    out = {}
    for name in per_op[0] if per_op else ():
        out[name] = metric(name, median(v[name] for v in per_op), len(per_op))
    setup = tally([s for op in setup_ops for s in by_op.get(op, [])])
    out["training.learn_bank.s"] = metric("training.learn_bank.s", get(setup, "training.learn_bank", key="dur"), len(setup_ops))
    out["bank.io_s"] = metric(
        "bank.io_s", get(setup, "bank.save", key="dur") + get(setup, "bank.load", key="dur"), len(setup_ops)
    )
    return out


def run_workload(args, workdir: Path, spans_path: Path) -> dict:
    run = Run(args, workdir)
    metrics = run.per_layer() if args.trace else run.end_to_end()
    if args.trace:
        run.tracer.dump(spans_path)
    return {
        "metrics": metrics,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "problems": run.tally.problems,
        "counts": run.counts,
        "samples": run.samples,
    }
