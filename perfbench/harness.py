"""One benchmark run: repeated set-up, passes until the time is up, and
the metrics computed from them.  See run.py for the command line.

The 2-core machine this was tuned on shares its host, and the speed at
which it runs Python drifts by up to a third, within seconds and between
runs.  Means, medians and lower quartiles of the program's own times in a
30 s run all followed that drift.  So the run also times a fixed computation that never calls
the program (``common.reference_work``) between operations, and reports
``setup_s`` and ``pass_s`` at reference speed: the measured time, scaled
by ``REF_S`` over the mean time of the reference in the same stretch of
the run.  A change to the program moves them as much as it moves the
measured time; a change of machine speed moves both the program and the
reference.  The measured times are printed with them.
"""

from __future__ import annotations

import gc
import statistics

from common import Record, Spans, Speed, peak_rss_mb, perf

# The time reference_work takes at reference speed.
REF_S = 0.010
# Set-up repeats, after one untimed warm-up, until both limits are reached.
SETUP_MIN_REPS, SETUP_MIN_S = 3, 3.0
MIN_PASSES = {"wordproblem": 1, "certify": 2, "transfer": 2}


def quantile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """Everything one run measured, plus how to report it."""

    def __init__(self, name, wl, args, workdir):
        self.name, self.wl, self.args, self.workdir = name, wl, args, workdir
        self.off = Spans(False)
        self.inputs = wl.Inputs()
        self.records = []
        self.stats = wl.Stats()

    def record(self, spans, speed=None):
        rec = Record(spans, collect=self.wl.COLLECT_BEFORE_OP, speed=speed)
        self.records.append(rec)
        return rec

    def setup(self, spans):
        gc.collect()
        start = perf()
        contexts = self.wl.setup(self.inputs, spans)
        return contexts, perf() - start

    def one_pass(self, ready, index, rec, spans, stats):
        gc.collect()
        inputs = self.wl.make_pass(ready, self.args.seed, index)
        before = rec.busy
        self.wl.run_pass(ready, inputs, rec, spans, stats)
        return rec.busy - before

    def untraced(self):
        self.setup(self.off)
        setup_speed, setups = Speed(), []
        start = perf()
        while len(setups) < SETUP_MIN_REPS or perf() - start < SETUP_MIN_S:
            setup_speed.sample()
            contexts, took = self.setup(self.off)
            setups.append(took)
        setup_speed.sample()
        ready = self.wl.Ready(self.inputs, contexts, self.workdir)
        speed = Speed()
        rec = self.record(self.off, speed)
        passes = []
        start = perf()
        while (len(passes) < MIN_PASSES[self.name]
               or perf() - start < self.args.seconds):
            passes.append(self.one_pass(ready, len(passes), rec, self.off, self.stats))
        self.pass_times = passes
        raw_setup, raw_pass = statistics.fmean(setups), statistics.fmean(passes)
        return {
            "setup_s": raw_setup * REF_S / setup_speed.mean(),
            "pass_s": raw_pass * REF_S / speed.mean(),
            "peak_rss_mb": peak_rss_mb(),
        }, {"setup_reps": len(setups), "passes": len(passes), "ops": rec.attempted,
            "measured_setup_s": raw_setup, "measured_pass_s": raw_pass,
            "reference_s": speed.mean(), "reference_samples": len(speed.samples)}

    def traced(self):
        spans = Spans(True, memory=self.wl.MEMORY)
        contexts, setup_time = self.setup(spans)
        setup_self = spans.self_times()
        spans.records.clear()
        ready = self.wl.Ready(self.inputs, contexts, self.workdir)
        separate = any(how == "tracemalloc" for how in self.wl.MEMORY.values())
        if separate:
            # tracemalloc slows what it watches: take peaks in a pass of their own.
            mem = Spans(False, memory=self.wl.MEMORY)
            mem.memory_on = True
            self.one_pass(ready, 0, self.record(mem), mem, self.wl.Stats())
            peaks = mem.peaks
        else:
            # The "rss" peak is only valid in the first pass of the process.
            spans.memory_on = True
            peaks = spans.peaks
        rec_on, rec_off = self.record(spans), self.record(self.off)
        traced, untraced = [], []
        start = perf()
        while not traced or perf() - start < self.args.seconds:
            traced.append(self.one_pass(ready, len(traced), rec_on, spans, self.stats))
            spans.memory_on = False
            untraced.append(self.one_pass(ready, len(untraced), rec_off, self.off,
                                          self.wl.Stats()))
        self.spans = spans
        pass_self = spans.self_times()
        total = sum(traced)
        layer = {f"setup.{k}_pct": 100 * v / setup_time for k, v in setup_self.items()}
        layer.update({f"{k}_pct": 100 * v / total for k, v in pass_self.items()})
        layer.update({f"{k}.peak_mb": v for k, v in peaks.items()})
        layer.update(self.stats.counts())
        layer.update({
            "trace.setup_s": setup_time,
            "trace.traced_pass_s": statistics.fmean(traced),
            "trace.untraced_pass_s": statistics.fmean(untraced),
            "trace.spans": len(spans.records),
        })
        seconds = {f"setup.{k}": v for k, v in setup_self.items()}
        seconds.update({k: v / len(traced) for k, v in pass_self.items()})
        self.layer_seconds = seconds
        overhead = sum(traced) - sum(untraced)
        return layer, {"passes": len(traced), "overhead_s": overhead,
                       "overhead_pct": 100 * overhead / sum(untraced)}

    def outcome(self):
        attempted = sum(r.attempted for r in self.records)
        failures = [f for r in self.records for f in r.failures]
        bounded = [b for r in self.records for b in r.bounded]
        return attempted, failures, bounded

    def named(self):
        """The workload's figures under the names used in README.md."""
        by: dict[str, list] = {}
        for r in self.records:
            if r.spans is self.off:
                for label, lat in r.latencies.items():
                    by.setdefault(label.split()[0], []).append(lat)
        if self.name == "wordproblem":
            d = [t for lat in by.get("decide", []) for t in lat]
            return {"wp_decisions_per_s": len(d) / sum(d),
                    "wp_latency_p50_us": statistics.median(d) * 1e6,
                    "wp_latency_p99_us": quantile(d, 99) * 1e6,
                    "wp_latency_samples": len(d)}
        if self.name == "transfer":
            # Per pass: the mean time of each task's operations, summed.
            def per_pass(*groups):
                return sum(statistics.fmean(lat) for g in groups for lat in by.get(g, []))
            return {"transfer_s": per_pass("structure_for_finite", "transfer_details"),
                    "transfer_verify_s": per_pass("verify_structure_report")}
        return {"certify_pass_s": statistics.fmean(self.pass_times)}
