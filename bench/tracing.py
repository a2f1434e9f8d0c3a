"""Spans around the calls into each rvqkit module, and the per-layer metrics.

A traced round replaces each public function at the name another module calls
it by (`rvqkit.rvq.nearest_codes`, `rvqkit.training.assign_batch`,
`rvqkit.cli.rvq_encode_batch`, ...) and the scoring methods of the toy models
with a wrapper that records a span: name, start, end and parent span. Counts
are taken at the same boundaries. Spans stay in memory until the run writes
them out. Nothing inside `src/` is changed; the originals are put back after
each traced round.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

import rvqkit.arnar
import rvqkit.cli
import rvqkit.io
import rvqkit.mlm
import rvqkit.rvq
import rvqkit.training
import rvqkit.vq


def _bytes_read(counts, args, result):
    counts["io.bytes_read"] += os.path.getsize(args[0])


def _bytes_written(counts, args, result):
    counts["io.bytes_written"] += os.path.getsize(args[0])


def _lookup(counts, args, result):
    rows = np.atleast_2d(args[0]).shape[0]
    k, q = args[1].entries.shape
    counts["vq.nearest_codes_rows"] += rows
    counts["vq.nearest_codes_flops"] += 3 * rows * k * q


def _counter(name, amount=lambda args, result: 1):
    def count(counts, args, result):
        counts[name] += amount(args, result)

    return count


# (owner, attribute, span name, counter). The owner is the module whose
# namespace the caller resolves the name in, or the class of a toy model.
PATCHES = [
    (rvqkit.io, "read_vectors", "io.read_vectors", _bytes_read),
    (rvqkit.io, "load_quantizer", "io.load_quantizer", _bytes_read),
    (rvqkit.io, "read_token_streams", "io.read_token_streams", _bytes_read),
    (rvqkit.io, "write_vectors", "io.write_vectors", _bytes_written),
    (rvqkit.io, "save_quantizer", "io.save_quantizer", _bytes_written),
    (rvqkit.io, "write_token_streams", "io.write_token_streams", _bytes_written),
    (rvqkit.rvq, "nearest_codes", "vq.nearest_codes", _lookup),
    (rvqkit.vq, "nearest_codes", "vq.nearest_codes", _lookup),
    (rvqkit.training, "assign_batch", "vq.assign_batch",
     _counter("vq.assign_batch_rows", lambda args, result: len(args[0]))),
    (rvqkit.training, "kmeans_init", "vq.kmeans_init", None),
    (rvqkit.training, "ema_update", "vq.ema_update", _counter("vq.ema_update_calls")),
    (rvqkit.training, "restart_dead_codes", "vq.restart_dead_codes",
     _counter("vq.codes_restarted", lambda args, result: result[1])),
    (rvqkit.cli, "train_quantizer", "training.train_quantizer",
     _counter("training.steps", lambda args, result: args[1].steps)),
    (rvqkit.training, "projected_assign", "training.projected_assign", None),
    (rvqkit.training, "projected_grads", "training.projected_grads", None),
    (rvqkit.cli, "rvq_encode_batch", "rvq.encode_batch", None),
    (rvqkit.cli, "rvq_decode_batch", "rvq.decode_batch", None),
    (rvqkit.cli, "utilization", "analytics.utilization", None),
    (rvqkit.cli, "rank_frequency", "analytics.rank_frequency", None),
    (rvqkit.cli, "generate_parallel", "mlm.generate_parallel", None),
    (rvqkit.mlm.OracleScoreModel, "score", "mlm.score",
     _counter("mlm.forward_passes", lambda args, result: args[4] == rvqkit.mlm.CONDITIONAL)),
    (rvqkit.mlm, "cfg_combine", "mlm.cfg_combine", None),
    (rvqkit.mlm, "confidence_select", "mlm.confidence_select", None),
    (rvqkit.cli, "train_ngram_ar", "arnar.train_ngram", None),
    (rvqkit.cli, "generate_text_to_tokens", "arnar.generate_text_to_tokens", None),
    (rvqkit.arnar, "generate_ar", "arnar.generate_ar", None),
    (rvqkit.arnar, "generate_nar", "arnar.generate_nar", None),
    (rvqkit.arnar, "sample_with_temperature", "arnar.sample", None),
    (rvqkit.arnar.NgramArModel, "next_logits", "arnar.next_logits", _counter("arnar.ar_steps")),
    (rvqkit.arnar.OracleNarModel, "layer_logits", "arnar.nar_layer_logits",
     _counter("arnar.nar_passes")),
]

# Per-layer metrics: name -> (unit, how it is derived). "time" sums the
# durations of the named spans, "self" subtracts the time their direct child
# spans cover (a name ending in "." matches every span with that prefix),
# "count" reads a counter, "p50"/"p99" are percentiles of span durations.
PER_LAYER = {
    "io.read_vectors_s": ("s", "time", "io.read_vectors"),
    "io.load_quantizer_s": ("s", "time", "io.load_quantizer"),
    "io.save_quantizer_s": ("s", "time", "io.save_quantizer"),
    "io.read_token_streams_s": ("s", "time", "io.read_token_streams"),
    "io.write_token_streams_s": ("s", "time", "io.write_token_streams"),
    "io.write_vectors_s": ("s", "time", "io.write_vectors"),
    "io.bytes_read": ("B", "count", "io.bytes_read"),
    "io.bytes_written": ("B", "count", "io.bytes_written"),
    "vq.nearest_codes_s": ("s", "time", "vq.nearest_codes"),
    "vq.nearest_codes_rows": ("count", "count", "vq.nearest_codes_rows"),
    "vq.nearest_codes_flops": ("flop", "count", "vq.nearest_codes_flops"),
    "vq.assign_batch_s": ("s", "time", "vq.assign_batch"),
    "vq.assign_batch_rows": ("count", "count", "vq.assign_batch_rows"),
    "vq.kmeans_init_s": ("s", "time", "vq.kmeans_init"),
    "vq.ema_update_s": ("s", "time", "vq.ema_update"),
    "vq.ema_update_calls": ("count", "count", "vq.ema_update_calls"),
    "vq.restart_dead_codes_s": ("s", "time", "vq.restart_dead_codes"),
    "vq.codes_restarted": ("count", "count", "vq.codes_restarted"),
    "training.train_quantizer_s": ("s", "time", "training.train_quantizer"),
    "training.projected_assign_s": ("s", "time", "training.projected_assign"),
    "training.projected_grads_s": ("s", "time", "training.projected_grads"),
    "training.steps": ("count", "count", "training.steps"),
    "training.self_s": ("s", "self", "training.train_quantizer"),
    "rvq.encode_batch_s": ("s", "time", "rvq.encode_batch"),
    "rvq.encode_batch_self_s": ("s", "self", "rvq.encode_batch"),
    "rvq.decode_batch_s": ("s", "time", "rvq.decode_batch"),
    "rvq.encode_frame_calls": ("count", "calls", "rvq.encode_frame"),
    "rvq.encode_frame_p50_us": ("us", "p50", "rvq.encode_frame"),
    "rvq.encode_frame_p99_us": ("us", "p99", "rvq.encode_frame"),
    "analytics.utilization_s": ("s", "time", "analytics.utilization"),
    "analytics.rank_frequency_s": ("s", "time", "analytics.rank_frequency"),
    "mlm.generate_parallel_s": ("s", "time", "mlm.generate_parallel"),
    "mlm.score_s": ("s", "time", "mlm.score"),
    "mlm.scheduler_self_s": ("s", "self", "mlm.generate_parallel"),
    "mlm.cfg_combine_s": ("s", "time", "mlm.cfg_combine"),
    "mlm.confidence_select_s": ("s", "time", "mlm.confidence_select"),
    "mlm.forward_passes": ("count", "count", "mlm.forward_passes"),
    "arnar.train_ngram_s": ("s", "time", "arnar.train_ngram"),
    "arnar.generate_ar_s": ("s", "time", "arnar.generate_ar"),
    "arnar.ar_steps": ("count", "count", "arnar.ar_steps"),
    "arnar.next_logits_s": ("s", "time", "arnar.next_logits"),
    "arnar.sample_s": ("s", "time", "arnar.sample"),
    "arnar.generate_nar_s": ("s", "time", "arnar.generate_nar"),
    "arnar.nar_passes": ("count", "count", "arnar.nar_passes"),
    "cli.train_s": ("s", "time", "cli.train"),
    "cli.encode_s": ("s", "time", "cli.encode"),
    "cli.decode_s": ("s", "time", "cli.decode"),
    "cli.analyze_s": ("s", "time", "cli.analyze"),
    "cli.mlm_sim_s": ("s", "time", "cli.mlm-sim"),
    "cli.arnar_sim_s": ("s", "time", "cli.arnar-sim"),
    "cli.self_s": ("s", "self", "cli."),
    "trace.overhead_pct": ("%", "overhead", None),
}


class Tracer:
    """Records spans while installed; `wrap` also serves the benchmark's own calls."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, count in PATCHES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self, rounds: int, overhead_pct: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, per traced round; a layer never entered reads 0."""
        total = defaultdict(float)
        durations = defaultdict(list)
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            durations[name].append(end - start)
            if parent >= 0:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child_time[index]

        out = {}
        for metric, (unit, kind, source) in PER_LAYER.items():
            if kind == "time":
                value = total[source] / rounds
            elif kind == "self":
                matches = [n for n in self_time if n == source or (source.endswith(".") and n.startswith(source))]
                value = sum(self_time[n] for n in matches) / rounds
            elif kind == "count":
                value = self.counts[source] / rounds
            elif kind == "calls":
                value = len(durations[source]) / rounds
            elif kind in ("p50", "p99"):
                samples = durations[source]
                value = float(np.percentile(samples, 50 if kind == "p50" else 99)) * 1e6 if samples else 0.0
            else:
                value = overhead_pct
            out[metric] = (float(value), unit)
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end (s), parent index."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, round(start, 7), round(end, 7), parent]) + "\n")
