"""Turn a measurement into the end-to-end and per-layer metrics.

End-to-end metrics come from untraced rounds only.  Per-layer times come
from traced rounds and are milliseconds per op (one train step, one
story, one eval invocation) unless the name says otherwise.  Exact counts
come from one fixed unit of work: the first traced round that produced
tokens, which is the same work on every run with the same seed.

Times are reported at the nominal machine speed.  An end-to-end timing is
divided by the slowdown measured around it (``Timeline.slowdown``); a
per-layer time by the run's median slowdown.  The raw end-to-end values
go to the result file as well.
"""

from __future__ import annotations

import math
import resource
import statistics

import tracing

# Tape-node kinds that make up at least 1% of nodes on some workload.
KINDS = (
    "add", "matmul", "transpose", "narrow", "mul_scalar", "softmax", "concat_rows",
    "layer_norm", "gelu", "take_rows", "reshape", "mul", "exp",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "tok_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "ttft_ms.p50": "ms",
    "peak_rss_mb": "MB",
    "nll_per_token": "nat",
}

PER_LAYER = {
    "autograd.nodes_per_op": "count",
    "autograd.grad_nodes_per_op": "count",
    "autograd.nodes_per_token": "count",
    **{f"autograd.op_count.{k}": "count" for k in KINDS},
    **{f"autograd.op_ms.{k}": "ms" for k in KINDS},
    "autograd.backward_ms": "ms",
    "training.optimizer_ms": "ms",
    "transformer.encoder_ms": "ms",
    "transformer.decoder_ms": "ms",
    "transformer.attention_ms": "ms",
    "transformer.pool_ms": "ms",
    "transformer.decoder_rows_per_token": "count",
    "model.decode_ms": "ms",
    "model.loss_ms": "ms",
    "model.encode_prior_ms": "ms",
    "model.save_ms": "ms",
    "model.load_ms": "ms",
    "latent.ms": "ms",
    "sampling.draw_latent_ms": "ms",
    "sampling.filter_ms": "ms",
    "sampling.filter_share": "share",
    "evaluation.nll_ms": "ms",
    "evaluation.rouge_ms": "ms",
    "cli.self_ms": "ms",
    "corpus.fit_s": "s",
    "corpus.prepare_ms": "ms",
    "corpus.ms": "ms",
    "trace.overhead_s": "s",
}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it: (value, percentile, samples).

    With 10 samples or fewer no percentile qualifies; the maximum is
    reported at percentile 100.  No samples at all give NaN.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return math.nan, math.nan, 0
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else math.nan


def _ratio(a: float, b: float) -> float:
    return a / b if b else math.nan


def _rounds(m, traced: bool):
    return [r for r in m.rounds if r.traced == traced]


def _latency_samples(rounds):
    return [x for r in rounds for x in r.latency] or [x for r in rounds for x in r.ops]


def end_to_end(m, corrected: bool = True) -> dict:
    """End-to-end metric values, at nominal machine speed unless ``corrected`` is False."""
    slowdown = m.timeline.slowdown if corrected else (lambda t: 1.0)

    def seconds(samples) -> list[float]:
        return [s / slowdown(t) for t, s in samples]

    plain = _rounds(m, traced=False)
    wall = sum(sum(seconds(r.ops)) + sum(seconds(r.writes)) for r in plain)
    latency = seconds(_latency_samples(plain))
    return {
        "setup_s": _median(seconds(m.setup)),
        "wall_s": _ratio(wall, sum(r.units for r in plain)),
        "tok_per_s": _ratio(sum(r.tokens for r in plain), wall),
        "op_ms.p50": 1000.0 * _median(latency),
        "op_ms.tail": 1000.0 * tail(latency)[0],
        "ttft_ms.p50": 1000.0 * _median(seconds(m.ttft)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "nll_per_token": m.workload.nll_per_token(),
    }


def details(m) -> dict:
    """What is printed beside the metrics: sample counts, the tail percentile, failures, speed."""
    plain = _rounds(m, traced=False)
    _, percentile, n = tail([s for _, s in _latency_samples(plain)])
    attempted = sum(r.attempted for r in m.rounds)
    failed = sum(r.failed for r in m.rounds)
    return {
        "setup_s": {"samples": len(m.setup)},
        "wall_s": {"unit": m.workload.unit, "rounds": len(plain)},
        "op_ms.p50": {"samples": n, "ops": sum(len(r.ops) for r in plain)},
        "op_ms.tail": {"percentile": percentile, "samples": n, "beyond": 10 if n > 10 else 0},
        "ttft_ms.p50": {"samples": len(m.ttft)},
        "failed_share": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "slowdown": {"median": m.timeline.median_slowdown(), "samples": len(m.timeline.seconds)},
    }


def per_layer(m) -> dict:
    """Per-layer metric values from the traced rounds of a traced run."""
    traced, plain = _rounds(m, traced=True), _rounds(m, traced=False)
    table = tracing.SpanTable(m.tracer)
    in_ops = table.op >= 0  # spans are recorded only in set-up and in traced rounds
    in_setup = table.op < 0
    ops = max(1, sum(r.attempted for r in traced))
    reps = len(m.setup)
    slowdown = m.timeline.median_slowdown()

    def per_op(seconds: float) -> float:
        return 1000.0 * seconds / ops / slowdown

    def spans(*names: str, where=in_ops) -> float:
        return sum(table.total(n, where) for n in names)

    def wall_per_unit(rounds) -> float:
        return _ratio(sum(s for r in rounds for _, s in r.ops + r.writes), sum(r.units for r in rounds)) / slowdown

    c = m.counts or {"ops": 1, "tokens": 1, "kinds": {}, "grad_nodes": 0, "decoder_rows": 0}
    nodes = sum(c["kinds"].values())
    op_time = spans(tracing.OP_SPAN)
    return {
        "autograd.nodes_per_op": nodes / c["ops"],
        "autograd.grad_nodes_per_op": c["grad_nodes"] / c["ops"],
        "autograd.nodes_per_token": nodes / c["tokens"],
        **{f"autograd.op_count.{k}": c["kinds"].get(k, 0) / c["ops"] for k in KINDS},
        **{f"autograd.op_ms.{k}": per_op(table.total(f"autograd.{k}", in_ops, self_only=True)) for k in KINDS},
        "autograd.backward_ms": per_op(spans("autograd.backward")),
        "training.optimizer_ms": per_op(spans("training.clip_gradients", "training.Adam.step")),
        "transformer.encoder_ms": per_op(spans("transformer.stack_forward.encoder")),
        "transformer.decoder_ms": per_op(spans("transformer.stack_forward.decoder")),
        "transformer.attention_ms": per_op(spans("transformer.multi_head_attention")),
        "transformer.pool_ms": per_op(spans("transformer.attention_average")),
        "transformer.decoder_rows_per_token": c["decoder_rows"] / c["tokens"],
        "model.decode_ms": per_op(spans("model.StoryVAE.decode_logits")),
        "model.loss_ms": per_op(spans("model.StoryVAE.cvae_loss", "model.StoryVAE.vae_loss")),
        "model.encode_prior_ms": per_op(spans("model.StoryVAE.encode_prior")),
        "model.save_ms": per_op(spans("model.StoryVAE.save")),
        "model.load_ms": per_op(spans("model.StoryVAE.load")),
        "latent.ms": per_op(table.module_total("latent", in_ops)),
        "sampling.draw_latent_ms": per_op(spans("sampling.draw_latent")),
        "sampling.filter_ms": per_op(spans("sampling.filter_logits")),
        "sampling.filter_share": spans("sampling.filter_logits") / op_time if op_time else 0.0,
        "evaluation.nll_ms": per_op(spans("evaluation.corpus_nll")),
        "evaluation.rouge_ms": per_op(spans("evaluation.rouge_scores")),
        "cli.self_ms": per_op(table.module_self("cli", in_ops)),
        "corpus.fit_s": spans("corpus.fit_vocabulary", where=in_setup) / reps / slowdown,
        "corpus.prepare_ms": 1000.0 * spans("corpus.prepare_corpus", where=in_setup) / reps / slowdown,
        "corpus.ms": per_op(table.module_total("corpus", in_ops)),
        "trace.overhead_s": wall_per_unit(traced) - wall_per_unit(plain),
    }


def all_kinds(m) -> dict:
    """Node counts per op of every kind seen, for the result file."""
    c = m.counts
    if not c:
        return {}
    return {k: v / c["ops"] for k, v in sorted(c["kinds"].items(), key=lambda kv: -kv[1])}


def finite(values: dict) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
