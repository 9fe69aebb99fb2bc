"""Benchmark of narlab's distill -> train -> translate path.

    python3 perfbench/run.py --workload distill-mono --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first run trains the teacher and the
translation student (perfbench/build.py) and caches them under
.bench_build/; later runs load them.  With --trace 0 the last line of
standard output is one JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run instead.
Timings are scaled to a reference machine speed, measured alongside the
work (speed.py).
Workloads, metrics and reference figures: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback

sys.dont_write_bytecode = True  # keep the checkout free of caches

import common  # noqa: E402

common.pin_blas_threads()

import speed  # noqa: E402

SETUPS = 5  # set-ups per untraced run; setup_s is their median
BUILD_TIMEOUT_S = 850


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def ensure_models():
    models = common.build_dir()
    if not (models / "student.ckpt").is_file():
        subprocess.run([sys.executable, str(common.HERE / "build.py")], check=True,
                       timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    return models


def timed_phase(workload, seconds: float, probe: speed.Probe, min_jobs: int = 1,
                tracer=None) -> dict:
    """Whole rounds of the workload's jobs until ``seconds`` have passed and
    the run holds ``min_jobs`` jobs; speed probes run between jobs."""
    latencies, rates, tokens, attempted, failed = [], [], 0, 0, 0
    start = time.perf_counter()
    while True:
        round_tokens, round_start = tokens, len(latencies)
        for i, (ops, call) in enumerate(workload.jobs()):
            if tracer is not None:
                tracer.request = len(latencies)
            attempted += ops
            t0 = time.perf_counter()
            try:
                n_tokens, output = call()
            except Exception:  # a failing operation is counted, the run goes on
                latencies.append(time.perf_counter() - t0)
                probe.owe(latencies[-1])
                failed += ops
                traceback.print_exc(file=sys.stderr)
                continue
            latencies.append(time.perf_counter() - t0)
            probe.owe(latencies[-1])
            tokens += n_tokens
            if not workload.record(i, output):
                failed += ops
        rates.append((tokens - round_tokens) / sum(latencies[round_start:]))
        if time.perf_counter() - start >= seconds and len(latencies) >= min_jobs:
            break
    if tracer is not None:
        tracer.request = None
    return {"latencies": latencies, "rates": rates, "tokens": tokens,
            "attempted": attempted, "failed": failed, "rounds": len(rates)}


def p99(samples) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def set_up(cls, models, seed: int):
    workload = cls(models)
    t0 = time.perf_counter()
    workload.setup(seed)
    return workload, time.perf_counter() - t0


def end_to_end(cls, models, args) -> tuple:
    """Timings are scaled to the reference speed (speed.py), each by the
    probe blocks run among the work it times: times are divided by the
    slowdown and rates multiplied by it.  Set-ups are always scaled; the
    timed phase only where the workload's jobs are short (``scaled``)."""
    setup_probe = speed.Probe(speed.SETUP_SHARE)
    probe = speed.Probe(speed.SHARE if cls.scaled else 0.0)
    setup_times = []
    for _ in range(SETUPS):
        workload, seconds = set_up(cls, models, args.seed)
        setup_times.append(seconds)
        setup_probe.owe(seconds)
    gc.collect()  # earlier set-ups' garbage is not the timed phase's
    phase = timed_phase(workload, args.seconds, probe, workload.min_jobs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = phase["latencies"]
    raw = {
        "setup_s": statistics.median(setup_times),
        "tok_per_s": statistics.median(phase["rates"]),
        "latency_ms_p50": 1e3 * statistics.median(lat),
        "latency_ms_p99": 1e3 * p99(lat),
    }
    setup_slow, slow = setup_probe.slowdown(), probe.slowdown()
    print(f"# slowdown {setup_slow:.4f} in set-up ({len(setup_probe.blocks)} probe blocks), "
          f"{slow:.4f} in the timed phase ({len(probe.blocks)}); as measured: "
          + " ".join(f"{k}={v:.6g}" for k, v in raw.items()), file=sys.stderr)
    metrics = {
        "setup_s": (raw["setup_s"] / setup_slow, "s"),
        "tok_per_s": (raw["tok_per_s"] * slow, "tokens/s"),
        "latency_ms_p50": (raw["latency_ms_p50"] / slow, "ms"),
        "latency_ms_p99": (raw["latency_ms_p99"] / slow, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    quality = workload.quality()
    metrics["bleu"] = (quality["bleu"], "BLEU")
    metrics["heldout_ce"] = (quality["heldout_ce"], "nats/token")
    print(f"# {workload.name}: {len(lat)} timed jobs in {phase['rounds']} rounds",
          file=sys.stderr)
    return workload, phase, metrics


def per_layer(cls, models, args) -> tuple:
    """Half the seconds untraced, then a traced set-up and the other half
    traced; the gap between the halves' throughput (each scaled to the
    reference speed where the workload is ``scaled``) is the tracing
    overhead."""
    import narlab
    from spans import Tracer

    half = args.seconds / 2.0
    share = speed.SHARE if cls.scaled else 0.0
    plain_probe, traced_probe = speed.Probe(share), speed.Probe(share)
    plain = timed_phase(set_up(cls, models, args.seed)[0], half, plain_probe)
    tracer = Tracer()
    tracer.install(narlab)
    try:
        workload, _ = set_up(cls, models, args.seed)
        phase = timed_phase(workload, half, traced_probe, tracer=tracer)
        workload.quality(paused=tracer.paused)
    finally:
        tracer.uninstall()
    tracer.write(common.OUT / "traces" / f"{workload.name}-seed{args.seed}.jsonl")

    calls, secs, cnt = tracer.calls, tracer.seconds, tracer.counters
    tokens = phase["tokens"]
    sentences = phase["rounds"] * workload.sentences()
    steps = calls["training.Adam.step"]
    overhead = (statistics.median(plain["rates"]) * plain_probe.slowdown()
                / (statistics.median(phase["rates"]) * traced_probe.slowdown()))
    m = {
        "tensor.matmul.calls": (calls["tensor.matmul"], "count"),
        "tensor.matmul.s": (secs["tensor.matmul"], "s"),
        "tensor.matmul.flops": (cnt["tensor.matmul.flops"], "flop"),
        "tensor.matmul.flops_per_token": (cnt["tensor.matmul.flops"] / tokens, "flop/token"),
        "tensor.op_calls": (tracer.op_calls(), "count"),
        "tensor.op_calls_per_request": (tracer.op_calls() / phase["attempted"], "count/op"),
        "tensor.out_bytes": (cnt["tensor.out_bytes"], "B"),
        "tensor.backward.calls": (calls["tensor.backward"], "count"),
        "tensor.backward.s": (secs["tensor.backward"], "s"),
        "transformer.greedy_decode_batch.s":
            (secs["transformer.Transformer.greedy_decode_batch"], "s"),
        "transformer.greedy_decode_batch.tokens":
            (cnt["transformer.greedy_decode_batch.tokens"], "count"),
        "transformer.encode_batch.calls": (calls["transformer.Transformer.encode_batch"], "count"),
        "transformer.encode_batch.rows": (cnt["transformer.encode_batch.rows"], "count"),
        "transformer.encode_batch.s": (secs["transformer.Transformer.encode_batch"], "s"),
        "transformer.encode_batch.rows_per_sentence":
            (cnt["transformer.encode_batch.rows"] / sentences, "rows/sentence"),
        "transformer.sequence_logprob_batch.calls":
            (calls["transformer.Transformer.sequence_logprob_batch"], "count"),
        "transformer.sequence_logprob_batch.rows":
            (cnt["transformer.sequence_logprob_batch.rows"], "count"),
        "transformer.sequence_logprob_batch.s":
            (secs["transformer.Transformer.sequence_logprob_batch"], "s"),
        "nar.nar_logits_batch.calls": (calls["nar.NARTransformer.nar_logits_batch"], "count"),
        "nar.nar_logits_batch.rows": (cnt["nar.nar_logits_batch.rows"], "count"),
        "nar.nar_logits_batch.s": (secs["nar.NARTransformer.nar_logits_batch"], "s"),
        "nar.nar_greedy_emit_batch.s": (secs["nar.NARTransformer.nar_greedy_emit_batch"], "s"),
        "lengths.length_parallel_decode_corpus.s":
            (secs["lengths.length_parallel_decode_corpus"], "s"),
        "lengths.candidates_per_sentence":
            (cnt["nar.nar_greedy_emit_batch.rows"] / sentences, "count"),
        "distill.distill_corpus.s": (secs["distill.distill_corpus"], "s"),
        "distill.dropped": (cnt["distill.dropped"], "count"),
        "training.make_batches.s": (secs["training.make_batches"], "s"),
        "training.batch_loss.s": (secs["training.batch_loss"], "s"),
        "training.Adam.step.s": (secs["training.Adam.step"], "s"),
        "training.dataset_loss.s": (secs["training.dataset_loss"], "s"),
        "training.steps": (steps, "count"),
        "training.rows_per_step": (cnt["training.step_rows"] / steps if steps else 0.0, "rows/step"),
        "evaluate.corpus_bleu.s": (secs["evaluate.corpus_bleu"], "s"),
        "tasks.generate_corpus.s": (secs["tasks.generate_corpus"], "s"),
        "tasks.generate_monolingual.s": (secs["tasks.generate_monolingual"], "s"),
        "checkpoint.save_checkpoint.s": (secs["checkpoint.save_checkpoint"], "s"),
        "checkpoint.load_model.s": (secs["checkpoint.load_model"], "s"),
        "checkpoint.bytes": (cnt["checkpoint.bytes"], "B"),
        "trace.overhead_pct": (100.0 * (overhead - 1.0), "%"),
    }
    return workload, phase, m


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.use_source_tree()
    except FileNotFoundError as err:
        print(f"error: {err}; run from the root of a narlab checkout", file=sys.stderr)
        return 2
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    models = ensure_models()
    measure = per_layer if args.trace else end_to_end
    workload, phase, metrics = measure(cls, models, args)
    failed_checks, correct, notes = workload.check()
    print(f"# checks: {json.dumps(notes, sort_keys=True)}", file=sys.stderr)
    failed = phase["failed"] + failed_checks * phase["rounds"]
    correct = correct and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": bool(correct),
        "attempted": phase["attempted"],
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
