"""The three workloads: what each sets up, what its timed jobs do, how its
quality is scored and how its outputs are checked.

A workload's ``jobs()`` is one whole round of operations as a list of
(operations, call) pairs; the runner times each call and repeats rounds.
Every call returns (tokens, output); ``record`` sees the output outside the
timed region and says whether it matches the first round's.  All program
calls go through module attributes (``distill.distill_corpus``) so that a
traced run sees them.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import nullcontext

import numpy as np

import checks
import common
from narlab import checkpoint, distill, evaluate, lengths, tasks, training
from narlab.nar import NARTransformer
from narlab.tensor import Tensor
from narlab.transformer import ModelConfig

# the desk recipe's label smoothing, used for every held-out loss
EPS = 0.1


# benchmark-side random streams, independent of the program's own
REQUEST_STREAM, GRAD_CHECK_STREAM = 1, 2


def _stream(seed: int, stream: int):
    return np.random.default_rng([seed, stream])


def _oracle_pairs(spec, srcs) -> list:
    return [(s, tasks.task_oracle(spec, s)) for s in srcs]


class Workload:
    """Shared bookkeeping; subclasses define setup, jobs, quality, check."""

    name = ""
    min_jobs = 1  # jobs an untraced run must hold before it may stop
    # Scale the timed phase to the reference speed (speed.py).  Probe
    # blocks run between jobs, so they sample the machine evenly only where
    # jobs are short; beside jobs of seconds they widened the spread.
    scaled = False

    def __init__(self, models):
        self.models = models
        self.first: dict = {}

    def record(self, i: int, output) -> bool:
        """Keep the first round's output of job i; later rounds must match."""
        if i not in self.first:
            self.first[i] = output
            return True
        return self._same_output(self.first[i], output)

    def _same_output(self, a, b) -> bool:
        return a == b

    def sentences(self) -> int:
        """Source sentences one round processes (for per-sentence ratios)."""
        raise NotImplementedError


class DistillMono(Workload):
    """Teacher greedy decoding of a monolingual pool: distill_corpus."""

    name = "distill-mono"
    POOL = 2000  # monolingual sentences distilled by one job
    HELDOUT_DRAWS = 2000  # parallel draws; their test split scores the teacher
    EXACT_FLOOR = 0.9  # share of decodes that must equal task_oracle

    def setup(self, seed: int) -> None:
        self.spec = tasks.TaskSpec(**common.REVERSAL)
        self.teacher = checkpoint.load_model(self.models / "teacher.ckpt")
        self.pool = tasks.generate_monolingual(self.spec, self.POOL, seed)
        self.heldout = tasks.generate_corpus(self.spec, self.HELDOUT_DRAWS, seed)["test"]

    def jobs(self) -> list:
        return [(len(self.pool), self._distill)]

    def _distill(self):
        pairs, _ = distill.distill_corpus(self.teacher, self.pool, distill.MONOLINGUAL)
        # dropped (empty) decodes are missing from pairs; restore alignment
        outs, j = [], 0
        for src in self.pool:
            if j < len(pairs) and pairs[j][0] == list(src):
                outs.append(pairs[j][1])
                j += 1
            else:
                outs.append([])
        return sum(len(o) for o in outs), outs

    def sentences(self) -> int:
        return len(self.pool)

    def quality(self, paused=nullcontext) -> dict:
        self.refs = [tasks.task_oracle(self.spec, s) for s in self.pool]
        with paused():
            ce = training.dataset_loss(self.teacher, self.heldout, EPS)
        return {"bleu": evaluate.corpus_bleu(self.first[0], self.refs).bleu, "heldout_ce": ce}

    def check(self) -> tuple:
        outs = self.first[0]
        bad = checks.greedy_inconsistent(self.teacher, self.pool, outs)
        exact = np.mean([o == r for o, r in zip(outs, self.refs)])
        notes = {"greedy_inconsistent": len(bad), "exact_match": float(exact)}
        ok = exact >= self.EXACT_FLOOR
        # self-test: one output with two distinct tokens swapped
        i = next(k for k, o in enumerate(outs) if len(set(o)) > 1 and k not in bad)
        a = next(p for p in range(1, len(outs[i])) if outs[i][p] != outs[i][0])
        swapped = list(outs[i])
        swapped[0], swapped[a] = swapped[a], swapped[0]
        caught = bool(checks.greedy_inconsistent(self.teacher, [self.pool[i]], [swapped]))
        notes["selftest_swapped_token_rejected"] = caught
        return len(bad), ok and caught, notes


class TrainStudent(Workload):
    """Fixed-epoch NAR student training on even_duplication: training.train."""

    name = "train-student"
    PARALLEL_DRAWS = 1400  # parallel draws; valid and test splits are held out
    PARALLEL_PAIRS = 200  # parallel training pairs, taken from the train split
    MONO_RATIO = 4  # monolingual sources per parallel training pair
    EPOCHS = 4
    TRAIN = training.TrainConfig(batch_tokens=512, warmup_steps=100, max_epochs=EPOCHS,
                                 patience_epochs=EPOCHS, seed=common.MODEL_SEED)
    GRAD_ENTRIES = 32  # parameter entries checked against finite differences
    GRAD_BATCHES = 8  # seeded batches tried before the gradient check gives up

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.spec = tasks.TaskSpec(**common.DUPLICATION)
        splits = tasks.generate_corpus(self.spec, self.PARALLEL_DRAWS, seed)
        mono = tasks.generate_monolingual(self.spec, self.MONO_RATIO * self.PARALLEL_PAIRS, seed)
        # task_oracle targets stand in for a converged teacher's decodes
        self.corpus = splits["train"][: self.PARALLEL_PAIRS] + _oracle_pairs(self.spec, mono)
        self.heldout = splits["valid"] + splits["test"]
        config = ModelConfig(vocab_size=self.spec.vocab.size).as_nar()
        student = NARTransformer(config, seed=common.MODEL_SEED)
        path = common.OUT / "tmp" / f"student-init-{seed}.ckpt"
        checkpoint.save_checkpoint(path, config, student.params)
        self.init = checkpoint.load_model(path)
        path.unlink()

    def _fresh(self):
        params = {k: Tensor(p.data.copy(), requires_grad=True)
                  for k, p in self.init.params.items()}
        return NARTransformer(self.init.config, params)

    def steps_per_epoch(self) -> int:
        """Optimizer steps make_batches' grouping yields, counted apart."""
        groups = defaultdict(int)
        for src, tgt in self.corpus:
            groups[(len(src), len(tgt))] += 1
        bt = self.TRAIN.batch_tokens
        return sum(-(-n // max(1, bt // (ls + lt + 1))) for (ls, lt), n in groups.items())

    def jobs(self) -> list:
        return [(self.EPOCHS * self.steps_per_epoch(), self._train)]

    def _train(self):
        student = self._fresh()
        training.train(student, self.corpus, self.TRAIN, self.heldout)
        positions = sum(len(t) for _, t in self.corpus) + sum(len(t) for _, t in self.heldout)
        return self.EPOCHS * positions, student

    def _same_output(self, a, b) -> bool:
        return all(np.array_equal(a.params[k].data, b.params[k].data) for k in a.params)

    def sentences(self) -> int:
        return self.EPOCHS * (len(self.corpus) + len(self.heldout))

    def _gold_length_emits(self, student) -> list:
        hyps = [None] * len(self.heldout)
        by_shape = defaultdict(list)
        for i, (s, t) in enumerate(self.heldout):
            by_shape[(len(s), len(t))].append(i)
        for (_, lt), idxs in sorted(by_shape.items()):
            emitted = student.nar_greedy_emit_batch([self.heldout[i][0] for i in idxs], lt)
            for i, h in zip(idxs, emitted):
                hyps[i] = h
        return hyps

    def quality(self, paused=nullcontext) -> dict:
        student = self.first[0]
        with paused():
            ce = training.dataset_loss(student, self.heldout, EPS)
            hyps = self._gold_length_emits(student)
        self.heldout_ce = ce
        refs = [t for _, t in self.heldout]
        return {"bleu": evaluate.corpus_bleu(hyps, refs).bleu, "heldout_ce": ce}

    def check(self) -> tuple:
        student, ce = self.first[0], self.heldout_ce
        init_ce = training.dataset_loss(self._fresh(), self.heldout, EPS)
        rng = _stream(self.seed, GRAD_CHECK_STREAM)
        rejected = []
        # the first seeded batch (up to 4 pairs of one shape) whose loss is
        # smooth at most sampled entries; see checks.gradient_mismatches
        for attempt in range(1, self.GRAD_BATCHES + 1):
            src0, tgt0 = self.corpus[int(rng.integers(len(self.corpus)))]
            batch = [(s, t) for s, t in self.corpus
                     if len(s) == len(src0) and len(t) == len(tgt0)][:4]
            src_arr = np.array([s for s, _ in batch], dtype=np.int64)
            tgt_arr = np.array([t for _, t in batch], dtype=np.int64)
            grads = checks.backward_gradients(student, src_arr, tgt_arr, EPS)
            entries = checks.sample_entries(student.params, self.GRAD_ENTRIES, rng)
            bad, unsure = checks.gradient_mismatches(student, src_arr, tgt_arr, EPS,
                                                     grads, entries)
            rejected += bad
            if len(unsure) <= self.GRAD_ENTRIES // 4:
                break
        notes = {"heldout_ce": ce, "init_ce": init_ce, "grad_batches_tried": attempt,
                 "grad_mismatches": len(rejected), "grad_inconclusive": len(unsure)}
        # self-test: one gradient entry perturbed
        name, k = next(e for e in entries if e not in unsure)
        corrupted = dict(grads)
        corrupted[name] = grads[name].copy()
        at = np.unravel_index(k, grads[name].shape)
        corrupted[name][at] += 0.01 * (1.0 + abs(grads[name][at]))
        caught = bool(checks.gradient_mismatches(student, src_arr, tgt_arr, EPS,
                                                 corrupted, [(name, k)])[0])
        notes["selftest_perturbed_gradient_rejected"] = caught
        ok = (bool(np.isfinite(ce)) and ce < init_ce and not rejected and caught
              and len(unsure) <= self.GRAD_ENTRIES // 4)
        return 0, ok, notes


class TranslateRequests(Workload):
    """Closed-loop single client: length-parallel decoding with reranking."""

    name = "translate-requests"
    POOL = 1200  # monolingual sentences requests draw from
    REQUESTS = 250  # requests in one round
    # A round has a fixed length mix, so its cost hardly depends on the
    # seed: single sentences cycle through the source lengths, and each
    # document holds DOC_PER_LENGTH sentences of every length.  Documents
    # sit at seeded positions; four rounds hold 20 of them, so p99 (the
    # 10th slowest of 1000 requests) always falls among documents.
    DOCS, DOC_PER_LENGTH = 5, 2
    B = 3  # half-width: 2B + 1 = 7 candidate lengths
    min_jobs = 1000  # at least ten samples beyond p99
    scaled = True  # requests take 20-400 ms
    CHECKED_SENTENCES = 60  # sentences re-derived one at a time per run

    def setup(self, seed: int) -> None:
        self.spec = tasks.TaskSpec(**common.REVERSAL)
        self.teacher = checkpoint.load_model(self.models / "teacher.ckpt")
        config, params, extra = checkpoint.load_checkpoint(self.models / "student.ckpt")
        self.student = NARTransformer(config, params)
        self.C = int(extra["C"])
        self.policy = lengths.LengthPolicy(C=self.C, B=self.B)
        self.pool = tasks.generate_monolingual(self.spec, self.POOL, seed)
        rng = _stream(seed, REQUEST_STREAM)
        by_len = defaultdict(list)
        for src in self.pool:
            by_len[len(src)].append(src)
        lens = range(self.spec.min_len, self.spec.max_len + 1)
        singles = [lens[i % len(lens)] for i in range(self.REQUESTS - self.DOCS)]
        rng.shuffle(singles)
        doc_at = set(rng.choice(self.REQUESTS, self.DOCS, replace=False).tolist())
        self.requests = []
        for pos in range(self.REQUESTS):
            want = [L for L in lens for _ in range(self.DOC_PER_LENGTH)] if pos in doc_at \
                else [singles.pop()]
            rng.shuffle(want)
            self.requests.append([by_len[L][int(rng.integers(len(by_len[L])))] for L in want])

    def jobs(self) -> list:
        return [(1, lambda r=r: self._serve(r)) for r in self.requests]

    def _serve(self, request):
        outs = lengths.length_parallel_decode_corpus(self.student, self.teacher, request,
                                                     self.policy, "sum_logprob")
        return sum(len(o) for o in outs), outs

    def sentences(self) -> int:
        return sum(len(r) for r in self.requests)

    def quality(self, paused=nullcontext) -> dict:
        hyps = [o for i in range(len(self.requests)) for o in self.first[i]]
        srcs = [s for r in self.requests for s in r]
        refs = [tasks.task_oracle(self.spec, s) for s in srcs]
        with paused():
            ce = training.dataset_loss(self.student, _oracle_pairs(self.spec, self.pool), EPS)
        return {"bleu": evaluate.corpus_bleu(hyps, refs).bleu, "heldout_ce": ce}

    def check(self) -> tuple:
        C, B = self.C, self.B
        failed_requests = set()
        for i, req in enumerate(self.requests):
            if any(not len(s) + C - B <= len(o) <= len(s) + C + B
                   for s, o in zip(req, self.first[i])):
                failed_requests.add(i)
        sample = [(i, src, out) for i, req in enumerate(self.requests)
                  for src, out in zip(req, self.first[i])][: self.CHECKED_SENTENCES]
        faults = defaultdict(int)
        selftest = None
        for i, src, out in sample:
            found = checks.translation_faults(self.student, self.teacher, src, out, C, B)
            for f in found:
                faults[f] += 1
                failed_requests.add(i)
            if selftest is None:
                # self-test: the lowest-scoring candidate instead of the best
                cands = checks.candidates(self.student, self.teacher, src, C, B)
                worst_score, worst = min(cands)
                if worst_score < max(cands)[0] - checks.SCORE_TOL:
                    selftest = "rerank" in checks.translation_faults(
                        self.student, self.teacher, src, worst, C, B)
        notes = {"checked_sentences": len(sample), **faults,
                 "selftest_non_best_candidate_rejected": bool(selftest)}
        return len(failed_requests), bool(selftest), notes


WORKLOADS = {w.name: w for w in (DistillMono, TrainStudent, TranslateRequests)}
