"""The acceptance gate: nine end-to-end properties the project is
accountable for, each printing one verdict line.

Unlike the unit suites this file trains real (small) models, so it
dominates the suite's runtime.  Students train through the CLI's path,
``training.train_student``.  All seeds are pinned; every number here
is reproducible to the byte.
"""

import time

import numpy as np
import pytest

from narlab.cli import main
from narlab.config import OUTPUT_ROOT_ENV
from narlab.distill import (
    MONOLINGUAL,
    PARALLEL,
    dedup_adjacent,
    distill_corpus,
    strip_origin,
)
from narlab.evaluate import b_sweep, bucket_bleu, corpus_bleu, loss_gap_analysis
from narlab.lengths import (
    LengthPolicy,
    candidate_lengths,
    gold_length_decode,
    length_parallel_decode_corpus,
)
from narlab.nar import NARTransformer
from narlab.tasks import TaskSpec, generate_corpus, generate_monolingual
from narlab.training import (
    TrainConfig,
    batch_loss,
    dataset_loss,
    lr_schedule,
    smoothed_ce_from_logits,
    train,
    train_student,
)
from narlab.transformer import ModelConfig, Transformer
from narlab.util import rng_for
from gradcheck import grad_check
from oracles import rerank_pick
from tiny_pipeline import commands, opts, tree_bytes

REPORT_LINES = []


def verdict(n: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {n} {status}: {label}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    REPORT_LINES.append(line)
    assert ok, line


# ---------------------------------------------------------------------
# shared, expensive fixtures (built lazily, in criterion order)
# ---------------------------------------------------------------------

# the desk-scale training recipe, TrainConfig's defaults as in
# configs/desk.yaml: the small batch buys the schedule enough optimizer
# steps inside 30 epochs, and the short warmup halves the mid-training lr
# so the valid-loss bounce stays inside the patience window
DESK_TRAIN = TrainConfig()
# family students train a fixed budget with early stopping disabled
# (patience == max_epochs): the mono-fraction comparison needs every run
# to fit its data fully, otherwise an early stop on the small 0-mono
# corpus masks the overfitting gap the family is meant to expose
STUDENT_TRAIN = TrainConfig(batch_tokens=512, warmup_steps=100,
                            max_epochs=40, patience_epochs=40)
# the duplication family feeds the B-sweep, not the gap analysis, so its
# students keep the stock early stopping and a lighter budget
DUP_STUDENT_TRAIN = TrainConfig(batch_tokens=1024, warmup_steps=200,
                                max_epochs=20)
FRACTIONS = (0.0, 0.25, 0.5, 1.0)
# the parallel subset is kept small on purpose: a 99%+ teacher's outputs
# on mapped_reversal are so clean that a few hundred pairs already
# generalize perfectly, leaving no train-test gap for the monolingual
# fractions to shrink; 100 pairs starve the 0-mono run into overfitting
N_TRAIN_SUB = 100
N_MONO_SUB = 6000


def exact_match_accuracy(teacher, pairs) -> float:
    hyps = teacher.greedy_decode_batch([s for s, _ in pairs])
    return float(np.mean([h == t for h, (_, t) in zip(hyps, pairs)]))


@pytest.fixture(scope="session")
def reversal_corpus():
    spec = TaskSpec(kind="mapped_reversal", perm_seed=0)
    splits = generate_corpus(spec, 8000, seed=1)
    mono = generate_monolingual(spec, 32000, seed=1)
    return spec, splits, mono


@pytest.fixture(scope="session")
def desk_teacher(reversal_corpus):
    spec, splits, _ = reversal_corpus
    model = Transformer(ModelConfig(vocab_size=spec.vocab.size),
                        seed=DESK_TRAIN.seed)
    t0 = time.time()
    records = train(model, splits["train"], DESK_TRAIN, splits["valid"])
    wall = time.time() - t0
    acc = exact_match_accuracy(model, splits["valid"][:1000])
    return {"model": model, "wall": wall, "epochs": len(records), "acc": acc}


def distilled(teacher, sources, origin=PARALLEL) -> list:
    """The teacher's (src, tgt) training pairs for ``sources``."""
    return strip_origin(distill_corpus(teacher, sources, origin)[0])


@pytest.fixture(scope="session")
def reversal_family(reversal_corpus, desk_teacher):
    """Distilled subset + one student per monolingual fraction."""
    _, splits, mono = reversal_corpus
    teacher = desk_teacher["model"]
    par = distilled(teacher, [s for s, _ in splits["train"][:N_TRAIN_SUB]])
    mono_pairs = distilled(teacher, mono[:N_MONO_SUB], MONOLINGUAL)
    dist_valid, dist_test = (distilled(teacher, [s for s, _ in splits[split]])
                             for split in ("valid", "test"))
    family = {}
    for f in FRACTIONS:
        student, _, _, train_loss = train_student(teacher, par, mono_pairs, f, 0,
                                                  STUDENT_TRAIN, dist_valid)
        family[f] = {
            "student": student,
            "train_loss": train_loss,
            "test_loss": dataset_loss(student, dist_test, STUDENT_TRAIN.label_smoothing),
        }
    return {"teacher": teacher, "students": family, "dist_test": dist_test}


@pytest.fixture(scope="session")
def duplication_family():
    """even_duplication teacher + students at fractions 0 and 1."""
    spec = TaskSpec(kind="even_duplication", perm_seed=0)
    splits = generate_corpus(spec, 3000, seed=1)
    mono = generate_monolingual(spec, 6000, seed=1)
    teacher = Transformer(ModelConfig(vocab_size=spec.vocab.size),
                          seed=DESK_TRAIN.seed)
    train(teacher, splits["train"], DESK_TRAIN, splits["valid"])
    par = distilled(teacher, [s for s, _ in splits["train"]])
    mono_pairs = distilled(teacher, mono, MONOLINGUAL)
    dist_valid = distilled(teacher, [s for s, _ in splits["valid"]])
    students = {}
    for f in (0.0, 1.0):  # C is left at the f1.0 corpus's
        students[f], _, C, _ = train_student(teacher, par, mono_pairs, f, 0,
                                             DUP_STUDENT_TRAIN, dist_valid)
    return {"teacher": teacher, "students": students, "C": C, "test": splits["test"]}


# ---------------------------------------------------------------------
# the nine criteria
# ---------------------------------------------------------------------

def test_criterion_1_gradient_integrity():
    cfg = ModelConfig(vocab_size=12, num_layers=2, num_heads=2, model_dim=16,
                      hidden_dim=32, max_len=12).as_nar()
    model = NARTransformer(cfg, seed=3)
    src = np.array([[4, 5, 6], [7, 8, 9]])
    tgt = np.array([[5, 4, 6, 7], [9, 8, 7, 6]])

    def loss(*params):
        return batch_loss(model, src, tgt, eps=0.1)[0]

    names = sorted(model.params)
    assert "soft_copy.rho" in names
    assert "decoder.pos_embedding" in names
    t0 = time.time()
    res = grad_check(loss, [model.params[n] for n in names], tol=1e-4)
    wall = time.time() - t0
    worst = max(res.entries, key=lambda e: e.max_err)
    verdict(1, "NAR gradients match finite differences",
            res.passed and wall <= 120.0,
            f"{len(names)} tensors, max rel err {res.max_err:.2e} "
            f"({names[worst.index]}), max abs err {res.max_abs_err:.2e}, "
            f"{res.refined} coords refined, {wall:.0f}s")


def test_criterion_2_teacher_convergence(desk_teacher):
    acc, wall = desk_teacher["acc"], desk_teacher["wall"]
    verdict(2, "AR teacher >= 99% exact match within 30 epochs",
            acc >= 0.99 and desk_teacher["epochs"] <= 30 and wall <= 1800.0,
            f"acc {acc:.4f}, {desk_teacher['epochs']} epochs, {wall:.0f}s")


def test_criterion_3_distillation_fidelity(reversal_family):
    entry = reversal_family["students"][1.0]
    dist_test = reversal_family["dist_test"]
    refs = [t for _, t in dist_test]
    hyps = gold_length_decode(entry["student"], [s for s, _ in dist_test], refs)
    bleu = corpus_bleu(hyps, refs).bleu
    verdict(3, "gold-length student BLEU >= 90 vs teacher outputs",
            bleu >= 90.0, f"BLEU {bleu:.2f} on {len(dist_test)} held-out")


def test_criterion_4_monolingual_loss_gap(reversal_family):
    rows = loss_gap_analysis({
        f: {"train_loss": e["train_loss"], "test_loss": e["test_loss"]}
        for f, e in reversal_family["students"].items()
    })
    by_f = {r.fraction: r for r in rows}
    steps_ok = all(
        by_f[b].test_loss <= by_f[a].test_loss + 0.01
        for a, b in zip(FRACTIONS, FRACTIONS[1:])
    )
    gap_ok = by_f[1.0].gap < by_f[0.0].gap
    detail = " ".join(
        f"f={r.fraction}: test {r.test_loss:.4f} gap {r.gap:.4f}" for r in rows
    )
    verdict(4, "test CE non-increasing in mono fraction; gap shrinks",
            steps_ok and gap_ok, detail)


def test_criterion_5_b_sweep(duplication_family):
    fam = duplication_family
    cells = {name: b_sweep(fam["students"][f], fam["teacher"], fam["test"], [0, 1, 2, 3],
                           fam["C"])[0]
             for name, f in (("f0.0", 0.0), ("f1.0", 1.0))}
    gain = cells["f1.0"][3] - cells["f1.0"][0]
    mono_ok = all(cells["f1.0"][B] >= cells["f0.0"][B] for B in (0, 1, 2, 3))
    detail = ("f1.0 " + " ".join(f"B{B}={cells['f1.0'][B]:.2f}" for B in (0, 1, 2, 3))
              + " | f0.0 " + " ".join(f"B{B}={cells['f0.0'][B]:.2f}" for B in (0, 1, 2, 3)))
    verdict(5, "B=3 beats B=0 by >= 0.5 BLEU; mono never hurts",
            gain >= 0.5 and mono_ok, detail)


def test_criterion_6_length_buckets(reversal_family):
    dist_test = reversal_family["dist_test"]
    refs = [t for _, t in dist_test]
    srcs = [s for s, _ in dist_test]
    degradation = {}
    for f in (0.0, 1.0):
        hyps = gold_length_decode(reversal_family["students"][f]["student"], srcs, refs)
        rows = bucket_bleu(hyps, refs, srcs)
        present = [r.bleu for r in rows if r.bleu is not None]
        degradation[f] = present[0] - present[-1]
    verdict(6, "short->long BLEU degradation smaller with mono",
            degradation[1.0] < degradation[0.0],
            f"deg f1.0 {degradation[1.0]:.2f} < deg f0.0 {degradation[0.0]:.2f}")


def test_criterion_7_oracle_equivalences():
    rng = rng_for(0, "acceptance-oracles")
    # dedup vs linear scan, and idempotence
    def dedup_oracle(seq):
        out = []
        for x in seq:
            if not out or out[-1] != x:
                out.append(x)
        return out

    dedup_ok = True
    for _ in range(10000):
        seq = [int(x) for x in rng.integers(0, 5, size=int(rng.integers(0, 12)))]
        d = dedup_adjacent(seq)
        dedup_ok &= d == dedup_oracle(seq) and dedup_adjacent(d) == d

    # candidate windows vs brute force
    cand_ok = True
    for T in range(1, 21):
        for C in range(-3, 4):
            for B in range(0, 8):
                got = candidate_lengths(T, LengthPolicy(C=C, B=B))
                want = [L for L in range(1, T + C + B + 1)
                        if T + C - B <= L <= T + C + B] or [1]
                cand_ok &= got == want

    # length-parallel choice == argmax over candidates scored one by one
    cfg = ModelConfig(vocab_size=16, num_layers=1, num_heads=2, model_dim=16,
                      hidden_dim=32, max_len=32)
    student = NARTransformer(cfg.as_nar(), seed=0)
    teacher = Transformer(cfg, seed=1)
    policy = LengthPolicy(C=0, B=2)
    pick_ok = True
    for _ in range(200):
        src = [int(x) for x in rng.integers(4, 16, size=int(rng.integers(1, 9)))]
        pick = length_parallel_decode_corpus(student, teacher, [src], policy)[0]
        pick_ok &= pick == rerank_pick(student, teacher, src, policy)

    # BLEU worked examples
    b1 = corpus_bleu([[1, 2, 3, 4]], [[1, 2, 3, 4]])
    b2 = corpus_bleu([[7, 7, 7, 9]], [[7, 9, 8]])
    b3 = corpus_bleu([[1, 2, 3]], [[1, 2, 3, 4]])
    bleu_ok = (
        abs(b1.bleu - 100.0) < 1e-9
        and b2.bleu == 0.0 and abs(b2.precisions[0] - 2 / 4) < 1e-12
        and abs(b3.brevity_penalty - float(np.exp(1 - 4 / 3))) < 1e-12
    )
    verdict(7, "dedup/candidates/rerank/BLEU match their oracles",
            dedup_ok and cand_ok and pick_ok and bleu_ok,
            f"dedup {dedup_ok}, windows {cand_ok}, rerank {pick_ok}, bleu {bleu_ok}")


def test_criterion_8_schedule_and_loss_constants():
    tc = TrainConfig(peak_lr=0.003, warmup_steps=400)
    lr_peak = lr_schedule(tc.warmup_steps, tc, model_dim=64)
    lr_4w = lr_schedule(4 * tc.warmup_steps, tc, model_dim=64)
    sched_ok = abs(lr_peak - tc.peak_lr) <= 1e-6 and abs(lr_4w - tc.peak_lr / 2) <= 1e-9
    # pinned smoothed-CE example: V=4, eps=0.1, target 0,
    # probs [0.7, 0.1, 0.1, 0.1], fed in as logits log p
    from narlab.tensor import Tensor

    logits = Tensor(np.log(np.array([[0.7, 0.1, 0.1, 0.1]])))
    ce = smoothed_ce_from_logits(logits, np.array([0]), eps=0.1).item()
    ce_ok = abs(ce - 0.55136) <= 1e-4
    verdict(8, "lr(warmup)=peak, lr(4w)=peak/2, CE oracle 0.55136",
            sched_ok and ce_ok,
            f"lr {lr_peak:.6g}/{lr_4w:.6g}, ce {ce:.5f}")


def _run_tiny_pipeline(root, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(root))
    out = root / "run"
    for argv in commands(out, opts("run")):
        assert main(argv) == 0
    return out


def test_criterion_9_pipeline_determinism(tmp_path, monkeypatch):
    a = _run_tiny_pipeline(tmp_path / "a", monkeypatch)
    b = _run_tiny_pipeline(tmp_path / "b", monkeypatch)
    ta, tb = tree_bytes(a), tree_bytes(b)
    same_names = sorted(ta) == sorted(tb)
    diff = [k for k in ta if same_names and ta[k] != tb[k]]
    verdict(9, "seeded pipeline rerun is byte-identical (timings masked)",
            same_names and not diff,
            f"{len(ta)} files" + (f", differ: {diff}" if diff else ""))
