"""Train the models the runs load: the desk-recipe AR teacher on
mapped_reversal, and a NAR student initialised from it and trained on its
decodes of the training split.  Both train for a fixed number of epochs
with early stopping off, from fixed seeds, and are saved through
``narlab.checkpoint``.  run.py calls this once per checkout; it takes a
few minutes on one core.

    python3 perfbench/build.py
"""

from __future__ import annotations

import shutil
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of caches

import common  # noqa: E402

common.pin_blas_threads()
common.use_source_tree()

from narlab import checkpoint, distill, lengths, tasks, training  # noqa: E402
from narlab.nar import NARTransformer  # noqa: E402
from narlab.transformer import ModelConfig, Transformer  # noqa: E402


def fixed_budget(epochs: int, warmup: int) -> training.TrainConfig:
    return training.TrainConfig(batch_tokens=512, warmup_steps=warmup,
                                max_epochs=epochs, patience_epochs=epochs,
                                seed=common.MODEL_SEED)


def log(msg: str) -> None:
    print(f"[build] {msg}", file=sys.stderr, flush=True)


def main() -> int:
    target = common.build_dir()
    if (target / "student.ckpt").is_file():
        return 0
    tmp = target.with_name(target.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    t0 = time.perf_counter()

    spec = tasks.TaskSpec(**common.REVERSAL)
    splits = tasks.generate_corpus(spec, common.TEACHER_PAIRS, seed=common.TEACHER_DATA_SEED)
    config = ModelConfig(vocab_size=spec.vocab.size)
    teacher = Transformer(config, seed=common.MODEL_SEED)
    training.train(teacher, splits["train"], fixed_budget(common.TEACHER_EPOCHS, 200),
                   splits["valid"], log=log)
    checkpoint.save_checkpoint(tmp / "teacher.ckpt", config, teacher.params)
    log(f"teacher trained in {time.perf_counter() - t0:.0f}s")

    def distilled(split):
        pairs, _ = distill.distill_corpus(teacher, [s for s, _ in splits[split]],
                                          distill.PARALLEL)
        return distill.strip_origin(pairs)

    train_pairs, valid_pairs = distilled("train"), distilled("valid")
    student = NARTransformer(config.as_nar(), seed=common.MODEL_SEED)
    training.init_student_from_teacher(teacher.params, student.params)
    training.train(student, train_pairs, fixed_budget(common.STUDENT_EPOCHS, 100),
                   valid_pairs, log=log)
    checkpoint.save_checkpoint(tmp / "student.ckpt", student.config, student.params,
                               extra={"C": lengths.estimate_C(train_pairs)})
    log(f"student trained, {time.perf_counter() - t0:.0f}s in all")

    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
