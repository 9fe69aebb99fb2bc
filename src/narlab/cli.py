"""Command-line pipeline driver.

Subcommands: gen-data, train-teacher, distill, train-student, translate,
evaluate, analyze.  Every command resolves one RunConfig (YAML file plus
dotted-key overrides), locks its run directory, and writes a resolved
config snapshot beside its outputs so seeded reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .checkpoint import checkpoint_digest, load_checkpoint, save_checkpoint
from .config import RunConfig, RunLock, load_config, run_dir, write_resolved
from .corpora import read_sentences, write_json, write_lines, write_pairs, write_sentences
from .distill import MONOLINGUAL, PARALLEL, dedup_adjacent, distill_corpus
from .evaluate import (DESK_BUCKET_EDGES, b_sweep, bucket_bleu, check_bucket_edges,
                       corpus_bleu, loss_gap_analysis)
from .lengths import (RANK_MODES, LengthPolicy, gold_length_decode,
                      length_parallel_decode_corpus)
from .nar import NARTransformer
from .tasks import generate_corpus, generate_monolingual
from .training import dataset_loss, train, train_student
from .transformer import AR, NAR, Transformer
from .vocab import N_RESERVED


class CommandError(RuntimeError):
    """User-facing failure: printed to stderr, exit code 2."""


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise CommandError(f"missing input {path} ({hint})")
    return path


def _resolve(args) -> RunConfig:
    return load_config(args.config, args.set or ())


def _check_lines(path, sentences, config, references: bool = False,
                 after_bos: bool = False) -> list:
    """``sentences`` as read from ``path``, once no line is empty or longer
    than the model ``config``'s ``max_len`` and every token is a content id
    of its vocabulary; otherwise a CommandError naming the first bad line.
    ``references`` skips the id check: distilled references may hold
    reserved ids.  ``after_bos`` marks lines the model reads after BOS,
    which leaves them ``max_len - 1`` positions."""
    limit = config.max_len - 1 if after_bos else config.max_len
    for lineno, s in enumerate(sentences, 1):
        bad = [t for t in s if not (references or N_RESERVED <= t < config.vocab_size)]
        if not s:
            reason = "empty line"
        elif bad:
            reason = f"token {bad[0]} is not a content id in [{N_RESERVED}, {config.vocab_size})"
        elif len(s) > limit:
            reason = (f"{len(s)} tokens{' plus BOS' if after_bos else ''} "
                      f"exceed max_len {config.max_len}")
        else:
            continue
        raise CommandError(f"{path}:{lineno}: {reason}")
    return sentences


def _read_aligned(*inputs) -> list:
    """The sentences of the file at each (path, hint) of ``inputs``, once each
    exists (else a CommandError with its hint) and all have as many lines
    (else a CommandError naming every file and its count)."""
    paths = [_require(Path(p), hint) for p, hint in inputs]
    texts = [read_sentences(p) for p in paths]
    if len({len(t) for t in texts}) > 1:
        counts = ", ".join(f"{p} has {len(t)}" for p, t in zip(paths, texts))
        raise CommandError(f"line counts differ: {counts}")
    return texts


def _read_scored(*inputs) -> list:
    """``_read_aligned(*inputs)``, once the files hold a sentence to score."""
    texts = _read_aligned(*inputs)
    if not texts[0]:
        raise CommandError(f"no sentences in {', '.join(str(p) for p, _ in inputs)}")
    return texts


def _read_pairs(directory: Path, split: str, config, hint: str,
                references: bool = False) -> list:
    """The pairs of ``split``.src / ``split``.tgt under ``directory``, read
    with ``hint`` for a missing file, once ``_check_lines`` passes both sides
    (the targets as references if ``references``, after BOS for an AR model)."""
    src_path, tgt_path = (directory / f"{split}.{ext}" for ext in ("src", "tgt"))
    srcs, tgts = _read_aligned((src_path, hint), (tgt_path, hint))
    _check_lines(src_path, srcs, config)
    _check_lines(tgt_path, tgts, config, references, after_bos=config.flavor == AR)
    return list(zip(srcs, tgts))


def _parse_option(option: str, value: str, parse, expected: str):
    """``parse(value)``, or a CommandError naming the option and its value."""
    try:
        return parse(value)
    except ValueError:
        raise CommandError(f"{option} {value!r} is not {expected}") from None


def _half_widths(value: str) -> list:
    B_values = [int(b) for b in value.split(",")]
    if min(B_values) < 0:
        raise ValueError("negative half-width")
    return B_values


def _length_offset(C, extra, path, option: str) -> int:
    """C as given, or else the offset stored in the student checkpoint at
    ``path``; a CommandError if neither gives one."""
    if C is None and extra.get("length_offset") is None:
        raise CommandError(f"{path} stores no length_offset: give C with {option}, "
                           f"or use a student checkpoint that train-student wrote")
    return C if C is not None else int(extra["length_offset"])


def _teacher_path(args, out: Path) -> Path:
    """The teacher checkpoint: ``--teacher``, or else the run directory's."""
    return _require(Path(args.teacher) if args.teacher else out / "teacher.ckpt",
                    "run train-teacher, or pass --teacher")


def _read_json(path: Path, hint: str) -> dict:
    """The JSON object in the file at ``path``, once it exists (else a
    CommandError with ``hint``) and holds one (else a CommandError naming it)."""
    try:
        obj = json.loads(_require(path, hint).read_text())
    except json.JSONDecodeError as exc:
        raise CommandError(f"{path} is not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise CommandError(f"{path} does not hold a JSON object")
    return obj


def _check_teacher(meta_path: Path, teacher_path: Path, remedy: str) -> str:
    """The digest of the checkpoint at ``teacher_path``, once the distill
    meta.json at ``meta_path`` (if it exists) records that same teacher."""
    digest = checkpoint_digest(teacher_path)
    if meta_path.exists():
        old = _read_json(meta_path, "distill writes it").get("teacher_digest")
        if old != digest:
            raise CommandError(
                f"distilled corpus in {meta_path.parent} was produced by a different "
                f"teacher than {teacher_path} (digest {old} != {digest}); {remedy}"
            )
    return digest


def _loss_text(loss) -> str:
    """Four decimals, or "none" where there were no pairs to take a loss on."""
    return "none" if loss is None else f"{loss:.4f}"


def _load_model(path, flavor: str) -> tuple:
    """(model, checkpoint extras) from a checkpoint that must hold ``flavor``."""
    config, params, extra = load_checkpoint(path)
    if config.flavor != flavor:
        raise CommandError(f"{path} holds a model of flavor {config.flavor}, "
                           f"expected {flavor}")
    return (NARTransformer if flavor == NAR else Transformer)(config, params), extra


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg = _resolve(args)
    out = run_dir(cfg)
    with RunLock(out):
        write_resolved(cfg, out)
        corpus = generate_corpus(cfg.task, cfg.data.n_pairs, cfg.data.seed)
        n_mono = int(round(cfg.data.n_pairs * cfg.data.mono_ratio))
        mono = generate_monolingual(cfg.task, n_mono, cfg.data.seed) if n_mono else []
        data_dir = out / "data"
        for split, pairs in corpus.items():
            write_pairs(data_dir, split, pairs)
        write_sentences(data_dir / "mono.txt", mono)
        write_json(data_dir / "meta.json", {
            "task": asdict(cfg.task),
            "sizes": {k: len(v) for k, v in corpus.items()},
            "mono_size": len(mono),
            "vocab_size": cfg.task.vocab.size,
            "seed": cfg.data.seed,
        })
    for split, pairs in corpus.items():
        print(f"{split}: {len(pairs)} pairs")
    print(f"mono: {len(mono)} sentences")
    return 0


def cmd_train_teacher(args) -> int:
    cfg = _resolve(args)
    out = run_dir(cfg)
    model = Transformer(cfg.model_config(AR), seed=cfg.train.seed)
    train_pairs, valid_pairs = (_read_pairs(out / "data", split, model.config,
                                            "run gen-data first")
                                for split in ("train", "valid"))
    with RunLock(out):
        write_resolved(cfg, out)
        records = train(model, train_pairs, cfg.train, valid_pairs,
                        curves_path=out / "teacher_curves.jsonl", log=print)
        save_checkpoint(out / "teacher.ckpt", model.config, model.params, {
            "role": "teacher",
            "task": asdict(cfg.task),
            "train": asdict(cfg.train),
            "epochs": len(records),
            "final_valid_loss": records[-1].valid_loss,
        })
    print(f"teacher: {len(records)} epochs, final valid loss "
          f"{_loss_text(records[-1].valid_loss)} -> {out / 'teacher.ckpt'}")
    return 0


def cmd_distill(args) -> int:
    cfg = _resolve(args)
    out = run_dir(cfg)
    teacher_path = _teacher_path(args, out)
    dist_dir = out / "distill"
    meta_path = dist_dir / "meta.json"
    digest = _check_teacher(meta_path, teacher_path, "remove the directory to re-distill")
    teacher, _ = _load_model(teacher_path, AR)
    sources = {}
    for split, name in (("train", "train.src"), ("valid", "valid.src"),
                        ("test", "test.src"), ("mono", "mono.txt")):
        path = _require(out / "data" / name, "run gen-data first")
        sources[split] = _check_lines(path, read_sentences(path), teacher.config)
    with RunLock(out):
        write_resolved(cfg, out)
        counts, dropped = {}, {}
        for split, srcs in sources.items():
            origin = MONOLINGUAL if split == "mono" else PARALLEL
            triples, n_drop = distill_corpus(teacher, srcs, origin)
            write_pairs(dist_dir, split, [(s, t) for s, t, _ in triples])
            counts[split], dropped[split] = len(triples), n_drop
        write_json(meta_path, {
            "teacher_digest": digest,
            "counts": counts,
            "dropped": dropped,
        })
    for split, n in counts.items():
        print(f"{split}: {n} distilled pairs ({dropped[split]} dropped)")
    return 0


def cmd_train_student(args) -> int:
    cfg = _resolve(args)
    out = run_dir(cfg)
    teacher_path = _teacher_path(args, out)
    dist_dir = out / "distill"
    meta_path = _require(dist_dir / "meta.json",
                         "run distill to its end: it writes meta.json last")
    digest = _check_teacher(meta_path, teacher_path, "pass the teacher that distilled it")
    config = cfg.model_config(NAR)
    splits = {split: _read_pairs(dist_dir, split, config, "run distill first",
                                 references=True)
              for split in ("train", "mono", "valid", "test")}
    teacher, _ = _load_model(teacher_path, AR)
    differs = [k for k, v in asdict(teacher.config.as_nar()).items() if getattr(config, k) != v]
    if differs:
        raise CommandError(f"{teacher_path} holds a model with {differs[0]} "
                           f"{getattr(teacher.config, differs[0])}, but the run config "
                           f"gives {differs[0]} {getattr(config, differs[0])}")
    with RunLock(out):
        write_resolved(cfg, out)
        student, records, C_hat, train_loss = train_student(
            teacher, splits["train"], splits["mono"], cfg.distill.mono_fraction,
            cfg.distill.mix_seed, cfg.train, splits["valid"],
            curves_path=out / "student_curves.jsonl", log=print)
        save_checkpoint(out / "student.ckpt", student.config, student.params, {
            "role": "student",
            "task": asdict(cfg.task),
            "train": asdict(cfg.train),
            "mono_fraction": cfg.distill.mono_fraction,
            "length_offset": C_hat,
            "teacher_digest": digest,
            "epochs": len(records),
            "final_valid_loss": records[-1].valid_loss,
        })
        eval_report = {
            "train_loss": train_loss,
            "valid_loss": dataset_loss(student, splits["valid"], cfg.train.label_smoothing),
            "test_loss": dataset_loss(student, splits["test"], cfg.train.label_smoothing),
            "mono_fraction": cfg.distill.mono_fraction,
            "epochs": len(records),
        }
        write_json(out / "student_eval.json", eval_report)
    print(f"student: {len(records)} epochs, C={C_hat}, "
          f"train {eval_report['train_loss']:.4f} "
          f"test {_loss_text(eval_report['test_loss'])} -> {out / 'student.ckpt'}")
    return 0


def cmd_translate(args) -> int:
    cfg = _resolve(args)
    out = run_dir(cfg)
    student_path = Path(args.student) if args.student else out / "student.ckpt"
    student, s_extra = _load_model(_require(student_path, "run train-student first"), NAR)
    gold = [(args.gold_lengths, "--gold-lengths reference file")] if args.gold_lengths else []
    srcs, *refs = _read_aligned((args.input, "input sentence file"), *gold)
    _check_lines(args.input, srcs, student.config)
    for r in refs:
        _check_lines(args.gold_lengths, r, student.config, references=True)
    with RunLock(out):
        write_resolved(cfg, out)
    length = cfg.length
    if refs:
        hyps = gold_length_decode(student, srcs, refs[0])
    else:
        policy = LengthPolicy(C=_length_offset(length.C, s_extra, student_path,
                                               "-O length.C=<C>"), B=length.B)
        teacher, _ = _load_model(_teacher_path(args, out), AR)
        hyps = length_parallel_decode_corpus(student, teacher, srcs, policy,
                                             length.rank_mode)
    if length.dedup:
        hyps = [dedup_adjacent(h) for h in hyps]
    write_sentences(Path(args.output), hyps)
    print(f"translated {len(srcs)} sentences -> {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    hyps, refs = _read_scored((args.hyp, "hypothesis file"), (args.ref, "reference file"))
    report = corpus_bleu(hyps, refs, smooth=args.smooth)
    precisions = " ".join(f"P{i + 1} {p * 100:.1f}" for i, p in
                          enumerate(report.precisions))
    print(f"BLEU {report.bleu:.2f}  BP {report.brevity_penalty:.3f}  "
          f"{precisions}  hyp {report.hyp_tokens}  ref {report.ref_tokens}")
    if args.output:
        write_json(Path(args.output), {
            "bleu": report.bleu,
            "precisions": report.precisions,
            "brevity_penalty": report.brevity_penalty,
            "hyp_tokens": report.hyp_tokens,
            "ref_tokens": report.ref_tokens,
            "smooth": bool(args.smooth),
        })
    return 0


def _parse_tagged(items, what: str) -> dict:
    out = {}
    for item in items or ():
        if "=" not in item:
            raise CommandError(f"{what} {item!r} must look like NAME=PATH")
        name, path = item.split("=", 1)
        out[name] = path
    if not out:
        raise CommandError(f"at least one {what} is required")
    return out


def cmd_loss_gap(args) -> int:
    runs = {}
    for frac, d in _parse_tagged(args.run, "--run FRACTION=DIR").items():
        fraction = _parse_option("--run", frac, float, "a mono fraction")
        path = Path(d) / "student_eval.json"
        report = _read_json(path, "train-student writes it")
        for key in ("train_loss", "test_loss"):
            if type(report.get(key)) not in (int, float):  # a JSON true is no loss
                raise CommandError(f"{path} holds no number under {key!r}")
        runs[fraction] = report
    rows = loss_gap_analysis(runs)
    write_lines(Path(args.output), ["# fraction train_loss test_loss gap"] + [
        f"{r.fraction} {r.train_loss:.6f} {r.test_loss:.6f} {r.gap:.6f}" for r in rows])
    for r in rows:
        print(f"fraction {r.fraction}: train {r.train_loss:.4f} "
              f"test {r.test_loss:.4f} gap {r.gap:.4f}")
    return 0


def cmd_b_sweep(args) -> int:
    students = {name: (p, *_load_model(_require(Path(p), "student checkpoint"), NAR))
                for name, p in _parse_tagged(args.student, "--student NAME=CKPT").items()}
    teacher, _ = _load_model(_require(Path(args.teacher), "teacher checkpoint"), AR)
    B_values = _parse_option("--b-values", args.b_values, _half_widths,
                             "a comma list of nonnegative integers")
    sweeps = {}
    for name, (path, student, extra) in students.items():
        pairs = _read_pairs(Path(args.data), "test", student.config,
                            "--data holds test.src and test.tgt", references=True)
        sweeps[name] = b_sweep(student, teacher, pairs, B_values,
                               _length_offset(args.length_offset, extra, path,
                                              "--length-offset"),
                               rank_mode=args.rank_mode, smooth=args.smooth)
    lines = ["# variant B bleu"]
    for name, (cells, gold) in sorted(sweeps.items()):
        lines += [f"{name} {B} {cells[B]:.4f}" for B in B_values] + [f"{name} gold {gold:.4f}"]
        cells_text = "  ".join(f"B={B}: {cells[B]:.2f}" for B in B_values)
        print(f"{name}: {cells_text}  gold: {gold:.2f}")
    write_lines(Path(args.output), lines)
    return 0


def cmd_buckets(args) -> int:
    hyps, refs, srcs = _read_scored((args.hyp, "hypothesis file"),
                                    (args.ref, "reference file"), (args.src, "source file"))
    edges = check_bucket_edges(_parse_option(
        "--edges", args.edges,
        lambda v: [(int(lo), int(hi)) for lo, hi in (part.split("-") for part in v.split(","))],
        "a comma list of lo-hi intervals",
    ) if args.edges else DESK_BUCKET_EDGES)
    for lineno, s in enumerate(srcs, 1):
        if not any(lo <= len(s) <= hi for lo, hi in edges):
            raise CommandError(f"{args.src}:{lineno}: source length {len(s)} "
                               f"not covered by any bucket")
    rows = bucket_bleu(hyps, refs, srcs, edges, smooth=args.smooth)
    lines = ["# lo hi count bleu"]
    for row in rows:
        (lo, hi), absent = row.interval, row.bleu is None
        lines.append(f"{lo} {hi} {row.count} {'absent' if absent else f'{row.bleu:.4f}'}")
        print(f"[{lo}, {hi}]: n={row.count} BLEU {'absent' if absent else f'{row.bleu:.2f}'}")
    write_lines(Path(args.output), lines)
    print(f"total {len(srcs)}")
    return 0


# ---------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------

TEACHER_HELP = "teacher checkpoint (default: teacher.ckpt in the run directory)"


def _add_config_args(p):
    p.add_argument("-c", "--config", help="YAML run configuration file")
    p.add_argument("-O", "--set", action="append", metavar="KEY=VALUE",
                   help="dotted-path config override, e.g. train.peak_lr=0.01")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="narlab",
        description="non-autoregressive translation lab: distill an AR "
                    "teacher into a parallel-decoding student",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic corpora")
    _add_config_args(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train-teacher", help="train the AR teacher")
    _add_config_args(p)
    p.set_defaults(fn=cmd_train_teacher)

    p = sub.add_parser("distill", help="decode all sources with the teacher")
    _add_config_args(p)
    p.add_argument("--teacher", help=TEACHER_HELP)
    p.set_defaults(fn=cmd_distill)

    p = sub.add_parser("train-student", help="train the NAR student")
    _add_config_args(p)
    p.add_argument("--teacher", help=TEACHER_HELP)
    p.set_defaults(fn=cmd_train_student)

    p = sub.add_parser("translate", help="length-parallel decode a file")
    _add_config_args(p)
    p.add_argument("-i", "--input", required=True, help="source sentence file")
    p.add_argument("-o", "--output", required=True, help="hypothesis file to write")
    p.add_argument("--student", help="student checkpoint (default: run dir)")
    p.add_argument("--teacher", help=TEACHER_HELP)
    p.add_argument("--gold-lengths", metavar="REF_FILE",
                   help="decode at each reference's true length (no reranking)")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("evaluate", help="corpus BLEU of a hypothesis file")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("-o", "--output", help="also write a JSON report here")
    p.add_argument("--smooth", action="store_true",
                   help="add-one smoothing for orders >= 2")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("analyze", help="paper-style analyses")
    asub = p.add_subparsers(dest="kind", required=True)

    q = asub.add_parser("loss-gap", help="train/test loss gap vs mono fraction")
    q.add_argument("--run", action="append", metavar="FRACTION=DIR",
                   required=True)
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(fn=cmd_loss_gap)

    q = asub.add_parser("b-sweep", help="BLEU vs candidate half-width")
    q.add_argument("--student", action="append", metavar="NAME=CKPT",
                   required=True)
    q.add_argument("--teacher", required=True)
    q.add_argument("--data", required=True,
                   help="directory holding test.src / test.tgt references")
    q.add_argument("--b-values", default="0,1,2,3")
    q.add_argument("--length-offset", type=int, metavar="C",
                   help="length offset (default: each student's stored offset)")
    q.add_argument("--rank-mode", choices=RANK_MODES, default=RANK_MODES[0])
    q.add_argument("--smooth", action="store_true")
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(fn=cmd_b_sweep)

    q = asub.add_parser("buckets", help="BLEU by source-length bucket")
    q.add_argument("--hyp", required=True)
    q.add_argument("--ref", required=True)
    q.add_argument("--src", required=True)
    q.add_argument("--edges", help="comma list of lo-hi intervals, e.g. 1-6,7-9,10-12")
    q.add_argument("--smooth", action="store_true")
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(fn=cmd_buckets)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CommandError, ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
