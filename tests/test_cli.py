"""End-to-end exercises of the command-line pipeline on a tiny run.

One module-scoped fixture drives gen-data -> train-teacher -> distill ->
train-student -> translate -> evaluate with a deliberately small config;
the tests then pick over the artifacts.  Error paths get their own tiny
invocations.
"""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from narlab.checkpoint import (MAGIC, checkpoint_digest, load_checkpoint, load_model,
                               save_checkpoint)
from narlab.cli import build_parser, main
from narlab.config import OUTPUT_ROOT_ENV, RunConfig, load_config, write_resolved
from narlab.corpora import read_sentences
from narlab.distill import mix_monolingual
from narlab.lengths import LengthPolicy, candidate_lengths
from narlab.nar import NARTransformer
from narlab.training import dataset_loss
from narlab.transformer import ModelConfig, init_params
from tiny_pipeline import TINY, commands, opts, tree_bytes


def run_ok(*argv):
    assert main(list(argv)) == 0


def distilled(run, split) -> list:
    """The (source, target) pairs of a distilled split of ``run``."""
    return list(zip(*(read_sentences(run / "distill" / f"{split}.{ext}")
                      for ext in ("src", "tgt"))))


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    o = opts(out)
    for argv in commands(out, o):
        run_ok(*argv)
    run_ok("translate", *o, "-i", str(out / "distill" / "test.src"),
           "-o", str(out / "hyp_gold.txt"),
           "--gold-lengths", str(out / "distill" / "test.tgt"))
    run_ok("evaluate", "--hyp", str(out / "hyp_gold.txt"),
           "--ref", str(out / "distill" / "test.tgt"),
           "-o", str(out / "bleu.json"))
    return out


class TestPipelineArtifacts:
    def test_expected_files(self, run):
        for rel in [
            "resolved.yaml", "data/meta.json", "data/mono.txt",
            "teacher.ckpt", "teacher_curves.jsonl",
            "distill/meta.json", "student.ckpt", "student_curves.jsonl",
            "student_eval.json", "hyp.txt", "hyp_gold.txt", "bleu.json",
        ]:
            assert (run / rel).exists(), rel
        for split in ("train", "valid", "test"):
            for ext in ("src", "tgt"):
                assert (run / "data" / f"{split}.{ext}").exists()
                assert (run / "distill" / f"{split}.{ext}").exists()
        assert not (run / ".lock").exists()

    def test_meta_counts_match_files(self, run):
        meta = json.loads((run / "data" / "meta.json").read_text())
        assert sum(meta["sizes"].values()) == 200
        for split, n in meta["sizes"].items():
            assert len(read_sentences(run / "data" / f"{split}.src")) == n
        assert len(read_sentences(run / "data" / "mono.txt")) == meta["mono_size"]
        assert meta["vocab_size"] == 12

    def test_resolved_snapshot_reflects_overrides(self, run):
        d = yaml.safe_load((run / "resolved.yaml").read_text())
        assert d["task"]["n_content"] == 8
        assert d["model"]["model_dim"] == 16
        assert d["data"]["n_pairs"] == 200

    def test_curves_are_jsonl_with_one_line_per_epoch(self, run):
        _, _, extra = load_checkpoint(run / "teacher.ckpt")
        lines = (run / "teacher_curves.jsonl").read_text().splitlines()
        assert len(lines) == extra["epochs"] == 2
        for line in lines:
            rec = json.loads(line)
            assert {"epoch", "train_loss", "valid_loss", "lr",
                    "wall_seconds"} <= set(rec)

    def test_distill_meta_binds_teacher_digest(self, run):
        meta = json.loads((run / "distill" / "meta.json").read_text())
        assert meta["teacher_digest"] == checkpoint_digest(run / "teacher.ckpt")
        data_meta = json.loads((run / "data" / "meta.json").read_text())
        for split in ("train", "valid", "test"):
            kept, dropped = meta["counts"][split], meta["dropped"][split]
            assert kept + dropped == data_meta["sizes"][split]
            assert len(read_sentences(run / "distill" / f"{split}.src")) == kept

    def test_student_checkpoint_extras(self, run):
        _, _, extra = load_checkpoint(run / "student.ckpt")
        assert extra["role"] == "student"
        assert extra["mono_fraction"] == 1.0
        assert isinstance(extra["length_offset"], int)
        assert extra["teacher_digest"] == checkpoint_digest(run / "teacher.ckpt")
        meta = json.loads((run / "distill" / "meta.json").read_text())
        assert extra["teacher_digest"] == meta["teacher_digest"]
        report = json.loads((run / "student_eval.json").read_text())
        assert {"train_loss", "valid_loss", "test_loss", "mono_fraction",
                "epochs"} <= set(report)

    def test_student_eval_train_loss_is_the_saved_students(self, run):
        # the loss of the saved (last-k averaged) student over its mixed
        # corpus, as criterion 4 takes it; not the last epoch's running mean
        cfg = load_config(run / "resolved.yaml")
        mixed = mix_monolingual(distilled(run, "train"), distilled(run, "mono"),
                                cfg.distill.mono_fraction, cfg.distill.mix_seed)
        report = json.loads((run / "student_eval.json").read_text())
        assert report["train_loss"] == dataset_loss(load_model(run / "student.ckpt"), mixed,
                                                    cfg.train.label_smoothing)

    def test_student_eval_valid_loss_is_the_saved_students(self, run):
        # the saved student's loss over distilled valid, like train_loss and
        # test_loss; not the last epoch's loss from before averaging
        cfg = load_config(run / "resolved.yaml")
        report = json.loads((run / "student_eval.json").read_text())
        assert report["valid_loss"] == dataset_loss(load_model(run / "student.ckpt"),
                                                    distilled(run, "valid"),
                                                    cfg.train.label_smoothing)

    def test_translate_line_counts_and_tokens(self, run):
        srcs = read_sentences(run / "distill" / "test.src")
        hyps = read_sentences(run / "hyp.txt")
        assert len(hyps) == len(srcs)
        assert all(isinstance(t, int) and 0 <= t < 12 for h in hyps for t in h)

    def test_gold_lengths_are_exact(self, run):
        refs = read_sentences(run / "distill" / "test.tgt")
        hyps = read_sentences(run / "hyp_gold.txt")
        assert [len(h) for h in hyps] == [len(r) for r in refs]

    def test_evaluate_json_report(self, run):
        report = json.loads((run / "bleu.json").read_text())
        assert {"bleu", "precisions", "brevity_penalty", "hyp_tokens",
                "ref_tokens", "smooth"} <= set(report)
        assert 0.0 <= report["bleu"] <= 100.0
        assert report["smooth"] is False

    def test_gen_data_rerun_is_byte_identical(self, run):
        before = {p.name: p.read_bytes()
                  for p in sorted((run / "data").iterdir())}
        run_ok("gen-data", *opts(run))
        after = {p.name: p.read_bytes()
                 for p in sorted((run / "data").iterdir())}
        assert before == after

    def test_half_width_zero_no_dedup_is_raw_greedy(self, run, tmp_path):
        hyp = tmp_path / "b0.txt"
        run_ok("translate", *opts(run), "-i", str(run / "distill" / "test.src"),
               "-o", str(hyp), "-O", "length.B=0", "-O", "length.dedup=false")
        cfg, params, extra = load_checkpoint(run / "student.ckpt")
        student = NARTransformer(cfg, params)
        policy = LengthPolicy(C=extra["length_offset"], B=0)
        want = []
        for s in read_sentences(run / "distill" / "test.src"):
            (L,) = candidate_lengths(len(s), policy)
            want.append(student.nar_greedy_emit_batch([s], L)[0])
        assert read_sentences(hyp) == want

    def test_translate_snapshot_records_folded_flags(self, run, tmp_path):
        run_ok("translate", *opts(run), "-i", str(run / "distill" / "test.src"),
               "-o", str(tmp_path / "h.txt"), "-O", "length.B=2", "-O", "length.dedup=true")
        d = yaml.safe_load((run / "resolved.yaml").read_text())
        assert d["length"]["B"] == 2
        assert d["length"]["dedup"] is True


class TestAnalyzeCommands:
    def test_buckets(self, run, tmp_path, capsys):
        out = tmp_path / "buckets.txt"
        run_ok("analyze", "buckets", "--hyp", str(run / "hyp_gold.txt"),
               "--ref", str(run / "distill" / "test.tgt"),
               "--src", str(run / "distill" / "test.src"),
               "--edges", "1-4,5-6", "-o", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "# lo hi count bleu"
        assert len(lines) == 3
        assert "total" in capsys.readouterr().out

    def test_b_sweep(self, run, tmp_path):
        out = tmp_path / "sweep.txt"
        run_ok("analyze", "b-sweep",
               "--student", f"tiny={run / 'student.ckpt'}",
               "--teacher", str(run / "teacher.ckpt"),
               "--data", str(run / "distill"), "--b-values", "0,1",
               "--length-offset", "0", "-o", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "# variant B bleu"
        assert [ln.split()[1] for ln in lines[1:]] == ["0", "1", "gold"]

    def test_b_sweep_takes_stored_offset(self, run, tmp_path):
        cfg, params, extra = load_checkpoint(run / "student.ckpt")
        shifted = tmp_path / "shifted.ckpt"
        save_checkpoint(shifted, cfg, params, {**extra, "length_offset": 2})

        def sweep(*offset):
            out = tmp_path / "sweep.txt"
            run_ok("analyze", "b-sweep", "--student", f"s={shifted}",
                   "--teacher", str(run / "teacher.ckpt"), "--data", str(run / "distill"),
                   "--b-values", "0", *offset, "-o", str(out))
            return out.read_text()

        stored = sweep()
        assert stored == sweep("--length-offset", "2")
        assert stored != sweep("--length-offset", "0")

    def test_loss_gap(self, run, tmp_path):
        out = tmp_path / "gap.txt"
        run_ok("analyze", "loss-gap", "--run", f"0.0={run}",
               "--run", f"0.25={run}", "--run", f"0.5={run}",
               "--run", f"1.0={run}", "-o", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "# fraction train_loss test_loss gap"
        assert len(lines) == 5
        assert not out.with_suffix(".dat").exists()

    def test_loss_gap_missing_fraction_named(self, run, tmp_path, capsys):
        assert main(["analyze", "loss-gap", "--run", f"1.0={run}",
                     "-o", str(tmp_path / "gap.txt")]) == 2
        assert "0.5" in capsys.readouterr().err


class TestErrorPaths:
    def test_translate_without_student(self, tmp_path, capsys):
        assert main(["translate", *opts(tmp_path / "empty"),
                     "-i", "x.txt", "-o", "y.txt"]) == 2
        assert "missing input" in capsys.readouterr().err

    def test_train_student_defaults_to_run_teacher(self, run, tmp_path):
        # without --teacher, train-student takes the run directory's teacher.ckpt
        out = tmp_path / "run"
        shutil.copytree(run, out)
        (out / "student.ckpt").unlink()
        run_ok("train-student", *opts(out))
        assert (out / "student.ckpt").read_bytes() == (run / "student.ckpt").read_bytes()

    def test_empty_mono_pool_and_input_are_legal(self, run, tmp_path):
        # data.mono_ratio=0 writes an empty mono.txt; distill, train-student
        # and translate (of an empty file) take empty files as empty
        out = tmp_path / "run"
        shutil.copytree(run / "data", out / "data")
        shutil.copy(run / "teacher.ckpt", out / "teacher.ckpt")
        (out / "data" / "mono.txt").write_text("")
        (out / "empty.src").write_text("")
        run_ok("distill", *opts(out))
        run_ok("train-student", *opts(out))
        run_ok("translate", *opts(out), "-i", str(out / "empty.src"),
               "-o", str(out / "empty.hyp"))
        assert distilled(out, "mono") == []
        assert (out / "empty.hyp").read_text() == ""

    def test_no_validation_pairs_record_null_valid_loss(self, run, tmp_path):
        # empty valid splits: both trainers run every epoch and record no
        # valid loss in the curves, the checkpoint or student_eval.json
        out = tmp_path / "run"
        for part in ("data", "distill"):
            shutil.copytree(run / part, out / part)
            for ext in ("src", "tgt"):
                (out / part / f"valid.{ext}").write_text("")
        run_ok("train-teacher", *opts(out))
        shutil.copy(run / "teacher.ckpt", out / "teacher.ckpt")
        run_ok("train-student", *opts(out))
        epochs = load_config(out / "resolved.yaml").train.max_epochs
        for role in ("teacher", "student"):
            rows = (out / f"{role}_curves.jsonl").read_text().splitlines()
            assert [json.loads(r)["valid_loss"] for r in rows] == [None] * epochs
        assert load_checkpoint(out / "student.ckpt")[2]["final_valid_loss"] is None
        assert json.loads((out / "student_eval.json").read_text())["valid_loss"] is None

    def test_distill_refuses_foreign_corpus(self, run, tmp_path, capsys):
        out = tmp_path / "clone"
        shutil.copytree(run / "data", out / "data")
        shutil.copy(run / "teacher.ckpt", out / "teacher.ckpt")
        (out / "distill").mkdir()
        (out / "distill" / "meta.json").write_text(
            json.dumps({"teacher_digest": "beef"}))
        assert main(["distill", *opts(out)]) == 2
        assert "different" in capsys.readouterr().err

    def test_gold_lengths_line_count_mismatch(self, run, tmp_path, capsys):
        short = tmp_path / "short.txt"
        short.write_text("4 5\n")
        assert main(["translate", *opts(run),
                     "-i", str(run / "distill" / "test.src"),
                     "-o", str(tmp_path / "h.txt"),
                     "--gold-lengths", str(short)]) == 2
        n = len(read_sentences(run / "distill" / "test.src"))
        assert f"{run / 'distill' / 'test.src'} has {n}, {short} has 1" in capsys.readouterr().err

    def test_locked_run_dir(self, tmp_path, capsys):
        out = tmp_path / "busy"
        out.mkdir()
        (out / ".lock").write_text("123\n")
        assert main(["gen-data", *opts(out)]) == 2
        assert "locked" in capsys.readouterr().err

    def test_unknown_override_section(self, tmp_path, capsys):
        assert main(["gen-data", *opts(tmp_path / "r", ["nope.x=1"])]) == 2
        assert "unknown config sections" in capsys.readouterr().err

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_evaluate_missing_file(self, tmp_path, capsys):
        assert main(["evaluate", "--hyp", str(tmp_path / "no.txt"),
                     "--ref", str(tmp_path / "no.txt")]) == 2
        assert "missing input" in capsys.readouterr().err

    def test_wrong_flavor_checkpoint(self, run, tmp_path, capsys):
        assert main(["translate", *opts(run),
                     "-i", str(run / "distill" / "test.src"),
                     "-o", str(tmp_path / "h.txt"),
                     "--student", str(run / "teacher.ckpt")]) == 2
        assert "expected NAR" in capsys.readouterr().err


def _bad_config_file(tmp):
    path = tmp / "bad.yaml"
    path.write_text("model:\n  num_layers: [1,\n")
    return ["gen-data", "-c", str(path)], str(path)


def _bad_override(tmp):
    item = "model.num_layers=[1,"
    return ["gen-data", *opts(tmp / "r", [item])], item


def _override_of_wrong_type(item, name, with_file=False):
    """A gen-data call whose override ``item`` gives a value of the wrong
    type, after a config file with ``with_file``."""
    def case(tmp):
        if not with_file:
            return ["gen-data", *opts(tmp / "r", [item])], name
        path = tmp / "c.yaml"
        path.write_text("train:\n  peak_lr: 0.01\n")
        return ["gen-data", "-c", str(path), *opts(tmp / "r", [item])], f"config {path}: {name}"
    return case


def _old_snapshot(section, key, value):
    """A gen-data call on a resolved.yaml written while ``section`` still
    held ``key``."""
    def case(tmp):
        path = write_resolved(RunConfig(), tmp)
        d = yaml.safe_load(path.read_text())
        d[section][key] = value
        path.write_text(yaml.safe_dump(d, sort_keys=True))
        return ["gen-data", "-c", str(path)], str(path)
    return case


def _tiny_checkpoint(path, flavor="NAR", max_len=64):
    """An untrained model of vocabulary 12 and ``max_len``, saved at ``path``."""
    cfg = ModelConfig(vocab_size=12, num_layers=1, num_heads=2, model_dim=16,
                      hidden_dim=32, max_len=max_len, flavor=flavor)
    save_checkpoint(path, cfg, init_params(cfg, 0))
    return path


def _damaged_student(edit):
    """A translate call whose student checkpoint ``edit`` has damaged."""
    def case(tmp):
        path = _tiny_checkpoint(tmp / "student.ckpt")
        path.write_bytes(edit(path.read_bytes()))
        return ["translate", *opts(tmp / "r"), "--student", str(path),
                "-i", str(tmp / "in.txt"), "-o", str(tmp / "out.txt")], str(path)
    return case


HEADER = len(MAGIC) + 8  # offset of a checkpoint's JSON header


def _rewritten_header(change):
    """A translate call whose student checkpoint header ``change`` has
    rewritten as other valid JSON."""
    def edit(b):
        n = int.from_bytes(b[len(MAGIC):HEADER], "big")
        blob = json.dumps(change(json.loads(b[HEADER:HEADER + n]))).encode()
        return MAGIC + len(blob).to_bytes(8, "big") + blob + b[HEADER + n:]
    return _damaged_student(edit)


def _bad_input(text, lineno, gold=None):
    """A translate call with a sound student (vocabulary 12, max_len 64)
    whose input file, or with ``gold`` its --gold-lengths file, is bad at
    line ``lineno``."""
    def case(tmp):
        argv, _ = _damaged_student(lambda b: b)(tmp)
        (tmp / "in.txt").write_text(text)
        if gold is None:
            return argv, f"{tmp / 'in.txt'}:{lineno}"
        (tmp / "gold.txt").write_text(gold)
        return argv + ["--gold-lengths", str(tmp / "gold.txt")], f"{tmp / 'gold.txt'}:{lineno}"
    return case


def _bad_data(command, fname, text, lineno):
    """A train-teacher, distill, train-student or ``analyze b-sweep`` call
    over untrained models and two-line corpora, whose corpus file ``fname``
    (under distill/ for train-student, data/ otherwise) is bad at line
    ``lineno``.  For train-student, distill/meta.json names the teacher."""
    def case(tmp):
        data = tmp / "r" / ("distill" if command == "train-student" else "data")
        data.mkdir(parents=True)
        for name in ("mono.txt", *(f"{split}.{ext}" for split in ("train", "valid", "test", "mono")
                                   for ext in ("src", "tgt"))):
            (data / name).write_text("4 5 6\n4 5 6\n")
        (data / fname).write_text(text)
        teacher = str(_tiny_checkpoint(tmp / "teacher.ckpt", "AR"))
        if command == "train-student":
            (data / "meta.json").write_text(
                json.dumps({"teacher_digest": checkpoint_digest(teacher)}))
        if command == "b-sweep":
            student = _tiny_checkpoint(tmp / "student.ckpt")
            argv = ["analyze", "b-sweep", "--student", f"s={student}", "--teacher", teacher,
                    "--data", str(data), "-o", str(tmp / "sweep.txt")]
        else:
            argv = [command, *opts(tmp / "r")]
            if command != "train-teacher":
                argv += ["--teacher", teacher]
        return argv, f"{data / fname}:{lineno}"
    return case


def _empty_corpus(command):
    """A train-teacher or train-student call over a sound corpus whose
    train.src and train.tgt are empty.  train-student's teacher fits the
    run config, and its mono fraction 0.2 of two mono pairs rounds to none."""
    def case(tmp):
        argv, _ = _bad_data(command, "train.src", "", 1)(tmp)
        data = tmp / "r" / ("distill" if command == "train-student" else "data")
        (data / "train.tgt").write_text("")
        if command == "train-teacher":
            return argv, f"{data / 'train.src'} and {data / 'train.tgt'}"
        teacher = _tiny_checkpoint(tmp / "teacher.ckpt", "AR", max_len=32)
        (data / "meta.json").write_text(
            json.dumps({"teacher_digest": checkpoint_digest(teacher)}))
        return argv + ["-O", "distill.mono_fraction=0.2"], \
            f"{data / 'train.*'} and {data / 'mono.*'} at distill.mono_fraction 0.2"
    return case


def _directory_input(command):
    """A gen-data -c, translate --student or evaluate --hyp call that names
    the directory ``tmp`` in place of a file."""
    def case(tmp):
        if command == "gen-data":
            return ["gen-data", "-c", str(tmp)], str(tmp)
        if command == "translate":
            return ["translate", *opts(tmp / "r"), "--student", str(tmp),
                    "-i", str(tmp / "in.txt"), "-o", str(tmp / "out.txt")], str(tmp)
        (tmp / "ref.txt").write_text("4 5\n")
        return ["evaluate", "--hyp", str(tmp), "--ref", str(tmp / "ref.txt")], str(tmp)
    return case


def _distill_meta(meta):
    """A train-student call over a sound two-line distilled corpus whose
    distill/meta.json holds ``meta``, the text ``meta`` if it is a str, or
    is missing if ``meta`` is None."""
    def case(tmp):
        argv, _ = _bad_data("train-student", "train.src", "4 5 6\n4 5 6\n", 1)(tmp)
        path = tmp / "r" / "distill" / "meta.json"
        if meta is None:
            path.unlink()
            return argv, str(path)
        if isinstance(meta, str):
            path.write_text(meta)
            return argv, f"{path} is not valid JSON"
        path.write_text(json.dumps(meta))
        return argv, str(tmp / "teacher.ckpt")
    return case


def _teacher_config_differs(tmp):
    """A train-student call over a sound distilled corpus whose run config
    asks for 4 heads of a teacher that, like the tiny config, has 2: every
    parameter shape still matches."""
    argv, _ = _bad_data("train-student", "train.src", "4 5 6\n4 5 6\n", 1)(tmp)
    teacher = _tiny_checkpoint(tmp / "teacher.ckpt", "AR", max_len=32)
    (tmp / "r" / "distill" / "meta.json").write_text(
        json.dumps({"teacher_digest": checkpoint_digest(teacher)}))
    return argv + ["-O", "model.num_heads=4"], f"{teacher} holds a model with num_heads 2"


def _missing_rerank_teacher(tmp):
    """A translate call with a sound student and input, C given, whose
    reranking --teacher does not exist."""
    argv, _ = _damaged_student(lambda b: b)(tmp)
    (tmp / "in.txt").write_text("4 5 6\n4 5\n")
    teacher = tmp / "missing.ckpt"
    return argv + ["-O", "length.C=0", "--teacher", str(teacher)], f"missing input {teacher}"


def _short_valid_target(tmp):
    argv, _ = _bad_data("train-teacher", "valid.tgt", "4 5 6\n", 1)(tmp)
    return argv, f"{tmp / 'r' / 'data' / 'valid.tgt'} has 1"


def _student_without_offset(tmp):
    """A translate call whose sound student checkpoint stores no length_offset."""
    argv, student = _damaged_student(lambda b: b)(tmp)
    (tmp / "in.txt").write_text("4 5 6\n4 5\n")
    return argv + ["--teacher", str(_tiny_checkpoint(tmp / "teacher.ckpt", "AR"))], student


def _bad_b_values(value):
    def case(tmp):
        argv, _ = _bad_data("b-sweep", "test.src", "4 5 6\n4 5 6\n", 1)(tmp)
        return argv + ["--b-values", value], f"--b-values {value!r}"
    return case


def _negative_half_width(tmp):
    return ["translate", *opts(tmp / "r", ["length.B=-1"]), "-i", "in.txt", "-o", "out.txt"], \
        "length.B"


def _evaluate_empty_files(tmp):
    hyp, ref = tmp / "hyp.txt", tmp / "ref.txt"
    hyp.write_text("")
    ref.write_text("")
    return ["evaluate", "--hyp", str(hyp), "--ref", str(ref)], f"{hyp}, {ref}"


def _evaluate_counts_differ(tmp):
    hyp, ref = tmp / "hyp.txt", tmp / "ref.txt"
    hyp.write_text("4 5\n4 5\n")
    ref.write_text("4 5\n4 5\n4 5\n")
    return ["evaluate", "--hyp", str(hyp), "--ref", str(ref)], f"{hyp} has 2, {ref} has 3"


def _loss_gap_report(text, fraction="1.0"):
    """An ``analyze loss-gap`` call with one ``--run fraction=DIR`` whose
    student_eval.json holds ``text``."""
    def case(tmp):
        path = tmp / "student_eval.json"
        path.write_text(text)
        argv = ["analyze", "loss-gap", "--run", f"{fraction}={tmp}", "-o", str(tmp / "gap.txt")]
        if fraction != "1.0":
            return argv, f"--run {fraction!r}"
        return argv, str(path)
    return case


def _bad_buckets(src="4 5 6\n4 5\n", edges="1-6", lineno=None):
    """An ``analyze buckets`` call over two sentences whose source file
    ``src`` is bad at line ``lineno``, or else whose ``--edges`` is bad."""
    def case(tmp):
        paths = {what: tmp / f"{what}.txt" for what in ("hyp", "ref", "src")}
        paths["hyp"].write_text("4 5\n4 5\n")
        paths["ref"].write_text("4 5\n4 5\n")
        paths["src"].write_text(src)
        argv = ["analyze", "buckets", "--edges", edges, "-o", str(tmp / "buckets.txt")]
        for what, path in paths.items():
            argv += [f"--{what}", str(path)]
        return argv, f"{paths['src']}:{lineno}" if lineno else f"--edges {edges!r}"
    return case


# each row: a malformed input that must fail with exit code 2 and one
# error line that names it
MALFORMED = {
    "yaml config file": _bad_config_file,
    "yaml override": _bad_override,
    "override length.B not an integer": _override_of_wrong_type(
        "length.B=abc", "length.B must be int, got 'abc'"),
    "override train.peak_lr not a number after -c": _override_of_wrong_type(
        "train.peak_lr=fast", "train.peak_lr must be float, got 'fast'", with_file=True),
    "override data.n_pairs not an integer": _override_of_wrong_type(
        "data.n_pairs=2.5", "data.n_pairs must be int, got 2.5"),
    "override output_dir null": _override_of_wrong_type(
        "output_dir=null", "output_dir must be str, got None"),
    "resolved.yaml holds weight_tying": _old_snapshot("model", "weight_tying", True),
    "resolved.yaml holds per_layer_pos_tables": _old_snapshot("model", "per_layer_pos_tables",
                                                              False),
    "resolved.yaml holds dropout_rate": _old_snapshot("model", "dropout_rate", 0.0),
    "resolved.yaml holds length.rank_mode": _old_snapshot("length", "rank_mode",
                                                          "sum_logprob"),
    "gen-data -c names a directory": _directory_input("gen-data"),
    "translate --student names a directory": _directory_input("translate"),
    "evaluate --hyp names a directory": _directory_input("evaluate"),
    "header cut short": _damaged_student(lambda b: b[: HEADER + 100]),
    "header not utf-8": _damaged_student(lambda b: b[:HEADER] + b"\xff" + b[HEADER + 1:]),
    "header not json": _damaged_student(lambda b: b[:HEADER] + b"[" + b[HEADER + 1:]),
    "header lacks params": _rewritten_header(lambda h: {"config": {}}),
    "header lacks config": _rewritten_header(lambda h: {k: v for k, v in h.items()
                                                        if k != "config"}),
    "header config key unknown": _rewritten_header(
        lambda h: {**h, "config": {**h["config"], "depth": 3}}),
    "header config incomplete": _rewritten_header(
        lambda h: {**h, "config": {"num_layers": 1}}),
    "header carries kernel_normalize": _rewritten_header(
        lambda h: {**h, "config": {**h["config"], "kernel_normalize": True}}),
    "header carries weight_tying": _rewritten_header(
        lambda h: {**h, "config": {**h["config"], "weight_tying": True}}),
    "header carries per_layer_pos_tables": _rewritten_header(
        lambda h: {**h, "config": {**h["config"], "per_layer_pos_tables": False}}),
    "header carries dropout_rate": _rewritten_header(
        lambda h: {**h, "config": {**h["config"], "dropout_rate": 0.0}}),
    "input token not an integer": _bad_input("4 5 6\n4 x 6\n", 2),
    "input line empty": _bad_input("4 5 6\n\n4 5\n", 2),
    "input id past vocabulary": _bad_input("4 5 6\n4 99 6\n", 2),
    "input holds BOS": _bad_input("4 5 6\n7 1 6\n", 2),
    "input longer than max_len": _bad_input("4 5 6\n" + "5 " * 65 + "\n", 2),
    "gold-lengths line empty": _bad_input("4 5 6\n4 5\n", 2, gold="4 5 6\n\n"),
    "gold-lengths line longer than max_len": _bad_input("4 5 6\n4 5\n", 2,
                                                        gold="4 5 6\n" + "5 " * 65 + "\n"),
    "translate -O length.B negative": _negative_half_width,
    "translate student stores no length_offset": _student_without_offset,
    "translate reranking teacher missing": _missing_rerank_teacher,
    "train-teacher source id past vocabulary": _bad_data("train-teacher", "train.src",
                                                         "4 5 6\n4 99 6\n", 2),
    "train-teacher target line empty": _bad_data("train-teacher", "train.tgt", "4 5 6\n\n", 2),
    # the teacher reads BOS + target, so a target of max_len (32) tokens is too long
    "train-teacher target as long as max_len": _bad_data("train-teacher", "train.tgt",
                                                         "4 5 6\n" + "5 " * 32 + "\n", 2),
    "train-teacher valid.tgt one line short": _short_valid_target,
    "train-teacher train pairs empty": _empty_corpus("train-teacher"),
    "train-student mixed corpus empty": _empty_corpus("train-student"),
    "distill source id past vocabulary": _bad_data("distill", "test.src", "4 5 6\n4 99 6\n", 2),
    "train-student source id past vocabulary": _bad_data("train-student", "mono.src",
                                                         "4 5 6\n4 99 6\n", 2),
    "train-student target line empty": _bad_data("train-student", "train.tgt", "4 5 6\n\n", 2),
    "train-student teacher differs from distill's": _distill_meta({"teacher_digest": "beef"}),
    "train-student distill wrote no meta.json": _distill_meta(None),
    "train-student meta.json not json": _distill_meta("{\n"),
    "train-student run config differs from the teacher's": _teacher_config_differs,
    "b-sweep source holds BOS": _bad_data("b-sweep", "test.src", "4 5 6\n7 1 6\n", 2),
    "b-sweep reference line empty": _bad_data("b-sweep", "test.tgt", "4 5 6\n\n", 2),
    "b-sweep reference longer than max_len": _bad_data("b-sweep", "test.tgt",
                                                       "4 5 6\n" + "5 " * 65 + "\n", 2),
    "b-sweep --b-values not integers": _bad_b_values("0,x"),
    "b-sweep --b-values negative": _bad_b_values("0,-1"),
    "evaluate line counts differ": _evaluate_counts_differ,
    "evaluate files empty": _evaluate_empty_files,
    "loss-gap student_eval.json not json": _loss_gap_report("{"),
    "loss-gap student_eval.json lacks test_loss": _loss_gap_report('{"train_loss": 0.5}'),
    "loss-gap --run fraction not a number": _loss_gap_report("{}", fraction="x"),
    "buckets source outside every bucket": _bad_buckets(src="4 5 6\n" + "5 " * 7 + "\n",
                                                        lineno=2),
    "buckets source line empty": _bad_buckets(src="4 5 6\n\n", lineno=2),
    "buckets --edges interval lacks hi": _bad_buckets(edges="1-4,5"),
    "buckets --edges bound not an integer": _bad_buckets(edges="1-x"),
    "buckets --edges interval empty": _bad_buckets(edges="5-1"),
    "buckets --edges intervals overlap": _bad_buckets(edges="1-4,3-6"),
}


@pytest.mark.parametrize("case", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_named(case, tmp_path, capsys):
    argv, name = case(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err


# each row: a command of the tiny pipeline (or its translate with
# --gold-lengths) and a file that it reads
GOLD = "translate --gold-lengths"
PIPELINE_INPUTS = [
    *(("train-teacher", f"data/{split}.{ext}") for split in ("train", "valid")
      for ext in ("src", "tgt")),
    ("distill", "teacher.ckpt"),
    *(("distill", f"data/{name}") for name in ("train.src", "valid.src", "test.src",
                                                "mono.txt")),
    ("train-student", "teacher.ckpt"),
    ("train-student", "distill/meta.json"),
    *(("train-student", f"distill/{split}.{ext}") for split in ("train", "mono", "valid", "test")
      for ext in ("src", "tgt")),
    *(("translate", name) for name in ("student.ckpt", "teacher.ckpt", "distill/test.src")),
    (GOLD, "distill/test.tgt"),
]


@pytest.mark.parametrize("command, rel", PIPELINE_INPUTS,
                         ids=[f"{c}: {r}" for c, r in PIPELINE_INPUTS])
def test_missing_pipeline_input_named(command, rel, run, tmp_path, capsys):
    # a copy of the finished tiny run with one input of ``command`` deleted
    out = tmp_path / "run"
    shutil.copytree(run, out)
    (out / rel).unlink()
    argv = {a[0]: a for a in commands(out, opts(out))}
    argv[GOLD] = argv["translate"] + ["--gold-lengths", str(out / "distill" / "test.tgt")]
    assert main(argv[command]) == 2
    assert capsys.readouterr().err.startswith(f"error: missing input {out / rel} (")


def test_pipeline_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the tiny pipeline as console commands, in processes with one and with
    # two OpenBLAS threads: every file the same, timings masked
    src = str(Path(__file__).parents[1] / "src")
    trees = []
    for threads in ("1", "2"):
        root = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, OUTPUT_ROOT_ENV: str(root),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for argv in commands(root / "run", opts("run")):
            subprocess.run([sys.executable, "-m", "narlab.cli", *argv], env=env, check=True,
                           capture_output=True)
        trees.append(tree_bytes(root / "run"))
    assert sorted(trees[0]) == sorted(trees[1])
    assert [k for k in trees[0] if trees[0][k] != trees[1][k]] == []


def test_env_var_roots_relative_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    flat = []
    for v in ["output_dir=envrun", *TINY]:
        flat += ["-O", v]
    run_ok("gen-data", *flat)
    assert (tmp_path / "envrun" / "data" / "train.src").exists()


def test_evaluate_stdout_line(run, capsys):
    run_ok("evaluate", "--hyp", str(run / "hyp_gold.txt"),
           "--ref", str(run / "distill" / "test.tgt"))
    out = capsys.readouterr().out
    assert out.startswith("BLEU ")
    assert "BP" in out and "P4" in out


def test_readme_commands_parse():
    # every `narlab ...` line of README's code blocks, continuations joined
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(ln)[1:] for ln in lines if ln.startswith("narlab ")]
    assert len(commands) >= 9
    for argv in commands:
        build_parser().parse_args(argv)
