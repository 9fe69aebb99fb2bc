"""The tiny CLI pipeline that the CLI tests and criterion 9 run: a config
small enough that gen-data -> train-teacher -> distill -> train-student ->
translate takes a few seconds."""

import json

TINY = [
    "task.n_content=8", "task.min_len=3", "task.max_len=6",
    "model.num_layers=1", "model.num_heads=2", "model.model_dim=16",
    "model.hidden_dim=32", "model.max_len=32",
    "train.max_epochs=2", "train.batch_tokens=512", "train.warmup_steps=50",
    "train.average_last_k=2",
    "data.n_pairs=200", "data.mono_ratio=1.0",
]


def opts(output_dir, extra=()) -> list:
    """``-O`` flags for the tiny config writing to ``output_dir``, then ``extra``."""
    flat = []
    for v in [f"output_dir={output_dir}", *TINY, *extra]:
        flat += ["-O", v]
    return flat


def commands(out, flags) -> list:
    """The argv of each pipeline command, in order, given the ``flags`` of a
    run whose directory is ``out``."""
    return [
        ["gen-data", *flags],
        ["train-teacher", *flags],
        ["distill", *flags],
        ["train-student", *flags, "--teacher", str(out / "teacher.ckpt")],
        ["translate", *flags, "-i", str(out / "distill" / "test.src"),
         "-o", str(out / "hyp.txt"), "-O", "length.B=1"],
    ]


def tree_bytes(root) -> dict:
    """Relative path -> bytes of every file under ``root``, with the curves'
    wall_seconds masked."""
    out = {}
    for p in sorted(root.rglob("*")):
        if not p.is_file():
            continue
        rel = str(p.relative_to(root))
        data = p.read_bytes()
        if rel.endswith("_curves.jsonl"):
            # wall_seconds is honest wall time; mask it, compare the rest
            recs = [json.loads(line) for line in data.decode().splitlines()]
            for r in recs:
                r["wall_seconds"] = None
            data = json.dumps(recs).encode()
        out[rel] = data
    return out
