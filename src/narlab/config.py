"""Run configuration: one YAML file with sections binding the task, model,
training, data, distillation and decoding knobs, plus the output directory.

Every command resolves its config (file -> dotted-key overrides -> env
output root) and writes the resolved snapshot next to its outputs; rerunning
from a snapshot reproduces every artifact byte for byte.
"""

from __future__ import annotations

import os
import typing
from dataclasses import asdict, dataclass, field, fields, make_dataclass, replace
from pathlib import Path

import yaml

from .corpora import whole_file
from .lengths import RANK_MODES
from .tasks import TaskSpec
from .training import TrainConfig
from .transformer import AR, ModelConfig

#: environment variable holding the default output root for relative
#: output_dir values
OUTPUT_ROOT_ENV = "NARLAB_RUNS"


#: ModelConfig minus vocab_size (derived from the task) and flavor (decided
#: by the command), with ModelConfig's own defaults
ModelSection = make_dataclass(
    "ModelSection",
    [(f.name, f.type, field(default=f.default)) for f in fields(ModelConfig)
     if f.name not in ("vocab_size", "flavor")],
    namespace={"__module__": __name__},  # so the class pickles like one written out
    frozen=True,
)


@dataclass(frozen=True)
class DataConfig:
    n_pairs: int = 8000
    mono_ratio: float = 4.0
    seed: int = 1

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be positive")
        if self.mono_ratio < 0:
            raise ValueError("mono_ratio must be nonnegative")


@dataclass(frozen=True)
class DistillSection:
    mono_fraction: float = 1.0
    mix_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.mono_fraction <= 1.0:
            raise ValueError(
                f"mono_fraction must be in [0, 1], got {self.mono_fraction}"
            )


@dataclass(frozen=True)
class DecodeSection:
    C: int | None = None  # None: use the offset stored in the student checkpoint
    B: int = 0
    rank_mode: str = "sum_logprob"
    dedup: bool = False

    def __post_init__(self):
        if self.B < 0:
            raise ValueError(f"length.B (the half-width) must be nonnegative, got {self.B}")
        if self.rank_mode not in RANK_MODES:
            raise ValueError(
                f"rank_mode must be one of {RANK_MODES}, got {self.rank_mode!r}"
            )


@dataclass(frozen=True)
class RunConfig:
    task: TaskSpec = field(default_factory=lambda: TaskSpec(kind="mapped_reversal"))
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    distill: DistillSection = field(default_factory=DistillSection)
    length: DecodeSection = field(default_factory=DecodeSection)
    output_dir: str = "run"

    def __post_init__(self):
        self.model_config()  # rejects model settings that no model can take

    def model_config(self, flavor: str = AR) -> ModelConfig:
        return ModelConfig(
            vocab_size=self.task.vocab.size,
            flavor=flavor,
            **asdict(self.model),
        )

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        """The sections in ``d`` over the defaults, each value of its field's
        type: an int passes for a float, and only a bool for a bool."""
        sections = typing.get_type_hints(RunConfig)
        del sections["output_dir"]
        unknown = set(d) - set(sections) - {"output_dir"}
        if unknown:
            raise ValueError(f"unknown config sections: {sorted(unknown)}")
        kwargs = {}
        for name, cls in sections.items():
            if name not in d:
                continue
            body = d[name]
            if not isinstance(body, dict):
                raise ValueError(f"section {name!r} must be a mapping")
            written = {f.name: f.type for f in fields(cls)}  # e.g. "int | None"
            bad = set(body) - set(written)
            if bad:
                raise ValueError(f"unknown keys in section {name!r}: {sorted(bad)}")
            hints = typing.get_type_hints(cls)
            for key, value in body.items():
                kinds = typing.get_args(hints[key]) or (hints[key],)
                if float in kinds:
                    kinds += (int,)
                if isinstance(value, bool) != (bool in kinds) or not isinstance(value, kinds):
                    raise ValueError(f"{name}.{key} must be {written[key]}, got {value!r}")
            kwargs[name] = replace(getattr(RunConfig(), name), **body)
        if "output_dir" in d:
            kwargs["output_dir"] = str(d["output_dir"])
        return RunConfig(**kwargs)


def _one_line(err: Exception) -> str:
    return " ".join(str(err).split())


def apply_overrides(d: dict, overrides) -> dict:
    """Apply dotted-path overrides like ``train.peak_lr=0.01`` to a config
    dict; values are parsed as YAML scalars so types come out right."""
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        path, raw = item.split("=", 1)
        keys = path.strip().split(".")
        if not all(keys):
            raise ValueError(f"override {item!r} has an empty key component")
        node = d
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ValueError(f"override {item!r} descends into a scalar")
        try:
            node[keys[-1]] = yaml.safe_load(raw)
        except yaml.YAMLError as err:
            raise ValueError(f"override {item!r} is not valid YAML: {_one_line(err)}") from err
    return d


def load_config(path=None, overrides=()) -> RunConfig:
    """The YAML config file at ``path`` (None: the defaults), overridden."""
    try:
        d = yaml.safe_load(Path(path).read_text() if path is not None else "") or {}
    except yaml.YAMLError as err:
        raise ValueError(f"config {path} is not valid YAML: {_one_line(err)}") from err
    if not isinstance(d, dict):
        raise ValueError(f"config root of {path} must be a mapping")
    d = apply_overrides(d, overrides)
    try:
        return RunConfig.from_dict(d)
    except ValueError as err:  # unknown keys or bad values
        raise ValueError(f"config {path or 'overrides'}: {_one_line(err)}") from err


def run_dir(config: RunConfig) -> Path:
    """Output directory, rooted at $NARLAB_RUNS for relative paths."""
    p = Path(config.output_dir)
    if p.is_absolute():
        return p
    return Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / p


def write_resolved(config: RunConfig, directory) -> Path:
    """The reproducibility snapshot: sorted-key YAML of the full config."""
    path = Path(directory) / "resolved.yaml"
    with whole_file(path) as fh:
        yaml.safe_dump(asdict(config), fh, sort_keys=True)
    return path


class RunLock:
    """Directory lock so concurrent runs cannot share an output directory."""

    def __init__(self, directory):
        self.path = Path(directory) / ".lock"
        self._fd = None

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise RuntimeError(
                f"output directory {self.path.parent} is locked by another run "
                f"(stale lock? remove {self.path})"
            ) from None
        os.write(self._fd, f"{os.getpid()}\n".encode())
        return self

    def __exit__(self, *exc):
        if self._fd is not None:
            os.close(self._fd)
            self.path.unlink(missing_ok=True)
        return False
