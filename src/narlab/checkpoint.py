"""Deterministic binary checkpoint container.

Layout: magic line, 8-byte big-endian JSON header length, JSON header
(sorted keys) holding the ModelConfig, extra metadata, and the parameter
manifest (path -> shape), then the raw little-endian float64 buffers
concatenated in sorted-path order.  No timestamps anywhere, so identical
params always serialize to identical bytes and round-trips are bit-exact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np

from .corpora import whole_file
from .tensor import Tensor
from .transformer import NAR, ModelConfig, Transformer

MAGIC = b"NARCKPT1\n"


def save_checkpoint(path, config: ModelConfig, params: dict, extra: dict | None = None):
    """Write config + named float64 parameters; values may be Tensors or arrays."""
    arrays = {
        name: (p.data if isinstance(p, Tensor) else np.asarray(p, dtype=np.float64))
        for name, p in params.items()
    }
    header = {
        "config": asdict(config),
        "extra": extra or {},
        "params": {name: list(a.shape) for name, a in sorted(arrays.items())},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with whole_file(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(8, "big"))
        fh.write(blob)
        for name in sorted(arrays):
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple:
    """Return (ModelConfig, params dict of requires_grad Tensors, extra dict)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        n = int.from_bytes(fh.read(8), "big")
        blob = fh.read(n)
        if len(blob) != n:
            raise ValueError(f"{path}: truncated header ({len(blob)} of {n} bytes)")
        try:
            header = json.loads(blob.decode("utf-8"))
        except ValueError as err:  # bad UTF-8 or bad JSON
            raise ValueError(f"{path}: header is not valid JSON: {err}") from err
        config = _header_config(path, header)
        params = {}
        for name, shape in sorted(header["params"].items()):
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ValueError(f"{path}: truncated parameter {name}")
            arr = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)
            params[name] = Tensor(arr, requires_grad=True)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after parameters")
    return config, params, header["extra"]


def _header_config(path, header) -> ModelConfig:
    """The ModelConfig of a parsed header that must hold every section."""
    missing = [k for k in ("config", "extra", "params")
               if not isinstance(header, dict) or k not in header]
    if missing:
        raise ValueError(f"{path}: header lacks {', '.join(missing)}")
    try:
        return ModelConfig(**header["config"])
    except (TypeError, ValueError) as err:  # unknown, missing or invalid settings
        raise ValueError(f"{path}: bad model config: {err}") from err


def load_model(path):
    """Reconstruct the right model flavor from a checkpoint."""
    from .nar import NARTransformer

    config, params, _ = load_checkpoint(path)
    cls = NARTransformer if config.flavor == NAR else Transformer
    return cls(config, params)


def checkpoint_digest(path) -> str:
    """Content digest used by sidecar provenance records."""
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
