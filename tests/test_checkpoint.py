"""Checkpoint container: bit-exact round trips, flavor reconstruction, digests."""

import numpy as np
import pytest

from narlab.checkpoint import (
    checkpoint_digest,
    load_checkpoint,
    load_model,
    save_checkpoint,
)
from narlab.nar import NARTransformer
from narlab.transformer import ModelConfig, Transformer, init_params


def cfg(**kw):
    base = dict(vocab_size=12, num_layers=1, num_heads=2, model_dim=8,
                hidden_dim=16, max_len=16)
    base.update(kw)
    return ModelConfig(**base)


def test_roundtrip_bit_exact(tmp_path):
    config = cfg()
    params = init_params(config, seed=5)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, config, params, extra={"step": 42})
    loaded_cfg, loaded, extra = load_checkpoint(p1)
    assert loaded_cfg == config
    assert extra == {"step": 42}
    for name in params:
        np.testing.assert_array_equal(loaded[name].data, params[name].data)
        assert loaded[name].requires_grad
    save_checkpoint(p2, loaded_cfg, loaded, extra=extra)
    assert p1.read_bytes() == p2.read_bytes()


def test_identical_params_identical_bytes(tmp_path):
    config = cfg()
    params = init_params(config, seed=5)
    save_checkpoint(tmp_path / "a.ckpt", config, params)
    save_checkpoint(tmp_path / "b.ckpt", config, params)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_scalar_param_roundtrip(tmp_path):
    config = cfg(flavor="NAR")
    params = init_params(config, seed=0)
    params["soft_copy.rho"].data[()] = -0.75
    save_checkpoint(tmp_path / "n.ckpt", config, params)
    _, loaded, _ = load_checkpoint(tmp_path / "n.ckpt")
    assert loaded["soft_copy.rho"].shape == ()
    assert loaded["soft_copy.rho"].item() == -0.75


def test_load_model_reconstructs_flavor(tmp_path):
    ar = Transformer(cfg(), seed=1)
    save_checkpoint(tmp_path / "ar.ckpt", ar.config, ar.params)
    assert type(load_model(tmp_path / "ar.ckpt")) is Transformer

    nar = NARTransformer(cfg(flavor="NAR"), seed=1)
    save_checkpoint(tmp_path / "nar.ckpt", nar.config, nar.params)
    m = load_model(tmp_path / "nar.ckpt")
    assert type(m) is NARTransformer
    out_a = m.nar_greedy_emit_batch([[4, 5, 6]], 4)
    out_b = nar.nar_greedy_emit_batch([[4, 5, 6]], 4)
    assert out_a == out_b


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"NOTACKPT\n" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(p)


def test_truncation_detected(tmp_path):
    config = cfg()
    params = init_params(config, seed=2)
    p = tmp_path / "t.ckpt"
    save_checkpoint(p, config, params)
    data = p.read_bytes()
    p.write_bytes(data[:-16])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(p)


def test_digest_tracks_content(tmp_path):
    config = cfg()
    save_checkpoint(tmp_path / "a.ckpt", config, init_params(config, seed=1))
    save_checkpoint(tmp_path / "b.ckpt", config, init_params(config, seed=1))
    save_checkpoint(tmp_path / "c.ckpt", config, init_params(config, seed=2))
    assert checkpoint_digest(tmp_path / "a.ckpt") == checkpoint_digest(tmp_path / "b.ckpt")
    assert checkpoint_digest(tmp_path / "a.ckpt") != checkpoint_digest(tmp_path / "c.ckpt")
