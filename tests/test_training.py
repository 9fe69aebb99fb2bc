import json
import math

import numpy as np
import pytest

from narlab import tensor as T
from narlab.distill import mix_monolingual
from narlab.lengths import estimate_C
from narlab.tensor import Tensor
from narlab.training import (
    Adam,
    TrainConfig,
    average_checkpoints,
    batch_loss,
    dataset_loss,
    init_student_from_teacher,
    lr_schedule,
    make_batches,
    smoothed_ce_from_logits,
    train,
    train_student,
)
from narlab.nar import NARTransformer
from narlab.transformer import ModelConfig, Transformer
from narlab.util import rng_for

from gradcheck import grad_check


def tiny_config(**kw):
    base = dict(vocab_size=16, num_layers=1, num_heads=2, model_dim=16,
                hidden_dim=32, max_len=16)
    base.update(kw)
    return ModelConfig(**base)


def tiny_pairs(n=6, ls=3, lt=3, seed=0):
    rng = rng_for(seed, "tiny-pairs")
    out = []
    for _ in range(n):
        src = [int(x) for x in rng.integers(4, 16, size=ls)]
        tgt = list(reversed(src))[:lt] + [4] * max(0, lt - ls)
        out.append((src, tgt))
    return out


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(label_smoothing=1.0)
        with pytest.raises(ValueError):
            TrainConfig(peak_lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(patience_epochs=0)


class TestSchedule:
    def test_peak_hit_exactly_at_warmup(self):
        c = TrainConfig(peak_lr=0.003, warmup_steps=400)
        assert lr_schedule(400, c, 64) == pytest.approx(0.003, rel=1e-12)

    def test_half_peak_at_four_warmups(self):
        c = TrainConfig(peak_lr=0.003, warmup_steps=400)
        assert lr_schedule(1600, c, 64) == pytest.approx(0.0015, rel=1e-12)

    def test_linear_rampup(self):
        c = TrainConfig(peak_lr=0.002, warmup_steps=100)
        assert lr_schedule(50, c, 64) == pytest.approx(0.001, rel=1e-12)
        assert lr_schedule(1, c, 64) == pytest.approx(0.002 / 100, rel=1e-12)

    def test_paper_scale_correspondence(self):
        # scale 2.0 on the raw inverse-sqrt schedule at model_dim 512 and
        # warmup 4000 corresponds to a peak lr of about 0.001398
        peak = 2.0 / math.sqrt(512 * 4000)
        assert peak == pytest.approx(0.001398, abs=1e-5)
        c = TrainConfig(peak_lr=peak, warmup_steps=4000)
        assert lr_schedule(4000, c, 512) == pytest.approx(peak, rel=1e-12)

    def test_unimodal(self):
        c = TrainConfig(peak_lr=0.003, warmup_steps=50)
        lrs = [lr_schedule(s, c, 64) for s in range(1, 400)]
        top = int(np.argmax(lrs))
        assert top == 49
        assert all(a < b for a, b in zip(lrs[:top], lrs[1 : top + 1]))
        assert all(a > b for a, b in zip(lrs[top:], lrs[top + 1 :]))

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            lr_schedule(0, TrainConfig(), 64)


def _ce(p, targets, eps):
    # smoothed CE of the distributions p, fed in as logits log p
    return smoothed_ce_from_logits(Tensor(np.log(p)), np.asarray(targets), eps).item()


class TestSmoothedCE:
    def test_pinned_oracle(self):
        # V=4, eps=0.1, p=(0.7,0.1,0.1,0.1), target 0 -> 0.55136
        p = np.array([[0.7, 0.1, 0.1, 0.1]])
        assert _ce(p, [0], 0.1) == pytest.approx(0.55136, abs=1e-4)

    def test_eps_zero_is_plain_nll(self):
        p = np.array([[0.6, 0.3, 0.1]])
        assert _ce(p, [1], 0.0) == pytest.approx(-math.log(0.3), abs=1e-12)

    def test_uniform_prediction_costs_log_v(self):
        v = 8
        p = np.full((3, v), 1.0 / v)
        for eps in (0.0, 0.1, 0.3):
            assert _ce(p, [4, 5, 6], eps) == pytest.approx(math.log(v), abs=1e-12)

    def test_mean_over_positions(self):
        p = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
        both = _ce(p, [0, 1], 0.2)
        a = _ce(p[:1], [0], 0.2)
        b = _ce(p[1:], [1], 0.2)
        assert both == pytest.approx((a + b) / 2.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            smoothed_ce_from_logits(Tensor(np.zeros((2, 3, 5))), np.zeros((2, 2)), 0.1)

    def test_gradient_matches_finite_differences(self):
        targets = np.array([[1, 3], [0, 2]])
        logits = Tensor(rng_for(0, "ce-fd").standard_normal((2, 2, 5)),
                        requires_grad=True)
        res = grad_check(lambda x: smoothed_ce_from_logits(x, targets, 0.1), [logits])
        assert res.passed, f"max rel err {res.max_err:.3e}"


class TestAdam:
    def test_first_step_is_signlike(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam({"w": p})
        p.grad = np.array([0.5, -2.0, 0.0])
        opt.step(lr=0.1)
        np.testing.assert_allclose(p.data, [-0.1, 0.1, 0.0], atol=1e-6)

    def test_missing_grad_means_no_motion(self):
        p = Tensor(np.ones(4), requires_grad=True)
        Adam({"w": p}).step(lr=0.5)
        np.testing.assert_array_equal(p.data, np.ones(4))

    def test_zero_grad_clears(self):
        p = Tensor(np.ones(2), requires_grad=True)
        p.grad = np.ones(2)
        opt = Adam({"w": p})
        opt.zero_grad()
        assert p.grad is None

    def test_deterministic(self):
        def run():
            p = Tensor(np.array([1.0, -1.0]), requires_grad=True)
            opt = Adam({"w": p})
            for t in range(5):
                p.grad = np.array([0.1 * t, -0.2])
                opt.step(lr=0.01)
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_matches_reference_rule_bit_for_bit(self):
        # the update written out with a fresh array per operation, in the
        # order Adam.step applies it in place
        b1, b2, eps = 0.9, 0.98, 1e-9
        shapes = {"w": (3, 4), "b": (4,), "rho": ()}
        rng = np.random.default_rng(7)
        init = {k: rng.standard_normal(s) for k, s in shapes.items()}
        params = {k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
        opt = Adam(params)
        ref = dict(init)
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        for t in range(1, 31):
            lr = 0.01 * rng.random()
            grads = {k: rng.standard_normal(s) * 10.0 ** rng.integers(-6, 2)
                     for k, s in shapes.items()}
            if t % 7 == 0:
                grads["b"] = None  # a parameter the loss did not reach
            for k, p in params.items():
                p.grad = grads[k]
            opt.step(lr)
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for k in sorted(shapes):
                g = grads[k] if grads[k] is not None else np.zeros(shapes[k])
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                update = (m[k] / bc1) / (np.sqrt(v[k] / bc2) + eps)
                ref[k] = ref[k] - lr * update
            for k in shapes:
                np.testing.assert_array_equal(params[k].data, ref[k], err_msg=f"{k} step {t}")


class TestBatching:
    def test_rectangular_and_complete(self):
        pairs = tiny_pairs(5, 3, 3) + tiny_pairs(4, 5, 5, seed=1) + tiny_pairs(3, 2, 4, seed=2)
        batches = make_batches(pairs, batch_tokens=32)
        seen = []
        for src_arr, tgt_arr in batches:
            assert src_arr.ndim == 2 and tgt_arr.ndim == 2
            assert src_arr.shape[0] == tgt_arr.shape[0]
            seen += [([int(x) for x in s], [int(x) for x in t])
                     for s, t in zip(src_arr, tgt_arr)]
        assert sorted(seen) == sorted(pairs)

    def test_token_budget(self):
        pairs = tiny_pairs(40, 4, 4)
        for src_arr, tgt_arr in make_batches(pairs, batch_tokens=36):
            # 4 + 4 + 1 = 9 tokens per pair -> at most 4 rows
            assert src_arr.shape[0] <= 4

    def test_oversized_pair_still_batched_alone(self):
        pairs = tiny_pairs(2, 8, 8)
        batches = make_batches(pairs, batch_tokens=4)
        assert all(b[0].shape[0] == 1 for b in batches)

    def test_shuffle_determinism(self):
        pairs = tiny_pairs(30, 3, 3)
        a = make_batches(pairs, 64, rng_for(0, "shuffle"))
        b = make_batches(pairs, 64, rng_for(0, "shuffle"))
        c = make_batches(pairs, 64, rng_for(1, "shuffle"))
        flat = lambda bs: [x.tolist() for b in bs for x in b]
        assert flat(a) == flat(b)
        assert flat(a) != flat(c)


class TestBatchLoss:
    def test_ar_counts_include_eos(self):
        model = Transformer(tiny_config(), seed=0)
        src = np.array([[4, 5, 6], [7, 8, 9]])
        tgt = np.array([[6, 5, 4], [9, 8, 7]])
        loss, n = batch_loss(model, src, tgt, eps=0.1)
        assert n == 2 * 4  # tgt length 3 plus EOS
        assert math.isfinite(loss.item())

    def test_nar_counts_are_exact_positions(self):
        model = NARTransformer(tiny_config().as_nar(), seed=0)
        src = np.array([[4, 5, 6], [7, 8, 9]])
        tgt = np.array([[6, 5, 4, 4], [9, 8, 7, 7]])
        loss, n = batch_loss(model, src, tgt, eps=0.1)
        assert n == 2 * 4
        assert math.isfinite(loss.item())

    def test_dataset_loss_is_token_weighted(self):
        model = Transformer(tiny_config(), seed=1)
        short = tiny_pairs(3, 2, 2, seed=3)
        long = tiny_pairs(2, 6, 6, seed=4)
        combined = dataset_loss(model, short + long, eps=0.1)
        l_s = dataset_loss(model, short, eps=0.1)
        l_l = dataset_loss(model, long, eps=0.1)
        n_s, n_l = 3 * 3, 2 * 7  # positions include the EOS slot
        expected = (l_s * n_s + l_l * n_l) / (n_s + n_l)
        assert combined == pytest.approx(expected, abs=1e-12)


class TestAveragingAndInit:
    def test_average_exact(self):
        a = {"w": np.array([1.0, 2.0]), "b": np.array(3.0)}
        b = {"w": np.array([3.0, 6.0]), "b": np.array(5.0)}
        avg = average_checkpoints([a, b])
        np.testing.assert_allclose(avg["w"], [2.0, 4.0], atol=1e-15)
        np.testing.assert_allclose(avg["b"], 4.0, atol=1e-15)

    def test_average_rejects_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            average_checkpoints([])
        with pytest.raises(ValueError):
            average_checkpoints([{"w": np.zeros(2)}, {"x": np.zeros(2)}])

    def test_student_inherits_encoder_and_embedding(self):
        cfg = tiny_config()
        teacher = Transformer(cfg, seed=0)
        student = NARTransformer(cfg.as_nar(), seed=9)
        before_dec = {k: v.data.copy() for k, v in student.params.items()
                      if k.startswith("decoder.") or k == "soft_copy.rho"}
        init_student_from_teacher(teacher.params, student.params)
        for name, tp in teacher.params.items():
            if name == "embedding" or name.startswith("encoder."):
                np.testing.assert_array_equal(student.params[name].data, tp.data)
        for name, old in before_dec.items():
            np.testing.assert_array_equal(student.params[name].data, old)

    def test_student_encoder_outputs_match_teacher(self):
        cfg = tiny_config()
        teacher = Transformer(cfg, seed=0)
        student = NARTransformer(cfg.as_nar(), seed=9)
        init_student_from_teacher(teacher.params, student.params)
        src = np.array([[4, 9, 11, 5]])
        np.testing.assert_array_equal(teacher.encode_batch(src).data,
                                      student.encode_batch(src).data)

    def test_init_rejects_missing_and_mismatched(self):
        cfg = tiny_config()
        teacher = Transformer(cfg, seed=0)
        student = NARTransformer(cfg.as_nar(), seed=1)
        broken = dict(student.params)
        del broken["embedding"]
        with pytest.raises(ValueError):
            init_student_from_teacher(teacher.params, broken)
        small = NARTransformer(tiny_config(vocab_size=12).as_nar(), seed=1)
        with pytest.raises(ValueError):
            init_student_from_teacher(teacher.params, small.params)


class TestTrainLoop:
    def test_overfits_one_batch(self):
        model = Transformer(tiny_config(), seed=0)
        pairs = tiny_pairs(6, 3, 3)
        cfg = TrainConfig(batch_tokens=128, warmup_steps=10, peak_lr=0.01,
                          max_epochs=40, patience_epochs=40, average_last_k=3,
                          seed=0)
        recs = train(model, pairs, cfg, validation=[])
        assert recs[-1].train_loss < 0.5 * recs[0].train_loss
        assert recs[-1].train_loss < 1.2

    def test_early_stopping_fires_after_patience(self, monkeypatch):
        # rig validation losses: improve at epochs 1-2, then go flat
        seq = iter([3.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
        monkeypatch.setattr("narlab.training.dataset_loss",
                            lambda *a, **k: next(seq))
        model = Transformer(tiny_config(), seed=0)
        cfg = TrainConfig(batch_tokens=128, warmup_steps=10, peak_lr=1e-6,
                          max_epochs=20, patience_epochs=3, average_last_k=2,
                          seed=0)
        recs = train(model, tiny_pairs(6, 3, 3), cfg,
                     validation=tiny_pairs(4, 3, 3, seed=5))
        assert len(recs) == 5  # best epoch 2, then patience 3 exhausted

    def test_curves_file_is_json_lines(self, tmp_path):
        model = Transformer(tiny_config(), seed=0)
        cfg = TrainConfig(batch_tokens=128, warmup_steps=10, peak_lr=0.01,
                          max_epochs=3, patience_epochs=3, average_last_k=2,
                          seed=0)
        path = tmp_path / "curves.jsonl"
        recs = train(model, tiny_pairs(6, 3, 3), cfg, validation=[], curves_path=path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(recs) == 3
        row = json.loads(lines[1])
        assert set(row) == {"epoch", "train_loss", "valid_loss", "lr", "wall_seconds"}
        assert row["epoch"] == 2

    def test_divergence_raises(self):
        model = Transformer(tiny_config(), seed=0)
        model.params["embedding"].data[:] = np.nan
        cfg = TrainConfig(batch_tokens=128, max_epochs=2, seed=0)
        with pytest.raises(RuntimeError, match="non-finite"):
            train(model, tiny_pairs(6, 3, 3), cfg, validation=[])

    def test_training_is_deterministic(self):
        def run():
            model = Transformer(tiny_config(), seed=0)
            cfg = TrainConfig(batch_tokens=64, warmup_steps=10, peak_lr=0.01,
                              max_epochs=3, patience_epochs=3, average_last_k=2,
                              seed=0)
            train(model, tiny_pairs(8, 3, 3), cfg, validation=tiny_pairs(4, 3, 3, seed=5))
            return {k: v.data.copy() for k, v in model.params.items()}

        a, b = run(), run()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_final_params_are_ring_average(self):
        # with average_last_k = 1 the final params equal the last epoch's
        model = Transformer(tiny_config(), seed=0)
        cfg = TrainConfig(batch_tokens=64, warmup_steps=10, peak_lr=0.01,
                          max_epochs=2, patience_epochs=2, average_last_k=1,
                          seed=0)
        train(model, tiny_pairs(6, 3, 3), cfg, validation=[])
        after_k1 = {k: v.data.copy() for k, v in model.params.items()}

        model2 = Transformer(tiny_config(), seed=0)
        cfg2 = TrainConfig(batch_tokens=64, warmup_steps=10, peak_lr=0.01,
                           max_epochs=2, patience_epochs=2, average_last_k=2,
                           seed=0)
        train(model2, tiny_pairs(6, 3, 3), cfg2, validation=[])
        after_k2 = {k: v.data.copy() for k, v in model2.params.items()}
        # the k=2 average must differ from the pure last checkpoint
        assert any(not np.array_equal(after_k1[k], after_k2[k]) for k in after_k1)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train(Transformer(tiny_config(), seed=0), [], TrainConfig(), validation=[])

    def test_zero_d_parameters_and_grads_stay_arrays(self):
        # soft_copy.rho is 0-d, and numpy arithmetic on 0-d arrays returns
        # numpy scalars: backward, Adam and the averaging keep ndarrays
        model = NARTransformer(tiny_config().as_nar(), seed=0)
        assert model.params["soft_copy.rho"].shape == ()
        cfg = TrainConfig(batch_tokens=128, warmup_steps=10, max_epochs=3,
                          patience_epochs=3, average_last_k=2, seed=0)
        assert len(train(model, tiny_pairs(6, 3, 3), cfg, validation=[])) == 3  # one step each
        for name, p in model.params.items():
            assert isinstance(p.data, np.ndarray) and isinstance(p.grad, np.ndarray), name
        Adam(model.params).step(0.01)
        assert all(isinstance(p.data, np.ndarray) for p in model.params.values())


class TestTrainStudent:
    def test_matches_the_explicit_steps(self):
        teacher = Transformer(tiny_config(), seed=1)
        par, mono = tiny_pairs(6, 3, 3), tiny_pairs(12, 3, 4, seed=2)
        valid = tiny_pairs(4, 3, 3, seed=5)
        cfg = TrainConfig(batch_tokens=64, warmup_steps=10, max_epochs=3,
                          patience_epochs=3, average_last_k=2, seed=4)
        student, records, C, loss = train_student(teacher, par, mono, 0.75, 3, cfg, valid)

        mixed = mix_monolingual(par, mono, 0.75, 3)
        oracle = NARTransformer(teacher.config.as_nar(), seed=4)
        init_student_from_teacher(teacher.params, oracle.params)
        oracle_records = train(oracle, mixed, cfg, valid)
        assert C == estimate_C(mixed) == 1  # 9 mono pairs of +1 among 15
        assert loss == dataset_loss(oracle, mixed, cfg.label_smoothing)
        assert ([(r.epoch, r.train_loss, r.valid_loss, r.lr) for r in records]
                == [(r.epoch, r.train_loss, r.valid_loss, r.lr) for r in oracle_records])
        assert student.config == oracle.config
        for name, p in oracle.params.items():
            np.testing.assert_array_equal(student.params[name].data, p.data, err_msg=name)
