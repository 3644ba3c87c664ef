"""Attention heads, schedule, training loop, and beam search."""

import gc
import itertools
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from scenemt import autodiff as ad
from scenemt import model as M
from scenemt.errors import ConfigError, DimensionError
from scenemt.masks import MaskSpec
from scenemt.model import (
    DecodeConfig,
    HeadSpec,
    Model,
    ModelConfig,
    TrainConfig,
    aggregated_keys,
    attention,
    lr_schedule,
    train,
    translate,
)
from scenemt.textpipe import BOS, EOS, PAD

from conftest import (
    beam_search,
    grad_check,
    greedy_decode,
    softmax_rows,
    sum_all,
    transpose,
)
from toydata import copy_task


# masks for a 3-token source that must be refused where they enter
BAD_MASKS = pytest.mark.parametrize("mask,error,match", [
    (None, ConfigError, "missing mask 'm'"),
    (np.ones((2, 2)), DimensionError, r"mask 'm' has shape \(2, 2\), expected \(3, 3\)"),
    (np.full((3, 3), 1.5), DimensionError, "mask 'm' values must lie in"),
    (np.full((3, 3), -0.5), DimensionError, "mask 'm' values must lie in"),
    (np.where(np.eye(3), np.nan, 0.5), DimensionError, "mask 'm' values must lie in"),
], ids=["missing", "shape", "above-one", "negative", "nan"])


def rand_qkv(rng, L, d):
    return (ad.Tensor(rng.normal(size=(L, d))) for _ in range(3))


class TestSasaAttention:
    def test_all_ones_mask_is_bitwise_vanilla(self):
        rng = np.random.default_rng(100)
        for _ in range(25):
            L = int(rng.integers(1, 17))
            d = int(rng.integers(1, 33))
            q, k, v = rand_qkv(rng, L, d)
            masked = attention(q, k, v, mask=np.ones((L, L)))
            plain = attention(q, k, v)
            assert (masked.data == plain.data).all()

    def test_length_one_returns_value_row(self):
        rng = np.random.default_rng(101)
        q, k, v = rand_qkv(rng, 1, 5)
        out = attention(q, k, v, mask=np.ones((1, 1)))
        np.testing.assert_array_equal(out.data, v.data)

    def test_block_diagonal_matches_dense_oracle(self):
        rng = np.random.default_rng(102)
        L, d = 4, 3
        mask = np.zeros((L, L))
        mask[:2, :2] = 1.0
        mask[2:, 2:] = 1.0
        q, k, v = rand_qkv(rng, L, d)
        out = attention(q, k, v, mask=mask).data

        logits = q.data @ k.data.T / math.sqrt(d)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        s = e / e.sum(axis=1, keepdims=True)
        expected = (s * mask) @ v.data
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_binary_mask_confines_contributions(self):
        # zeroing value rows outside a token's scene leaves its output alone
        rng = np.random.default_rng(103)
        L, d = 6, 4
        mask = np.zeros((L, L))
        mask[np.ix_([0, 1, 2], [0, 1, 2])] = 1.0
        mask[np.ix_([3, 4, 5], [3, 4, 5])] = 1.0
        q, k, v = rand_qkv(rng, L, d)
        base = attention(q, k, v, mask=mask).data
        v_zeroed = v.data.copy()
        v_zeroed[3:] = 0.0
        alt = attention(q, k, ad.Tensor(v_zeroed), mask=mask).data
        np.testing.assert_array_equal(base[:3], alt[:3])

    def test_row_sums_after_masking(self):
        rng = np.random.default_rng(104)
        L, d = 5, 3
        mask = (rng.random((L, L)) > 0.5).astype(float)
        mask[0, :] = 1.0
        np.fill_diagonal(mask, 1.0)
        q, k, v = rand_qkv(rng, L, d)
        logits = q.data @ k.data.T / math.sqrt(d)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        s = e / e.sum(axis=1, keepdims=True)
        weighted = s * mask
        sums = weighted.sum(axis=1)
        assert (sums <= 1.0 + 1e-12).all()
        assert sums[0] == pytest.approx(1.0, abs=1e-12)
        for i in range(1, L):
            if not (mask[i] == 1.0).all():
                assert sums[i] < 1.0

    def test_mask_dimension_mismatch(self):
        # masks are checked where they enter the model: encode for sasa heads
        model = Model(tiny_config(), [HeadSpec("encoder", {2}, {1}, MaskSpec("binary"), "sasa")],
                      seed=0)
        with pytest.raises(DimensionError, match=r"'sasa' has shape \(3, 3\), expected \(4, 4\)"):
            model.encode([1, 2, 3, 4], {"sasa": np.ones((3, 3))})

    def test_mask_range_checked(self):
        # and the decoder state for aggregated-key heads
        model = Model(tiny_config(), [HeadSpec("cross", {2}, {1}, MaskSpec("binary"), "sacra")],
                      seed=0)
        with pytest.raises(DimensionError, match="mask 'sacra' values must lie in"):
            model.decoder_state([1, 2], {"sacra": np.full((2, 2), 1.5)})


class TestSacraAttention:
    def test_all_ones_mask_averages_everything(self):
        rng = np.random.default_rng(110)
        l_src, l_trg, d, dk = 5, 3, 6, 4
        x = ad.Tensor(rng.normal(size=(l_src, d)))
        v = ad.Tensor(rng.normal(size=(l_src, dk)))
        q = ad.Tensor(rng.normal(size=(l_trg, d)))
        out = attention(q, aggregated_keys(x, np.ones((l_src, l_src))), v).data
        # identical keys -> uniform attention -> every row is mean of V
        np.testing.assert_allclose(out, np.tile(v.data.mean(axis=0), (l_trg, 1)),
                                   atol=1e-12)

    def test_identical_mask_rows_get_identical_weights(self):
        rng = np.random.default_rng(111)
        for _ in range(25):
            l_src = int(rng.integers(3, 9))
            l_trg = int(rng.integers(1, 6))
            d, dk = 8, 4
            mask = (rng.random((l_src, l_src)) > 0.5).astype(float)
            np.fill_diagonal(mask, 1.0)
            mask[1] = mask[0]  # force two identical rows
            x = ad.Tensor(rng.normal(size=(l_src, d)))
            v = ad.Tensor(rng.normal(size=(l_src, dk)))
            q = ad.Tensor(rng.normal(size=(l_trg, d)))
            k_tilde = (mask @ x.data) / l_src
            logits = q.data @ k_tilde.T / math.sqrt(dk)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            weights = e / e.sum(axis=1, keepdims=True)
            for i, j in itertools.combinations(range(l_src), 2):
                if (mask[i] == mask[j]).all():
                    assert np.abs(weights[:, i] - weights[:, j]).max() < 1e-12

    def test_three_token_fixture_key_matrix(self):
        rng = np.random.default_rng(112)
        x = ad.Tensor(rng.normal(size=(3, 4)))
        mask = np.array([[1.0, 1, 0], [1, 1, 0], [0, 0, 1]])
        hand = np.zeros((3, 4))
        for i in range(3):
            for col in range(4):
                hand[i, col] = sum(mask[i, j] * x.data[j, col] for j in range(3)) / 3
        k_tilde = aggregated_keys(x, mask).data
        np.testing.assert_allclose(k_tilde, hand, atol=1e-15)
        assert (k_tilde[0] == k_tilde[1]).all()

    def test_query_width_checked(self):
        rng = np.random.default_rng(113)
        x = ad.Tensor(rng.normal(size=(3, 4)))
        v = ad.Tensor(rng.normal(size=(3, 2)))
        q = ad.Tensor(rng.normal(size=(2, 2)))  # too narrow
        with pytest.raises(DimensionError):
            attention(q, aggregated_keys(x, np.ones((3, 3))), v)


def composed_attention(q, k, v, bias=None, mask=None):
    """Attention built from the small autodiff ops: the reference for the fused node."""
    logits = ad.matmul(q, transpose(k)) * (1.0 / math.sqrt(v.shape[-1]))
    s = softmax_rows(logits if bias is None else ad.add(logits, bias))
    return ad.matmul(s if mask is None else ad.mul(s, mask), v)


def random_attention_case(rng):
    """q, k, v, bias and mask for one sentence or a padded batch, with a head axis
    or none, masked or not, a key that may carry a head axis of 1."""
    lq, lk, d, dv = (int(n) for n in rng.integers(1, 7, size=4))
    heads = int(rng.integers(1, 4))
    batch = int(rng.integers(1, 4)) if rng.random() < 0.5 else None
    lead = (() if batch is None else (batch,)) + ((heads,) if rng.random() < 0.7 else ())
    shared_key = len(lead) > 0 and lead[-1] == heads and rng.random() < 0.4
    k_lead = lead[:-1] + (1,) if shared_key else lead
    q, k, v = (ad.Tensor(rng.normal(size=shape), requires_grad=True)
               for shape in (lead + (lq, d), k_lead + (lk, d), lead + (lk, dv)))
    bias = None
    if batch is not None and rng.random() < 0.7:
        lengths = rng.integers(1, lk + 1, size=batch)
        lengths = lengths.reshape((-1,) + (1,) * (len(lead) + 1))  # meets the batch axis only
        bias = np.where(np.arange(lk) >= lengths, M.NEG_BIAS, 0.0)
    elif lq == lk and rng.random() < 0.5:
        bias = np.triu(np.full((lq, lk), M.NEG_BIAS), k=1)
    mask = rng.random(lead + (lq, lk)) * (rng.random(lead + (lq, lk)) > 0.3) \
        if rng.random() < 0.6 else None
    return q, k, v, bias, mask


class TestFusedAttention:
    """The one-node attention against the composed small ops, kept here as the reference."""

    def test_forward_is_bitwise_and_gradients_agree(self):
        rng = np.random.default_rng(120)
        for _ in range(200):
            q, k, v, bias, mask = random_attention_case(rng)
            grads = []
            for fn in (attention, composed_attention):
                out = fn(q, k, v, bias, mask)
                r = np.random.default_rng(121).normal(size=out.shape)
                for t in (q, k, v):
                    t.grad = None
                sum_all(ad.mul(out, r)).backward()
                grads.append((out.data, [t.grad.copy() for t in (q, k, v)]))
            (fused, fused_grads), (composed, composed_grads) = grads
            np.testing.assert_array_equal(fused, composed)
            for got, expected in zip(fused_grads, composed_grads):
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)

    def test_batch_axes_that_do_not_agree_are_refused(self):
        q, k, v = (ad.Tensor(np.ones((n, 3, 4))) for n in (2, 3, 3))
        with pytest.raises(DimensionError):
            attention(q, k, v)
        with pytest.raises(DimensionError):
            attention(q, q, q, mask=np.ones((3, 2, 2)))


class TestFlatAdam:
    def test_matches_the_per_tensor_update_bitwise(self):
        rng = np.random.default_rng(130)
        shapes = [(3, 4), (5,), (2, 3, 4), (1,)]
        b1, b2, eps = 0.9, 0.98, 1e-9
        params = [ad.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        ref = [t.data.copy() for t in params]
        m_state = [np.zeros(s) for s in shapes]
        v_state = [np.zeros(s) for s in shapes]
        adam = M.Adam(params, b1, b2, eps)
        assert all(np.shares_memory(t.data, adam.data) for t in params)
        for step in range(1, 7):
            # a tensor no backward reaches counts as a zero gradient
            grads = [None if (i + step) % 4 == 0 else rng.normal(size=s)
                     for i, s in enumerate(shapes)]
            adam.zero_grad()
            for t, g in zip(params, grads):
                if g is not None:
                    t.accumulate(g)
            lr = lr_schedule(step, 4, 8) * 10
            adam.step(lr)
            for i, g in enumerate(grads):  # the per-tensor update, kept as the reference
                g = np.zeros(shapes[i]) if g is None else g
                m_state[i] = b1 * m_state[i] + (1 - b1) * g
                v_state[i] = b2 * v_state[i] + (1 - b2) * g * g
                m_hat = m_state[i] / (1 - b1 ** step)
                v_hat = v_state[i] / (1 - b2 ** step)
                ref[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            for t, expected in zip(params, ref):
                assert (t.data == expected).all()


class TestLrSchedule:
    def test_value_at_warmup(self):
        assert lr_schedule(4000, 4000, 256) == pytest.approx(9.8821e-4, rel=1e-4)

    def test_value_at_step_one(self):
        assert lr_schedule(1, 4000, 256) == pytest.approx(2.4705e-7, rel=1e-4)

    def test_maximum_at_warmup(self):
        values = [lr_schedule(s, 100, 64) for s in range(1, 400)]
        assert int(np.argmax(values)) + 1 == 100

    def test_rejects_step_zero(self):
        with pytest.raises(ConfigError):
            lr_schedule(0, 4000, 256)


def tiny_config(**kw):
    defaults = dict(src_vocab=8, trg_vocab=9, d_model=8, enc_layers=2,
                    dec_layers=2, heads=2, d_ff=12, max_len=16)
    defaults.update(kw)
    return ModelConfig(**defaults)


def dense_forward(model, src_ids, trg_in_ids, masks):
    """Independent plain-numpy mirror of the model's forward pass, head by head.

    Each head's matrices are sliced out of the stacked tensors; in decoder
    cross-attention, plain and aggregated-key heads are numbered within
    their own group.
    """
    cfg = model.cfg
    p = {name: t.data for name, t in model.params.items()}
    d, dk = cfg.d_model, cfg.d_k

    def ln(x, g, b, eps=1e-6):
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return g * (x - mu) / np.sqrt(var + eps) + b

    def softmax(x):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    def embed(table, ids):
        return table[np.asarray(ids)] * math.sqrt(d) + model.positions[: len(ids)]

    x = embed(p["src_emb"], src_ids)
    L = len(src_ids)
    for l in range(cfg.enc_layers):
        attn = np.zeros_like(x)
        pre = f"enc.{l}.attn"
        for h in range(cfg.heads):
            q, k, v = (x @ p[f"{pre}.{w}"][h] for w in ("wq", "wk", "wv"))
            s = softmax(q @ k.T / math.sqrt(dk))
            label = model.enc_masked[l, h]
            if label:
                s = s * masks[label]
            attn += (s @ v) @ p[f"{pre}.wo"][h]
        x = ln(x + attn, p[f"enc.{l}.ln1.g"], p[f"enc.{l}.ln1.b"])
        f = np.maximum(0, x @ p[f"enc.{l}.ffn.w1"] + p[f"enc.{l}.ffn.b1"])
        f = f @ p[f"enc.{l}.ffn.w2"] + p[f"enc.{l}.ffn.b2"]
        x = ln(x + f, p[f"enc.{l}.ln2.g"], p[f"enc.{l}.ln2.b"])

    y = embed(p["trg_emb"], trg_in_ids)
    T = len(trg_in_ids)
    causal = np.triu(np.full((T, T), M.NEG_BIAS), k=1)
    for l in range(cfg.dec_layers):
        attn = np.zeros_like(y)
        pre = f"dec.{l}.self"
        for h in range(cfg.heads):
            q, k, v = (y @ p[f"{pre}.{w}"][h] for w in ("wq", "wk", "wv"))
            s = softmax(q @ k.T / math.sqrt(dk) + causal)
            attn += (s @ v) @ p[f"{pre}.wo"][h]
        y = ln(y + attn, p[f"dec.{l}.ln1.g"], p[f"dec.{l}.ln1.b"])

        cross = np.zeros_like(y)
        seen = {"plain": 0, "agg": 0}  # heads met so far in each group
        for h in range(cfg.heads):
            label = model.cross_masked[l, h]
            group = "agg" if label else "plain"
            i = seen[group]
            seen[group] += 1
            pre = f"dec.{l}.cross.agg" if label else f"dec.{l}.cross"
            v = x @ p[f"{pre}.wv"][i]
            q = y @ p[f"{pre}.wq"][i]
            if label:
                k = (masks[label] @ x) / L
            else:
                k = x @ p[f"{pre}.wk"][i]
            s = softmax(q @ k.T / math.sqrt(dk))
            cross += (s @ v) @ p[f"{pre}.wo"][i]
        y = ln(y + cross, p[f"dec.{l}.ln2.g"], p[f"dec.{l}.ln2.b"])
        f = np.maximum(0, y @ p[f"dec.{l}.ffn.w1"] + p[f"dec.{l}.ffn.b1"])
        f = f @ p[f"dec.{l}.ffn.w2"] + p[f"dec.{l}.ffn.b2"]
        y = ln(y + f, p[f"dec.{l}.ln3.g"], p[f"dec.{l}.ln3.b"])
    return y @ p["out.w"] + p["out.b"]


def per_head_draws(cfg, cross_masked, seed):
    """Per-head initial weights, drawn one head at a time in build order.

    Returns {stacked parameter name: list of per-head arrays}; stacking each
    list must give the model's initial tensor bit for bit.
    """
    rng = np.random.default_rng(seed)
    d, dk = cfg.d_model, cfg.d_k
    s, so = 1 / math.sqrt(d), 1 / math.sqrt(dk)
    out = {}

    def draw(name, shape, scale):
        out.setdefault(name, []).append(rng.normal(0.0, scale, size=shape))

    def ffn(pre):
        draw(f"{pre}.ffn.w1", (d, cfg.d_ff), s)
        draw(f"{pre}.ffn.w2", (cfg.d_ff, d), 1 / math.sqrt(cfg.d_ff))

    draw("src_emb", (cfg.src_vocab, d), s)
    draw("trg_emb", (cfg.trg_vocab, d), s)
    for l in range(cfg.enc_layers):
        for h in range(cfg.heads):
            for w in ("wq", "wk", "wv"):
                draw(f"enc.{l}.attn.{w}", (d, dk), s)
            draw(f"enc.{l}.attn.wo", (dk, d), so)
        ffn(f"enc.{l}")
    for l in range(cfg.dec_layers):
        for h in range(cfg.heads):
            for w in ("wq", "wk", "wv"):
                draw(f"dec.{l}.self.{w}", (d, dk), s)
            draw(f"dec.{l}.self.wo", (dk, d), so)
        for h in range(cfg.heads):
            if cross_masked[l, h]:
                draw(f"dec.{l}.cross.agg.wq", (d, d), s)
                draw(f"dec.{l}.cross.agg.wv", (d, dk), s)
                draw(f"dec.{l}.cross.agg.wo", (dk, d), so)
            else:
                for w in ("wq", "wk", "wv"):
                    draw(f"dec.{l}.cross.{w}", (d, dk), s)
                draw(f"dec.{l}.cross.wo", (dk, d), so)
        ffn(f"dec.{l}")
    return out


class TestForward:
    def test_no_specs_equals_all_ones_sasa(self):
        # same seed builds identical parameters; the all-ones mask must not
        # perturb a single bit
        src, trg = [4, 5, 6], [BOS, 7, 3]
        plain = Model(tiny_config(), seed=3)
        masked = Model(
            tiny_config(),
            [HeadSpec("encoder", {2}, {1}, MaskSpec("binary"), "sasa")],
            seed=3,
        )
        out_plain = plain.forward(src, trg)
        out_masked = masked.forward(src, trg, {"sasa": np.ones((3, 3))})
        assert (out_plain.data == out_masked.data).all()

    def test_default_placement_with_all_ones_mask_is_vanilla(self):
        # the tuned placement (encoder layer 4, head 1) on the full-depth
        # architecture, neutralized by an all-ones mask
        cfg = tiny_config(enc_layers=4, dec_layers=4)
        src, trg = [4, 5, 6, 2], [BOS, 7]
        plain = Model(cfg, seed=8)
        masked = Model(cfg, [M.sasa_default()], seed=8)
        out_plain = plain.forward(src, trg)
        out_masked = masked.forward(src, trg, {"sasa": np.ones((4, 4))})
        assert (out_plain.data == out_masked.data).all()

    def test_matches_dense_oracle(self):
        specs = [
            HeadSpec("encoder", {2}, {1}, MaskSpec("binary"), "sasa"),
            HeadSpec("cross", {1, 2}, {2}, MaskSpec("binary"), "sacra"),
        ]
        model = Model(tiny_config(), specs, seed=11)
        # a zero output layer would make every logit 0 on both sides
        out_w = model.params["out.w"].data
        out_w[:] = np.random.default_rng(12).normal(size=out_w.shape)
        src, trg = [1, 2, 3, 4], [BOS, 5, 6]
        mask = np.zeros((4, 4))
        mask[:2, :2] = 1.0
        mask[2:, 2:] = 1.0
        masks = {"sasa": mask, "sacra": mask}
        got = model.forward(src, trg, masks).data
        expected = dense_forward(model, src, trg, masks)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_missing_mask_is_config_error(self):
        model = Model(
            tiny_config(), [HeadSpec("encoder", {1}, {1}, MaskSpec("binary"), "sasa")],
            seed=0,
        )
        with pytest.raises(ConfigError, match="missing mask"):
            model.forward([1, 2], [BOS, 3], {})

    def test_wrong_mask_length_rejected(self):
        model = Model(
            tiny_config(), [HeadSpec("encoder", {1}, {1}, MaskSpec("binary"), "sasa")],
            seed=0,
        )
        with pytest.raises(DimensionError):
            model.forward([1, 2, 3], [BOS, 3], {"sasa": np.ones((2, 2))})

    @pytest.mark.parametrize("site", ["encoder", "cross"])
    @BAD_MASKS
    def test_bad_masks_are_refused_by_encode_and_decode(self, site, mask, error, match):
        model = Model(tiny_config(), [HeadSpec(site, {2}, {1}, MaskSpec("binary"), "m")], seed=0)
        masks = {} if mask is None else {"m": mask}
        with pytest.raises(error, match=match):
            if site == "encoder":
                model.encode([1, 2, 3], masks)
            else:
                model.decoder_state([1, 2, 3], masks)

    def test_each_label_is_checked_once_per_forward(self, monkeypatch):
        # sasa and pascal share an encoder layer, sasa and sacra span two
        # layers each: still one check per label, never one per layer
        specs = [
            HeadSpec("encoder", {1, 2}, {1}, MaskSpec("binary"), "sasa"),
            HeadSpec("encoder", {2}, {2}, MaskSpec("pascal"), "pascal"),
            HeadSpec("cross", {1, 2}, {2}, MaskSpec("binary"), "sacra"),
        ]
        model = Model(tiny_config(), specs, seed=0)
        calls = []
        check = M.check_mask

        def counting_check(mask, label, shape):
            calls.append(label)
            return check(mask, label, shape)

        monkeypatch.setattr(M, "check_mask", counting_check)
        pairs, masks = mixed_batch(np.random.default_rng(7), n=3)
        src, trg_in, _, batch_masks = M.pad_batch(model, pairs, masks)
        (one_src, one_trg), one_masks = pairs[0], masks[0]
        for forward_args in [(one_src, [BOS] + one_trg, one_masks), (src, trg_in, batch_masks)]:
            calls.clear()
            model.forward(*forward_args)
            assert sorted(calls) == ["pascal", "sacra", "sasa"]

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            Model(tiny_config(), [HeadSpec("encoder", {9}, {1}, MaskSpec("binary"))])
        with pytest.raises(ConfigError):
            Model(tiny_config(), [HeadSpec("encoder", {1}, {5}, MaskSpec("binary"))])
        with pytest.raises(ConfigError):
            Model(
                tiny_config(),
                [
                    HeadSpec("encoder", {1}, {1}, MaskSpec("binary"), "a"),
                    HeadSpec("encoder", {1, 2}, {1}, MaskSpec("udiscal"), "b"),
                ],
            )

    def test_d_model_heads_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(src_vocab=4, trg_vocab=4, d_model=10, heads=4)


class TestDefaultPlacements:
    def test_tuned_hyperparameters(self):
        sasa = M.sasa_default()
        assert (sasa.site, sasa.layers, sasa.heads) == ("encoder", {4}, {1})
        sacra = M.sacra_default()
        assert (sacra.site, sacra.layers, sacra.heads) == ("cross", {2, 3}, {1})
        pascal = M.pascal_default()
        assert (pascal.site, pascal.layers, pascal.heads) == (
            "encoder", {1}, {1, 2, 3, 4, 5},
        )
        udiscal = M.udiscal_default()
        assert (udiscal.site, udiscal.layers, udiscal.heads) == ("encoder", {1}, {1})

    def test_combined_semantic_and_syntactic_specs_coexist(self):
        # the combined configuration keeps each model's own hyperparameters
        cfg = ModelConfig(src_vocab=8, trg_vocab=8, d_model=10, enc_layers=4,
                          dec_layers=4, heads=5, d_ff=16, max_len=16)
        model = Model(cfg, [M.sasa_default(), M.udiscal_default()], seed=1)
        assert model.enc_masked[(3, 0)] == "sasa"
        assert model.enc_masked[(0, 0)] == "udiscal"

    def test_paper_defaults_fit_the_default_architecture(self):
        cfg = ModelConfig(src_vocab=8, trg_vocab=8, d_model=40, heads=8,
                          d_ff=16, max_len=16)
        Model(cfg, [M.sasa_default(), M.sacra_default()], seed=0)
        Model(cfg, [M.pascal_default()], seed=0)
        Model(cfg, [M.udiscal_default()], seed=0)

    def test_pascal_and_udiscal_defaults_collide_by_design(self):
        # both tuned placements claim encoder layer 1 head 1; combining
        # them verbatim is invalid and must be rejected loudly
        cfg = ModelConfig(src_vocab=8, trg_vocab=8, d_model=40, heads=8,
                          d_ff=16, max_len=16)
        with pytest.raises(ConfigError, match="masked twice"):
            Model(cfg, [M.pascal_default(), M.udiscal_default()], seed=0)


class TestEndToEndGradients:
    def test_two_layer_two_head_model_with_sasa_and_sacra(self):
        specs = [
            HeadSpec("encoder", {2}, {1}, MaskSpec("binary"), "sasa"),
            HeadSpec("cross", {1}, {1}, MaskSpec("binary"), "sacra"),
        ]
        cfg = tiny_config(src_vocab=7, trg_vocab=7)
        model = Model(cfg, specs, seed=5)
        # with the zero-initialised output layer every other gradient is 0
        out_w = model.params["out.w"].data
        out_w[:] = np.random.default_rng(6).normal(size=out_w.shape)
        src, trg = [1, 2, 3, 4], [5, 6]
        mask = np.zeros((4, 4))
        mask[:3, :3] = 1.0
        mask[2:, 2:] = 1.0
        masks = {"sasa": mask, "sacra": mask}

        def loss(_):
            logits = model.forward(src, [BOS] + trg, masks)
            return ad.cross_entropy_smoothed(logits, trg + [EOS], 0.1)

        # spot-check one tensor from every parameter role; decoder layer 0
        # has both cross-attention groups, the aggregated-key one on head 1
        for name in [
            "src_emb", "trg_emb",
            "enc.1.attn.wq", "enc.1.attn.wo", "enc.0.ffn.w1", "enc.0.ln1.g",
            "dec.0.cross.agg.wq", "dec.0.cross.agg.wv", "dec.0.cross.agg.wo",
            "dec.0.cross.wq", "dec.1.cross.wk",
            "dec.0.self.wo", "dec.1.ln3.b", "out.w", "out.b",
        ]:
            err = grad_check(loss, model.params[name], h=1e-5)
            assert err <= 1e-4, f"{name}: {err}"


class TestTraining:
    def make_task(self, n_pairs=24, seed=0):
        sents, vocab, covers = copy_task(pairs=n_pairs, seed=seed)
        pairs = [(vocab.encode(s), vocab.encode(s)) for s in sents]
        mask_list = [MaskSpec("binary").build(cover=c).values for c in covers]
        return pairs, vocab, (lambda i: {"sasa": mask_list[i], "sacra": mask_list[i]})

    def test_loss_curve_is_deterministic(self):
        pairs, vocab, provider = self.make_task()
        cfg = ModelConfig(src_vocab=len(vocab), trg_vocab=len(vocab),
                          d_model=8, enc_layers=1, dec_layers=1, heads=2,
                          d_ff=16, max_len=16)
        tc = TrainConfig(steps=5, batch_size=4, seed=9)
        r1 = train(pairs, cfg, tc)
        r2 = train(pairs, cfg, tc)
        assert r1.losses == r2.losses  # bitwise, not approximate

    def test_step_zero_loss_near_log_vocab(self):
        pairs, vocab, provider = self.make_task()
        cfg = ModelConfig(src_vocab=len(vocab), trg_vocab=len(vocab),
                          d_model=8, enc_layers=1, dec_layers=1, heads=2,
                          d_ff=16, max_len=16)
        r = train(pairs, cfg, TrainConfig(steps=1, batch_size=4, seed=1))
        assert abs(r.losses[0] - math.log(len(vocab))) / math.log(len(vocab)) < 0.1

    def test_missing_mask_fails_before_training(self):
        pairs, vocab, _ = self.make_task()
        cfg = ModelConfig(src_vocab=len(vocab), trg_vocab=len(vocab),
                          d_model=8, enc_layers=2, dec_layers=2, heads=2,
                          d_ff=16, max_len=16)
        spec = HeadSpec("encoder", {1}, {1}, MaskSpec("binary"), "sasa")
        with pytest.raises(ConfigError, match="pair 0: missing mask 'sasa'"):
            train(pairs, cfg, TrainConfig(steps=1, batch_size=2, seed=0),
                  [spec], lambda i: {})

    @BAD_MASKS
    def test_bad_mask_fails_before_training_naming_the_pair(self, monkeypatch,
                                                             mask, error, match):
        pairs, vocab, _ = self.make_task()
        pairs[5] = ([4, 5, 6], [4, 5, 6])
        cfg = ModelConfig(src_vocab=len(vocab), trg_vocab=len(vocab),
                          d_model=8, enc_layers=2, dec_layers=2, heads=2,
                          d_ff=16, max_len=16)
        spec = HeadSpec("cross", {1}, {1}, MaskSpec("binary"), "m")

        def provider(i):
            if i == 5:
                return {} if mask is None else {"m": mask}
            return {"m": np.ones((len(pairs[i][0]),) * 2)}

        def no_model(*args, **kwargs):
            raise AssertionError("the model was built before the masks were checked")

        monkeypatch.setattr(M, "Model", no_model)
        with pytest.raises(error, match=f"pair 5: {match}"):
            train(pairs, cfg, TrainConfig(steps=1, batch_size=2, seed=0), [spec], provider)

    def test_step_one_loss_is_the_per_pair_sum_over_the_seeded_batch(self, monkeypatch):
        pairs, vocab, provider = self.make_task()
        cfg = ModelConfig(src_vocab=len(vocab), trg_vocab=len(vocab),
                          d_model=8, enc_layers=4, dec_layers=4, heads=2,
                          d_ff=16, max_len=16)
        specs = [M.sasa_default(), M.sacra_default()]
        # a non-zero output layer makes the step-1 loss depend on every pair
        out_w = np.random.default_rng(5).normal(size=(8, len(vocab)))
        build = Model._build

        def build_with_output(self):
            build(self)
            self.params["out.w"].data[:] = out_w

        monkeypatch.setattr(Model, "_build", build_with_output)
        model = Model(cfg, specs, seed=4)
        total = tokens = 0
        for i in np.random.default_rng(4 + 1).integers(0, len(pairs), size=5):
            src, trg = pairs[i]
            logits = model.forward(src, [BOS] + trg, provider(int(i)))
            total += ad.cross_entropy_smoothed(logits, trg + [EOS], 0.1).item()
            tokens += len(trg) + 1
        r = train(pairs, cfg, TrainConfig(steps=1, batch_size=5, seed=4), specs, provider)
        assert abs(r.losses[0] - total / tokens) <= 1e-12

    @pytest.mark.parametrize("eval_every", [0, 1, 3])
    def test_each_pair_mask_is_checked_once_per_train_call(self, monkeypatch, eval_every):
        pairs, vocab, provider = self.make_task(n_pairs=6)
        cfg = ModelConfig(src_vocab=len(vocab), trg_vocab=len(vocab),
                          d_model=8, enc_layers=1, dec_layers=1, heads=2,
                          d_ff=16, max_len=16)
        specs = [HeadSpec("encoder", {1}, {1}, MaskSpec("binary"), "sasa"),
                 HeadSpec("cross", {1}, {2}, MaskSpec("binary"), "sacra")]
        per_pair = Counter()
        check = M.check_mask

        def counting(mask, label, shape):
            if len(shape) == 2:  # one pair's mask; forward passes check [B, S, S] batches
                per_pair[label] += 1
            return check(mask, label, shape)

        monkeypatch.setattr(M, "check_mask", counting)
        train(pairs, cfg, TrainConfig(steps=3, batch_size=2, seed=0, eval_every=eval_every),
              specs, provider)
        assert per_pair == {"sasa": len(pairs), "sacra": len(pairs)}

    def test_a_training_step_stays_within_its_tape_node_budget(self):
        # the criterion-07 model with SASA and SACrA heads, one batch-16 step
        # as train builds it; 430 nodes before attention became one node and
        # the head projections one GEMM each, 304 before the bias adds went
        # into `linear` and the residual adds into `layer_norm`
        sents, vocab, covers = copy_task(pairs=16, seed=13)
        pairs = [(vocab.encode(s), vocab.encode(s)) for s in sents]
        masks = [{"sasa": m, "sacra": m}
                 for m in (MaskSpec("binary").build(cover=c).values for c in covers)]
        cfg = ModelConfig(src_vocab=len(vocab), trg_vocab=len(vocab), d_model=32, heads=2,
                          d_ff=128, max_len=32)
        model = Model(cfg, [M.sasa_default(), M.sacra_default()], seed=7)
        src, trg_in, gold, batch_masks = M.pad_batch(model, pairs, masks)
        total = ad.cross_entropy_smoothed(model.forward(src, trg_in, batch_masks), gold, 0.1)
        loss = total * (1.0 / int((gold >= 0).sum()))
        assert len(ad.Tape.trace(loss).nodes) <= 270

    def test_padding_id_in_a_pair_is_rejected(self):
        pairs, vocab, _ = self.make_task()
        pairs[3] = (pairs[3][0] + [PAD], pairs[3][1])
        cfg = ModelConfig(src_vocab=len(vocab), trg_vocab=len(vocab),
                          d_model=8, enc_layers=1, dec_layers=1, heads=2,
                          d_ff=16, max_len=16)
        with pytest.raises(ConfigError, match="pair 3 holds the reserved padding id"):
            train(pairs, cfg, TrainConfig(steps=1, batch_size=2, seed=0))

    def test_loss_decreases_on_tiny_run(self):
        pairs, vocab, provider = self.make_task()
        cfg = ModelConfig(src_vocab=len(vocab), trg_vocab=len(vocab),
                          d_model=16, enc_layers=1, dec_layers=1, heads=2,
                          d_ff=32, max_len=16)
        tc = TrainConfig(steps=60, batch_size=8, seed=2, warmup=30)
        r = train(pairs, cfg, tc)
        assert np.mean(r.losses[-10:]) < np.mean(r.losses[:10])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_step_index(self, monkeypatch):
        from scenemt.errors import NumericError

        # a learning rate past the float64 range overflows the activations
        # (layer norm shrugs off anything smaller); the loop must name the
        # failing step
        monkeypatch.setattr(M, "lr_schedule", lambda step, warmup, d: 1e200)
        pairs, vocab, provider = self.make_task()
        cfg = ModelConfig(src_vocab=len(vocab), trg_vocab=len(vocab),
                          d_model=8, enc_layers=1, dec_layers=1, heads=2,
                          d_ff=16, max_len=16)
        with pytest.raises(NumericError, match=r"step \d+"):
            train(pairs, cfg, TrainConfig(steps=50, batch_size=4, seed=3))


def mixed_batch(rng, n=6, vocab=8):
    """Pairs of source lengths 3-8 (all present) with random masks in [0, 1]."""
    lengths = [3, 8] + [int(x) for x in rng.integers(3, 9, size=n - 2)]
    pairs, masks = [], []
    for L in lengths:
        src = [int(x) for x in rng.integers(4, vocab, size=L)]
        trg = [int(x) for x in rng.integers(4, vocab, size=int(rng.integers(1, 9)))]
        m = (rng.random((L, L)) > 0.4) * rng.random((L, L))
        np.fill_diagonal(m, 1.0)
        pairs.append((src, trg))
        masks.append({"sasa": m, "sacra": m.T.copy(), "pascal": m[::-1].copy()})
    return pairs, masks


class TestBatchedForward:
    """One padded batch against the sum of single-sentence passes."""

    def setup_method(self):
        self.cfg = tiny_config(enc_layers=4, dec_layers=4)
        self.model = self.build([M.sasa_default(), M.sacra_default()])
        self.pairs, self.masks = mixed_batch(np.random.default_rng(32))

    def build(self, specs=()):
        # the output layer starts at zero, which would make every logit 0
        model = Model(self.cfg, specs, seed=31)
        out_w = model.params["out.w"].data
        out_w[:] = np.random.default_rng(35).normal(size=out_w.shape)
        return model

    def test_logits_match_single_sentences(self):
        src, trg_in, gold, masks = M.pad_batch(self.model, self.pairs, self.masks)
        assert src.shape == (6, 8) and (src[0, 3:] == PAD).all()
        batched = self.model.forward(src, trg_in, masks).data
        for b, ((s, t), m) in enumerate(zip(self.pairs, self.masks)):
            solo = self.model.forward(s, [BOS] + t, m).data
            assert solo.ndim == 2
            np.testing.assert_allclose(batched[b, : len(t) + 1], solo, rtol=0, atol=1e-12)

    def test_loss_and_every_gradient_match_summed_single_sentences(self):
        model = self.model
        src, trg_in, gold, masks = M.pad_batch(model, self.pairs, self.masks)
        batched = ad.cross_entropy_smoothed(model.forward(src, trg_in, masks), gold, 0.1)
        batched.backward()
        grads = {n: t.grad.copy() for n, t in model.params.items()}
        for t in model.params.values():
            t.grad = None
        total = 0.0
        for (s, t), m in zip(self.pairs, self.masks):
            loss = ad.cross_entropy_smoothed(model.forward(s, [BOS] + t, m), t + [EOS], 0.1)
            loss.backward()
            total += loss.item()
        assert abs(batched.item() - total) <= 1e-10
        for name, t in model.params.items():
            np.testing.assert_allclose(grads[name], t.grad, rtol=0, atol=1e-10, err_msg=name)

    def test_all_ones_masks_keep_real_rows_bitwise_vanilla(self):
        # criterion 02 in batch form: padding must not let the masked heads
        # drift from plain attention by a single bit
        plain = self.build()
        ones = [{"sasa": np.ones((len(s), len(s)))} for s, _ in self.pairs]
        sasa_only = self.build([M.sasa_default()])
        src, trg_in, gold, masks = M.pad_batch(sasa_only, self.pairs, ones)
        real = gold >= 0
        out_plain = plain.forward(src, trg_in).data
        out_masked = sasa_only.forward(src, trg_in, masks).data
        assert (out_plain[real] == out_masked[real]).all()

    def test_aggregated_keys_divide_by_true_source_length(self):
        rng = np.random.default_rng(33)
        x = ad.Tensor(rng.normal(size=(2, 5, 4)))
        q = ad.Tensor(rng.normal(size=(2, 3, 4)))
        mask = np.zeros((2, 5, 5))
        mask[0, :3, :3] = 1.0
        mask[1] = 1.0
        lengths = np.array([3, 5])
        keys = aggregated_keys(x, mask, lengths)
        solo_keys = aggregated_keys(ad.Tensor(x.data[0, :3]), mask[0, :3, :3])
        np.testing.assert_allclose(keys.data[0, :3], solo_keys.data, rtol=0, atol=1e-15)
        # one-hot values read the weights out; the padded keys get none
        bias = np.where(np.arange(5) >= lengths[:, None, None], M.NEG_BIAS, 0.0)
        w = attention(q, keys, ad.Tensor(np.eye(5)), bias).data
        solo = attention(ad.Tensor(q.data[0]), solo_keys, ad.Tensor(np.eye(5)[:3])).data
        np.testing.assert_allclose(w[0], solo, rtol=0, atol=1e-15)
        assert (w[0, :, 3:] == 0.0).all()

    def test_batched_mask_shape_checked(self):
        src, trg_in, gold, masks = M.pad_batch(self.model, self.pairs, self.masks)
        masks["sasa"] = masks["sasa"][:, :-1, :-1]
        with pytest.raises(DimensionError):
            self.model.forward(src, trg_in, masks)

    def test_token_accuracy_matches_per_pair_reference(self):
        # more pairs than one accuracy chunk, so chunking is exercised
        pairs, masks = mixed_batch(np.random.default_rng(34), n=M.ACCURACY_CHUNK + 7)
        correct = total = 0
        for (s, t), m in zip(pairs, masks):
            pred = self.model.forward(s, [BOS] + t, m).data.argmax(axis=1)
            correct += int((pred == np.array(t + [EOS])).sum())
            total += len(t) + 1
        got = M.token_accuracy(self.model, pairs, lambda i: masks[i])
        assert got == correct / total

    def test_token_accuracy_refuses_a_wrong_shape_mask_naming_the_pair(self):
        masks = [dict(m) for m in self.masks]
        masks[2]["sasa"] = np.ones((1, 1))  # would broadcast into the padded batch
        with pytest.raises(DimensionError, match=r"pair 2: mask 'sasa' has shape \(1, 1\)"):
            M.token_accuracy(self.model, self.pairs, lambda i: masks[i])

    def test_token_accuracy_refuses_a_missing_label(self):
        with pytest.raises(ConfigError, match="pair 0: missing mask 'sacra'"):
            M.token_accuracy(self.model, self.pairs, lambda i: {"sasa": self.masks[i]["sasa"]})

    def test_dropped_graph_is_freed_without_the_collector(self):
        sents, vocab, covers = copy_task(pairs=1, min_len=8, max_len=8, seed=5)
        src = vocab.encode(sents[0])
        mask = MaskSpec("binary").build(cover=covers[0]).values
        cfg = ModelConfig(src_vocab=len(vocab), trg_vocab=len(vocab), d_model=32,
                          heads=2, d_ff=128, max_len=32)
        model = Model(cfg, [M.sasa_default(), M.sacra_default()], seed=7)
        masks = {"sasa": mask, "sacra": mask}
        gc.collect()
        gc.disable()
        try:
            loss = ad.cross_entropy_smoothed(
                model.forward(src, [BOS] + src, masks), src + [EOS], 0.1
            )
            loss.backward()
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()


def random_placement(rng, agg_head, heads=3):
    """sasa and pascal on one encoder layer, sacra on `agg_head` (0-based) and maybe more."""
    order = [int(h) + 1 for h in rng.permutation(heads)]
    layer = int(rng.integers(1, 3))
    pascal = set(order[1:1 + int(rng.integers(1, heads))])
    agg = {agg_head + 1} | ({int(rng.integers(1, heads + 1))} if rng.random() < 0.5 else set())
    return [
        HeadSpec("encoder", {layer}, {order[0]}, MaskSpec("binary"), "sasa"),
        HeadSpec("encoder", {layer}, pascal, MaskSpec("pascal"), "pascal"),
        HeadSpec("cross", {1, int(rng.integers(1, 3))}, agg, MaskSpec("binary"), "sacra"),
    ]


class TestStackedHeads:
    """Heads as an array axis, against per-head draws and the per-head oracle."""

    def model(self, specs, seed=41, **kw):
        cfg = tiny_config(src_vocab=9, trg_vocab=9, d_model=12, heads=3, **kw)
        model = Model(cfg, specs, seed=seed)
        out_w = model.params["out.w"].data
        out_w[:] = np.random.default_rng(seed + 1).normal(size=out_w.shape)
        return model

    @pytest.mark.parametrize("cross_heads", [set(), {1}, {2}, {3}, {1, 3}, {1, 2, 3}])
    def test_initial_weights_stack_the_per_head_draws_bitwise(self, cross_heads):
        specs = [HeadSpec("cross", {2}, cross_heads, MaskSpec("binary"))] if cross_heads else []
        model = Model(tiny_config(d_model=12, heads=3), specs, seed=9)
        draws = per_head_draws(model.cfg, model.cross_masked, seed=9)
        drawn = {n for n, t in model.params.items() if t.data.any() and not n.endswith(".g")}
        assert drawn == set(draws)
        for name, arrays in draws.items():
            expected = arrays[0] if len(arrays) == 1 else np.stack(arrays)
            assert (model.params[name].data == expected).all(), name

    def test_attention_tensors_are_stacked_per_layer(self):
        cfg = ModelConfig(src_vocab=12, trg_vocab=12, d_model=32, heads=2, d_ff=128, max_len=32)
        model = Model(cfg, [M.sasa_default(), M.sacra_default()], seed=7)
        assert len(model.params) == 130
        assert model.params["enc.3.attn.wq"].shape == (2, 32, 16)
        assert model.params["enc.3.attn.wo"].shape == (2, 16, 32)
        assert model.params["dec.1.cross.agg.wq"].shape == (1, 32, 32)
        assert model.params["dec.1.cross.wk"].shape == (1, 32, 16)
        assert "dec.0.cross.agg.wq" not in model.params

    @pytest.mark.parametrize("agg_head", range(3))
    def test_dense_oracle_on_sentences_and_padded_batches(self, agg_head):
        rng = np.random.default_rng(50 + agg_head)
        model = self.model(random_placement(rng, agg_head))
        # B == H, where a [B, 1, n] padding bias or a head-less aggregated
        # key would silently broadcast the batch against the heads
        for n in (3, 5):
            pairs, masks = mixed_batch(rng, n)
            src, trg_in, gold, batch_masks = M.pad_batch(model, pairs, masks)
            batched = model.forward(src, trg_in, batch_masks).data
            for b, ((s, t), m) in enumerate(zip(pairs, masks)):
                expected = dense_forward(model, s, [BOS] + t, m)
                np.testing.assert_allclose(model.forward(s, [BOS] + t, m).data, expected,
                                           rtol=0, atol=1e-10)
                np.testing.assert_allclose(batched[b, : len(t) + 1], expected,
                                           rtol=0, atol=1e-10)

    @pytest.mark.parametrize("agg_head", range(3))
    def test_batch_gradients_match_summed_single_sentences(self, agg_head):
        rng = np.random.default_rng(60 + agg_head)
        model = self.model(random_placement(rng, agg_head))
        pairs, masks = mixed_batch(rng, 3)  # B == H
        src, trg_in, gold, batch_masks = M.pad_batch(model, pairs, masks)
        batched = ad.cross_entropy_smoothed(model.forward(src, trg_in, batch_masks), gold, 0.1)
        batched.backward()
        grads = {n: t.grad.copy() for n, t in model.params.items()}
        for t in model.params.values():
            t.grad = None
        total = 0.0
        for (s, t), m in zip(pairs, masks):
            loss = ad.cross_entropy_smoothed(model.forward(s, [BOS] + t, m), t + [EOS], 0.1)
            loss.backward()
            total += loss.item()
        assert abs(batched.item() - total) <= 1e-10
        for name, t in model.params.items():
            np.testing.assert_allclose(grads[name], t.grad, rtol=0, atol=1e-10, err_msg=name)

    def test_head_less_encoder_output_is_rejected(self):
        rng = np.random.default_rng(70)
        x = ad.Tensor(rng.normal(size=(2, 5, 4)))  # [B, L, d] against a [B, H, L, L] mask, B == H
        with pytest.raises(DimensionError):
            aggregated_keys(x, np.ones((2, 2, 5, 5)), lengths=[5, 4])

    def test_empty_label_is_rejected(self):
        with pytest.raises(ConfigError, match="non-empty label"):
            HeadSpec("encoder", {1}, {1}, MaskSpec("binary"), "")


def table_scorer(table, vocab_size):
    uniform = [1.0 / vocab_size] * vocab_size

    def score(prefix):
        row = np.full(vocab_size, -50.0)
        probs = table.get(prefix, uniform)
        row[: len(probs)] = np.log(probs)
        return row
    return score


class TestBeamSearch:
    def exhaustive_best(self, score_fn, bos, length, vocab):
        best = None
        for seq in itertools.product(range(vocab), repeat=length):
            lp, prefix = 0.0, (bos,)
            for tok in seq:
                lp += float(score_fn(prefix)[tok])
                prefix += (tok,)
            key = (-lp, seq)
            if best is None or key < best:
                best = key
        return list(best[1]), -best[0]

    def greedy_trap_table(self):
        # greedy takes token 0 first and lands on 0.15; the optimum 0.324
        # starts from the lower-probability first token
        return {
            (9,): [0.6, 0.4],
            (9, 0): [0.5, 0.5],
            (9, 1): [0.9, 0.1],
            (9, 0, 0): [0.5, 0.5],
            (9, 0, 1): [0.5, 0.5],
            (9, 1, 0): [0.9, 0.1],
            (9, 1, 1): [0.5, 0.5],
        }

    def test_beam_two_finds_exhaustive_optimum(self):
        score = table_scorer(self.greedy_trap_table(), 3)
        cfg = DecodeConfig(beam=2, alpha=0.0, max_len=3)
        result = beam_search(score, bos=9, eos=2, cfg=cfg)
        expected_tokens, expected_lp = self.exhaustive_best(score, 9, 3, 2)
        assert result.tokens == expected_tokens == [1, 0, 0]
        assert not result.finished
        assert result.score == pytest.approx(expected_lp, abs=1e-12)

    def test_beam_two_beats_greedy_on_trap(self):
        score = table_scorer(self.greedy_trap_table(), 3)
        greedy = greedy_decode(score, bos=9, eos=2, max_len=3)
        assert greedy.tokens == [0, 0, 0]

    def test_beam_one_equals_greedy_on_random_models(self):
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            vocab, max_len = 6, 8

            def score(prefix, rng_seed=seed):
                mix = abs(hash(prefix)) % (2 ** 31)
                local = np.random.default_rng(rng_seed * 2654435761 % (2**31) + mix)
                logits = local.normal(size=vocab)
                return logits - math.log(np.exp(logits).sum())

            b = beam_search(score, bos=0, eos=1, cfg=DecodeConfig(beam=1, alpha=0.6, max_len=max_len))
            g = greedy_decode(score, bos=0, eos=1, max_len=max_len)
            assert b.tokens == g.tokens
            # with no length penalty, tokens, score and finished flag are bitwise equal
            assert beam_search(score, bos=0, eos=1,
                               cfg=DecodeConfig(beam=1, alpha=0.0, max_len=max_len)) == g

    def test_alpha_zero_is_pure_logprob(self):
        table = {
            (9,): [0.4, 0.59, 0.01],
            (9, 0): [0.01, 0.01, 0.98],
            (9, 1): [0.5, 0.49, 0.01],
            (9, 1, 0): [0.01, 0.01, 0.98],
            (9, 1, 1): [0.01, 0.01, 0.98],
        }
        score = table_scorer(table, 3)
        res = beam_search(score, bos=9, eos=2, cfg=DecodeConfig(beam=3, alpha=0.0, max_len=4))
        assert res.finished
        # with alpha=0 the short high-prob finish wins on raw log-prob
        assert res.tokens == [0, 2]

    def test_positive_alpha_rewards_longer_finish(self):
        table = {
            (9,): [0.4, 0.59, 0.01],
            (9, 0): [0.01, 0.01, 0.98],
            (9, 1): [0.5, 0.49, 0.01],
            (9, 1, 0): [0.01, 0.01, 0.98],
            (9, 1, 1): [0.01, 0.01, 0.98],
        }
        score = table_scorer(table, 3)
        short = 0.4 * 0.98
        longer = 0.59 * 0.5 * 0.98
        alpha = 3.0  # strong normalization flips the ranking
        assert math.log(short) / M.length_penalty(2, alpha) < \
            math.log(longer) / M.length_penalty(3, alpha)
        res = beam_search(score, bos=9, eos=2, cfg=DecodeConfig(beam=3, alpha=alpha, max_len=4))
        assert res.tokens == [1, 0, 2]

    def test_no_finish_sets_flag(self):
        score = table_scorer(self.greedy_trap_table(), 3)
        res = beam_search(score, bos=9, eos=2, cfg=DecodeConfig(beam=2, alpha=0.6, max_len=3))
        assert not res.finished

    def test_beam_width_one_validated(self):
        with pytest.raises(ConfigError):
            DecodeConfig(beam=0)


class TestTranslate:
    def test_beam_one_equals_greedy_flag(self):
        cfg = tiny_config(src_vocab=9, trg_vocab=9)
        model = Model(cfg, seed=17)
        src = [4, 5, 6, 7]
        a = translate(model, src, cfg=DecodeConfig(beam=1, alpha=0.6, max_len=8))
        b = translate(model, src, cfg=DecodeConfig(beam=1, alpha=0.0, max_len=8))
        assert a.tokens == b.tokens

    def test_max_len_past_the_model_is_capped(self):
        model = Model(tiny_config(max_len=10), seed=18)
        result = translate(model, [4, 5, 6], cfg=DecodeConfig(beam=2, max_len=30))
        assert len(result.tokens) <= 9

    def test_checkpoint_roundtrip_preserves_outputs(self, tmp_path):
        from scenemt import autodiff

        cfg = tiny_config()
        model = Model(cfg, seed=23)
        src, trg = [2, 3], [BOS, 4]
        before = model.forward(src, trg).data
        autodiff.save_checkpoint(tmp_path / "m.ckpt", model.state_arrays())
        fresh = Model(cfg, seed=99)  # different params until loaded
        fresh.load_state(autodiff.load_checkpoint(tmp_path / "m.ckpt"))
        after = fresh.forward(src, trg).data
        np.testing.assert_array_equal(before, after)


def cached_steps(model, src, masks, choices, rng):
    """Drive a cached decoder state from BOS through `choices`, each step's parent rows.

    Each step extends the chosen parents' prefixes by random tokens and runs
    one cached step; yields its [n, V] logits with the n prefixes it scored.
    """
    with ad.no_grad():
        state = model.decoder_state(src, masks)
        prefixes = [(BOS,)]
        yield model.decode(np.array([[BOS]]), state).data[:, -1], prefixes
        for parents in choices:
            tokens = rng.integers(4, model.cfg.trg_vocab, size=(len(parents), 1))
            prefixes = [prefixes[p] + (int(t),) for p, (t,) in zip(parents, tokens)]
            state.reorder(parents)
            yield model.decode(tokens, state).data[:, -1], prefixes


def random_out_model(cfg, specs, seed):
    model = Model(cfg, specs, seed=seed)
    out_w = model.params["out.w"].data
    out_w[:] = np.random.default_rng(seed + 1).normal(size=out_w.shape)
    return model


class TestIncrementalDecoding:
    """The cached, beam-batched step against full-prefix Model.forward."""

    CONFIGS = {
        "no-masks": [],
        "sasa-only": [M.sasa_default()],
        "sacra-one-head": [HeadSpec("cross", {2}, {1}, MaskSpec("binary"), "sacra")],
        "sacra-every-head": [HeadSpec("cross", {2}, {1, 2}, MaskSpec("binary"), "sacra")],
    }

    def setup_method(self):
        self.cfg = tiny_config(enc_layers=4, dec_layers=4, src_vocab=12, trg_vocab=12,
                               max_len=24)

    def source(self, rng, n):
        src = [int(x) for x in rng.integers(4, 12, size=n)]
        m = (rng.random((n, n)) > 0.4) * rng.random((n, n))
        np.fill_diagonal(m, 1.0)
        return src, {"sasa": m, "sacra": m.T.copy()}

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_step_logits_match_full_prefix_decode(self, name):
        model = random_out_model(self.cfg, self.CONFIGS[name], seed=81)
        rng = np.random.default_rng(82)
        src, masks = self.source(rng, 6)
        # rows grow, shrink and share parents, as a beam does
        choices = [[0, 0, 0], [2, 0, 0], [1, 1, 2, 0], [3, 3], [0, 1, 1], [2, 0, 1]]
        for logits, prefixes in cached_steps(model, src, masks, choices, rng):
            assert logits.shape == (len(prefixes), self.cfg.trg_vocab)
            for row, prefix in zip(logits, prefixes):
                with ad.no_grad():
                    full = model.forward(src, list(prefix), masks).data[-1]
                np.testing.assert_allclose(row, full, rtol=0, atol=1e-12)

    def test_rows_sharing_a_parent_get_copies_of_its_cache(self):
        model = random_out_model(self.cfg, [M.sacra_default()], seed=83)
        src, masks = self.source(np.random.default_rng(84), 5)
        with ad.no_grad():
            state = model.decoder_state(src, masks)
            model.decode(np.array([[BOS]]), state)
            state.reorder([0, 0])
            model.decode(np.array([[4], [5]]), state)
            before = [tuple(a.copy() for a in kv) for kv in state.self_kv]
            state.reorder([1, 1])
            for (k, v), (k0, v0) in zip(state.self_kv, before):
                assert k.shape == (2, 2, 2, self.cfg.d_k)
                np.testing.assert_array_equal(k, k0[[1, 1]])
                np.testing.assert_array_equal(v, v0[[1, 1]])
            k[0] += 1.0  # the rows are copies, not views of one parent
            assert not np.array_equal(k[0], k[1])

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_translate_matches_search_over_full_prefix_decode(self, name):
        model = random_out_model(self.cfg, self.CONFIGS[name], seed=85)
        rng = np.random.default_rng(86)
        for n, cap in [(3, 5), (7, 12), (10, 23)]:
            src, masks = self.source(rng, n)

            def score_fn(prefix):  # the full-prefix reference scorer
                with ad.no_grad():
                    return M.log_softmax(model.forward(src, list(prefix), masks).data[-1])

            beam4 = DecodeConfig(beam=4, alpha=0.6, max_len=cap)
            greedy = DecodeConfig(beam=1, alpha=0.0, max_len=cap)
            for cfg, ref in [(beam4, beam_search(score_fn, BOS, EOS, beam4)),
                             (greedy, greedy_decode(score_fn, BOS, EOS, cap))]:
                got = translate(model, src, masks, cfg)
                assert got.tokens == [t for t in ref.tokens if t != EOS]
                assert got.finished == ref.finished
                # a step computes one row where the full pass computes a
                # causally masked square, so scores agree to rounding only
                assert got.score == pytest.approx(ref.score, rel=0, abs=1e-12)

    def test_one_decoder_call_per_step(self, monkeypatch):
        model = random_out_model(self.cfg, [M.sacra_default()], seed=87)
        src, masks = self.source(np.random.default_rng(88), 6)
        calls = []
        decode = Model.decode

        def counting_decode(self, trg_in_ids, *args, **kwargs):
            calls.append(np.shape(trg_in_ids))
            return decode(self, trg_in_ids, *args, **kwargs)

        monkeypatch.setattr(Model, "decode", counting_decode)
        cap = 9
        translate(model, src, masks, DecodeConfig(beam=4, max_len=cap))
        assert 1 <= len(calls) <= cap
        assert calls[0] == (1, 1) and all(n <= 4 and t == 1 for n, t in calls)

    def test_masks_are_checked_once_per_translate(self, monkeypatch):
        specs = [
            HeadSpec("encoder", {1, 2}, {1}, MaskSpec("binary"), "sasa"),
            HeadSpec("encoder", {2}, {2}, MaskSpec("pascal"), "pascal"),
            HeadSpec("cross", {1, 2}, {2}, MaskSpec("binary"), "sacra"),
        ]
        model = random_out_model(tiny_config(), specs, seed=89)
        (src, trg), masks = [x[0] for x in mixed_batch(np.random.default_rng(7), n=3)]
        calls = Counter()
        check = M.check_mask

        def counting_check(mask, label, shape):
            calls[label] += 1
            return check(mask, label, shape)

        monkeypatch.setattr(M, "check_mask", counting_check)
        model.forward(src, [BOS] + trg, masks)
        per_forward = dict(calls)
        assert per_forward == {"sasa": 1, "pascal": 1, "sacra": 1}
        for cap in (4, 16):
            calls.clear()
            translate(model, src, masks, DecodeConfig(beam=4, max_len=cap))
            assert dict(calls) == per_forward


GOLDEN_DECODES = Path(__file__).parent / "data" / "decode-b8628de" / "decodes.txt"


def golden_decodes():
    """Beam-4 and greedy decodes of a seeded, untrained model with SASA and SACrA heads.

    One line per source and search: the source ids, the tokens, repr(score)
    and the finished flag. tests/data/decode-b8628de/README.md shows how
    the stored copy was written.
    """
    cfg = tiny_config(enc_layers=4, dec_layers=4, src_vocab=12, trg_vocab=12, d_model=16,
                      d_ff=32, max_len=24)
    model = random_out_model(cfg, [M.sasa_default(), M.sacra_default()], seed=5)
    rng = np.random.default_rng(92)
    lines = []
    for n in (2, 5, 8, 11, 15):
        src = [int(x) for x in rng.integers(4, 12, size=n)]
        m = (rng.random((n, n)) > 0.4) * rng.random((n, n))
        np.fill_diagonal(m, 1.0)
        masks = {"sasa": m, "sacra": m.T.copy()}
        for name, cfg in (("beam4", DecodeConfig(beam=4, max_len=20)),
                          ("greedy", DecodeConfig(beam=1, alpha=0.0, max_len=20))):
            got = translate(model, src, masks, cfg)
            lines.append(f"{name} src={' '.join(map(str, src))} "
                         f"tokens={' '.join(map(str, got.tokens))} score={got.score!r} "
                         f"finished={got.finished}")
    return "\n".join(lines) + "\n"


def test_decodes_are_byte_identical_to_the_stored_ones():
    assert golden_decodes() == GOLDEN_DECODES.read_text(encoding="utf-8")
