"""Encoder-decoder transformer with pluggable scene-aware attention heads.

Every attention sublayer goes through `Model._attend` and every head through
one routine, `attention` (one autodiff node, from `autodiff`): scaled
dot-product attention whose post-softmax weights a designated encoder
self-attention head multiplies elementwise by a structural mask (scene,
parent-Gaussian, or tree-distance families all plug in the same way, after
the softmax). Heads are an array axis: a sublayer's heads are projected in
and merged out by one GEMM each (`autodiff.project_heads`,
`autodiff.merge_heads`), with the weights kept as [H, d, d_k] and [H, d_k, d].
Designated decoder cross-attention heads instead take `aggregated_keys`, the
encoder output summed over the mask, so source tokens with identical mask
rows become indistinguishable to every query. A mask is checked once where
it enters (`check_mask`): per label in each `encode` call and each decoder
state (one per `forward` pass, one per `translate`), and per pair before
`train` or `token_accuracy` runs its first forward pass.

Training is a single deterministic stream: Adam on a Noam-shaped learning
rate, run in place over one flat parameter buffer, label-smoothed per-token
cross entropy, seeded parameter init and batch order, with each step's pairs
padded into one batch and run as one graph. Training and decoding share one
decoder path: `Model.decoder_state` encodes the source and builds the source
side of every decoder layer once; `Model.decode` runs whole target prefixes
on a state's first call, and beam search (GNMT-style length normalization)
runs one step per later call, incremental as in Vaswani et al. 2017: all
live hypotheses as one batch, reusing their cached self-attention keys and
values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, attention
from .errors import ConfigError, DimensionError, NumericError
from .masks import MaskSpec
from .textpipe import BOS, EOS, PAD

NEG_BIAS = -1e30  # additive pre-softmax bias for causally blocked and padded keys


# -- configuration ---------------------------------------------------------------


@dataclass
class ModelConfig:
    src_vocab: int
    trg_vocab: int
    d_model: int = 256
    enc_layers: int = 4
    dec_layers: int = 4
    heads: int = 8
    d_ff: int = None
    max_len: int = 256

    def __post_init__(self):
        if self.d_model < 1 or self.heads < 1:
            raise ConfigError(f"d_model={self.d_model} and heads={self.heads} must be positive")
        if self.d_model % self.heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by heads={self.heads}"
            )
        if self.d_ff is None:
            self.d_ff = 4 * self.d_model
        if self.d_ff < 1:
            raise ConfigError(f"d_ff={self.d_ff} must be positive")
        if self.enc_layers < 0 or self.dec_layers < 0:
            raise ConfigError(f"enc_layers={self.enc_layers} and dec_layers={self.dec_layers} "
                              "must not be negative")
        if self.max_len < 2:
            raise ConfigError(f"max_len={self.max_len} must be at least 2, for BOS and one token")

    @property
    def d_k(self):
        return self.d_model // self.heads


@dataclass(frozen=True)
class HeadSpec:
    """Placement of one mask family onto attention heads.

    site is "encoder" (self-attention, post-softmax multiplication) or
    "cross" (decoder cross-attention via aggregated keys). Layer and head
    indices are 1-based, as in the experiment grids.
    """

    site: str
    layers: frozenset
    heads: frozenset
    mask: MaskSpec
    label: str = None

    def __post_init__(self):
        if self.site not in ("encoder", "cross"):
            raise ConfigError(f"unknown head site {self.site!r}")
        object.__setattr__(self, "layers", frozenset(self.layers))
        object.__setattr__(self, "heads", frozenset(self.heads))
        if not self.layers or not self.heads:
            raise ConfigError("a head spec needs at least one layer and head")
        if self.label is None:
            object.__setattr__(self, "label", self.mask.family)
        if not self.label:
            raise ConfigError("a head spec needs a non-empty label")


def sasa_default():
    """Tuned placement for the scene-aware self-attention head."""
    return HeadSpec("encoder", {4}, {1}, MaskSpec("binary"), "sasa")


def sacra_default():
    """Tuned placement for the scene-aware cross-attention head."""
    return HeadSpec("cross", {2, 3}, {1}, MaskSpec("binary"), "sacra")


def pascal_default():
    return HeadSpec("encoder", {1}, {1, 2, 3, 4, 5}, MaskSpec("pascal"), "pascal")


def udiscal_default():
    return HeadSpec("encoder", {1}, {1}, MaskSpec("udiscal"), "udiscal")


@dataclass
class TrainConfig:
    steps: int
    batch_size: int = 128
    seed: int = 0
    warmup: int = 4000
    label_smoothing: float = 0.1
    adam_eps: float = 1e-9
    eval_every: int = 0
    target_accuracy: float = None

    def __post_init__(self):
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError("label smoothing must lie in [0, 1)")
        if self.warmup < 1:
            raise ConfigError("warmup must be at least 1")
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("steps and batch size must be positive")
        if self.seed < 0 or self.eval_every < 0:
            raise ConfigError(f"seed={self.seed} and eval_every={self.eval_every} "
                              "must not be negative")
        # written so that NaN, which fails every comparison, is refused too
        if not 0.0 < self.adam_eps < math.inf:
            raise ConfigError(f"adam_eps={self.adam_eps} must be finite and positive")
        if self.target_accuracy is not None and not 0.0 < self.target_accuracy <= 1.0:
            raise ConfigError(f"target_accuracy={self.target_accuracy} must lie in (0, 1]")


@dataclass
class DecodeConfig:
    beam: int = 4
    alpha: float = 0.6
    max_len: int = 64

    def __post_init__(self):
        if self.beam < 1:
            raise ConfigError("beam width must be at least 1")
        if self.max_len < 1:
            raise ConfigError(f"max_len={self.max_len} must be at least 1")
        if not math.isfinite(self.alpha):
            raise ConfigError(f"alpha={self.alpha} must be finite")


# -- attention ----------------------------------------------------------------------
#
# Each routine takes one sentence as [L, d] tensors, or stacks of them: a padded
# batch [B, L, d], heads [H, L, d], or both [B, H, L, d]. In a batch, keys past
# each sentence's true length get NEG_BIAS before the softmax (_key_bias), so
# they receive exactly zero weight.


def check_mask(mask, label, shape):
    """The mask of head label `label` as a float array, checked where it enters.

    A missing mask raises ConfigError; a shape other than `shape` or a value
    outside [0, 1] raises DimensionError.
    """
    if mask is None:
        raise ConfigError(f"missing mask {label!r} for a configured head")
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != shape:
        raise DimensionError(f"mask {label!r} has shape {mask.shape}, expected {shape}")
    # written so that NaN, which fails every comparison, is refused too
    if not (mask.min(initial=0.0) >= 0.0 and mask.max(initial=0.0) <= 1.0):
        raise DimensionError(f"mask {label!r} values must lie in [0, 1]")
    return mask


def _per_sentence(values, ndim):
    """[B] values as [B, 1, ..., 1], so they meet the batch axis and never the heads."""
    return np.asarray(values).reshape((-1,) + (1,) * (ndim - 1))


def aggregated_keys(x_enc, mask, lengths=None):
    """Scene-aggregated keys (mask @ x_enc) / L_src.

    Each source position's key is the sum of encoder outputs over the
    positions its mask row admits, scaled by the source length, so source
    tokens with identical mask rows get identical keys and identical weight
    columns. With a head axis on the mask, x_enc carries it too (as a 1). In
    a padded batch L_src is each sentence's true length, not the padded one.
    """
    # with a head axis missing from x_enc, the batch would meet the heads
    ndim = np.ndim(mask)
    if x_enc.data.ndim != ndim:
        raise DimensionError("the encoder output needs the mask's axes")
    scale = 1.0 / x_enc.shape[-2] if lengths is None else 1.0 / _per_sentence(lengths, ndim)
    return ad.matmul(mask, x_enc) * scale


def _key_bias(lengths, n_keys, causal=False):
    """The additive bias hiding causally blocked and padded keys from [B, H, L, n] logits."""
    bias = _causal_bias(n_keys) if causal else None
    if lengths is not None:
        padding = np.where(np.arange(n_keys) >= _per_sentence(lengths, 4), NEG_BIAS, 0.0)
        bias = padding if bias is None else bias + padding
    return bias


@functools.lru_cache(maxsize=None)
def _causal_bias(n):
    return np.triu(np.full((n, n), NEG_BIAS), k=1)


def _lengths(ids):
    """True lengths of a PAD-padded [B, L] id batch; None for one sentence."""
    return None if ids.ndim == 1 else (ids != PAD).sum(axis=-1)


def sinusoidal_positions(max_len, d_model):
    pe = np.zeros((max_len, d_model))
    pos = np.arange(max_len)[:, None]
    div = np.exp(np.arange(0, d_model, 2) * (-math.log(10000.0) / d_model))
    pe[:, 0::2] = np.sin(pos * div)
    pe[:, 1::2] = np.cos(pos * div[: d_model // 2])
    return pe


# -- the transformer -----------------------------------------------------------------


class DecoderState:
    """The decoder's view of one source, kept between calls (see Model.decoder_state).

    `cross[l]` holds layer l's source side: the plain heads' (keys, values)
    and the aggregated-key heads' (aggregated keys, values), each None where
    the layer has no such head; `bias` hides padded source keys. The state
    also keeps, per layer, the self-attention (keys, values) of the `steps`
    positions decoded so far, as [n, H, steps, d_k] arrays for the n live
    prefixes.
    """

    def __init__(self, cross, bias):
        self.cross, self.bias = cross, bias
        self.self_kv = [None] * len(cross)
        self.steps = 0

    def extend(self, l, k, v):
        """Layer l's self-attention keys and values, the cached ones first.

        A first call's are k and v themselves, so gradients reach them; the
        cache keeps only their data.
        """
        kv = (k.data, v.data)
        if self.steps:
            kv = tuple(np.concatenate(pair, axis=-2) for pair in zip(self.self_kv[l], kv))
        self.self_kv[l] = kv
        return (Tensor(kv[0]), Tensor(kv[1])) if self.steps else (k, v)

    def reorder(self, parents):
        """Row i's cache becomes that of row parents[i] of the previous step."""
        if self.steps:
            self.self_kv = [tuple(np.take(a, parents, axis=0) for a in kv)
                            for kv in self.self_kv]


class Model:
    """Attention weights stack heads (wq, wk, wv: [H, d, d_k]; wo: [H, d_k, d]); cross-
    attention has plain (dec.{l}.cross.*) and aggregated-key heads (dec.{l}.cross.agg.*)."""

    def __init__(self, cfg, head_specs=(), seed=0):
        self.cfg = cfg
        self.head_specs = tuple(head_specs)
        self.enc_masked, self.cross_masked = self._resolve_specs()
        self.params = {}
        self._rng = np.random.default_rng(seed)
        self._build()
        self.positions = sinusoidal_positions(cfg.max_len, cfg.d_model)

    # spec resolution ---------------------------------------------------------

    def _resolve_specs(self):
        """[layers, H] grids of head labels per site; "" marks a plain head."""
        cfg = self.cfg
        grids = {site: np.full((n, cfg.heads), "", dtype=object)
                 for site, n in (("encoder", cfg.enc_layers), ("cross", cfg.dec_layers))}
        labels = set()
        for spec in self.head_specs:
            if spec.label in labels:
                raise ConfigError(f"duplicate head-spec label {spec.label!r}")
            labels.add(spec.label)
            grid = grids[spec.site]
            layers, heads = sorted(spec.layers), sorted(spec.heads)
            if layers[0] < 1 or layers[-1] > len(grid):
                raise ConfigError(f"layers {layers} reach outside 1..{len(grid)} for {spec.site}")
            if heads[0] < 1 or heads[-1] > cfg.heads:
                raise ConfigError(f"heads {heads} reach outside 1..{cfg.heads}")
            rows, cols = np.array(layers)[:, None] - 1, np.array(heads) - 1
            taken = np.argwhere(grid[rows, cols] != "")
            if len(taken):
                r, c = taken[0]
                raise ConfigError(f"{spec.site} layer {layers[r]} head {heads[c]} masked twice")
            grid[rows, cols] = spec.label
        return grids["encoder"], grids["cross"]

    # parameters ----------------------------------------------------------------

    def _param(self, name, data):
        self.params[name] = Tensor(data, requires_grad=True)

    def _head_params(self, groups):
        """Store one sublayer's head matrices, stacked per group.

        `groups` maps a name prefix to (head indices, [(name, shape, scale)]).
        Heads draw in index order, each its group's matrices in turn.
        """
        sizes = np.zeros(self.cfg.heads, dtype=np.intp)
        for heads, mats in groups.values():
            sizes[heads] = sum(math.prod(shape) for _, shape, _ in mats)
        z = self._rng.standard_normal(int(sizes.sum()))
        starts = np.cumsum(sizes) - sizes
        for prefix, (heads, mats) in groups.items():
            at = starts[heads, None]  # each head's next draw
            for name, shape, scale in mats:
                n = math.prod(shape)
                block = z[at + np.arange(n)].reshape((len(heads),) + shape)
                if len(heads):
                    self._param(f"{prefix}.{name}", scale * block)
                at = at + n

    def _build(self):
        cfg = self.cfg
        d, dk, dff = cfg.d_model, cfg.d_k, cfg.d_ff
        emb_scale = 1.0 / math.sqrt(d)
        wq, wk, wv = ((w, (d, dk), emb_scale) for w in ("wq", "wk", "wv"))
        wo = ("wo", (dk, d), 1.0 / math.sqrt(dk))
        every_head = np.arange(cfg.heads)
        self._param("src_emb", self._rng.normal(0.0, emb_scale, (cfg.src_vocab, d)))
        self._param("trg_emb", self._rng.normal(0.0, emb_scale, (cfg.trg_vocab, d)))
        for l in range(cfg.enc_layers):
            self._head_params({f"enc.{l}.attn": (every_head, [wq, wk, wv, wo])})
            self._ln_params(f"enc.{l}.ln1", d)
            self._ffn_params(f"enc.{l}", d, dff)
            self._ln_params(f"enc.{l}.ln2", d)
        for l in range(cfg.dec_layers):
            self._head_params({f"dec.{l}.self": (every_head, [wq, wk, wv, wo])})
            self._ln_params(f"dec.{l}.ln1", d)
            agg = self.cross_masked[l] != ""
            # aggregated keys carry no learned projection; the query must
            # span the full model width to meet them
            self._head_params({
                f"dec.{l}.cross": (np.flatnonzero(~agg), [wq, wk, wv, wo]),
                f"dec.{l}.cross.agg": (np.flatnonzero(agg), [("wq", (d, d), emb_scale), wv, wo]),
            })
            self._ln_params(f"dec.{l}.ln2", d)
            self._ffn_params(f"dec.{l}", d, dff)
            self._ln_params(f"dec.{l}.ln3", d)
        # zero init keeps the step-0 loss at ln(vocab)
        self._param("out.w", np.zeros((d, cfg.trg_vocab)))
        self._param("out.b", np.zeros(cfg.trg_vocab))

    def _ln_params(self, prefix, d):
        self._param(f"{prefix}.g", np.ones(d))
        self._param(f"{prefix}.b", np.zeros(d))

    def _ffn_params(self, prefix, d, dff):
        self._param(f"{prefix}.ffn.w1", self._rng.normal(0.0, 1.0 / math.sqrt(d), (d, dff)))
        self._param(f"{prefix}.ffn.b1", np.zeros(dff))
        self._param(f"{prefix}.ffn.w2", self._rng.normal(0.0, 1.0 / math.sqrt(dff), (dff, d)))
        self._param(f"{prefix}.ffn.b2", np.zeros(d))

    # forward pass -----------------------------------------------------------------
    #
    # encode, decode and forward take one sentence as a list of ids, or a
    # batch as a [B, L] id array padded at the end with PAD, whose masks are
    # [B, L, L] arrays padded with zeros (see pad_batch).

    def _embed(self, table, ids, start=0):
        """Scaled embeddings of `ids` plus the position codes from `start` on."""
        end = start + ids.shape[-1]
        if end > self.cfg.max_len:
            raise DimensionError(f"sequence of {end} exceeds max length {self.cfg.max_len}")
        x = ad.embedding(table, ids) * math.sqrt(self.cfg.d_model)
        return ad.add(x, Tensor(self.positions[start:end]))

    def _ffn(self, prefix, x):
        p = self.params
        h = ad.relu(ad.linear(x, p[f"{prefix}.ffn.w1"], p[f"{prefix}.ffn.b1"]))
        return ad.linear(h, p[f"{prefix}.ffn.w2"], p[f"{prefix}.ffn.b2"])

    def _sublayer_norm(self, prefix, x, sub):
        p = self.params
        return ad.layer_norm(x, sub, p[f"{prefix}.g"], p[f"{prefix}.b"])

    def _kv(self, prefix, x):
        p = self.params
        return tuple(ad.project_heads(x, p[f"{prefix}.{w}"]) for w in ("wk", "wv"))

    def _attend(self, prefix, x, kv, bias, mask=None):
        """One attention sublayer: x's queries against `kv`, the heads merged."""
        p = self.params
        q = ad.project_heads(x, p[f"{prefix}.wq"])
        return ad.merge_heads(attention(q, *kv, bias, mask), p[f"{prefix}.wo"])

    @staticmethod
    def _mask_stacks(masks, rows, shape):
        """Each row's [..., H, L, L] stack of its heads' masks, or None for a row with no label.

        Each label in `rows` is checked once; a plain ("") head gets all ones.
        """
        masks = masks or {}
        labels = sorted({label for row in rows for label in row} - {""})
        checked = {label: check_mask(masks.get(label), label, shape) for label in labels}
        checked[""] = np.ones(shape)
        return [np.stack([checked[label] for label in row], axis=-3) if (row != "").any()
                else None for row in rows]

    def encode(self, src_ids, masks=None):
        p = self.params
        ids = np.asarray(src_ids, dtype=np.intp)
        bias = _key_bias(_lengths(ids), ids.shape[-1])
        x = self._embed(p["src_emb"], ids)
        stacks = self._mask_stacks(masks, self.enc_masked, ids.shape + ids.shape[-1:])
        for l, stack in enumerate(stacks):
            pre = f"enc.{l}.attn"
            o = self._attend(pre, x, self._kv(pre, x), bias, stack)
            x = self._sublayer_norm(f"enc.{l}.ln1", x, o)
            x = self._sublayer_norm(f"enc.{l}.ln2", x, self._ffn(f"enc.{l}", x))
        return x

    def decoder_state(self, src_ids, masks=None):
        """Encode `src_ids` and build the source side of every decoder layer once.

        A padded batch's true source lengths come from its PAD ids. The SACrA
        masks are checked here, once per label. The state starts with an
        empty self-attention cache (see `decode`).
        """
        p = self.params
        ids = np.asarray(src_ids, dtype=np.intp)
        enc_out = self.encode(ids, masks)
        src_lengths = _lengths(ids)
        # aggregated keys take a head axis for the SACrA mask stack to broadcast over
        xh = ad.reshape(enc_out, enc_out.shape[:-2] + (1,) + enc_out.shape[-2:])
        agg = self.cross_masked != ""
        stacks = self._mask_stacks(masks, [row[a] for row, a in zip(self.cross_masked, agg)],
                                   ids.shape + ids.shape[-1:])
        cross = []
        for l, stack in enumerate(stacks):
            pre = f"dec.{l}.cross"
            plain = None if agg[l].all() else self._kv(pre, enc_out)
            aggregated = None if stack is None else (aggregated_keys(xh, stack, src_lengths),
                                                     ad.project_heads(enc_out, p[f"{pre}.agg.wv"]))
            cross.append((plain, aggregated))
        return DecoderState(cross, _key_bias(src_lengths, ids.shape[-1]))

    def decode(self, trg_in_ids, state):
        """Logits for each target position, against the source of `state`.

        A state's first call runs whole target prefixes, with gradients, under
        the causal and padding bias; `forward` is that call. Each later call,
        under `autodiff.no_grad`, runs one step: `trg_in_ids` holds the [n, 1]
        last tokens of the n live prefixes, at position `state.steps`, and
        their self-attention keys and values join the state's cache.
        """
        p = self.params
        ids = np.asarray(trg_in_ids, dtype=np.intp)
        # a later step's one query sees every cached key
        self_bias = None if state.steps else _key_bias(_lengths(ids), ids.shape[-1], causal=True)
        y = self._embed(p["trg_emb"], ids, state.steps)
        for l, source in enumerate(state.cross):
            pre = f"dec.{l}.self"
            kv = state.extend(l, *self._kv(pre, y))
            y = self._sublayer_norm(f"dec.{l}.ln1", y, self._attend(pre, y, kv, self_bias))
            cross = [self._attend(name, y, src_kv, state.bias)
                     for name, src_kv in zip((f"dec.{l}.cross", f"dec.{l}.cross.agg"), source)
                     if src_kv is not None]
            y = self._sublayer_norm(f"dec.{l}.ln2", y, functools.reduce(ad.add, cross))
            y = self._sublayer_norm(f"dec.{l}.ln3", y, self._ffn(f"dec.{l}", y))
        state.steps += ids.shape[-1]
        return ad.linear(y, p["out.w"], p["out.b"])

    def forward(self, src_ids, trg_in_ids, masks=None):
        return self.decode(trg_in_ids, self.decoder_state(src_ids, masks))

    # persistence -------------------------------------------------------------------

    def state_arrays(self):
        return {name: t.data for name, t in self.params.items()}

    def load_state(self, arrays):
        for name, t in self.params.items():
            if name not in arrays:
                raise ConfigError(f"checkpoint is missing tensor {name!r}")
            if arrays[name].shape != t.data.shape:
                raise DimensionError(
                    f"checkpoint tensor {name!r} has shape {arrays[name].shape}, "
                    f"expected {t.data.shape}"
                )
            t.data = arrays[name].astype(np.float64)


# -- schedule, loss, training ----------------------------------------------------------


def lr_schedule(step, warmup, d_model):
    """Noam learning rate: d^-0.5 * min(step^-0.5, step * warmup^-1.5)."""
    if step < 1:
        raise ConfigError("schedule steps are 1-based")
    return d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


ADAM_BETAS = (0.9, 0.98)  # first- and second-moment decay rates, as in Vaswani et al. 2017


class Adam:
    """Adam in place over one flat buffer; each tensor's data and grad become views into it.

    A step is a dozen whole-model numpy calls in the per-tensor update's order
    of operations, m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    p -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps), so it is bitwise
    that update. A tensor no backward reached has a zero gradient.
    """

    def __init__(self, tensors, beta1, beta2, eps):
        tensors = list(tensors)
        self.data = np.concatenate([t.data.ravel() for t in tensors])
        self.grad, self.m, self.v, self._num, self._den = (
            np.zeros_like(self.data) for _ in range(5))
        at = 0
        for t in tensors:
            n, shape = t.data.size, t.data.shape
            t.data, t.grad = (flat[at:at + n].reshape(shape) for flat in (self.data, self.grad))
            at += n
        self.beta1, self.beta2, self.eps, self.steps = beta1, beta2, eps, 0

    def zero_grad(self):
        self.grad.fill(0.0)

    def step(self, lr):
        self.steps += 1
        b1, b2, num, den = self.beta1, self.beta2, self._num, self._den
        self.m *= b1
        self.m += np.multiply(self.grad, 1 - b1, out=num)
        self.v *= b2
        np.multiply(self.grad, 1 - b2, out=num)
        self.v += np.multiply(num, self.grad, out=num)
        np.sqrt(np.divide(self.v, 1 - b2 ** self.steps, out=den), out=den)
        den += self.eps
        np.divide(self.m, 1 - b1 ** self.steps, out=num)
        num *= lr
        num /= den
        self.data -= num


@dataclass
class TrainResult:
    model: Model
    losses: list
    accuracy: float = None
    steps_run: int = 0
    stopped_early: bool = False


ACCURACY_CHUNK = 64  # pairs per forward pass in token_accuracy


def pad_batch(model, pairs, pair_masks):
    """Pad (src_ids, trg_ids) pairs and their mask dicts into one batch.

    Returns (src, trg_in, gold, masks): src [B, S] and trg_in [B, T] ids
    padded with PAD (trg_in starts with BOS), gold [B, T] target ids ending
    in EOS and padded with -1 (rows the loss skips), and for each label a
    configured head uses, the masks zero-padded to [B, S, S]. The masks are
    copied as given: train and token_accuracy first run check_pairs.
    """
    n = len(pairs)
    s_len = max(len(src) for src, _ in pairs)
    t_len = max(len(trg) for _, trg in pairs) + 1
    src_b = np.full((n, s_len), PAD, dtype=np.intp)
    trg_in = np.full((n, t_len), PAD, dtype=np.intp)
    gold = np.full((n, t_len), -1, dtype=np.intp)
    masks = {spec.label: np.zeros((n, s_len, s_len)) for spec in model.head_specs}
    for b, ((src, trg), pm) in enumerate(zip(pairs, pair_masks)):
        ls, lt = len(src), len(trg) + 1
        src_b[b, :ls] = src
        trg_in[b, :lt] = [BOS, *trg]
        gold[b, :lt] = [*trg, EOS]
        for label, batch_mask in masks.items():
            batch_mask[b, :ls, :ls] = pm[label]
    return src_b, trg_in, gold, masks


def check_pairs(pairs, head_specs, provider):
    """Refuse bad pairs before the first forward pass; each error names the pair.

    A pair holding the reserved PAD id raises ConfigError, and every pair's
    masks go through check_mask for each label in `head_specs`.
    """
    labels = sorted(spec.label for spec in head_specs)
    for i, (src, trg) in enumerate(pairs):
        if PAD in src or PAD in trg:
            raise ConfigError(f"pair {i} holds the reserved padding id {PAD}")
        pair_masks = provider(i)
        try:
            for label in labels:
                check_mask(pair_masks.get(label), label, (len(src), len(src)))
        except (ConfigError, DimensionError) as exc:
            raise type(exc)(f"pair {i}: {exc}") from None


def token_accuracy(model, pairs, mask_provider=None):
    """Teacher-forced argmax accuracy over all target tokens, after check_pairs."""
    provider = mask_provider or (lambda i: {})
    check_pairs(pairs, model.head_specs, provider)
    return _accuracy(model, pairs, provider)


def _accuracy(model, pairs, provider):
    """token_accuracy on pairs that check_pairs has already passed."""
    correct = total = 0
    with ad.no_grad():
        for start in range(0, len(pairs), ACCURACY_CHUNK):
            chunk = range(start, min(start + ACCURACY_CHUNK, len(pairs)))
            src, trg_in, gold, masks = pad_batch(
                model, [pairs[i] for i in chunk], [provider(i) for i in chunk]
            )
            pred = model.forward(src, trg_in, masks).data.argmax(axis=-1)
            real = gold >= 0
            correct += int((pred == gold)[real].sum())
            total += int(real.sum())
    return correct / total


def train(pairs, model_cfg, train_cfg, head_specs=(), mask_provider=None):
    """Train on (src_ids, trg_ids) pairs; deterministic given the seed.

    Each step runs one forward and one backward pass over the whole batch,
    padded with pad_batch, after check_pairs has refused bad pairs. Raises
    NumericError (with the step index) if the loss goes non-finite.
    """
    provider = mask_provider or (lambda i: {})
    check_pairs(pairs, head_specs, provider)

    model = Model(model_cfg, head_specs, seed=train_cfg.seed)
    batch_rng = np.random.default_rng(train_cfg.seed + 1)
    adam = Adam(model.params.values(), *ADAM_BETAS, train_cfg.adam_eps)

    result = TrainResult(model, losses=[])
    for step in range(1, train_cfg.steps + 1):
        idx = [int(i) for i in batch_rng.integers(0, len(pairs), size=train_cfg.batch_size)]
        adam.zero_grad()
        src, trg_in, gold, masks = pad_batch(
            model, [pairs[i] for i in idx], [provider(i) for i in idx]
        )
        logits = model.forward(src, trg_in, masks)
        total = ad.cross_entropy_smoothed(logits, gold, train_cfg.label_smoothing)
        loss = total * (1.0 / int((gold >= 0).sum()))
        loss_value = loss.item()
        if not math.isfinite(loss_value):
            raise NumericError("loss went non-finite", step=step)
        result.losses.append(loss_value)
        loss.backward()

        adam.step(lr_schedule(step, train_cfg.warmup, model_cfg.d_model))

        result.steps_run = step
        if train_cfg.eval_every and step % train_cfg.eval_every == 0:
            acc = _accuracy(model, pairs, provider)
            result.accuracy = acc
            if train_cfg.target_accuracy and acc >= train_cfg.target_accuracy:
                result.stopped_early = True
                break

    if result.accuracy is None:
        result.accuracy = _accuracy(model, pairs, provider)
    return result


# -- decoding ----------------------------------------------------------------------


@dataclass
class BeamResult:
    tokens: list
    score: float
    finished: bool


def length_penalty(n_tokens, alpha):
    return ((5.0 + n_tokens) / 6.0) ** alpha


def _search(step, bos, eos, cfg):
    """Beam search over a scorer of all live prefixes at once.

    `step(prefixes, parents)` maps the live prefixes (token tuples starting
    with `bos`) to an [n, V] array of next-token log probabilities, where
    prefixes[i] extends row parents[i] of the previous call's prefixes (the
    first call gets [(bos,)] and [0]). Candidates are ranked by cumulative
    log probability with ties broken toward smaller token ids; a candidate
    emitting `eos` is finalized with score logprob / ((5+len)/6)^alpha,
    provided it ranks above the point where the live beam fills. The search
    runs until the beam empties or `max_len` steps pass; if nothing
    finished, the best unfinished hypothesis is returned with finished=False.
    """
    beam = cfg.beam
    best = lambda c: (-c[0], c[1])  # higher score first, then smaller token ids
    live = [(0.0, (bos,), 0)]
    done = []
    for _ in range(cfg.max_len):
        logp = step([seq for _, seq, _ in live], [row for _, _, row in live])
        top = np.argsort(-logp, axis=-1, kind="stable")[:, :beam]
        candidates = [(lp + float(logp[row, tok]), seq + (int(tok),), row)
                      for row, (lp, seq, _) in enumerate(live) for tok in top[row]]
        candidates.sort(key=best)
        live = []
        for lp, seq, row in candidates:
            if seq[-1] == eos:
                done.append((lp / length_penalty(len(seq) - 1, cfg.alpha), seq))
            else:
                live.append((lp, seq, row))
            if len(live) == beam:
                break
        if not live:
            break
    # each step leaves some candidate live or done, and cfg.max_len >= 1 runs one
    score, seq = min(done or [(lp / length_penalty(len(seq) - 1, cfg.alpha), seq)
                              for lp, seq, _ in live], key=best)
    return BeamResult(list(seq[1:]), score, bool(done))


def log_softmax(x):
    """Log softmax along the last axis."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def translate(model, src_ids, masks=None, cfg=None):
    """Decode one source sentence into target ids (without BOS/EOS).

    The encoder output, the cross-attention keys and values and the checked
    masks are built once, by `Model.decoder_state`. Each search step then
    runs `Model.decode` once over the last tokens of all live prefixes, whose
    self-attention keys and values join the state's cache; after the beam is
    selected, the cache rows follow their hypotheses. Every step's log
    probabilities match a full-prefix `Model.forward` to within 1e-12.
    The decode length is capped at the model's max_len - 1, so the longest
    prefix (BOS plus the tokens so far) still fits the position table.
    `cfg` sets the search: argmax decoding is `DecodeConfig(beam=1, alpha=0.0)`.
    """
    cfg = cfg or DecodeConfig()
    cfg = replace(cfg, max_len=min(cfg.max_len, model.cfg.max_len - 1))
    with ad.no_grad():
        state = model.decoder_state(src_ids, masks)

        def step(prefixes, parents):
            state.reorder(parents)
            last = np.array([seq[-1:] for seq in prefixes])
            return log_softmax(model.decode(last, state).data[:, -1])

        result = _search(step, BOS, EOS, cfg)
    tokens = [t for t in result.tokens if t != EOS]
    return replace(result, tokens=tokens)
