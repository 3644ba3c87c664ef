"""Dense float64 tensors with reverse-mode automatic differentiation.

Deliberately small: the dozen operations the translation model needs, on
scalars, 2-D matrices or stacks of them with leading batch axes, and a tape
replayed in reverse build order. Each node's backward closure receives the
node's gradient from the tape and holds no reference to the node itself, so
a dropped graph is freed by reference counting alone. The replay consumes
its tape, as autograd engines do unless asked to keep the graph (Paszke et
al. 2019): once a node's backward has run, its gradient, closure and parent
links go, so the graph's buffers are freed while the backward pass still
runs. Leaves keep their gradients, and a second backward through a spent
graph raises. Everything runs in double precision so finite-difference
checks can be tight.

A training step's time goes to per-node Python overhead, not to FLOPs, so
its hot path is a few large nodes: `attention` is one node with a
hand-written backward, `project_heads` and `merge_heads` move all heads of a
sublayer through one GEMM, `linear` is a 2-D weight's GEMM and its bias add
with the batch folded into rows, and `layer_norm` normalizes a residual sum.
Each forward is bitwise the composed small ops it replaces, and each
gradient agrees with theirs to rounding; the tests keep those as the
reference.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, ParseError, non_negative_int

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference mode)."""
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def accumulate(self, g):
        # copied, not kept: several backwards pass views of their gradient
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise DimensionError("backward requires a scalar output")
        self.grad = np.ones_like(self.data)
        Tape.trace(self).replay()

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _spent(g):
    raise RuntimeError("backward through a graph that an earlier backward pass released")


class Tape:
    """Ordered record of the computation reaching one output tensor.

    Nodes are collected in topological order; replay() pops them in reverse
    and calls each recorded backward closure exactly once. Then it releases
    the node: a node with a closure drops its gradient and parent links, and
    its closure becomes one that raises, so the graph is freed as the pass
    goes and a second backward through it fails. Leaves, which have no
    closure, keep their gradients. The tape is empty afterwards.
    """

    def __init__(self, nodes):
        self.nodes = nodes

    @classmethod
    def trace(cls, root):
        nodes, visited, stack = [], set(), [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                nodes.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        return cls(nodes)

    def replay(self):
        nodes = self.nodes
        while nodes:
            node = nodes.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad, node._parents, node._backward = None, (), _spent


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward):
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g, shape):
    # reduce a gradient back to the shape it was broadcast from
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def _swap(x):
    return x.swapaxes(-1, -2)


def matmul(a, b):
    """Matrix product over the last two axes; leading axes broadcast."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul shapes do not agree: {a.data.shape} x {b.data.shape}"
        )
    try:
        out_data = a.data @ b.data
    except ValueError:
        raise DimensionError(
            f"matmul batch axes do not agree: {a.data.shape} x {b.data.shape}"
        ) from None

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g @ _swap(b.data), a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(_swap(a.data) @ g, b.data.shape))

    return _make(out_data, (a, b), backward)


def linear(x, w, b):
    """x @ w + b for x [..., d], a 2-D weight w [d, k] and a bias b [k], as [..., k].

    The leading axes of x fold into rows, so the forward is one GEMM and one
    add, and the backward one GEMM per matrix. The bias gradient is summed
    one leading axis at a time, in the order of a separate `add` node, so a
    training run's losses stay bitwise those of matmul plus add.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    d, k = w.data.shape if w.data.ndim == 2 else (None, None)
    if x.data.shape[-1:] != (d,) or b.data.shape != (k,):
        raise DimensionError(f"linear shapes do not agree: {x.data.shape} x {w.data.shape} "
                             f"+ {b.data.shape}")
    rows = x.data.reshape(-1, d)
    out_data = (rows @ w.data + b.data).reshape(x.data.shape[:-1] + (k,))

    def backward(g):
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, (k,)))
        g = g.reshape(-1, k)
        if x.requires_grad:
            x.accumulate((g @ w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            w.accumulate(rows.T @ g)

    return _make(out_data, (x, w, b), backward)


def project_heads(x, w):
    """Each head's x @ w[h] for x [..., L, d] and w [H, d, k], as [..., H, L, k].

    One [rows, d] x [d, H*k] GEMM, the heads split off by a reshape; the
    backward is one GEMM per input too.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    h, d, k = w.data.shape
    if x.data.ndim < 2 or x.data.shape[-1] != d:
        raise DimensionError(f"head projection shapes do not agree: {x.data.shape} x "
                             f"{w.data.shape}")
    rows = x.data.reshape(-1, d)
    wide = w.data.swapaxes(0, 1).reshape(d, h * k)
    out_data = (rows @ wide).reshape(x.data.shape[:-1] + (h, k)).swapaxes(-2, -3)

    def backward(g):
        g = g.swapaxes(-2, -3).reshape(-1, h * k)
        if x.requires_grad:
            x.accumulate((g @ wide.T).reshape(x.data.shape))
        if w.requires_grad:
            w.accumulate((rows.T @ g).reshape(d, h, k).swapaxes(0, 1))

    return _make(out_data, (x, w), backward)


def merge_heads(o, w):
    """The sum over heads of o[..., h, L, k] @ w[h] for w [H, k, d], as [..., L, d].

    One [rows, H*k] x [H*k, d] GEMM; the backward is one GEMM per input too.
    """
    o, w = _as_tensor(o), _as_tensor(w)
    h, k, d = w.data.shape
    if o.data.ndim < 3 or o.data.shape[-3] != h or o.data.shape[-1] != k:
        raise DimensionError(f"head merge shapes do not agree: {o.data.shape} x {w.data.shape}")
    split = o.data.shape[:-3] + o.data.shape[-2:-1] + (h, k)  # [..., L, H, k]
    rows = o.data.swapaxes(-2, -3).reshape(-1, h * k)
    tall = w.data.reshape(h * k, d)
    out_data = (rows @ tall).reshape(split[:-2] + (d,))

    def backward(g):
        g = g.reshape(-1, d)
        if o.requires_grad:
            o.accumulate((g @ tall.T).reshape(split).swapaxes(-2, -3))
        if w.requires_grad:
            w.accumulate((rows.T @ g).reshape(h, k, d))

    return _make(out_data, (o, w), backward)


def attention(q, k, v, bias=None, mask=None):
    """softmax(q k^T / sqrt(d_v) + bias) v, the weights first multiplied by `mask`.

    The mask multiplies the post-softmax weights with no renormalization, so
    a row's weights sum to at most 1 (exactly 1 only under an all-ones mask
    row). One node: its forward is bitwise that of the composed matmul,
    transpose, softmax and mul the tests keep, and its backward is the one of
    Dao et al. 2022 without the tiling. Shapes that do not agree raise DimensionError.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    scale = 1.0 / math.sqrt(v.data.shape[-1])
    try:
        logits = (q.data @ _swap(k.data)) * scale
        if bias is not None:
            logits = logits + bias
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        s = e / e.sum(axis=-1, keepdims=True)
        w = s if mask is None else s * mask
        out_data = w @ v.data
    except ValueError:
        raise DimensionError(
            f"attention shapes do not agree: {q.data.shape}, {k.data.shape}, {v.data.shape}"
        ) from None

    def backward(g):
        if v.requires_grad:
            v.accumulate(_unbroadcast(_swap(w) @ g, v.data.shape))
        dw = g @ _swap(v.data)
        if mask is not None:
            dw *= mask
        dlogits = s * (dw - (dw * s).sum(axis=-1, keepdims=True)) * scale
        if q.requires_grad:
            q.accumulate(_unbroadcast(dlogits @ k.data, q.data.shape))
        if k.requires_grad:
            k.accumulate(_unbroadcast(_swap(dlogits) @ q.data, k.data.shape))

    return _make(out_data, (q, k, v), backward)


def reshape(a, shape):
    a = _as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def relu(a):
    a = _as_tensor(a)
    mask = a.data > 0

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * mask)

    return _make(a.data * mask, (a,), backward)


def embedding(table, ids):
    """Gather rows of `table` (Tensor[V, d]) at integer positions `ids` (any shape).

    An id outside [0, V) raises DimensionError naming the id and V.
    """
    ids = np.asarray(ids, dtype=np.intp)
    n_rows = table.data.shape[0]
    outside = (ids < 0) | (ids >= n_rows)
    if outside.any():
        raise DimensionError(f"id {ids[outside][0]} lies outside the table of {n_rows} rows")
    out_data = table.data[ids]

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g)
            table.accumulate(gt)

    return _make(out_data, (table,), backward)


def layer_norm(x, sub, gain, bias, eps=1e-6):
    """LayerNorm(x + sub) over the last axis with learned gain and bias, as one node.

    A sublayer output's residual sum (Vaswani et al. 2017); x and sub get
    the same gradient. Each mean is a sum divided by the length: for float64
    that is bitwise np.mean, without its Python wrapper.
    """
    x, sub, gain, bias = _as_tensor(x), _as_tensor(sub), _as_tensor(gain), _as_tensor(bias)
    n = x.data.shape[-1]
    total = x.data + sub.data
    xc = total - np.add.reduce(total, axis=-1, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = gain.data * xhat + bias.data

    def backward(g):
        if bias.requires_grad:
            bias.accumulate(_unbroadcast(g, bias.data.shape))
        if gain.requires_grad:
            gain.accumulate(_unbroadcast(g * xhat, gain.data.shape))
        if x.requires_grad or sub.requires_grad:
            gx = g * gain.data
            m1 = np.add.reduce(gx, axis=-1, keepdims=True) / n
            m2 = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / n
            gtotal = inv * (gx - m1 - xhat * m2)
            for t in (x, sub):
                if t.requires_grad:
                    t.accumulate(gtotal)

    return _make(out_data, (x, sub, gain, bias), backward)


def cross_entropy_smoothed(logits, targets, smoothing):
    """Label-smoothed cross entropy, summed over rows.

    The target distribution is (1-eps) on the gold id plus eps spread
    uniformly over the whole vocabulary. `targets` has one id per logits
    row (the shape of `logits` without its last axis); a negative id marks
    a padding row, which adds nothing to the loss or the gradient. Returns
    a scalar Tensor.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.intp)
    v = logits.data.shape[-1]
    if targets.shape != logits.data.shape[:-1]:
        raise DimensionError("one target id per logits row required")
    real = (targets >= 0)[..., None]
    q = np.full(logits.data.shape, smoothing / v)
    rows = q.reshape(-1, v)
    # a padding row's -1 lands on its last column; `real` zeroes the row
    rows[np.arange(len(rows)), targets.reshape(-1)] += 1.0 - smoothing
    q *= real

    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    loss = -(q * logp).sum()

    def backward(g):
        if logits.requires_grad:
            logits.accumulate(float(g) * (np.exp(logp) * real - q))

    return _make(loss, (logits,), backward)


# -- checkpoint serialization -------------------------------------------------
#
# Binary layout: one ASCII header line "SCKPT <count>", then per tensor an
# ASCII line "<name> <ndim> <dim0> <dim1> ..." followed by the raw
# little-endian float64 buffer.

_CKPT_MAGIC = b"SCKPT"


def save_checkpoint(path, named_arrays):
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC + f" {len(named_arrays)}\n".encode())
        for name, arr in named_arrays.items():
            arr = np.asarray(arr, dtype="<f8")
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"{name} {arr.ndim}{' ' if dims else ''}{dims}\n".encode())
            fh.write(arr.tobytes(order="C"))


def _header_int(raw, field):
    try:
        return non_negative_int(raw)
    except ValueError:
        raise ParseError(f"checkpoint {field} is not a non-negative integer: "
                         f"{raw.decode(errors='replace')!r}") from None


def load_checkpoint(path):
    out = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.readline().split()
        if len(header) != 2 or header[0] != _CKPT_MAGIC:
            raise ParseError("not a checkpoint file")
        count = _header_int(header[1], "tensor count")
        for _ in range(count):
            fields = fh.readline().split()
            if len(fields) < 2:
                raise ParseError("truncated checkpoint header entry")
            name = fields[0].decode(errors="replace")
            ndim = _header_int(fields[1], f"ndim of {name!r}")
            if len(fields) != 2 + ndim:
                raise ParseError(f"checkpoint entry {name!r} lists {len(fields) - 2} dims, "
                                 f"ndim is {ndim}")
            shape = tuple(_header_int(d, f"dim {i} of {name!r}")
                          for i, d in enumerate(fields[2:]))
            n = math.prod(shape)
            # checked before reading, so a corrupted dim cannot ask for a huge buffer
            if 8 * n > size - fh.tell():
                raise ParseError(f"truncated tensor data for {name!r}")
            out[name] = np.frombuffer(fh.read(8 * n), dtype="<f8").reshape(shape).copy()
    return out
