"""Tensor/tape behaviour: exact small cases plus finite-difference oracles."""

import tracemalloc

import numpy as np
import pytest

from scenemt import autodiff as ad
from scenemt import model as M
from scenemt.errors import DimensionError, ParseError
from scenemt.masks import MaskSpec

from conftest import (grad_check, keep_graph_backward, reference_layer_norm, softmax_rows,
                      sum_all, transpose)
from toydata import copy_task


def test_matmul_identity():
    x = np.arange(6.0).reshape(2, 3)
    out = ad.matmul(ad.Tensor(np.eye(2)), ad.Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_matmul_hand_product():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = ad.Tensor([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(ad.matmul(a, b).data, [[2.0, 1.0], [4.0, 3.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)

    assert grad_check(lambda t: sum_all(ad.matmul(t, b)), a) < 1e-5
    assert grad_check(lambda t: sum_all(ad.matmul(a, t)), b) < 1e-5


def test_matmul_batched_matches_per_item_products():
    rng = np.random.default_rng(43)
    a = ad.Tensor(rng.normal(size=(3, 4, 5)))
    w = ad.Tensor(rng.normal(size=(5, 2)))
    b = ad.Tensor(rng.normal(size=(3, 5, 6)))
    shared, stacked = ad.matmul(a, w).data, ad.matmul(a, b).data
    for i in range(3):
        np.testing.assert_array_equal(shared[i], a.data[i] @ w.data)
        np.testing.assert_array_equal(stacked[i], a.data[i] @ b.data[i])


def test_matmul_batched_gradients_match_finite_differences():
    # a [d, k] weight shared across the batch gets the batch-summed gradient
    rng = np.random.default_rng(44)
    a = ad.Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    c = ad.Tensor(rng.normal(size=(3, 2, 4)))
    r = ad.Tensor(rng.normal(size=(3, 4, 4)))

    def loss(_):
        return sum_all(ad.mul(ad.matmul(ad.matmul(a, w), c), r))

    assert grad_check(loss, a) < 1e-6
    assert grad_check(loss, w) < 1e-6
    w.grad = None
    sum_all(ad.matmul(a, w)).backward()
    np.testing.assert_allclose(w.grad, sum(x.T @ np.ones((4, 2)) for x in a.data), rtol=1e-12)


def test_matmul_batch_axes_must_agree():
    with pytest.raises(DimensionError):
        ad.matmul(ad.Tensor(np.ones((2, 3, 4))), ad.Tensor(np.ones((3, 4, 5))))
    with pytest.raises(DimensionError):
        ad.matmul(ad.Tensor(np.ones(4)), ad.Tensor(np.ones((4, 5))))


def _fused_against_loop(fused, loop, loop_grads, inputs, rng):
    """A fused op's output and gradients under a random upstream gradient, against
    the per-item loop and its hand-derived gradients; then grad_check on each input."""
    out = fused(*inputs)
    r = rng.normal(size=out.shape)
    sum_all(ad.mul(out, r)).backward()
    arrays = [t.data for t in inputs]
    np.testing.assert_allclose(out.data, loop(*arrays), rtol=0, atol=1e-12)
    for t, expected in zip(inputs, loop_grads(r, *arrays)):
        np.testing.assert_allclose(t.grad, expected, rtol=0, atol=1e-12)
    for t in inputs:
        assert grad_check(lambda _: sum_all(ad.mul(fused(*inputs), r)), t) < 1e-6
    return out.data


HEAD_LEADS = pytest.mark.parametrize("lead", [(), (3,), (2, 3)],
                                     ids=["sentence", "batch", "two-batch-axes"])


@HEAD_LEADS
def test_project_heads_matches_a_per_head_loop(lead):
    rng = np.random.default_rng(45 + len(lead))
    x = ad.Tensor(rng.normal(size=lead + (4, 5)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(3, 5, 2)), requires_grad=True)
    n = len(w.data)

    def loop(x, w):
        return np.stack([x @ w[h] for h in range(n)], axis=-3)

    def loop_grads(g, x, w):
        rows = x.reshape(-1, 4, 5)
        per_head = [g[..., h, :, :].reshape(-1, 4, 2) for h in range(n)]
        dx = sum(gh @ w[h].T for h, gh in enumerate(per_head)).reshape(x.shape)
        dw = np.stack([sum(r.T @ gb for r, gb in zip(rows, gh)) for gh in per_head])
        return dx, dw

    out = _fused_against_loop(ad.project_heads, loop, loop_grads, [x, w], rng)
    assert out.shape == lead + (3, 4, 2)


@HEAD_LEADS
def test_merge_heads_matches_a_per_head_loop(lead):
    rng = np.random.default_rng(48 + len(lead))
    o = ad.Tensor(rng.normal(size=lead + (3, 4, 2)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(3, 2, 5)), requires_grad=True)
    n = len(w.data)

    def loop(o, w):
        return sum(o[..., h, :, :] @ w[h] for h in range(n))

    def loop_grads(g, o, w):
        do = np.stack([g @ w[h].T for h in range(n)], axis=-3)
        rows = g.reshape(-1, 4, 5)
        dw = np.stack([sum(ob.T @ gb for ob, gb in zip(o[..., h, :, :].reshape(-1, 4, 2), rows))
                       for h in range(n)])
        return do, dw

    out = _fused_against_loop(ad.merge_heads, loop, loop_grads, [o, w], rng)
    assert out.shape == lead + (4, 5)


@pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=["batch", "two-batch-axes"])
def test_linear_folds_a_2d_weight_like_a_per_item_loop(lead):
    rng = np.random.default_rng(51 + len(lead))
    a = ad.Tensor(rng.normal(size=lead + (4, 5)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=2), requires_grad=True)

    def loop(a, w, b):
        return np.stack([x @ w + b for x in a.reshape(-1, 4, 5)]).reshape(lead + (4, 2))

    def loop_grads(g, a, w, b):
        items = list(zip(a.reshape(-1, 4, 5), g.reshape(-1, 4, 2)))
        da = np.stack([gb @ w.T for _, gb in items]).reshape(a.shape)
        return da, sum(x.T @ gb for x, gb in items), sum(gb.sum(axis=0) for _, gb in items)

    _fused_against_loop(ad.linear, loop, loop_grads, [a, w, b], rng)


def _fused_against_composed(fused, composed, inputs, rng):
    """A fused node's forward bitwise against the composed ops it replaces, their
    gradients under one random upstream gradient to 1e-10, then grad_check on each input."""
    out = fused(*inputs)
    r = rng.normal(size=out.shape)
    grads = []
    for f in (fused, composed):
        for t in inputs:
            t.grad = None
        result = f(*inputs)
        np.testing.assert_array_equal(result.data, out.data)
        sum_all(ad.mul(result, r)).backward()
        grads.append([t.grad for t in inputs])
    for got, expected in zip(*grads):
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
    for t in inputs:
        assert grad_check(lambda _: sum_all(ad.mul(fused(*inputs), r)), t) <= 1e-8


@pytest.mark.parametrize("shape", [(4, 5), (3, 4, 5), (2, 3, 4, 5), (4, 1, 5)],
                         ids=["sentence", "batch", "two-batch-axes", "decoder-step"])
def test_linear_is_bitwise_matmul_plus_add(shape):
    rng = np.random.default_rng(55 + len(shape))
    x = ad.Tensor(rng.normal(size=shape), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=3), requires_grad=True)

    def composed(x, w, b):  # the batch folded into rows, as one 2-D matmul
        rows = ad.matmul(ad.reshape(x, (-1, 5)), w)
        return ad.reshape(ad.add(rows, b), shape[:-1] + (3,))

    _fused_against_composed(ad.linear, composed, [x, w, b], rng)


def test_linear_checks_shapes():
    x, w, b = np.ones((2, 4, 5)), np.ones((5, 3)), np.ones(3)
    for args in [(x, w, np.ones(4)), (np.ones((2, 4, 6)), w, b), (x, np.ones((2, 5, 3)), b)]:
        with pytest.raises(DimensionError, match="linear shapes do not agree"):
            ad.linear(*(ad.Tensor(a) for a in args))


@pytest.mark.parametrize("shape", [(7, 5), (2, 3, 6), (4, 1, 8), (2, 2, 3, 4)])
def test_layer_norm_is_bitwise_add_then_the_reference(shape):
    rng = np.random.default_rng(57 + sum(shape))
    x, sub = (ad.Tensor(rng.normal(loc=rng.normal(), size=shape), requires_grad=True)
              for _ in range(2))
    gain = ad.Tensor(rng.normal(size=shape[-1]), requires_grad=True)
    bias = ad.Tensor(rng.normal(size=shape[-1]), requires_grad=True)

    def composed(x, sub, gain, bias):
        return reference_layer_norm(ad.add(x, sub), gain, bias)

    _fused_against_composed(ad.layer_norm, composed, [x, sub, gain, bias], rng)


def test_head_primitives_check_widths():
    with pytest.raises(DimensionError):
        ad.project_heads(ad.Tensor(np.ones((4, 5))), ad.Tensor(np.ones((3, 4, 2))))
    with pytest.raises(DimensionError):
        ad.merge_heads(ad.Tensor(np.ones((2, 4, 2))), ad.Tensor(np.ones((3, 2, 5))))
    with pytest.raises(DimensionError):
        ad.merge_heads(ad.Tensor(np.ones((3, 4, 3))), ad.Tensor(np.ones((3, 2, 5))))


def test_transpose_swaps_last_two_axes():
    rng = np.random.default_rng(45)
    x = ad.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    out = transpose(x)
    assert out.shape == (2, 4, 3)
    np.testing.assert_array_equal(out.data[1], x.data[1].T)
    w = ad.Tensor(rng.normal(size=(2, 4, 3)))
    assert grad_check(lambda t: sum_all(ad.mul(transpose(t), w)), x) < 1e-9


def test_reshape_adds_a_head_axis_and_sums_its_gradient():
    rng = np.random.default_rng(46)
    x = ad.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(5, 4, 2)))  # five stacked weights
    out = ad.matmul(ad.reshape(x, (2, 1, 3, 4)), w)
    assert out.shape == (2, 5, 3, 2)
    np.testing.assert_array_equal(out.data[1, 4], x.data[1] @ w.data[4])
    assert grad_check(lambda t: sum_all(ad.matmul(ad.reshape(t, (2, 1, 3, 4)), w)), x) < 1e-8


def test_first_gradient_is_a_copy_of_a_view():
    # transpose and reshape hand their input a view of the output gradient;
    # the stored gradient must not alias it
    source = np.arange(6.0).reshape(2, 3)
    t = ad.Tensor(np.zeros((3, 2)), requires_grad=True)
    t.accumulate(source.T)
    source[0, 0] = 100.0
    assert t.grad[0, 0] == 0.0
    t.accumulate(np.ones((3, 2)))
    assert source[0, 1] == 1.0
    np.testing.assert_array_equal(t.grad, np.arange(6.0).reshape(2, 3).T + 1.0)
    # a read-only broadcast view is copied too
    x = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    x.accumulate(np.broadcast_to(np.ones(3), (2, 3)))
    x.accumulate(np.ones((2, 3)))
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))


def test_matmul_associative_on_well_conditioned_inputs():
    rng = np.random.default_rng(1)
    a, b, c = (ad.Tensor(rng.normal(size=(8, 8))) for _ in range(3))
    left = ad.matmul(ad.matmul(a, b), c).data
    right = ad.matmul(a, ad.matmul(b, c)).data
    np.testing.assert_allclose(left, right, rtol=1e-10)


def test_softmax_equal_values():
    out = softmax_rows(ad.Tensor(np.full((1, 4), 3.7)))
    np.testing.assert_allclose(out.data, 0.25)


def test_softmax_closed_form():
    out = softmax_rows(ad.Tensor([[0.0, np.log(3.0)]]))
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    x = rng.normal(scale=20.0, size=(50, 9))
    out = softmax_rows(ad.Tensor(x)).data
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert (out > 0).all() and (out < 1).all()


def test_softmax_gradient():
    rng = np.random.default_rng(3)
    x = ad.Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(5, 1)))
    err = grad_check(lambda t: sum_all(ad.matmul(softmax_rows(t), w)), x)
    assert err < 1e-5


def test_grad_check_sum_is_exact():
    x = ad.Tensor(np.linspace(-1, 1, 12).reshape(3, 4), requires_grad=True)
    assert grad_check(sum_all, x, h=1e-4) < 1e-9


def test_grad_check_quadratic():
    x = ad.Tensor(np.array([[1.0, -2.0, 0.5]]), requires_grad=True)
    err = grad_check(lambda t: sum_all(ad.mul(t, t)), x, h=1e-4)
    assert err < 1e-7
    np.testing.assert_allclose(x.grad, 2 * x.data)


def test_grad_check_rejects_non_scalar():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(DimensionError):
        grad_check(lambda t: ad.mul(t, t), x)


def test_masked_attention_loss_gradient():
    # composite graph: softmax, elementwise mask, matmul, reduction
    rng = np.random.default_rng(11)
    mask = (rng.random((4, 4)) > 0.4).astype(float)
    np.fill_diagonal(mask, 1.0)
    k = ad.Tensor(rng.normal(size=(4, 3)))
    v = ad.Tensor(rng.normal(size=(4, 3)))
    q = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)

    def loss(t):
        s = softmax_rows(ad.matmul(t, transpose(k)) * (1 / np.sqrt(3)))
        return sum_all(ad.matmul(ad.mul(s, ad.Tensor(mask)), v))

    assert grad_check(loss, q) <= 1e-4


def test_embedding_gradient_accumulates_repeats():
    table = ad.Tensor(np.zeros((5, 3)), requires_grad=True)
    out = sum_all(ad.embedding(table, [1, 1, 4]))
    out.backward()
    expected = np.zeros((5, 3))
    expected[1] = 2.0
    expected[4] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_embedding_rejects_an_id_past_the_table():
    table = ad.Tensor(np.zeros((5, 3)))
    with pytest.raises(DimensionError, match="id 5 lies outside the table of 5 rows"):
        ad.embedding(table, [[1, 2], [4, 5]])


def test_embedding_rejects_a_negative_id():
    # numpy would gather the last row for -1
    table = ad.Tensor(np.zeros((5, 3)))
    with pytest.raises(DimensionError, match="id -1 lies outside the table of 5 rows"):
        ad.embedding(table, [0, -1, 2])


def test_layer_norm_rows_are_standardized():
    rng = np.random.default_rng(5)
    x = ad.Tensor(rng.normal(loc=3.0, scale=2.0, size=(6, 16)))
    out = ad.layer_norm(x, np.zeros((6, 16)), ad.Tensor(np.ones(16)), ad.Tensor(np.zeros(16))).data
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-3)


def test_layer_norm_is_bitwise_the_np_var_formula():
    # the centred input is computed once and squared for the variance; the
    # earlier (x - mean) * inv with np.var is kept here as the reference
    rng = np.random.default_rng(6)
    for shape in [(16, 9, 32), (4, 1, 32), (64, 9, 32), (7, 5), (3, 2, 4, 8), (1, 1)]:
        x = rng.normal(loc=rng.normal(), scale=rng.uniform(0.1, 5.0), size=shape)
        gain, bias = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-6)
        expected = gain * ((x - x.mean(axis=-1, keepdims=True)) * inv) + bias
        out = ad.layer_norm(ad.Tensor(x), np.zeros(shape), ad.Tensor(gain), ad.Tensor(bias)).data
        np.testing.assert_array_equal(out, expected)


def test_cross_entropy_uniform_logits_is_log_vocab():
    logits = ad.Tensor(np.zeros((4, 12)))
    loss = ad.cross_entropy_smoothed(logits, [0, 3, 7, 11], 0.1)
    np.testing.assert_allclose(loss.data / 4, np.log(12), rtol=1e-12)


def test_cross_entropy_skips_padding_rows():
    # negative targets mark padding: the loss and gradient equal those of
    # the real rows alone
    rng = np.random.default_rng(10)
    logits = rng.normal(size=(2, 3, 6))
    targets = np.array([[2, 0, -1], [5, -1, -1]])
    x = ad.Tensor(logits, requires_grad=True)
    loss = ad.cross_entropy_smoothed(x, targets, 0.1)
    loss.backward()
    real = ad.Tensor(np.stack([logits[0, 0], logits[0, 1], logits[1, 0]]), requires_grad=True)
    expected = ad.cross_entropy_smoothed(real, [2, 0, 5], 0.1)
    expected.backward()
    assert loss.item() == pytest.approx(expected.item(), rel=1e-14)
    np.testing.assert_array_equal(x.grad[targets < 0], 0.0)
    np.testing.assert_allclose(x.grad[targets >= 0], real.grad, rtol=1e-14)
    assert grad_check(lambda t: ad.cross_entropy_smoothed(t, targets, 0.1), x) < 1e-6


def test_cross_entropy_gradient():
    rng = np.random.default_rng(9)
    x = ad.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    err = grad_check(lambda t: ad.cross_entropy_smoothed(t, [2, 0, 5], 0.1), x)
    assert err < 1e-6


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(DimensionError):
        ad.mul(x, x).backward()


def test_tape_visits_shared_nodes_once():
    x = ad.Tensor(np.array([[2.0]]), requires_grad=True)
    y = ad.mul(x, x)           # reused twice below
    z = sum_all(ad.add(y, y))
    z.backward()
    # d/dx of 2x^2 at x=2 is 8; double-counting y's backward would give 16
    np.testing.assert_allclose(x.grad, [[8.0]])


def _small_graph():
    x = ad.Tensor(np.array([[1.0, -2.0], [3.0, 0.5]]), requires_grad=True)
    w = ad.Tensor(np.array([[0.5, 1.0], [-1.0, 2.0]]), requires_grad=True)
    h = ad.relu(ad.matmul(x, w))
    return (x, w), sum_all(ad.mul(h, ad.add(h, x)))


def test_backward_releases_every_non_leaf_and_keeps_leaf_gradients():
    leaves, root = _small_graph()
    inner = [n for n in ad.Tape.trace(root).nodes if n._parents]
    assert len(inner) == 5 and root in inner  # matmul, relu, add, mul and the sum
    root.backward()
    for node in inner:
        assert node.grad is None and node._parents == ()
        assert node._backward is not None  # the raising sentinel, not "nothing to do"
    for leaf in leaves:
        assert leaf.grad is not None and leaf.grad.shape == leaf.data.shape


def test_replay_empties_its_tape_and_trace_returns_every_node():
    _, root = _small_graph()
    root.grad = np.ones_like(root.data)
    tape = ad.Tape.trace(root)
    assert len(tape.nodes) == 7  # the 2 leaves and 5 ops
    tape.replay()
    assert tape.nodes == []


def test_second_backward_through_a_released_graph_raises():
    (x, _), root = _small_graph()
    root.backward()
    first = x.grad.copy()
    with pytest.raises(RuntimeError, match="released"):
        root.backward()
    np.testing.assert_array_equal(x.grad, first)


COPY_MODEL = dict(d_model=32, heads=2, d_ff=128, max_len=32)  # criterion 07's model
COPY_SPECS = (M.sasa_default(), M.sacra_default())


def _copy_batch(model):
    sentences, vocab, covers = copy_task(pairs=16, seed=13)
    pairs = [(vocab.encode(s), vocab.encode(s)) for s in sentences]
    masks = [{spec.label: MaskSpec("binary").build(cover=c).values for spec in COPY_SPECS}
             for c in covers]
    return M.pad_batch(model, pairs, masks)


def _copy_model():
    cfg = M.ModelConfig(src_vocab=12, trg_vocab=12, **COPY_MODEL)
    return M.Model(cfg, COPY_SPECS, seed=7)


def _copy_loss(model, batch):
    src, trg_in, gold, masks = batch
    total = ad.cross_entropy_smoothed(model.forward(src, trg_in, masks), gold, 0.1)
    return total * (1.0 / int((gold >= 0).sum()))


def test_released_replay_gives_bitwise_the_kept_graph_gradients():
    model = _copy_model()
    batch = _copy_batch(model)
    _copy_loss(model, batch).backward()
    released = {name: t.grad for name, t in model.params.items()}
    for t in model.params.values():
        t.grad = None
    keep_graph_backward(_copy_loss(model, batch))
    for name, t in model.params.items():
        np.testing.assert_array_equal(released[name], t.grad, err_msg=name)


def test_backward_peak_stays_near_the_forward_graph_and_frees_it():
    """One criterion-07 step at batch 16, traced: backward frees the graph as it runs.

    Keeping the graph to the end of the pass put the peak at about 1.45x the
    memory live after the forward pass, and left all of it live afterwards.
    """
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        model = _copy_model()
        adam = M.Adam(model.params.values(), *M.ADAM_BETAS, 1e-9)
        batch = _copy_batch(model)
        before = tracemalloc.get_traced_memory()[0]
        loss = _copy_loss(model, batch)
        forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert forward - before > 5e6  # the graph is there to be freed
    assert peak <= 1.1 * forward
    assert after - before <= 0.1e6
    assert np.abs(adam.grad).sum() > 0


def test_no_grad_blocks_recording():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert y._backward is None and not y.requires_grad


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    named = {
        "enc.w": rng.normal(size=(4, 3)),
        "bias": rng.normal(size=(7,)),
        "scalar": np.array(3.25),
    }
    path = tmp_path / "model.ckpt"
    ad.save_checkpoint(path, named)
    loaded = ad.load_checkpoint(path)
    assert list(loaded) == list(named)
    for name in named:
        np.testing.assert_array_equal(loaded[name], named[name])


def test_checkpoint_bytes_are_deterministic(tmp_path):
    arrs = {"a": np.linspace(0, 1, 10).reshape(2, 5)}
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    ad.save_checkpoint(p1, arrs)
    ad.save_checkpoint(p2, arrs)
    assert p1.read_bytes() == p2.read_bytes()


def _header_case(tmp_path, text):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(text.encode() + np.zeros(4).tobytes())
    return path


@pytest.mark.parametrize(
    "header,field",
    [
        ("SCKPT two\nw 1 4\n", "tensor count"),
        ("SCKPT -1\nw 1 4\n", "tensor count"),
        ("SCKPT 1\nw x 4\n", "ndim of 'w'"),
        ("SCKPT 1\nw 1 4.5\n", "dim 0 of 'w'"),
        ("SCKPT 1\nw 2 2 -2\n", "dim 1 of 'w'"),
    ],
)
def test_checkpoint_header_fields_are_parse_errors(tmp_path, header, field):
    with pytest.raises(ParseError, match=field):
        ad.load_checkpoint(_header_case(tmp_path, header))


def test_checkpoint_dims_must_match_ndim_and_data(tmp_path):
    with pytest.raises(ParseError, match="lists 1 dims, ndim is 2"):
        ad.load_checkpoint(_header_case(tmp_path, "SCKPT 1\nw 2 4\n"))
    # a dim far past the file's size is refused before any read
    with pytest.raises(ParseError, match="truncated tensor data"):
        ad.load_checkpoint(_header_case(tmp_path, "SCKPT 1\nw 1 1000000000000000\n"))
