"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The training criterion is the slow one (three
desk-scale runs); everything else finishes in seconds.
"""

import itertools
import math
import time
from collections import deque
from contextlib import contextmanager

import numpy as np
import pytest

from scenemt import autodiff as ad
from scenemt import cli
from scenemt import model as M
from scenemt.masks import MaskSpec, SIGMA_PEAK_ONE, f_norm
from scenemt.metrics import bleu, chrf, sign_test
from scenemt.model import (
    DecodeConfig,
    HeadSpec,
    Model,
    ModelConfig,
    TrainConfig,
    aggregated_keys,
    attention,
)
from scenemt.semgraph import (
    ROOT_HEAD,
    SceneCover,
    scene_distance,
    ud_tree_distances,
)
from scenemt.textpipe import BOS, EOS

from conftest import beam_search, grad_check, greedy_decode, random_cover, random_ud_graph
from toydata import copy_task, write_copy_task


@contextmanager
def criterion(number, title):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {title} ({time.time() - start:.1f}s)")


def test_criterion_01_two_scene_mask_fixture():
    with criterion(1, "two-scene mask fixture entries are exact"):
        start = time.time()
        cover = SceneCover(7, [frozenset({0, 1, 2, 3}), frozenset({3, 5})])
        assert cover.unassigned == {4, 6}
        m = MaskSpec("binary").build(cover=cover).values
        saw, dog, barked = 1, 3, 5
        assert m[saw, dog] == 1.0
        assert m[dog, barked] == 1.0
        assert m[saw, barked] == 0.0
        assert time.time() - start < 1.0


def test_criterion_02_vanilla_equivalence_bitwise():
    with criterion(2, "all-ones masked self-attention is bitwise vanilla"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            L = int(rng.integers(1, 17))
            d_k = int(rng.integers(1, 33))
            q = ad.Tensor(rng.normal(size=(L, d_k)))
            k = ad.Tensor(rng.normal(size=(L, d_k)))
            v = ad.Tensor(rng.normal(size=(L, d_k)))
            masked = attention(q, k, v, mask=np.ones((L, L)))
            plain = attention(q, k, v)
            assert (masked.data == plain.data).all()


def test_criterion_03_aggregated_key_invariance():
    with criterion(3, "identical mask rows give identical attention weights"):
        rng = np.random.default_rng(2025)
        for _ in range(100):
            l_src = int(rng.integers(2, 10))
            l_trg = int(rng.integers(1, 8))
            d = int(rng.integers(2, 17)) * 2
            d_k = d // 2
            mask = (rng.random((l_src, l_src)) > 0.5).astype(float)
            np.fill_diagonal(mask, 1.0)
            dup = int(rng.integers(1, l_src))
            mask[dup] = mask[0]  # guarantee at least one identical pair
            x = ad.Tensor(rng.normal(size=(l_src, d)))
            q = ad.Tensor(rng.normal(size=(l_trg, d)))
            w = attention(q, aggregated_keys(x, mask), ad.Tensor(np.eye(l_src))).data
            for i, j in itertools.combinations(range(l_src), 2):
                if (mask[i] == mask[j]).all():
                    assert np.abs(w[:, i] - w[:, j]).max() < 1e-12


def test_criterion_04_end_to_end_gradient_check():
    with criterion(4, "finite differences confirm every parameter gradient"):
        start = time.time()
        specs = [
            HeadSpec("encoder", {2}, {1}, MaskSpec("binary"), "sasa"),
            HeadSpec("cross", {1}, {2}, MaskSpec("binary"), "sacra"),
        ]
        cfg = ModelConfig(src_vocab=7, trg_vocab=7, d_model=8, enc_layers=2,
                          dec_layers=2, heads=2, d_ff=12, max_len=16)
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

        worst = 0.0
        for name in sorted(model.params):
            err = grad_check(loss, model.params[name], h=1e-5)
            assert err <= 1e-4, f"{name}: {err}"
            worst = max(worst, err)
        assert time.time() - start < 60.0
        print(f"  worst relative error {worst:.2e}")


def bfs_scene_graph_oracle(cover):
    """Token distances via explicit scene graph + BFS, built independently."""
    n = len(cover.scenes)
    adj = [
        {j for j in range(n) if j != i and cover.scenes[i] & cover.scenes[j]}
        for i in range(n)
    ]
    scene_dist = np.full((n, n), np.inf)
    for s in range(n):
        scene_dist[s, s] = 0
        frontier = deque([s])
        while frontier:
            u = frontier.popleft()
            for v in adj[u]:
                if np.isinf(scene_dist[s, v]):
                    scene_dist[s, v] = scene_dist[s, u] + 1
                    frontier.append(v)
    L = cover.length
    owners = [
        [i for i, s in enumerate(cover.scenes) if t in s] for t in range(L)
    ]
    out = np.full((L, L), np.inf)
    for i in range(L):
        for j in range(L):
            if owners[i] and owners[j]:
                out[i, j] = min(
                    scene_dist[a, b] for a in owners[i] for b in owners[j]
                )
    return out


def floyd_warshall_tree(ud):
    n = ud.length
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, h in enumerate(ud.heads):
        if h != ROOT_HEAD:
            dist[i, h] = dist[h, i] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    return dist


def test_criterion_05_distance_oracles():
    with criterion(5, "tree and scene distances match independent oracles"):
        rng = np.random.default_rng(505)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            ud = random_ud_graph(n, rng)
            assert np.array_equal(ud_tree_distances(ud), floyd_warshall_tree(ud))
        for _ in range(200):
            cover = random_cover(rng)
            assert np.array_equal(scene_distance(cover), bfs_scene_graph_oracle(cover))


def test_criterion_06_mask_value_formulas():
    with criterion(6, "density formula values hit their pinned constants"):
        assert abs(f_norm(0.0, SIGMA_PEAK_ONE) - 1.0) < 1e-12
        cover = SceneCover(4, [frozenset({0, 1}), frozenset({1, 2, 3})])
        nm = MaskSpec("normal", 0.5).build(cover=cover).values
        assert abs(nm[0, 2] - 0.455938) < 1e-6  # scene distance 1
        ud = random_ud_graph(5, np.random.default_rng(6))
        um = MaskSpec("udiscal").build(ud=ud).values
        assert abs(um[0, 0] - 0.398942) < 1e-6


COPY_MODEL = dict(d_model=32, heads=2, d_ff=128, max_len=32)
COPY_TRAIN = dict(steps=2000, batch_size=16, seed=7, warmup=400,
                  eval_every=50, target_accuracy=0.99)


def run_copy_task(specs):
    sentences, vocab, covers = copy_task(pairs=200, seed=13)
    pairs = [(vocab.encode(s), vocab.encode(s)) for s in sentences]
    mask_list = [MaskSpec("binary").build(cover=c).values for c in covers]
    labels = {spec.label for spec in specs}
    provider = lambda i: {label: mask_list[i] for label in labels}
    cfg = ModelConfig(src_vocab=len(vocab), trg_vocab=len(vocab), **COPY_MODEL)
    start = time.time()
    result = M.train(pairs, cfg, TrainConfig(**COPY_TRAIN), specs, provider)
    return result, time.time() - start, math.log(len(vocab))


@pytest.mark.parametrize(
    "name,specs",
    [
        ("vanilla", []),
        ("sasa layer-4 one-head", [M.sasa_default()]),
        ("sacra layers-2&3 one-head", [M.sacra_default()]),
    ],
    ids=["vanilla", "sasa", "sacra"],
)
def test_criterion_07_copy_task_training(name, specs):
    with criterion(7, f"copy task reaches 99% token accuracy ({name})"):
        result, elapsed, log_vocab = run_copy_task(specs)
        assert abs(result.losses[0] - log_vocab) / log_vocab < 0.10
        assert result.accuracy >= 0.99, (
            f"{name}: {result.accuracy:.4f} after {result.steps_run} steps"
        )
        assert result.steps_run <= 2000
        assert elapsed < 600.0
        print(f"  {name}: accuracy {result.accuracy:.4f} at step "
              f"{result.steps_run} in {elapsed:.0f}s")


def test_criterion_08_metric_fixtures():
    with criterion(8, "metric fixtures score their hand-computed values"):
        assert bleu(["the same line"], ["the same line"]).score == 100.0
        hand = bleu(["the cat sat down now"], ["the cat sat down"]).score
        assert abs(hand - 66.87) <= 0.01
        pinned = chrf(["abab"], ["ab"]).score
        assert abs(pinned - 35.09) <= 0.01
        a = [1.0] * 10
        b = [2.0] * 8 + [0.5] * 2
        assert sign_test(a, b) == 56 / 1024


def test_criterion_09_beam_search_oracles():
    with criterion(9, "beam search matches enumeration and greedy"):
        table = {
            (9,): [0.6, 0.4],
            (9, 0): [0.5, 0.5],
            (9, 1): [0.9, 0.1],
            (9, 0, 0): [0.5, 0.5],
            (9, 0, 1): [0.5, 0.5],
            (9, 1, 0): [0.9, 0.1],
            (9, 1, 1): [0.5, 0.5],
        }

        def score(prefix):
            row = np.full(3, -50.0)
            probs = table.get(prefix, [1 / 3] * 3)
            row[: len(probs)] = np.log(probs)
            return row

        best = None
        for seq in itertools.product(range(2), repeat=3):
            lp, prefix = 0.0, (9,)
            for tok in seq:
                lp += float(score(prefix)[tok])
                prefix += (tok,)
            if best is None or (-lp, seq) < best:
                best = (-lp, seq)
        result = beam_search(score, bos=9, eos=2,
                             cfg=DecodeConfig(beam=2, alpha=0.0, max_len=3))
        greedy = greedy_decode(score, bos=9, eos=2, max_len=3)
        assert result.tokens == list(best[1])
        assert result.score > sum(
            float(score(tuple([9] + greedy.tokens[:i]))[t])
            for i, t in enumerate(greedy.tokens)
        )

        for seed in range(50):
            vocab, max_len = 6, 8

            def rand_score(prefix, s=seed):
                mix = abs(hash(prefix)) % (2 ** 31)
                local = np.random.default_rng(s * 2654435761 % (2 ** 31) + mix)
                logits = local.normal(size=vocab)
                return logits - math.log(np.exp(logits).sum())

            b = beam_search(rand_score, bos=0, eos=1,
                            cfg=DecodeConfig(beam=1, alpha=0.6, max_len=max_len))
            g = greedy_decode(rand_score, bos=0, eos=1, max_len=max_len)
            assert b.tokens == g.tokens


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "manifest reruns reproduce outputs byte for byte"):
        src, trg, cov = tmp_path / "c.src", tmp_path / "c.trg", tmp_path / "c.cover"
        write_copy_task(src, trg, cov, pairs=16, seed=3)
        train1 = tmp_path / "train1"
        code = cli.main([str(x) for x in [
            "train", "--src", src, "--trg", trg, "--cover", cov,
            "--sasa", "", "--steps", "40", "--batch-size", "4", "--seed", "11",
            "--d-model", "16", "--layers", "4", "--heads", "2", "--d-ff", "32",
            "--max-len", "16", "--warmup", "100", "--out", train1,
        ]])
        assert code == 0
        train2 = tmp_path / "train2"
        assert cli.main(["rerun", str(train1 / "manifest.txt"),
                         "--out", str(train2)]) == 0
        assert (train1 / "checkpoint.ckpt").read_bytes() == \
            (train2 / "checkpoint.ckpt").read_bytes()

        hyp1 = tmp_path / "hyp1"
        assert cli.main([str(x) for x in [
            "translate", "--model", train1, "--src", src, "--cover", cov,
            "--beam", "2", "--max-len", "12", "--out", hyp1,
        ]]) == 0
        eval1 = tmp_path / "eval1"
        assert cli.main([str(x) for x in [
            "evaluate", "--hyp", hyp1 / "hyps.txt", "--ref", trg, "--out", eval1,
        ]]) == 0
        eval2 = tmp_path / "eval2"
        assert cli.main(["rerun", str(eval1 / "manifest.txt"),
                         "--out", str(eval2)]) == 0
        assert (eval1 / "scores.txt").read_bytes() == \
            (eval2 / "scores.txt").read_bytes()
