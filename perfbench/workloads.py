"""The three workloads: set-up, one round of identical work, output checks.

A round is the unit the rates are timed in. Every round of a run does the
same work (same shapes, same number of steps, sentences or files), so the
median round time is a steady measure.

* train-copy: one `scenemt.model.train` call of STEPS_PER_ROUND steps on
  the copy task with the acceptance criterion-07 model, plus SASA on encoder
  layer 4 and SACrA on decoder layers 2-3. The call also builds the model
  and ends with the program's own accuracy pass over the 200 pairs.
* decode-beam4: beam-4 `scenemt.model.translate` of six sources of 8-48
  tokens, capped at 8, 32 or 64 target tokens (each cap twice), on a model
  whose every parameter is drawn from the seed and set with `load_state`.
* masks-ucca: `scenemt masks` over one file of 16 sentences (16-128
  subword tokens) for each of the five families.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import traceback
from pathlib import Path

import numpy as np

import checks
import gen

from scenemt import autodiff, cli, masks, model as M, semgraph
from scenemt.errors import SceneMtError


def _covers(sentences, rng):
    """Scene covers through the program's own graph reader, as `--ucca` does."""
    text = "".join(gen.ug_text(s, rng) for s in sentences)
    return [semgraph.extract_scenes(g) for g in semgraph.parse_ucca_file(text)]


def _binary_masks(covers):
    spec = masks.MaskSpec("binary")
    return [spec.build(cover=c).values for c in covers]


class Workload:
    sentences_per_round = 0
    ops_per_round = 0

    def __init__(self, seed, work_dir, small=False):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.small = small
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0

    def run_round(self):
        self.attempted += self.ops_per_round
        try:
            self.failed += self.round()
        except SceneMtError:
            traceback.print_exc()
            self.failed += self.ops_per_round

    def cleanup(self):
        pass


class TrainCopy(Workload):
    PAIRS, MIN_LEN, MAX_LEN, SYMBOLS = 200, 3, 8, 8
    BATCH, STEPS_PER_ROUND = 16, 16
    MODEL = dict(d_model=32, enc_layers=4, dec_layers=4, heads=2, d_ff=128, max_len=32)
    TRAIN_SEED = 7  # criterion 07's
    TAIL, MARGIN = 5, 0.01  # loss check: mean of the last TAIL losses is MARGIN lower

    def setup(self):
        if self.small:
            self.PAIRS = 20
        self.steps = self.ops_per_round = self.STEPS_PER_ROUND
        self.sentences_per_round = self.steps * self.BATCH
        rng = self.rng
        # lengths and the training seed (batch order, initial weights) do not
        # depend on the workload seed, so every seed does the same work
        lengths = [self.MIN_LEN + i % (self.MAX_LEN - self.MIN_LEN + 1) for i in range(self.PAIRS)]
        ids = [gen.token_ids(rng, n, self.SYMBOLS) for n in lengths]
        self.pairs = [(s, list(s)) for s in ids]
        sentences = [gen.Sentence(len(s), gen.split_scenes(len(s)), ()) for s in ids]
        mask_list = _binary_masks(_covers(sentences, rng))
        self.vocab = gen.N_RESERVED + self.SYMBOLS
        self.cfg = M.ModelConfig(src_vocab=self.vocab, trg_vocab=self.vocab, **self.MODEL)
        self.specs = [M.sasa_default(), M.sacra_default()]
        self.provider = lambda i: {"sasa": mask_list[i], "sacra": mask_list[i]}
        self.losses = []

    def _train(self, pairs, steps):
        cfg = M.TrainConfig(steps=steps, batch_size=self.BATCH, seed=self.TRAIN_SEED,
                            warmup=400)
        return M.train(pairs, self.cfg, cfg, self.specs, self.provider)

    def warmup(self):
        self._train(self.pairs[:self.BATCH], 2)

    def round(self):
        self.losses.append(self._train(self.pairs, self.steps).losses)
        return 0

    def check(self):
        for losses in self.losses:
            if len(losses) != self.steps:
                raise checks.CheckError(f"{len(losses)} losses for {self.steps} steps")
            checks.check_losses(losses, self.vocab, self.TAIL, self.MARGIN)

    def trace_counts(self, rounds):
        return dict(steps=rounds * self.steps)


class DecodeBeam4(Workload):
    SYMBOLS, BEAM, ALPHA, POOL_ROUNDS = 28, 4, 0.6, 4
    ROUND = ((8, 32), (16, 64), (24, 8), (32, 64), (40, 32), (48, 8))  # (source, cap)
    MODEL = dict(d_model=32, enc_layers=4, dec_layers=4, heads=2, d_ff=128, max_len=72)

    def setup(self):
        plan = self.ROUND[:3] if self.small else self.ROUND
        rounds = 1 if self.small else self.POOL_ROUNDS
        self.sentences_per_round = self.ops_per_round = len(plan)
        rng = self.rng
        self.vocab = gen.N_RESERVED + self.SYMBOLS
        cfg = M.ModelConfig(src_vocab=self.vocab, trg_vocab=self.vocab, **self.MODEL)
        self.model = M.Model(cfg, [M.sasa_default(), M.sacra_default()], seed=0)
        shapes = {n: a.shape for n, a in self.model.state_arrays().items()}
        self.model.load_state(gen.weights(rng, shapes))
        sentences = [gen.source_sentence(rng, n) for _ in range(rounds) for n, _ in plan]
        mask_list = _binary_masks(_covers(sentences, rng))
        self.pool = [
            [(gen.token_ids(rng, n, self.SYMBOLS), {"sasa": m, "sacra": m}, cap)
             for (n, cap), m in zip(plan, mask_list[r * len(plan):(r + 1) * len(plan)])]
            for r in range(rounds)
        ]
        self.rounds_run = 0
        self.results = []

    def _translate(self, src, mask, cap):
        cfg = M.DecodeConfig(beam=self.BEAM, alpha=self.ALPHA, max_len=cap)
        return M.translate(self.model, src, mask, cfg)

    def warmup(self):
        src, mask, _ = self.pool[0][0]
        self._translate(src, mask, 4)

    def round(self):
        batch = self.pool[self.rounds_run % len(self.pool)]
        self.rounds_run += 1
        for src, mask, cap in batch:
            self.results.append((src, mask, cap, self._translate(src, mask, cap)))
        return 0

    def _forward(self, src, trg_in, mask):
        with autodiff.no_grad():
            return self.model.forward(src, trg_in, mask).data

    def check(self):
        for src, mask, cap, r in self.results:
            checks.check_hypothesis(self._forward, src, mask, cap, self.vocab, self.ALPHA,
                                    r.tokens, r.score, r.finished)

    def trace_counts(self, rounds):
        return dict(sentences=rounds * self.sentences_per_round)


class MasksUcca(Workload):
    SENTENCES, MIN_LEN, MAX_LEN = 16, 16, 128
    C_SCALED, C_NORMAL = 0.1, 0.5
    FAMILIES = ("binary", "scaled", "normal", "pascal", "udiscal")

    def setup(self):
        n = 4 if self.small else self.SENTENCES
        lengths = np.linspace(self.MIN_LEN, 48 if self.small else self.MAX_LEN, n)
        rng = self.rng
        self.sentences = [gen.mask_sentence(rng, int(round(L))) for L in lengths]
        self.sentences_per_round = n
        self.ops_per_round = n * len(self.FAMILIES)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        inputs = {
            "sents.ug": "".join(gen.ug_text(s, rng) for s in self.sentences),
            "sents.conllu": "".join(gen.conllu_text(s) for s in self.sentences),
            "counts.txt": "".join(" ".join(map(str, s.counts)) + "\n" for s in self.sentences),
        }
        for name, text in inputs.items():
            (self.work_dir / name).write_text(text, encoding="utf-8")
        self.argv = {}
        for family in self.FAMILIES:
            argv = ["masks", "--family", family, "--out", str(self.work_dir / family),
                    "--alignment", str(self.work_dir / "counts.txt")]
            if family in ("pascal", "udiscal"):
                argv += ["--conllu", str(self.work_dir / "sents.conllu")]
            else:
                argv += ["--ucca", str(self.work_dir / "sents.ug")]
            if family == "scaled":
                argv += ["--C", str(self.C_SCALED)]
            elif family == "normal":
                argv += ["--C", str(self.C_NORMAL)]
            self.argv[family] = argv

    def warmup(self):
        self.round()

    def round(self):
        failed = 0
        for family in self.FAMILIES:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self.argv[family])
            if code != 0:
                failed += self.sentences_per_round
        return failed

    def check(self):
        for i, sentence in enumerate(self.sentences):
            expected = checks.expected_masks(sentence, self.C_SCALED, self.C_NORMAL)
            for family in self.FAMILIES:
                path = self.work_dir / family / f"mask_{i:04d}.mask"
                checks.check_mask_file(path.read_text(encoding="utf-8"), family,
                                       expected[family])

    def trace_counts(self, rounds):
        return dict(files=rounds * self.ops_per_round)

    def cleanup(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


WORKLOADS = {"train-copy": TrainCopy, "decode-beam4": DecodeBeam4, "masks-ucca": MasksUcca}
