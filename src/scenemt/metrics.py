"""Corpus-level translation metrics and the paired sign test.

BLEU is the classic corpus BLEU-4: clipped n-gram precisions combined by
geometric mean, brevity penalty exp(min(0, 1 - ref_len/hyp_len)), and no
smoothing (any zero precision zeroes the score).

chrF follows one pinned convention (implementations differ): character
n-grams of order 1..CHRF_CHAR_ORDER over whitespace-stripped text plus word
n-grams of order 1..CHRF_WORD_ORDER; per order, clipped-match precision and
recall aggregated over the corpus; P and R are arithmetic means over orders
that have n-grams on at least one side; F = (1+beta^2)PR / (beta^2 P + R),
scaled to [0,100].
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import DimensionError, ParseError, UndefinedResultError, non_negative_int

BLEU_ORDER = 4
CHRF_CHAR_ORDER = 6
CHRF_WORD_ORDER = 1


@dataclass
class ScoreReport:
    metric: str
    score: float
    n: int
    per_sentence: list = None

    def line(self):
        return f"metric={self.metric} score={self.score:.2f} n={self.n}"


def _ngrams(items, n):
    return Counter(tuple(items[i:i + n]) for i in range(len(items) - n + 1))


def _check_paired(hyps, refs):
    if len(hyps) != len(refs):
        raise DimensionError(
            f"{len(hyps)} hypotheses vs {len(refs)} references"
        )
    if not refs:
        raise DimensionError("at least one sentence pair is required")


def bleu(hypotheses, references, per_sentence=False):
    """Corpus BLEU-4 over whitespace-tokenized text, in [0, 100].

    Orders for which the corpus has no hypothesis n-grams at all are
    excluded from the geometric mean (a one-token corpus is judged on
    unigrams alone); an included order with zero matches zeroes the score.
    """
    _check_paired(hypotheses, references)
    sentence_scores = None
    if per_sentence:
        sentence_scores = [
            bleu([h], [r]).score for h, r in zip(hypotheses, references)
        ]
    matches = [0] * BLEU_ORDER
    totals = [0] * BLEU_ORDER
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        h, r = hyp.split(), ref.split()
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, BLEU_ORDER + 1):
            hc, rc = _ngrams(h, n), _ngrams(r, n)
            totals[n - 1] += sum(hc.values())
            matches[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())

    included = [(m, t) for m, t in zip(matches, totals) if t > 0]
    if hyp_len == 0 or any(m == 0 for m, _ in included):
        score = 0.0
    else:
        log_precisions = [math.log(m / t) for m, t in included]
        bp = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
        score = 100.0 * bp * math.exp(sum(log_precisions) / len(included))
    return ScoreReport("bleu", score, len(hypotheses), sentence_scores)


def chrf(hypotheses, references, beta=3.0, per_sentence=False):
    """chrF under the pinned convention documented in the module docstring."""
    _check_paired(hypotheses, references)
    sentence_scores = None
    if per_sentence:
        sentence_scores = [
            chrf([h], [r], beta).score
            for h, r in zip(hypotheses, references)
        ]
    orders = [("char", n) for n in range(1, CHRF_CHAR_ORDER + 1)]
    orders += [("word", n) for n in range(1, CHRF_WORD_ORDER + 1)]
    matches = {o: 0 for o in orders}
    hyp_totals = {o: 0 for o in orders}
    ref_totals = {o: 0 for o in orders}

    for hyp, ref in zip(hypotheses, references):
        views = {
            "char": (list(hyp.replace(" ", "")), list(ref.replace(" ", ""))),
            "word": (hyp.split(), ref.split()),
        }
        for kind, n in orders:
            h_items, r_items = views[kind]
            hc, rc = _ngrams(h_items, n), _ngrams(r_items, n)
            matches[(kind, n)] += sum(min(c, rc[g]) for g, c in hc.items())
            hyp_totals[(kind, n)] += sum(hc.values())
            ref_totals[(kind, n)] += sum(rc.values())

    precisions, recalls = [], []
    for o in orders:
        if hyp_totals[o] == 0 and ref_totals[o] == 0:
            continue  # order absent from both sides
        precisions.append(matches[o] / hyp_totals[o] if hyp_totals[o] else 0.0)
        recalls.append(matches[o] / ref_totals[o] if ref_totals[o] else 0.0)

    if not precisions:
        score = 0.0
    else:
        p = sum(precisions) / len(precisions)
        r = sum(recalls) / len(recalls)
        denom = beta * beta * p + r
        score = 0.0 if denom == 0 else 100.0 * (1 + beta * beta) * p * r / denom
    return ScoreReport("chrf", score, len(hypotheses), sentence_scores)


def sign_test(scores_a, scores_b):
    """One-sided exact binomial p-value that B improves on A.

    Ties are discarded; with n non-ties and k cases of B > A, the p-value is
    the probability of k or more successes under a fair coin.
    """
    if len(scores_a) != len(scores_b):
        raise DimensionError("paired score lists must have equal length")
    diffs = [(b > a) for a, b in zip(scores_a, scores_b) if a != b]
    n = len(diffs)
    if n == 0:
        raise UndefinedResultError("all paired scores are tied")
    k = sum(diffs)
    numerator = sum(math.comb(n, i) for i in range(k, n + 1))
    return numerator / (2 ** n)


def write_reports(reports):
    return "".join(r.line() + "\n" for r in reports)


def write_per_sentence_tsv(reports):
    """One row per sentence, one metric per column."""
    with_scores = [r for r in reports if r.per_sentence is not None]
    if not with_scores:
        return ""
    lines = ["\t".join(["sentence"] + [r.metric for r in with_scores])]
    for i in range(with_scores[0].n):
        row = [str(i)] + [f"{r.per_sentence[i]:.2f}" for r in with_scores]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def parse_reports(text):
    """Parse `metric=<name> score=<x> n=<k>` lines back into reports; x must be finite."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = dict(
            part.split("=", 1) for part in line.split() if "=" in part
        )
        try:
            score = float(fields["score"])
            if not math.isfinite(score):
                raise ValueError(f"score {fields['score']!r} is not finite")
            out.append(ScoreReport(fields["metric"], score, non_negative_int(fields["n"])))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"bad score line: {exc}", line=lineno) from exc
    return out
