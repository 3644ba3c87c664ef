"""Attention-mask families built from scene covers or dependency trees.

Five families:

* ``binary``   - 1 where two tokens share a scene, else 0
* ``scaled``   - 1 in-scene, a constant C in (0,1) elsewhere
* ``normal``   - Gaussian of C * scene-graph distance, peak pinned to 1
* ``pascal``   - Gaussian centered on each token's dependency parent,
  built at subword resolution (fractional parent midpoints)
* ``udiscal``  - Gaussian of undirected dependency-tree distance

Scene masks are built at word level and block-expanded to subwords; tokens
outside every scene get all-ones rows and columns so they are never starved
of attention. Infinite scene distance maps to a mask value of exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConfigError, DimensionError
from .semgraph import scene_distance, ud_tree_distances

FAMILIES = ("binary", "scaled", "normal", "pascal", "udiscal")

# sigma making the density peak equal 1, used by the normal scene mask
SIGMA_PEAK_ONE = 1.0 / math.sqrt(2.0 * math.pi)


def f_norm(x, sigma):
    """Normal density (1/sqrt(2 pi sigma^2)) * exp(-x^2 / (2 sigma^2))."""
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    x = np.asarray(x, dtype=np.float64)
    out = np.exp(-(x * x) / (2.0 * sigma * sigma)) / math.sqrt(2.0 * math.pi * sigma * sigma)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Alignment:
    """Per-word inclusive subword span [start, end], covering all subwords."""

    ranges: tuple

    def __post_init__(self):
        expected = 0
        for start, end in self.ranges:
            if start != expected or end < start:
                raise AlignmentError(
                    f"ranges must be contiguous and ordered, got {self.ranges}"
                )
            expected = end + 1

    @property
    def n_words(self):
        return len(self.ranges)

    @property
    def n_subwords(self):
        return self.ranges[-1][1] + 1 if self.ranges else 0

    def word_of(self):
        """Array mapping each subword position to its word index."""
        owner = np.empty(self.n_subwords, dtype=np.intp)
        for w, (start, end) in enumerate(self.ranges):
            owner[start:end + 1] = w
        return owner

    def midpoint(self, word):
        start, end = self.ranges[word]
        return (start + end) / 2.0

    @classmethod
    def identity(cls, n):
        return cls(tuple((i, i) for i in range(n)))

    @classmethod
    def from_counts(cls, counts):
        """Build from the number of subwords of each word."""
        ranges, pos = [], 0
        for c in counts:
            if c < 1:
                raise AlignmentError("every word needs at least one subword")
            ranges.append((pos, pos + c - 1))
            pos += c
        return cls(tuple(ranges))


@dataclass
class Mask:
    values: np.ndarray
    family: str = "binary"

    @property
    def rows(self):
        return self.values.shape[0]

    @property
    def cols(self):
        return self.values.shape[1]


def _ones_for_unassigned(values, cover):
    for t in cover.unassigned:
        values[t, :] = 1.0
        values[:, t] = 1.0


def _scene_mask(cover, off_scene, family):
    """1 where tokens co-occur in at least one scene, `off_scene` elsewhere."""
    L = cover.length
    values = np.full((L, L), off_scene)
    for scene in cover.scenes:
        idx = sorted(scene)
        values[np.ix_(idx, idx)] = 1.0
    np.fill_diagonal(values, 1.0)
    _ones_for_unassigned(values, cover)
    return Mask(values, family)


def binary_scene_mask(cover):
    """1 where tokens co-occur in at least one scene, 0 elsewhere."""
    return _scene_mask(cover, 0.0, "binary")


def scaled_scene_mask(cover, c):
    """In-scene pairs stay at 1; everything else passes with weight C."""
    if not 0.0 < c < 1.0:
        raise ConfigError(f"scaled mask needs C in (0,1), got {c}")
    return _scene_mask(cover, float(c), "scaled")


def normal_scene_mask(cover, c):
    """Gaussian of C * scene distance with the peak pinned at exactly 1."""
    if not 0.0 < c < math.inf:
        raise ConfigError(f"normal mask needs a finite C > 0, got {c}")
    dist = scene_distance(cover)
    values = np.zeros_like(dist)
    finite = np.isfinite(dist)
    values[finite] = f_norm(c * dist[finite], SIGMA_PEAK_ONE)
    _ones_for_unassigned(values, cover)
    return Mask(values, "normal")


def _tree_alignment(ud, align):
    """`align`, or one subword per word, checked against the tree's word count."""
    align = align if align is not None else Alignment.identity(ud.length)
    if align.n_words != ud.length:
        raise DimensionError(
            f"alignment covers {align.n_words} words, tree has {ud.length}"
        )
    return align


def pascal_mask(ud, align=None):
    """Gaussian (sigma=1) centered on each token's parent midpoint.

    Built directly at subword resolution: row t holds f_norm(j - p_t) where
    p_t is the (possibly fractional) midpoint of the parent word's subword
    span; the root's parent is itself. Each word's row is computed once and
    copied to its subwords.
    """
    align = _tree_alignment(ud, align)
    parent_mid = np.array([align.midpoint(h if h >= 0 else w) for w, h in enumerate(ud.heads)])
    positions = np.arange(align.n_subwords, dtype=np.float64)
    word_rows = f_norm(positions - parent_mid[:, None], 1.0)
    return Mask(word_rows[align.word_of()], "pascal")


def udiscal_mask(ud, align=None):
    """Gaussian (sigma=1) of undirected dependency-tree distance."""
    align = _tree_alignment(ud, align)
    word_values = f_norm(ud_tree_distances(ud), 1.0)
    return expand_to_subwords(Mask(word_values, "udiscal"), align)


def expand_to_subwords(word_mask, align):
    """Copy word-level entries onto every subword pair they cover."""
    size = word_mask.values.shape
    if size[0] != size[1]:
        raise DimensionError("word mask must be square")
    if size[0] != align.n_words:
        raise DimensionError(
            f"mask covers {size[0]} words, alignment has {align.n_words}"
        )
    owner = align.word_of()
    return Mask(word_mask.values[np.ix_(owner, owner)], word_mask.family)


@dataclass(frozen=True)
class MaskSpec:
    """A mask family plus its scale hyperparameter, if it takes one."""

    family: str
    c: float = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown mask family {self.family!r}")
        if self.family == "scaled":
            if self.c is None or not 0.0 < self.c < 1.0:
                raise ConfigError("scaled mask needs C in (0,1)")
        elif self.family == "normal":
            if self.c is None or not 0.0 < self.c < math.inf:
                raise ConfigError("normal mask needs a finite C > 0")
        elif self.c is not None:
            raise ConfigError(f"family {self.family!r} takes no C")

    @property
    def needs_cover(self):
        return self.family in ("binary", "scaled", "normal")

    def build(self, cover=None, ud=None, align=None):
        if self.needs_cover:
            if cover is None:
                raise ConfigError(f"family {self.family!r} needs a scene cover")
            if self.family == "binary":
                mask = binary_scene_mask(cover)
            elif self.family == "scaled":
                mask = scaled_scene_mask(cover, self.c)
            else:
                mask = normal_scene_mask(cover, self.c)
            if align is not None:
                mask = expand_to_subwords(mask, align)
            return mask
        if ud is None:
            raise ConfigError(f"family {self.family!r} needs a dependency tree")
        if self.family == "pascal":
            return pascal_mask(ud, align)
        return udiscal_mask(ud, align)


# -- mask files -----------------------------------------------------------------
#
# Header "M <rows> <cols> <family>", then one row of space-separated decimals
# per line, nine significant digits.


def write_mask(mask):
    # each distinct row is joined once and each distinct value formatted once;
    # both are told apart by their bits, so -0.0 and 0.0 keep their own text
    values = np.ascontiguousarray(mask.values, dtype=np.float64)
    keys = [row.tobytes() for row in values]
    some_row = dict(zip(keys, range(len(keys))))  # distinct row bytes -> a row holding them
    bits = values[list(some_row.values())].view(np.int64)
    distinct = np.sort(bits, axis=None)
    new = np.ones(distinct.size, dtype=bool)
    np.not_equal(distinct[1:], distinct[:-1], out=new[1:])
    distinct = distinct[new]
    text = np.array([f"{v:.9g}" for v in distinct.view(np.float64).tolist()], dtype=object)
    joined = [" ".join(row) for row in text[np.searchsorted(distinct, bits)].tolist()]
    row_text = dict(zip(some_row, joined))
    lines = [f"M {mask.rows} {mask.cols} {mask.family}"]
    lines.extend(row_text[key] for key in keys)
    return "\n".join(lines) + "\n"
