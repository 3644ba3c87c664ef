"""Attention-mask families built from scene covers or dependency trees.

Five families:

* ``binary``   - 1 where two tokens share a scene, else 0
* ``scaled``   - 1 in-scene, a constant C in (0,1) elsewhere
* ``normal``   - Gaussian of C * scene-graph distance, peak pinned to 1
* ``pascal``   - Gaussian centered on each token's dependency parent,
  built at subword resolution (fractional parent midpoints)
* ``udiscal``  - Gaussian of undirected dependency-tree distance

`MaskSpec(family, c).build(cover, ud, counts)` is the one builder. An
alignment, the `counts` of one `--alignment` line, gives the number of
subwords of each word; without one every word is one subword. Scene masks
are built at word level and block-expanded to subwords; tokens outside
every scene get all-ones rows and columns so they are never starved of
attention. Infinite scene distance maps to a mask value of exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .semgraph import scene_distance, ud_tree_distances

FAMILIES = ("binary", "scaled", "normal", "pascal", "udiscal")

# sigma making the density peak equal 1, used by the normal scene mask
SIGMA_PEAK_ONE = 1.0 / math.sqrt(2.0 * math.pi)


def f_norm(x, sigma):
    """Normal density (1/sqrt(2 pi sigma^2)) * exp(-x^2 / (2 sigma^2))."""
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-(x * x) / (2.0 * sigma * sigma)) / math.sqrt(2.0 * math.pi * sigma * sigma)


@dataclass
class Mask:
    values: np.ndarray
    family: str


def _ones_for_unassigned(values, cover):
    for t in cover.unassigned:
        values[t, :] = 1.0
        values[:, t] = 1.0
    return values


def _scene_values(cover, off_scene):
    """1 where tokens co-occur in at least one scene, `off_scene` elsewhere."""
    L = cover.length
    values = np.full((L, L), off_scene)
    for scene in cover.scenes:
        idx = sorted(scene)
        values[np.ix_(idx, idx)] = 1.0
    np.fill_diagonal(values, 1.0)
    return _ones_for_unassigned(values, cover)


def _normal_values(cover, c):
    """Gaussian of C * scene distance with the peak pinned at exactly 1."""
    dist = scene_distance(cover)
    values = np.zeros_like(dist)
    finite = np.isfinite(dist)
    values[finite] = f_norm(c * dist[finite], SIGMA_PEAK_ONE)
    return _ones_for_unassigned(values, cover)


def _pascal_values(ud, counts):
    """Gaussian (sigma=1) centered on each token's parent midpoint.

    Row t holds f_norm(j - p_t) over subwords j, where p_t is the (possibly
    fractional) midpoint of the parent word's subword span; the root's
    parent is itself. Each word's row is computed once and copied to its
    subwords.
    """
    counts = np.asarray(counts)
    mids = np.cumsum(counts) - (counts + 1) / 2
    parent_mid = mids[[h if h >= 0 else w for w, h in enumerate(ud.heads)]]
    positions = np.arange(counts.sum(), dtype=np.float64)
    word_rows = f_norm(positions - parent_mid[:, None], 1.0)
    return word_rows[np.repeat(np.arange(len(counts)), counts)]


def expand_to_subwords(word_mask, counts):
    """Copy word-level entries onto every subword pair they cover; word w has
    `counts[w]` subwords."""
    size = word_mask.values.shape
    if size[0] != size[1]:
        raise DimensionError("word mask must be square")
    if size[0] != len(counts):
        raise DimensionError(f"mask covers {size[0]} words, alignment has {len(counts)}")
    owner = np.repeat(np.arange(len(counts)), counts)
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

    def build(self, cover=None, ud=None, counts=None):
        """The mask of one sentence, from its scene cover or its dependency tree, at
        subword level if `counts` gives each word's number of subwords."""
        source = cover if self.needs_cover else ud
        if source is None:
            needs = "a scene cover" if self.needs_cover else "a dependency tree"
            raise ConfigError(f"family {self.family!r} needs {needs}")
        if not self.needs_cover and counts is not None and len(counts) != ud.length:
            raise DimensionError(f"alignment covers {len(counts)} words, tree has {ud.length}")
        # the side of the larger of the word and subword masks, in Python ints, which
        # cannot overflow; a scene cover's word count is checked against `counts` later
        n = source.length if counts is None else max(source.length, sum(counts))
        if 8 * n * n > np.iinfo(np.intp).max:
            raise DimensionError(f"mask too large to allocate: {n} x {n}")
        if self.family == "pascal":
            return Mask(_pascal_values(ud, (1,) * ud.length if counts is None else counts),
                        "pascal")
        if self.family == "udiscal":
            values = f_norm(ud_tree_distances(ud), 1.0)
        elif self.family == "normal":
            values = _normal_values(cover, self.c)
        else:
            values = _scene_values(cover, 0.0 if self.family == "binary" else float(self.c))
        mask = Mask(values, self.family)
        return mask if counts is None else expand_to_subwords(mask, counts)


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
    rows, cols = values.shape
    lines = [f"M {rows} {cols} {mask.family}"]
    lines.extend(row_text[key] for key in keys)
    return "\n".join(lines) + "\n"
