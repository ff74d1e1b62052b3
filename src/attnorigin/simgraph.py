"""TF-IDF cosine similarity graph over textual units.

The graph is a symmetric L x L matrix with entries in [0, 1]. Pad units
(empty token lists) get all-zero rows and columns including their own
diagonal, so they can never attract graph-shifted attention; real units
carry a unit diagonal.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .textunits import TextualUnit, UnitizedInput, atomic_write, number_array, read_json

TfIdfVector = dict[str, float]


@dataclass
class SimilarityGraph:
    """Validated similarity matrix: finite, exactly symmetric, entries in
    [0, 1], diagonal 1 for real units and 0 for pad units, whose rows are
    all zero. ``unit_pad`` (zero diagonal) is derived once."""

    size: int
    weights: np.ndarray  # (L, L) float64
    unit_pad: np.ndarray = field(init=False, repr=False)  # (L,) bool, True for pad units

    def __post_init__(self):
        w = self.weights = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.size, self.size):
            raise ValueError(f"graph weights shape {w.shape} != ({self.size}, {self.size})")
        if not np.all(np.isfinite(w)):
            raise ValueError("graph weights contain non-finite values")
        if not np.array_equal(w, w.T):
            raise ValueError("graph weights are not symmetric")
        if np.any((w < 0.0) | (w > 1.0)):
            raise ValueError("graph weights outside [0, 1]")
        diagonal = np.diagonal(w)
        if np.any((diagonal != 0.0) & (diagonal != 1.0)):
            raise ValueError("graph diagonal entries must be 0 (pad unit) or 1 (real unit)")
        self.unit_pad = diagonal == 0.0
        if np.any(w[self.unit_pad]):
            raise ValueError("a pad unit (zero diagonal) has a nonzero similarity")


def tfidf_vectors(units: Sequence[TextualUnit]) -> list[TfIdfVector]:
    """TF-IDF vector per unit; units without tokens yield empty vectors.

    tf is the raw in-unit term count, idf = ln((N+1)/(df+1)) + 1 with N
    the number of non-empty units and df the number of units containing
    the term. The smoothing keeps every stored weight strictly positive.
    """
    counts = [Counter(u.tokens) for u in units]
    n_real = sum(1 for c in counts if c)
    df: Counter[str] = Counter()
    for c in counts:
        df.update(c.keys())
    vectors: list[TfIdfVector] = []
    for c in counts:
        vec = {term: tf * (math.log((n_real + 1) / (df[term] + 1)) + 1.0) for term, tf in c.items()}
        vectors.append(vec)
    return vectors


def cosine_similarity(u: TfIdfVector, v: TfIdfVector) -> float:
    """Cosine of two sparse vectors, 0 when either is empty.

    This pairwise form is the reference that the tests hold
    ``build_graph``'s matrix product to.
    """
    if not u or not v:
        return 0.0
    if len(v) < len(u):
        u, v = v, u
    dot = sum(w * v[t] for t, w in u.items() if t in v)
    if dot == 0.0:
        return 0.0
    nu = sum(w * w for w in u.values())
    nv = sum(w * w for w in v.values())
    # sqrt of the product of squared norms returns exactly 1.0 for
    # identical vectors, which a sqrt(nu)*sqrt(nv) denominator does not.
    cos = dot / math.sqrt(nu * nv)
    return min(1.0, max(0.0, cos))


def build_graph(units: Sequence[TextualUnit] | UnitizedInput, threshold: float = 0.0) -> SimilarityGraph:
    """Similarity graph with entries below ``threshold`` zeroed.

    The TF-IDF vectors form one dense (L, terms) matrix ``M``; every
    dot product comes from ``M @ M.T`` and the squared norms from its
    diagonal, so identical units still get exactly 1.0. Entries agree
    with ``cosine_similarity`` up to summation order (within 1e-15).
    The strict upper triangle is mirrored, so the matrix is bitwise
    symmetric. Real units get diagonal 1, pad units diagonal 0.
    """
    if isinstance(units, UnitizedInput):
        units = units.units
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    vectors = tfidf_vectors(units)
    L = len(vectors)
    columns: dict[str, int] = {}  # term -> column of M
    terms = np.zeros((L, len(set().union(*vectors))))  # M: one row of TF-IDF weights per unit
    for i, vec in enumerate(vectors):
        terms[i, [columns.setdefault(term, len(columns)) for term in vec]] = list(vec.values())
    dot = terms @ terms.T
    norms = np.diagonal(dot)
    # dot != 0 implies both norms are positive, so nothing divides by zero.
    cos = np.divide(dot, np.sqrt(np.outer(norms, norms)), out=np.zeros((L, L)), where=dot != 0.0)
    np.clip(cos, 0.0, 1.0, out=cos)
    cos[cos < threshold] = 0.0
    weights = np.triu(cos, 1)
    weights += weights.T  # each entry plus an exact zero: a bitwise mirror
    np.fill_diagonal(weights, [1.0 if vec else 0.0 for vec in vectors])
    return SimilarityGraph(size=L, weights=weights)


# Below the smallest normal float64 a ".9g" string and the float's repr
# can differ in digits (5e-324 formats as 4.94065646e-324).
_NORMAL_MIN = sys.float_info.min


def write_graph(graph: SimilarityGraph, path) -> None:
    """Serialize to JSON with values kept to 9 significant digits.

    The bytes are those of ``write_json`` on the values rounded through
    ``float(f"{v:.9g}")``, but each unordered pair is formatted once and
    mirrored, and the row text is written directly: JSON-encoding
    L * L rounded floats took twice as long. A ``.9g`` string is the
    float's repr except for a bare "0" or "1" (repr adds ".0") and for
    subnormals, which go through ``repr(float(text))``.
    """
    weights = graph.weights
    L = graph.size
    upper = np.triu_indices(L)
    text = np.empty((L, L), dtype=object)
    text[upper] = [_json_number(v) for v in weights[upper].tolist()]
    text.T[upper] = text[upper]
    rows = ", ".join("[" + ", ".join(row) + "]" for row in text.tolist())
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write(f'{{"size": {L}, "weights": [{rows}]}}\n')


def _json_number(v: float) -> str:
    text = f"{v:.9g}"
    if text == "0" or text == "1":
        return text + ".0"
    if 0.0 < v < _NORMAL_MIN:
        return repr(float(text))
    return text


def read_graph(path) -> SimilarityGraph:
    """Read and validate a graph file; errors name the file."""
    obj = read_json(path, "graph file")
    try:
        if type(obj["size"]) is not int:
            raise ValueError(f"graph size must be an integer, not {obj['size']!r}")
        return SimilarityGraph(size=obj["size"], weights=number_array(obj["weights"], "weights"))
    except KeyError as exc:
        raise ValueError(f"{path}: graph file missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
