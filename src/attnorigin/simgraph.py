"""TF-IDF cosine similarity graph over textual units.

The graph is a symmetric L x L matrix with entries in [0, 1]. Pad units
(empty token lists) get all-zero rows and columns including their own
diagonal, so they can never attract graph-shifted attention; real units
carry a unit diagonal.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .textunits import TextualUnit, UnitizedInput, number_array, read_json, write_json

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
    """Cosine of two sparse vectors, 0 when either is empty."""
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

    Each unordered pair is computed once and mirrored, so the matrix is
    bitwise symmetric. Real units get diagonal 1, pad units diagonal 0.
    """
    if isinstance(units, UnitizedInput):
        units = units.units
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    vectors = tfidf_vectors(units)
    L = len(vectors)
    weights = np.zeros((L, L), dtype=np.float64)
    for i in range(L):
        if vectors[i]:
            weights[i, i] = 1.0
        for j in range(i + 1, L):
            sim = cosine_similarity(vectors[i], vectors[j])
            if sim < threshold:
                sim = 0.0
            weights[i, j] = sim
            weights[j, i] = sim
    return SimilarityGraph(size=L, weights=weights)


def write_graph(graph: SimilarityGraph, path) -> None:
    """Serialize to JSON with values kept to 9 significant digits."""
    rows = [[float(f"{v:.9g}") for v in row] for row in graph.weights]
    write_json({"size": graph.size, "weights": rows}, path)


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
