"""Miniature graph-informed transformer decoder with attention recording.

The decoder attends over encoded textual units with logits shifted by a
penalty derived from the similarity graph and a predicted central unit.
One kernel advances the hypotheses of several sets by one token per
hypothesis through every layer, with self-attention over a key/value
cache of the earlier positions (causal by construction, so no mask)
and graph attention (every set against its own units and graph, all
heads as one batch). ``decode_step`` feeds a prefix through the same
kernel one token at a time.
Each exported primitive checks its inputs; the kernel runs the same
maths on arrays built once per lockstep group (all layers' unit keys
and every graph row's shift, +inf on pad units) and checks its logits
and betas once per call. Beam search runs consecutive sets of a file in
lockstep groups of at most GROUP_SETS (8) sets whose key/value caches
fit GROUP_BYTES, or one set when its beam alone does not, one kernel
call per group and step, and between steps gives each slot its parent's
cache in place, reading the parent from the beam trace; a set whose
beams have all finished rides along until its group ends. Every step
records the resulting attention distribution (one probability vector
over units per layer and head) of every beam slot, and hands each set's
slices to that set's recorder, beside the trace. The recorders come from
``awd``, which owns the recorded tensor; a group keeps one step of
slices, which the kernel writes its betas into.

There is no training loop; weights are loaded from files or built
synthetically (random, or a "concentrator" construction whose attention
provably lands on one designated unit).
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import AbstractContextManager, ExitStack
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .awd import AwdTensor, in_memory
from .simgraph import SimilarityGraph
from .textunits import UnitizedInput, number_array, read_json, write_json

PAD_TOKEN = "<pad>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
EOS_SENT_TOKEN = "<eoss>"
SPECIAL_TOKENS = [PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, EOS_SENT_TOKEN]

# Graph shift penalty applied to attention logits:
#   "sim-squared":  (1 - g**2) / (2 * sigma**2)
#   "diff-squared": ((1 - g)**2) / (2 * sigma**2)
# Both agree at g in {0, 1}.
SHIFT_SIM_SQUARED = "sim-squared"
SHIFT_DIFF_SQUARED = "diff-squared"
SHIFT_FORMS = (SHIFT_SIM_SQUARED, SHIFT_DIFF_SQUARED)


class VocabularyError(ValueError):
    """Raised when tokens or required special ids are missing from the vocab."""


def _check_sigma(sigma: float) -> None:
    """Reject a graph-shift scale that is not positive and finite, or whose
    2 * sigma**2, the shift's denominator, underflows to 0 or has an
    infinite reciprocal."""
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    try:
        sigma = float(sigma)  # Python floats, so no numpy warning below
    except OverflowError:
        raise ValueError("sigma is an integer too large for float64") from None
    denominator = 2.0 * sigma * sigma
    if denominator == 0:
        raise ValueError(f"sigma {sigma} is too small: 2 * sigma**2 underflows to 0")
    if 1.0 / denominator == math.inf:
        raise ValueError(f"sigma {sigma} is too small: 1 / (2 * sigma**2) overflows")


@dataclass(frozen=True)
class ModelConfig:
    d_model: int
    num_layers: int = 8
    num_heads: int = 8
    sigma: float = 1.0
    vocab_size: int = 0
    num_units: int = 0
    max_len: int = 32
    shift_form: str = SHIFT_SIM_SQUARED

    def __post_init__(self):
        for name in ("d_model", "num_layers", "num_heads", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.num_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by num_heads={self.num_heads}"
            )
        _check_sigma(self.sigma)
        if self.shift_form not in SHIFT_FORMS:
            raise ValueError(f"shift_form must be one of {SHIFT_FORMS}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.num_heads

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        """Config from a weights file; numeric fields must be JSON numbers, not bools."""
        for f in dataclasses.fields(cls):
            kind = {"int": (int,), "float": (int, float)}.get(f.type)
            if kind and f.name in obj and type(obj[f.name]) not in kind:
                what = "an integer" if f.type == "int" else "a number"
                raise TypeError(f"config {f.name} must be {what}, not {obj[f.name]!r}")
        return cls(**obj)


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every decoder parameter, keyed by ``DecoderWeights`` field.

    The order is the weights-file key order and the synthetic draw order.
    """
    dl, mh, d, dh = config.num_layers, config.num_heads, config.d_model, config.d_head
    return {
        "embedding": (config.vocab_size, d),
        "pos_encoding": (max(config.max_len + 1, config.num_units), d),
        "w_q": (dl, mh, d, dh),
        "w_k": (dl, mh, d, dh),
        "w_g": (dl, mh * d, d),
        "cp_w1": (dl, d, d),
        "cp_b1": (dl, d),
        "cp_w2": (dl, d),
        "cp_b2": (dl,),
        "sa_wq": (dl, d, d),
        "sa_wk": (dl, d, d),
        "sa_wv": (dl, d, d),
        "sa_wo": (dl, d, d),
        "ff_w1": (dl, d, d),
        "ff_b1": (dl, d),
        "ff_w2": (dl, d, d),
        "ff_b2": (dl, d),
        "w_out": (d, config.vocab_size),
    }


@dataclass
class DecoderWeights:
    """All model parameters plus the vocabulary they were built for.

    Per layer and head: query/key projections of the global graph
    attention. Per layer: the central-unit feed-forward net, causal
    self-attention projections, the projection applied to concatenated
    head contexts, and a position-wise feed-forward. Sublayers use plain
    residual connections (no normalization), which keeps the stack an
    exact composition of the primitive operations.
    """

    config: ModelConfig
    vocab: list[str]
    # Parameters, shaped as _param_shapes(config) says.
    embedding: np.ndarray
    pos_encoding: np.ndarray
    w_q: np.ndarray
    w_k: np.ndarray
    w_g: np.ndarray
    cp_w1: np.ndarray
    cp_b1: np.ndarray
    cp_w2: np.ndarray
    cp_b2: np.ndarray
    sa_wq: np.ndarray
    sa_wk: np.ndarray
    sa_wv: np.ndarray
    sa_wo: np.ndarray
    ff_w1: np.ndarray
    ff_b1: np.ndarray
    ff_w2: np.ndarray
    ff_b2: np.ndarray
    w_out: np.ndarray
    _token_to_id: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._token_to_id = {tok: i for i, tok in enumerate(self.vocab)}
        self.validate()

    def validate(self) -> None:
        cfg = self.config
        if len(self.vocab) != cfg.vocab_size:
            raise ValueError(f"vocab has {len(self.vocab)} entries, config says {cfg.vocab_size}")
        for name, shape in _param_shapes(cfg).items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} shape {arr.shape} != expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")

    def token_id(self, token: str) -> int:
        try:
            return self._token_to_id[token]
        except KeyError:
            raise VocabularyError(f"token {token!r} not in the model vocabulary") from None

    def unknown_tokens(self, tokens: Iterable[str]) -> list[str]:
        """The distinct ``tokens`` outside the vocabulary, sorted."""
        return sorted(set(tokens).difference(self._token_to_id))

    @property
    def pad_id(self) -> int:
        return self.token_id(PAD_TOKEN)

    @property
    def bos_id(self) -> int:
        return self.token_id(BOS_TOKEN)

    @property
    def eos_id(self) -> int:
        return self.token_id(EOS_TOKEN)

    @property
    def eos_sent_id(self) -> int:
        return self.token_id(EOS_SENT_TOKEN)


@dataclass
class GenerationResult:
    tokens: list[int]
    beam_trace: list[list[int]]  # (sl, bs) parent slot per step
    awd: AwdTensor | None  # what the set's recorder's ``finish`` returned
    winning_beam: int
    score: float


@dataclass(frozen=True)
class GenerationConfig:
    beam_size: int = 4
    max_len: int | None = None  # defaults to the model's max_len
    length_penalty: float = 0.6

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_len is not None and self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        if not math.isfinite(self.length_penalty):
            raise ValueError(f"length_penalty must be finite, got {self.length_penalty}")

    def steps(self, model: ModelConfig) -> int:
        """Decoding steps against ``model``: ``max_len``, the model's when unset."""
        steps = model.max_len if self.max_len is None else self.max_len
        if steps > model.max_len:
            raise ValueError(f"max_len {steps} outside [1, {model.max_len}]")
        try:  # a score is divided by length ** length_penalty, length 1 to steps
            scale = float(steps) ** self.length_penalty
        except OverflowError:
            scale = 0.0
        if scale == 0:
            raise ValueError(f"length_penalty {self.length_penalty} makes "
                             f"{steps} ** length_penalty overflow or underflow to 0")
        return steps


@dataclass
class DecoderState:
    """Prefix token ids (BOS first) plus the fixed encoded input."""

    prefix_ids: list[int]
    encoded: np.ndarray  # (L, d_model)


# ---------------------------------------------------------------------------
# Numeric helpers
# ---------------------------------------------------------------------------

def _softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))  # exp(x) where x < 0, so neither branch overflows
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _graph_shift(g: np.ndarray, sigma: float, shift_form: str) -> np.ndarray:
    if shift_form == SHIFT_SIM_SQUARED:
        return (1.0 - g * g) / (2.0 * sigma * sigma)
    if shift_form == SHIFT_DIFF_SQUARED:
        d = 1.0 - g
        return (d * d) / (2.0 * sigma * sigma)
    raise ValueError(f"shift_form must be one of {SHIFT_FORMS}")


def _padded_shift(
    g: np.ndarray, unit_pad: np.ndarray, sigma: float, shift_form: str
) -> np.ndarray:
    """The graph shift of every row of ``g`` (..., L, L), +inf on the pad columns.

    Subtracting a row from finite logits masks the pads to -inf, as
    ``np.where(unit_pad, -inf, e - shift)`` does, bit for bit.
    """
    return np.where(unit_pad[..., None, :], np.inf, _graph_shift(g, sigma, shift_form))


def sinusoidal_positions(rows: int, d_model: int) -> np.ndarray:
    """Standard fixed sine/cosine positional encodings."""
    pos = np.arange(rows, dtype=np.float64)[:, None]
    dim = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * np.floor(dim / 2.0)) / d_model)
    return np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------

def _check_units(inp: UnitizedInput, weights: DecoderWeights, graph: SimilarityGraph,
                 *where) -> None:
    """The unit checks ``encode_units`` and ``generate_sets`` share, in order: the
    unit tokens are in the vocabulary, the real units fit the model's positions,
    the graph has the set's size, and its zero-diagonal units are the pad units.
    A fault raises ``ValueError(message, *where)``, a ``VocabularyError`` for a token."""
    unknown = weights.unknown_tokens(t for u in inp.units for t in u.tokens)
    if unknown:
        raise VocabularyError(f"token {unknown[0]!r} not in the model vocabulary", *where)
    positions = weights.pos_encoding.shape[0]
    if inp.num_real_units > positions:
        raise ValueError(f"{inp.num_real_units} units exceed the model's {positions} "
                         "positions", *where)
    if graph.size != inp.L:
        raise ValueError(f"graph size {graph.size} != unit count {inp.L}", *where)
    if not np.array_equal(graph.unit_pad, inp.unit_pad):
        unit = np.flatnonzero(graph.unit_pad != inp.unit_pad)[0]
        kind = "pad" if inp.unit_pad[unit] else "non-pad"
        raise ValueError(f"unit {unit} is a {kind} unit but has graph diagonal "
                         f"{graph.weights[unit, unit]:g}", *where)


def encode_units(
    inp: UnitizedInput, weights: DecoderWeights, graph: SimilarityGraph
) -> np.ndarray:
    """One graph-informed self-attention pass over unit embeddings.

    Each unit starts as the mean of its token embeddings plus its
    positional encoding; attention logits between units are shifted by
    the graph penalty. Returns the (L, d_model) encoded units; pad
    units encode to the zero vector. The set is checked first, as
    ``generate_sets`` checks it (``_check_units``).
    """
    _check_units(inp, weights, graph)
    return _encode_units(inp, weights, graph)


def _encode_units(
    inp: UnitizedInput, weights: DecoderWeights, graph: SimilarityGraph
) -> np.ndarray:
    """Core of ``encode_units``, for sets ``generate_sets`` has checked."""
    cfg = weights.config
    L = inp.L
    unit_pad = inp.unit_pad
    real_units = inp.units[: inp.num_real_units]  # pads follow the real units
    lengths = np.array([len(unit.tokens) for unit in real_units], dtype=np.int64)[:, None]
    tokens = np.arange(lengths.max(initial=0)) < lengths  # (units, longest unit)
    ids = np.zeros(tokens.shape, dtype=np.int64)
    ids[tokens] = [weights._token_to_id[t] for unit in real_units for t in unit.tokens]
    # Each unit's tokens summed in order, as embedding[ids].mean(axis=0) does for
    # d_model > 1; -0.0 in the padded tail adds nothing, not even to a -0.0 sum.
    gathered = weights.embedding[ids]
    gathered[~tokens] = -0.0
    u = np.zeros((L, cfg.d_model), dtype=np.float64)
    u[: len(real_units)] = gathered.sum(axis=1) / lengths + weights.pos_encoding[: len(real_units)]
    x = np.zeros((L, cfg.d_model), dtype=np.float64)
    real = ~unit_pad
    e = (u @ u.T)[real] / math.sqrt(cfg.d_model)
    shift = _padded_shift(graph.weights, unit_pad, cfg.sigma, cfg.shift_form)
    x[real] = _softmax(e - shift[real], axis=-1) @ u
    return x


# ``encode_units``, ``unscaled_attention`` and ``central_paragraph`` run a private
# core after their checks, which the beam search and its kernel call on sets
# ``generate_sets`` checked and arrays prepared once per group.

def _finite(*arrays) -> list[np.ndarray]:
    """``arrays`` as float64; the public primitives' shared check of their inputs."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("non-finite attention input")
    return arrays


def _attention_logits(y: np.ndarray, w_q: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Core of ``unscaled_attention``: ``keys`` are the units' ``x @ w_k`` (..., L, d_head)."""
    return ((y @ w_q) @ np.swapaxes(keys, -1, -2)) / math.sqrt(w_q.shape[-1])


def unscaled_attention(
    y: np.ndarray, x: np.ndarray, w_q: np.ndarray, w_k: np.ndarray
) -> np.ndarray:
    """Scaled dot-product logits of one state (d,) or a stack (..., p, d) against all units.

    One head's (d, d_head) projections give (L,) or (..., p, L) logits;
    every head's (heads, d, d_head) give (heads, L) or (..., heads, p, L)
    when ``y`` and the units ``x`` (..., L, d) carry a head axis before
    their last two, e.g. (p, d) or (sets, 1, p, d) against (sets, 1, L, d).
    """
    y, x = _finite(y, x)
    e = _attention_logits(y if y.ndim >= 2 else y[None], w_q, x @ w_k)
    return e if y.ndim >= 2 else e[..., 0, :]


def _central_paragraph(
    y: np.ndarray, ffn: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], L: int
) -> np.ndarray:
    """Core of ``central_paragraph``, the kernel's central-unit FFN: int64 indices."""
    w1, b1, w2, b2 = ffn
    hidden = np.tanh(y @ w1 + b1)
    s = np.floor(_sigmoid(hidden @ w2 + b2) * (L - 1) + 0.5).astype(np.int64)
    return np.minimum(np.maximum(s, 0), L - 1)  # np.clip costs several times more


def central_paragraph(
    y: np.ndarray, ffn: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], L: int
) -> int | np.ndarray:
    """Predict the central unit index from a decoder state.

    A two-layer feed-forward net maps the state to a scalar; the index
    is sigmoid(scalar) * (L - 1) rounded half-up. One state (d,) gives
    an int; a stack (p, d) gives an int64 array of p indices.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    y, = _finite(y)
    s = _central_paragraph(y, ffn, L)
    return s if y.ndim == 2 else int(s.reshape(()))


def graph_shifted_attention(
    e: np.ndarray,
    graph: SimilarityGraph,
    s: int | np.ndarray,
    sigma: float,
    shift_form: str = SHIFT_SIM_SQUARED,
) -> np.ndarray:
    """Attention distribution from logits shifted by one graph's penalty.

    ``e`` holds logits over the graph's units: (L,) with one central
    index ``s``, or (..., p, L) with ``s`` holding one index per row p,
    so a stack of rows such as (heads, p, L) shares the graph. Pad units
    (zero graph diagonal) are masked out before the softmax; raises if
    every unit is padded.
    """
    e, = _finite(e)
    _check_sigma(sigma)
    s = np.asarray(s)
    if ((s < 0) | (s >= graph.size)).any():
        raise ValueError(f"central index out of range [0, {graph.size}): {s}")
    if graph.unit_pad.all():
        raise ValueError("all units are padded; no attention targets")
    shift = _padded_shift(graph.weights, graph.unit_pad, sigma, shift_form)
    return _softmax(e - shift[s], axis=-1)


def global_context(beta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Weighted sum of encoded unit vectors; no value projection.

    ``beta`` is one distribution over units (L,) or a stack (..., L)
    against units ``x`` (..., L, d) whose leading axes broadcast with
    it; every row must sum to 1, which a non-finite weight fails.
    """
    beta = np.asarray(beta, dtype=np.float64)
    off = np.abs(beta.sum(axis=-1) - 1.0).max()
    if not off <= 1e-6:
        raise ValueError(f"attention weights sum {off:.3g} away from 1")
    x, = _finite(x)
    return beta @ x


# ---------------------------------------------------------------------------
# Decoder stack
# ---------------------------------------------------------------------------

def start_state(
    inp: UnitizedInput, weights: DecoderWeights, graph: SimilarityGraph
) -> DecoderState:
    encoded = encode_units(inp, weights, graph)
    return DecoderState(prefix_ids=[weights.bos_id], encoded=encoded)


class _Group(NamedTuple):
    """What stays fixed while a lockstep group decodes one token per
    hypothesis at a time, built once per group and never copied: an ended
    set's arrays stay until the group ends.

    ``x`` holds the encoded units (sets, 1, L, d), the 1 spanning the
    heads, and ``keys`` each layer's unit keys ``x @ w_k`` (layers, sets,
    heads, L, d_head). ``shift`` holds every set's ``_padded_shift`` rows,
    (sets * L, L), and ``offsets`` (sets, 1, 1) each set's first row in it.
    The beam loop adds the caches, one step of float32 slices, which the
    kernel writes its betas into, and the beam state; a step's logits and
    score grid die with the step.
    """

    x: np.ndarray
    keys: np.ndarray
    shift: np.ndarray
    offsets: np.ndarray


def _prepare(encoded: np.ndarray, graphs, weights: DecoderWeights) -> _Group:
    """The ``_Group`` of sets with encoded units ``encoded`` (G, L, d) and ``graphs``."""
    cfg = weights.config
    unit_pad = np.stack([graph.unit_pad for graph in graphs])
    if unit_pad.all(axis=-1).any():
        raise ValueError("all units are padded; no attention targets")
    G, L = unit_pad.shape
    x = encoded[:, None]
    shift = _padded_shift(np.stack([graph.weights for graph in graphs]), unit_pad, cfg.sigma,
                          cfg.shift_form)
    return _Group(x, x @ weights.w_k[:, None], shift.reshape(G * L, L),
                  np.arange(0, G * L, L).reshape(G, 1, 1))


# The kernel's sublayers; the central-unit FFN is the core ``_central_paragraph``.

def _self_attention(
    h: np.ndarray, layer: int, start: int, cache: np.ndarray, weights: DecoderWeights
) -> np.ndarray:
    """Self-attention of one token per hypothesis, ``h`` (G, n, d), over the cache.

    Writes the token's key and value into the layer's cache (G, n, steps,
    d) at position ``start`` and returns ``h`` plus the projected
    attention output. The token attends to every cached position, so it
    needs no mask.
    """
    keys, values = cache[0, layer], cache[1, layer]
    keys[..., start, :] = h @ weights.sa_wk[layer]
    values[..., start, :] = h @ weights.sa_wv[layer]
    k, v = keys[..., :start + 1, :], values[..., :start + 1, :]
    queries = (h @ weights.sa_wq[layer])[:, :, None]
    attn = _softmax(queries @ k.transpose(0, 1, 3, 2) / math.sqrt(weights.config.d_model))
    return h + (attn @ v).reshape(h.shape) @ weights.sa_wo[layer]


def _graph_attention(
    h: np.ndarray, s: np.ndarray, layer: int, group: _Group, weights: DecoderWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Graph attention of each hypothesis's token ``h`` (G, hypotheses, d)
    against its set's own units, all heads as one batch.

    ``s`` holds the tokens' central units (G, 1, hypotheses). Returns ``h``
    plus the concatenated, projected head contexts, and the betas
    (G, heads, hypotheses, L).
    """
    e = _attention_logits(h[:, None], weights.w_q[layer], group.keys[layer])
    beta = _softmax(e - group.shift[s + group.offsets], axis=-1)
    contexts = np.empty((*h.shape[:2], beta.shape[1], h.shape[-1]))  # (G, hypotheses, mh, d)
    np.matmul(beta, group.x, out=contexts.transpose(0, 2, 1, 3))  # the heads side by side
    return h + contexts.reshape(h.shape[0], h.shape[1], -1) @ weights.w_g[layer], beta


def _position_ffn(h: np.ndarray, layer: int, weights: DecoderWeights) -> np.ndarray:
    inner = np.maximum(h @ weights.ff_w1[layer] + weights.ff_b1[layer], 0.0)
    return h + inner @ weights.ff_w2[layer] + weights.ff_b2[layer]


def _vocab_projection(h: np.ndarray, weights: DecoderWeights) -> np.ndarray:
    return h @ weights.w_out


def _decode_block(
    ids: np.ndarray, start: int, cache: np.ndarray, group: _Group, weights: DecoderWeights,
    betas: np.ndarray,
) -> np.ndarray:
    """Advance n hypotheses of each of G sets by one token per hypothesis,
    ``ids`` (G, n), at position ``start``.

    ``group`` holds each set's encoded units, unit keys and graph shift
    (``_prepare``). ``cache`` holds the self-attention keys and values,
    (2, layers, G, n, steps, d): positions [:start] of every hypothesis,
    and it receives the new one. Each layer runs self-attention over the
    cache, the central-unit FFN, graph attention over every set,
    hypothesis and head, then a position-wise feed-forward, all with
    residual connections. Writes the betas into ``betas`` (G, n, layers,
    heads, L), a float64 or float32 buffer the caller owns (a float32 one
    rounds each value once), and returns the (G, n, V) logits. A
    non-finite state in any layer makes them non-finite: raises
    ``ValueError(message, g)``, g the first such set.
    """
    cfg = weights.config
    h = weights.embedding[ids] + weights.pos_encoding[start]
    for layer in range(cfg.num_layers):
        h = _self_attention(h, layer, start, cache, weights)
        ffn = (weights.cp_w1[layer], weights.cp_b1[layer], weights.cp_w2[layer],
               weights.cp_b2[layer])
        s = _central_paragraph(h, ffn, group.x.shape[-2])[:, None]
        h, beta = _graph_attention(h, s, layer, group, weights)
        betas[:, :, layer] = beta.swapaxes(1, 2)
        h = _position_ffn(h, layer, weights)
    logits = _vocab_projection(h, weights)
    finite = np.isfinite(logits).all(axis=(1, 2)) & np.isfinite(betas).all(axis=(1, 2, 3, 4))
    if not finite.all():
        raise ValueError("non-finite decoder state", int(np.argmin(finite)))
    return logits


def decode_step(
    state: DecoderState, weights: DecoderWeights, graph: SimilarityGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Run the decoder over the prefix; return next-token logits and betas.

    The betas are the graph-shifted attention distributions of the last
    prefix position, shape (num_layers, num_heads, L). A prefix of p
    tokens makes p ``_decode_block`` calls, one token per hypothesis
    through a cache, the calls a beam slot makes, so the cost grows with
    p; on the prefix of a beam-1 search's step the logits are that
    step's, byte for byte. The prefix must be non-empty, its ids
    integers in [0, V).
    """
    cfg = weights.config
    p = len(state.prefix_ids)
    if not p:
        raise ValueError("prefix must be non-empty")
    for token in state.prefix_ids:
        if not (isinstance(token, (int, np.integer)) and 0 <= token < cfg.vocab_size):
            raise ValueError(f"prefix id {token!r} is not an integer in [0, {cfg.vocab_size})")
    if p - 1 >= cfg.max_len:
        raise ValueError(f"decoded length {p - 1} reached max_len {cfg.max_len}")
    cache = np.empty((2, cfg.num_layers, 1, 1, p, cfg.d_model))
    betas = np.empty((1, 1, cfg.num_layers, cfg.num_heads, state.encoded.shape[0]))
    group = _prepare(state.encoded[None], [graph], weights)
    for start, token in enumerate(state.prefix_ids):
        logits = _decode_block(np.array([[token]]), start, cache, group, weights, betas)
    return logits[0, 0], betas[0, 0]


# ---------------------------------------------------------------------------
# Beam search
# ---------------------------------------------------------------------------

# A lockstep group holds consecutive sets of the same unit count L: as many
# as keep their hypotheses' float64 key and value caches, 16 * layers *
# max_steps * d_model bytes each, within GROUP_BYTES, never more than
# GROUP_SETS, and one set when its beam alone needs more. The caches and
# unit keys are allocated once per group and never copied: a set that ends
# keeps them until its group ends. Beside that, a group keeps one step of
# its slots' float32 slices, which the kernel writes its betas into, and at
# most one step of logits and score grid: each step drops them before the
# next kernel call. What a recorder keeps is not counted: the default one's
# tensors are the results the caller receives.
# At d_model 64, 8 layers and 32 steps a hypothesis's cache takes 256 KiB:
# 16 hypotheses, 4 beam-4 sets, per group. At L 30 and beam 4 the 4 MiB of
# caches make 4.7 MiB of fixed state, 0.12 MiB of it the slices; at 770
# tokens one step's logits are 0.09 MiB, and a step peaks 0.22 MiB above
# its start in its kernel call and 0.44 MiB in its scoring.
# GROUP_SETS trades memory for kernel calls: each call pays numpy's fixed
# dispatch cost once for its whole group, and each set in flight holds
# what the budget does not count. At 8 layers, L 60, d_model 64, beam 1
# and 8 steps, where the budget alone admits 64 sets, that is about
# 0.45 MiB a set: unit keys, 8 * layers * L * d_model bytes (240 KiB), the
# caches (64 KiB), graph shift rows, 8 * L**2 bytes (28 KiB), encoded units
# (30 KiB), one step of slices (15 KiB) and step temporaries. Over 24 such
# sets GROUP_SETS 8 makes 24 kernel calls where 4 made 48: a whole
# pipeline's peak RSS rose from 48.6 to 50.5 MiB and a warm generate fell
# from about 138 to 115 ms.
# At 12, 16 calls, it peaked at 52.7 MiB, 8% above 4, for 3-6% less time
# than 8 (2-core machine, numpy 2.4, one BLAS thread).
GROUP_BYTES = 4 << 20
GROUP_SETS = 8


def _group_size(cfg: ModelConfig, beam_size: int, max_steps: int) -> int:
    """The most sets of ``beam_size`` hypotheses one group holds."""
    hypothesis = 16 * cfg.num_layers * max_steps * cfg.d_model
    return min(GROUP_SETS, max(1, GROUP_BYTES // (hypothesis * beam_size)))


def _normalized(logprob: np.ndarray, length: int, alpha: float) -> np.ndarray:
    # A Python float power: numpy's array power may round the last bit differently.
    return logprob / (max(length, 1) ** alpha)


def _best_cells(grid: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``k`` best finite cells of each row of ``grid`` (rows, C), best first.

    Returns the row, column and rank of every pick, row by row. A row's
    picks are ``np.argsort(-row, kind="stable")[:k]`` without the
    non-finite ones, so equal values go to the lower column; only the
    cells at or above the row's k-th highest value are sorted.
    """
    cut = -np.partition(-grid, k - 1, axis=1)[:, k - 1:k] if k < grid.shape[1] else -np.inf
    rows, cols = np.nonzero(grid >= cut)
    values = grid[rows, cols]
    order = np.lexsort((-values, rows))  # stable: by row, then value, then column
    rows, cols, values = rows[order], cols[order], values[order]
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
    keep = (rank < k) & np.isfinite(values)
    return rows[keep], cols[keep], rank[keep]


def _reorder_slots(cache: np.ndarray, parent_rows: np.ndarray, step: int) -> None:
    """Make slot j of every set g a copy of its slot ``parent_rows[g, j]``, in place.

    ``cache`` is (2, layers, G, slots, steps, d) and ``parent_rows`` (G, n);
    positions [:step] move. The result equals the gather
    ``cache[:, :, :, :n, :step] = cache[:, :, arange(G)[:, None], parent_rows, :step]``
    byte for byte. Only the slots whose parent is another slot are copied,
    one (keys or values, layer) block at a time: the gathered right side
    is a temporary of the moved slots' prefixes in that block, so a cycle
    such as a swap needs no ordering.
    """
    g, j = np.nonzero(parent_rows != np.arange(parent_rows.shape[1]))
    if not len(g):
        return
    sources = parent_rows[g, j]
    for kv in cache:
        for block in kv:  # (G, slots, steps, d)
            block[g, j, :step] = block[g, sources, :step]


def generate_sets(
    inputs, weights: DecoderWeights, graphs, gen: GenerationConfig = GenerationConfig(),
    recorder: Callable[[int, tuple[int, ...]], AbstractContextManager] = in_memory,
) -> Iterator[GenerationResult]:
    """Beam search over every set of a file, with a cached decoder recording attention.

    Yields one ``GenerationResult`` per set, in input order, one lockstep
    group at a time: consecutive sets with the same unit count L, at most
    ``_group_size`` of them, whichever the recorder (four beam-4 sets of
    32 steps, or eight beam-1 sets of 8 steps, at d_model 64 and 8
    layers). Before anything is decoded, it checks the options, that the
    vocabulary holds the four special tokens, and then each set in turn,
    once: it has at least one unit, its unit tokens are in the
    vocabulary, its real units fit the model's positions, its graph has
    its size, and the graph's zero-diagonal units are its pad units
    (``_check_units``, which ``encode_units`` shares; the beam search
    encodes the checked sets through its core). A set's fault raises
    ``ValueError(message, i)``, i its position (``VocabularyError`` for
    a token). Results equal decoding each set alone byte for byte: the
    kernel keeps each set's hypotheses apart, (sets, hypotheses, d), so
    every weight product is a stacked one that runs at the shape a set
    alone has (batch invariance; H. He and Thinking Machines Lab,
    "Defeating Nondeterminism in LLM Inference", 2025).

    ``recorder(i, dims)`` gives the context manager of the recorder of the
    set at position i, dims (beam_size, max_steps, layers, heads, L). A
    group enters its sets' recorders when it starts and leaves them,
    together, before its results are yielded, or when it fails. Each step
    calls ``record(step, slices)`` with the float32 slices (beam_size,
    layers, heads, L) of every slot of every set still decoding, in an
    array that the next step overwrites, so a recorder copies whatever it
    keeps; the group's end calls ``finish(steps)`` with the set's decoded
    steps, and what that returns is the result's ``awd``. By default
    (``awd.in_memory``) that is an ``AwdTensor`` of the decoded steps,
    built in memory; ``awd.open_recorder`` writes the tensor file instead.

    Each step is one ``_decode_block`` call over every set's
    leading slots, as many as the fullest set holds hypotheses: kernel
    and cache row j of a set are its beam slot j, which first takes a
    copy of its parent slot's cache in place: ``_reorder_slots`` gathers
    only the slots that move. The kernel writes the step's betas straight
    into the group's one step of float32 slices, and the step's logits and
    score grid are dropped before the next kernel call, so a group holds
    its caches, unit keys, one step of slices and the beam state, plus at
    most one step's logits and score grid. A finished slot rides along
    until its set ends; only a live slot's outputs are kept. Hypotheses are
    ranked by log-probability divided by length to the power of the
    length penalty. Each step fills one (slots, 1 + V) score grid per
    set: column 0 keeps a finished hypothesis at its frozen score,
    column 1 + v extends a live one by token v, and every other cell is
    -inf. The best ``beam_size`` cells of a stable sort of the flattened
    grid are the next beams, so equal scores go to the lower slot, then
    the lower column. A finished slot's recorded tensor slices carry its
    last real distribution forward, which keeps the tensor rectangular
    (those slices fall outside the winner's length and are never
    consumed). While there are fewer hypotheses n than beam slots, slot
    k records a copy of slot k mod n. A set ends when every beam has
    finished, and then rides along to its group's end as a finished slot
    rides along to its set's end: its slots keep their frozen scores, are
    fed what finished slots are fed, and its recorder gets no ``record``
    call after its last step. A non-finite decoder state raises
    ``ValueError(message, i)``, i the position of its first set; a riding
    set's rows can raise it too.
    """
    inputs, graphs = list(inputs), list(graphs)
    if len(inputs) != len(graphs):
        raise ValueError(f"{len(inputs)} inputs but {len(graphs)} graphs")
    max_steps = gen.steps(weights.config)
    missing = weights.unknown_tokens(SPECIAL_TOKENS)
    if missing:
        raise VocabularyError(f"token {missing[0]!r} not in the model vocabulary")
    for i, (inp, graph) in enumerate(zip(inputs, graphs)):
        if not inp.num_real_units:
            raise ValueError("no units; no attention targets", i)
        _check_units(inp, weights, graph, i)
    size = _group_size(weights.config, gen.beam_size, max_steps)
    return _generate_groups(inputs, weights, graphs, gen, max_steps, size, recorder)


def _generate_groups(inputs, weights, graphs, gen, max_steps, size, recorder):
    cfg = weights.config
    start = 0
    while start < len(inputs):
        L = inputs[start].L
        end = start + 1
        while end < min(start + size, len(inputs)) and inputs[end].L == L:
            end += 1
        dims = (gen.beam_size, max_steps, cfg.num_layers, cfg.num_heads, L)
        with ExitStack() as stack:  # an error leaves every recorder of the group
            recorders = [stack.enter_context(recorder(i, dims)) for i in range(start, end)]
            results = _beam_search(inputs[start:end], weights, graphs[start:end], gen,
                                   max_steps, start, recorders)
        yield from results
        start = end


@np.errstate(over="ignore", invalid="ignore")  # overflow shows as the kernel's one error
def _beam_search(
    inputs: list[UnitizedInput], weights: DecoderWeights, graphs: list[SimilarityGraph],
    gen: GenerationConfig, max_steps: int, first: int, recorders: list,
) -> list[GenerationResult]:
    """Beam search over the group of sets from position ``first`` of the file on,
    recording set g's slices with ``recorders[g]``."""
    cfg = weights.config
    banned_cols = [1 + weights.pad_id, 1 + weights.bos_id]
    G, bs, V = len(inputs), gen.beam_size, cfg.vocab_size
    encoded = np.stack([_encode_units(inp, weights, graph) for inp, graph in zip(inputs, graphs)])
    group = _prepare(encoded, graphs, weights)
    # Self-attention keys and values by set and slot (zeros: an empty slot stays finite).
    cache = np.zeros((2, cfg.num_layers, G, bs, max_steps, cfg.d_model))
    # The step's slices by set and slot, recorded, then overwritten by the next step's kernel.
    now = np.empty((G, bs, cfg.num_layers, cfg.num_heads, inputs[0].L), dtype=np.float32)
    # Per set and slot: <bos> and the token ids (-1 pads a finished slot), log-probability,
    # normalized score and whether it ended.
    seqs = np.full((G, bs, 1 + max_steps), weights.bos_id)
    logprobs, scores = np.zeros((G, bs)), np.zeros((G, bs))
    finished = np.zeros((G, bs), dtype=bool)
    counts = np.ones(G, dtype=np.int64)  # hypotheses per set, in its leading slots
    # Each step's parent slots. At a step, row step - 1 holds the parent of every slot that
    # holds a hypothesis (zeros before the first step); an empty slot's outputs are dropped.
    traces = np.zeros((G, max_steps, bs), dtype=np.int64)
    steps = np.full(G, max_steps)  # an ended set's last step + 1
    slots = np.arange(bs)

    for step in range(max_steps):
        n = counts.max()
        valid = slots < counts[:, None]
        # Kernel row j of a set is its slot j, which takes its parent slot's cache.
        _reorder_slots(cache, traces[:, step - 1, :n], step)
        fg, fj = np.nonzero(valid & finished)
        carried = now[fg, traces[fg, step - 1, fj]]  # read before the kernel overwrites them
        try:  # a finished or empty slot's slices are replaced below
            logits = _decode_block(seqs[:, :n, step], step, cache[:, :, :, :n], group,
                                   weights, now[:, :n])
        except ValueError as exc:  # the kernel names the set by its row
            raise ValueError(exc.args[0], first + exc.args[1]) from None
        now[fg, fj] = carried
        for g in np.flatnonzero(counts < bs):  # slot k copies slot k mod counts[g]
            c = counts[g]
            for k in range(c, bs, c):
                now[g, k:k + c] = now[g, :min(c, bs - k)]
        for g in np.flatnonzero(steps > step):
            recorders[g].record(step, now[g])

        totals = np.full((G, bs, 1 + V), -np.inf)  # log-probability of each grid cell
        totals[:, :, 0] = logprobs
        np.add(logprobs[:, :n, None], _log_softmax(logits), out=totals[:, :n, 1:])
        del logits
        totals[~valid | finished, 1:] = -np.inf  # all but the live slots
        totals[:, :, banned_cols] = -np.inf
        grid = _normalized(totals, step + 1, gen.length_penalty)
        grid[..., 0] = np.where(valid & finished, scores, -np.inf)
        g, cells, ranks = _best_cells(grid.reshape(G, -1), bs)
        parent_slots, cols = np.divmod(cells, 1 + V)
        seqs[g, ranks, :step + 1] = seqs[g, parent_slots, :step + 1]
        seqs[g, ranks, step + 1] = cols - 1
        logprobs[g, ranks] = totals[g, parent_slots, cols]
        scores[g, ranks] = grid[g, parent_slots, cols]
        finished[g, ranks] = (cols == 0) | (cols == 1 + weights.eos_id)
        traces[g, step, ranks] = parent_slots
        counts = np.bincount(g, minlength=G)
        del totals, grid, g, cells, ranks, parent_slots, cols  # the grid and picks die here
        ended = (finished | (slots >= counts[:, None])).all(axis=1)
        steps[ended & (steps > step)] = step + 1
        if ended.all():
            break

    results = []
    for g in range(G):
        best = int(np.argmax(scores[g, :counts[g]]))
        results.append(GenerationResult(
            tokens=[tok for tok in seqs[g, best, 1:steps[g] + 1].tolist() if tok >= 0],
            beam_trace=traces[g, :steps[g]].tolist(),
            awd=recorders[g].finish(int(steps[g])),
            winning_beam=best,
            score=float(scores[g, best]),
        ))
    return results


def generate_with_beam(
    inp: UnitizedInput,
    weights: DecoderWeights,
    graph: SimilarityGraph,
    gen: GenerationConfig = GenerationConfig(),
) -> GenerationResult:
    """Beam search over one set: ``generate_sets`` on a file of that set alone."""
    return next(generate_sets([inp], weights, [graph], gen))


# ---------------------------------------------------------------------------
# Synthetic weights
# ---------------------------------------------------------------------------

def _default_vocab(vocab_size: int) -> list[str]:
    if vocab_size < len(SPECIAL_TOKENS):
        raise ValueError(f"vocab_size must be >= {len(SPECIAL_TOKENS)}")
    return SPECIAL_TOKENS + [f"tok{i:03d}" for i in range(vocab_size - len(SPECIAL_TOKENS))]


def build_vocab(tokens) -> list[str]:
    """Deterministic vocabulary: special tokens then sorted unique tokens."""
    return SPECIAL_TOKENS + sorted(set(tokens) - set(SPECIAL_TOKENS))


# Biases drawn with std 0.1; every other random parameter uses 1/sqrt(d_model).
_BIAS_PARAMS = frozenset({"cp_b1", "cp_b2", "ff_b1", "ff_b2"})


def _checked_vocab(config: ModelConfig, vocab: list[str] | None) -> list[str]:
    if vocab is None:
        return _default_vocab(config.vocab_size)
    if len(vocab) != config.vocab_size:
        raise ValueError(f"vocab length {len(vocab)} != vocab_size {config.vocab_size}")
    return list(vocab)


def make_synthetic_weights(
    seed: int, config: ModelConfig, vocab: list[str] | None = None
) -> DecoderWeights:
    """Seeded random weights; the same seed reproduces them bit for bit.

    Parameters are drawn in ``_param_shapes`` order; positions stay sinusoidal.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    vocab = _checked_vocab(config, vocab)
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(config.d_model)
    params = {}
    for name, shape in _param_shapes(config).items():
        if name == "pos_encoding":
            params[name] = sinusoidal_positions(*shape)
        else:
            params[name] = rng.normal(0.0, 0.1 if name in _BIAS_PARAMS else scale, size=shape)
    return DecoderWeights(config=config, vocab=vocab, **params)


def make_concentrator_weights(
    config: ModelConfig,
    target: int,
    vocab: list[str] | None = None,
    token_script: list[int] | None = None,
    margin: float = 25.0,
) -> DecoderWeights:
    """Weights whose global attention provably concentrates on one unit.

    Construction: token embeddings are zero and position p encodes as
    c + r * b_p with c, b_0, b_1, ... orthogonal basis directions, so
    every decoder state keeps a fixed component along c. W_Q reads only
    that component (a state-independent query) and W_K reads only the
    b_target component of the encoded units, which the strongly
    self-attending encoder makes near-r for the target unit and near-0
    elsewhere. The resulting logit margin between the target and every
    other unit is at least ``margin`` minus a vanishing term, and
    dominates the largest possible graph shift 1 / (2 * sigma**2) for
    any graph when margin is large enough. All other sublayer outputs
    are zeroed so states pass through layers unchanged, making the
    concentration hold at every layer and step.

    ``token_script`` optionally pins the emitted token at each step
    (position-keyed output logits); it should end with the
    end-of-sequence id. Past the script, logits are uniform and the
    lowest allowed token id wins.
    """
    vocab = _checked_vocab(config, vocab)
    if not 0 <= target < config.num_units:
        raise ValueError(f"target {target} outside [0, {config.num_units})")
    shapes = _param_shapes(config)
    d = config.d_model
    pos_rows = shapes["pos_encoding"][0]
    if 1 + pos_rows > d:
        raise ValueError(
            f"d_model={d} too small for concentrator; needs >= {1 + pos_rows}"
        )
    if margin <= 0:
        raise ValueError("margin must be positive")
    if token_script is not None and len(token_script) > config.max_len:
        raise ValueError(
            f"script length {len(token_script)} exceeds max_len {config.max_len}"
        )

    gamma = 1.0
    r = math.sqrt(40.0 * math.sqrt(d))
    kappa = margin * math.sqrt(config.d_head) / r

    params = {name: np.zeros(shape) for name, shape in shapes.items()}
    params["pos_encoding"][:, 0] = gamma
    for p in range(pos_rows):
        params["pos_encoding"][p, 1 + p] = r
    params["w_q"][:, :, 0, 0] = 1.0 / gamma
    params["w_k"][:, :, 1 + target, 0] = kappa
    for step, tok in enumerate(token_script or []):
        params["w_out"][1 + step, tok] = 25.0 / r
    return DecoderWeights(config=config, vocab=vocab, **params)


# ---------------------------------------------------------------------------
# Weights file
# ---------------------------------------------------------------------------

def write_weights(weights: DecoderWeights, path) -> None:
    """Write a weights file that ``read_weights`` reads back bit for bit."""
    obj = {
        "config": weights.config.to_json(),
        "vocab": weights.vocab,
        "params": {
            name: getattr(weights, name).tolist() for name in _param_shapes(weights.config)
        },
    }
    write_json(obj, path)


def check_vocab(vocab) -> list[str]:
    """``vocab`` if it is a list of distinct strings, as read from JSON."""
    if not (type(vocab) is list and all(type(t) is str for t in vocab)
            and len(set(vocab)) == len(vocab)):
        raise ValueError("vocab must be a list of distinct strings")
    return vocab


def _weights_from_json(obj) -> DecoderWeights:
    config = ModelConfig.from_json(obj["config"])
    params = {name: number_array(obj["params"][name], name) for name in _param_shapes(config)}
    return DecoderWeights(config=config, vocab=check_vocab(obj["vocab"]), **params)


def read_weights(path) -> DecoderWeights:
    """Read and validate a weights file; errors name the file."""
    return read_json(path, "weights file", _weights_from_json)
