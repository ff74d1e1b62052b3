"""Miniature graph-informed transformer decoder with attention recording.

The decoder attends over encoded textual units with logits shifted by a
penalty derived from the similarity graph and a predicted central unit.
One kernel advances a batch of hypotheses through every layer, with
causal self-attention over a key/value cache and graph attention
composed of the exported primitives (one state or a stack, all heads as
one batch). Every step records the resulting attention distribution (one
probability vector over units per layer and head), and beam search
collects those vectors into a dense tensor indexed
[beam][token][layer][head][unit] together with a parent-beam trace.

There is no training loop; weights are loaded from files or built
synthetically (random, or a "concentrator" construction whose attention
provably lands on one designated unit).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

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
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
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
            raise VocabularyError(f"token {token!r} not in model vocabulary") from None

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
class AwdTensor:
    """Recorded attention distributions, float32.

    Index order is [beam][token][layer][head][unit]; every unit-axis
    slice is a probability vector (pad units carry zero mass).
    """

    values: np.ndarray  # (bs, sl, dl, mh, L)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 5:
            raise ValueError(f"awd tensor must have 5 dims, got {self.values.ndim}")

    @property
    def dims(self) -> tuple[int, int, int, int, int]:
        return self.values.shape


@dataclass
class GenerationResult:
    tokens: list[int]
    beam_trace: list[list[int]]  # (sl, bs) parent slot per step
    awd: AwdTensor
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

    def steps(self, model: ModelConfig) -> int:
        """Decoding steps against ``model``: ``max_len``, the model's when unset."""
        steps = model.max_len if self.max_len is None else self.max_len
        if steps > model.max_len:
            raise ValueError(f"max_len {steps} outside [1, {model.max_len}]")
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


def _shifted_softmax(
    e: np.ndarray, g_rows: np.ndarray, unit_pad: np.ndarray, sigma: float, shift_form: str
) -> np.ndarray:
    """Softmax over units of ``e`` shifted by graph rows ``g_rows``; pads get 0."""
    logits = np.where(unit_pad, -np.inf, e - _graph_shift(g_rows, sigma, shift_form))
    return _softmax(logits, axis=-1)


def sinusoidal_positions(rows: int, d_model: int) -> np.ndarray:
    """Standard fixed sine/cosine positional encodings."""
    pos = np.arange(rows, dtype=np.float64)[:, None]
    dim = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * np.floor(dim / 2.0)) / d_model)
    enc = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------

def encode_units(
    inp: UnitizedInput, weights: DecoderWeights, graph: SimilarityGraph
) -> np.ndarray:
    """One graph-informed self-attention pass over unit embeddings.

    Each unit starts as the mean of its token embeddings plus its
    positional encoding; attention logits between units are shifted by
    the graph penalty. Returns the (L, d_model) encoded units; pad
    units encode to the zero vector.
    """
    cfg = weights.config
    L = inp.L
    if graph.size != L:
        raise ValueError(f"graph size {graph.size} != input unit count {L}")
    unit_pad = inp.unit_pad
    u = np.zeros((L, cfg.d_model), dtype=np.float64)
    for i, unit in enumerate(inp.units[: inp.num_real_units]):  # pads follow the real units
        ids = [weights.token_id(t) for t in unit.tokens]
        u[i] = weights.embedding[ids].mean(axis=0) + weights.pos_encoding[i]
    x = np.zeros((L, cfg.d_model), dtype=np.float64)
    real = ~unit_pad
    e = (u @ u.T)[real] / math.sqrt(cfg.d_model)
    x[real] = _shifted_softmax(e, graph.weights[real], unit_pad, cfg.sigma, cfg.shift_form) @ u
    return x


def unscaled_attention(
    y: np.ndarray, x: np.ndarray, w_q: np.ndarray, w_k: np.ndarray
) -> np.ndarray:
    """Scaled dot-product logits of one state (d,) or a stack (p, d) against all units.

    One head's (d, d_head) projections give (L,) or (p, L) logits; every
    head's (heads, d, d_head) give (heads, L) or (heads, p, L).
    """
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if not (np.isfinite(y).all() and np.isfinite(x).all()):
        raise ValueError("non-finite attention input")
    q = (y if y.ndim == 2 else y[None]) @ w_q
    k = x @ w_k
    e = (q @ np.swapaxes(k, -1, -2)) / math.sqrt(w_q.shape[-1])
    return e if y.ndim == 2 else e[..., 0, :]


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
    w1, b1, w2, b2 = ffn
    y = np.asarray(y, dtype=np.float64)
    hidden = np.tanh(y @ w1 + b1)
    s = np.floor(_sigmoid(hidden @ w2 + b2) * (L - 1) + 0.5).astype(np.int64)
    s = s.clip(0, L - 1)
    return s if y.ndim == 2 else int(s.reshape(()))


def graph_shifted_attention(
    e: np.ndarray,
    graph: SimilarityGraph,
    s: int | np.ndarray,
    sigma: float,
    shift_form: str = SHIFT_SIM_SQUARED,
) -> np.ndarray:
    """Attention distribution from logits shifted by the graph penalty.

    ``e`` holds logits over units: (L,) with one central index ``s``,
    or (..., p, L) with ``s`` holding one index per row p. Pad units
    (zero graph diagonal) are masked out before the softmax; raises if
    every unit is padded.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    s = np.asarray(s)
    if ((s < 0) | (s >= graph.size)).any():
        raise ValueError(f"central index out of range [0, {graph.size}): {s}")
    if graph.unit_pad.all():
        raise ValueError("all units are padded; no attention targets")
    return _shifted_softmax(e, graph.weights[s], graph.unit_pad, sigma, shift_form)


def global_context(beta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Weighted sum of encoded unit vectors; no value projection.

    ``beta`` is one distribution over units (L,) or a stack (..., L);
    every row must sum to 1.
    """
    beta = np.asarray(beta, dtype=np.float64)
    off = np.abs(beta.sum(axis=-1) - 1.0).max()
    if not off <= 1e-6:
        raise ValueError(f"attention weights sum {off:.3g} away from 1")
    return beta @ x


# ---------------------------------------------------------------------------
# Decoder stack
# ---------------------------------------------------------------------------

def start_state(
    inp: UnitizedInput, weights: DecoderWeights, graph: SimilarityGraph
) -> DecoderState:
    encoded = encode_units(inp, weights, graph)
    return DecoderState(prefix_ids=[weights.bos_id], encoded=encoded)


def _decode_block(
    ids: np.ndarray, start: int, cache: np.ndarray, x: np.ndarray,
    weights: DecoderWeights, graph: SimilarityGraph,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance n hypotheses by q tokens ``ids`` (n, q) at positions start..start+q-1.

    ``cache`` holds the self-attention keys and values, (2, layers, rows,
    steps, d): its rows [:n] carry positions [:start] of the n hypotheses
    and receive the new ones. Each layer runs causal self-attention over
    the cache, then global graph attention (the primitives over every
    row and head, contexts concatenated and projected), then a
    position-wise feed-forward, all with residual connections. Returns
    the last position's (n, V) logits and (n, layers, heads, L) betas.
    """
    cfg = weights.config
    (n, q), end, L = ids.shape, start + ids.shape[1], x.shape[0]
    h = (weights.embedding[ids] + weights.pos_encoding[start:end]).reshape(n * q, -1)
    causal = np.triu(np.full((q, end), -np.inf), k=start + 1)
    betas = np.empty((n, cfg.num_layers, cfg.num_heads, L))
    keys, values = cache[0, :, :n], cache[1, :, :n]
    for layer in range(cfg.num_layers):
        keys[layer, :, start:end] = (h @ weights.sa_wk[layer]).reshape(n, q, -1)
        values[layer, :, start:end] = (h @ weights.sa_wv[layer]).reshape(n, q, -1)
        k, v = keys[layer, :, :end], values[layer, :, :end]
        queries = (h @ weights.sa_wq[layer]).reshape(n, q, -1)
        attn = _softmax(queries @ k.transpose(0, 2, 1) / math.sqrt(cfg.d_model) + causal)
        h = h + (attn @ v).reshape(n * q, -1) @ weights.sa_wo[layer]

        ffn = (weights.cp_w1[layer], weights.cp_b1[layer], weights.cp_w2[layer],
               weights.cp_b2[layer])
        s = central_paragraph(h, ffn, L)  # (n * q,)
        e = unscaled_attention(h, x, weights.w_q[layer], weights.w_k[layer])  # (mh, n * q, L)
        beta = graph_shifted_attention(e, graph, s, cfg.sigma, cfg.shift_form)
        betas[:, layer] = beta.reshape(-1, n, q, L)[:, :, -1].transpose(1, 0, 2)
        contexts = global_context(beta, x)  # (mh, n * q, d)
        h = h + contexts.transpose(1, 0, 2).reshape(n * q, -1) @ weights.w_g[layer]

        inner = np.maximum(h @ weights.ff_w1[layer] + weights.ff_b1[layer], 0.0)
        h = h + inner @ weights.ff_w2[layer] + weights.ff_b2[layer]
    return h.reshape(n, q, -1)[:, -1] @ weights.w_out, betas


def decode_step(
    state: DecoderState, weights: DecoderWeights, graph: SimilarityGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Run the decoder over the prefix; return next-token logits and betas.

    The betas are the graph-shifted attention distributions of the last
    prefix position, shape (num_layers, num_heads, L): one
    ``_decode_block`` call over the whole prefix with an empty cache.
    """
    cfg = weights.config
    p = len(state.prefix_ids)
    if p - 1 >= cfg.max_len:
        raise ValueError(f"decoded length {p - 1} reached max_len {cfg.max_len}")
    cache = np.empty((2, cfg.num_layers, 1, p, cfg.d_model))
    logits, betas = _decode_block(np.array([state.prefix_ids]), 0, cache, state.encoded,
                                  weights, graph)
    return logits[0], betas[0]


# ---------------------------------------------------------------------------
# Beam search
# ---------------------------------------------------------------------------

def _normalized(logprob: np.ndarray, length: int, alpha: float) -> np.ndarray:
    # A Python float power: numpy's array power may round the last bit differently.
    return logprob / (max(length, 1) ** alpha)


def generate_with_beam(
    inp: UnitizedInput,
    weights: DecoderWeights,
    graph: SimilarityGraph,
    gen: GenerationConfig = GenerationConfig(),
) -> GenerationResult:
    """Beam search with a cached decoder, recording attention for every beam.

    Each step is one ``_decode_block`` call that feeds every live
    hypothesis its last token; the cache rows then follow the chosen
    parents. Hypotheses are ranked by log-probability divided by length
    to the power of the length penalty. Each step fills one (slots, 1 + V)
    score grid: column 0 keeps a finished hypothesis at its frozen
    score, column 1 + v extends a live one by token v, and every other
    cell is -inf. One stable sort of the flattened grid picks the next
    beams, so equal scores go to the lower slot, then the lower column.
    A finished slot's recorded tensor slices carry its last real
    distribution forward, which keeps the tensor rectangular (those
    slices fall outside the winner's length and are never consumed).
    While there are fewer hypotheses n than beam slots, slot k records
    a copy of slot k mod n.
    """
    cfg = weights.config
    max_steps = gen.steps(cfg)
    # Both end markers must exist before any decoding starts.
    eos = weights.eos_id
    _ = weights.eos_sent_id
    banned_cols = [1 + weights.pad_id, 1 + weights.bos_id]

    encoded = encode_units(inp, weights, graph)
    bs, V = gen.beam_size, cfg.vocab_size
    # Self-attention keys and values, one cache row per live slot in slot order.
    cache = np.empty((2, cfg.num_layers, bs, max_steps, cfg.d_model))
    awd = np.empty((bs, max_steps, cfg.num_layers, cfg.num_heads, inp.L), dtype=np.float32)
    # Per slot: <bos> and the token ids (-1 pads a finished slot), log-probability,
    # normalized score, whether it ended, and its parent slot.
    seqs = np.full((1, 1), weights.bos_id)
    logprobs, scores, finished = np.zeros(1), np.zeros(1), np.zeros(1, dtype=bool)
    parents = np.zeros(1, dtype=np.int64)
    traces: list[list[int]] = []

    for step in range(max_steps):
        n = len(seqs)
        live = np.flatnonzero(~finished)
        logits, awd[live, step] = _decode_block(seqs[live, -1:], step, cache, encoded,
                                                weights, graph)
        awd[:n][finished, step] = awd[parents[finished], step - 1]
        awd[n:, step] = awd[np.arange(n, bs) % n, step]
        totals = np.full((n, 1 + V), -np.inf)  # log-probability of each grid cell
        totals[:, 0] = logprobs
        totals[live, 1:] = logprobs[live, None] + _log_softmax(logits)
        totals[:, banned_cols] = -np.inf

        grid = np.column_stack([np.where(finished, scores, -np.inf),
                                _normalized(totals[:, 1:], step + 1, gen.length_penalty)])
        order = np.argsort(-grid.ravel(), kind="stable")[:bs]
        order = order[np.isfinite(grid.ravel()[order])]
        parents, cols = np.divmod(order, 1 + V)
        seqs = np.column_stack([seqs[parents], cols - 1])
        logprobs, scores = totals.ravel()[order], grid.ravel()[order]
        finished = (cols == 0) | (cols == 1 + eos)
        traces.append(parents.tolist() + [0] * (bs - len(parents)))
        if finished.all():
            break
        # Each live child takes its (live) parent's cache row; per layer keeps the copy small.
        rows = np.searchsorted(live, parents[~finished])
        for kv in cache.reshape(-1, bs, max_steps, cfg.d_model):
            kv[:len(rows), :step + 1] = kv[rows, :step + 1]

    best = int(np.argmax(scores))
    return GenerationResult(
        tokens=[tok for tok in seqs[best, 1:].tolist() if tok >= 0],
        beam_trace=traces,
        awd=AwdTensor(values=awd[:, :len(traces)]),
        winning_beam=best,
        score=float(scores[best]),
    )


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


def read_weights(path) -> DecoderWeights:
    """Read and validate a weights file; errors name the file."""
    obj = read_json(path, "weights file")
    try:
        config = ModelConfig.from_json(obj["config"])
        params = {
            name: number_array(obj["params"][name], name) for name in _param_shapes(config)
        }
        return DecoderWeights(config=config, vocab=check_vocab(obj["vocab"]), **params)
    except KeyError as exc:
        raise ValueError(f"{path}: weights file missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed weights file: {exc}") from None
