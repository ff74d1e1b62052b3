"""Ingest multi-document sets into fixed-shape grids of textual units.

A textual unit is either a paragraph or a sentence. A document set is
flattened into at most L units of at most T tokens each, padded up to a
fixed L x T token budget. Document membership of every non-pad unit is
kept in ``doc_boundaries`` so positional-bias analysis can recover the
within-document position of each unit.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import IO, Callable, Iterator

import numpy as np

PARAGRAPH_MODE = "paragraph"
SENTENCE_MODE = "sentence"

# (units L, tokens per unit T); both shapes give an 1,800-token budget.
DEFAULT_SHAPES = {PARAGRAPH_MODE: (30, 60), SENTENCE_MODE: (60, 30)}
# Largest L x T grid: checked before any pad unit or mask is allocated.
MAX_GRID_CELLS = 1 << 20

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)
_BLANK_LINE_RE = re.compile(r"\n\s*\n")
_DECIMAL_RE = re.compile(r"0|[1-9][0-9]*")
# terminal punctuation, then the whitespace before the next sentence's first character
_SENTENCE_END_RE = re.compile(r"[.!?]+(\s+)(?=\S)")


class CorpusFormatError(ValueError):
    """Raised for malformed corpus files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def tokenize(text: str) -> list[str]:
    """Lowercase and split into word tokens, punctuation as single tokens."""
    return _TOKEN_RE.findall(text.lower())


def split_sentences(text: str) -> list[str]:
    """Split text into sentences.

    A boundary is a run of terminal punctuation (``.``, ``!``, ``?``)
    followed by whitespace and an uppercase letter. Text without any
    boundary is a single sentence; empty text yields no sentences.
    """
    stripped = text.strip()
    sentences, start = [], 0
    for m in _SENTENCE_END_RE.finditer(stripped):
        if stripped[m.end()].isupper():
            sentences.append(stripped[start:m.start(1)])
            start = m.end()
    return sentences + [stripped[start:]] if stripped else []


@dataclass(frozen=True)
class RawDocument:
    """One source document with its paragraph segmentation."""

    doc_id: str
    text: str
    paragraphs: list[str]

    @classmethod
    def from_text(cls, doc_id: str, text: str) -> "RawDocument":
        """Build a document by splitting ``text`` on blank lines."""
        paragraphs = [p.strip() for p in _BLANK_LINE_RE.split(text)]
        return cls(doc_id=doc_id, text=text, paragraphs=[p for p in paragraphs if p])

    @classmethod
    def from_paragraphs(cls, doc_id: str, paragraphs: list[str]) -> "RawDocument":
        cleaned = [p.strip() for p in paragraphs if p.strip()]
        return cls(doc_id=doc_id, text="\n\n".join(cleaned), paragraphs=cleaned)


@dataclass(frozen=True)
class MultiDocSet:
    """An ordered set of documents sharing one (optional) gold summary."""

    set_id: str
    documents: list[RawDocument]
    gold_summary: str | None = None

    def __post_init__(self):
        if not self.documents:
            raise ValueError(f"set {self.set_id!r}: at least one document required")


@dataclass(frozen=True)
class TextualUnit:
    """One paragraph- or sentence-level unit; pad slots use doc_index -1."""

    doc_index: int
    unit_index: int
    tokens: list[str]
    original_text: str

    @property
    def is_pad(self) -> bool:
        return self.doc_index < 0


@dataclass
class UnitizedInput:
    """Fixed-shape grid of L unit slots with T token positions each.

    The constructor checks the grid: slot i holds unit_index i; non-pad
    units (1 to T tokens, doc_index >= 0) fill the leading slots and pads
    (no tokens) the rest. ``doc_boundaries`` maps exactly the non-pad
    unit indices to their document index; it is ``None`` only for
    external data that lacks the correspondence. The derived fields are
    computed once.
    """

    units: list[TextualUnit]
    L: int
    T: int
    mode: str
    doc_boundaries: dict[int, int] | None
    pad_mask: np.ndarray = field(init=False, repr=False)  # (L, T) bool, True where padded
    unit_pad: np.ndarray = field(init=False, repr=False)  # (L,) bool, True for pad slots
    num_real_units: int = field(init=False)

    def __post_init__(self):
        _require(self.mode in (PARAGRAPH_MODE, SENTENCE_MODE), f"unknown mode {self.mode!r}")
        _require(self.L >= 1 and self.T >= 1, "L and T must be >= 1")
        _require(len(self.units) == self.L, f"{len(self.units)} units for L={self.L} slots")
        real = 0
        for position, u in enumerate(self.units):
            is_unit = bool(u.tokens) or not u.is_pad  # a pad has neither tokens nor a document
            if u.unit_index != position or (is_unit and real < position):
                raise ValueError(
                    "non-pad units must be a leading prefix in order; found unit_index "
                    f"{u.unit_index} at position {position} after {real} non-pad units"
                )
            if not is_unit:
                continue
            if u.is_pad:
                raise ValueError(f"non-pad unit {position} has doc_index {u.doc_index}")
            if not u.tokens:
                raise ValueError(f"non-pad unit {position} has no tokens")
            if len(u.tokens) > self.T:
                raise ValueError(f"unit {position} exceeds T={self.T}")
            real += 1
        if self.doc_boundaries is not None:
            odd = sorted(set(self.doc_boundaries) ^ set(range(real)))
            if odd and odd[0] in self.doc_boundaries:
                raise ValueError(f"doc_boundaries key {odd[0]} outside the {real} non-pad units")
            if odd:
                raise ValueError(f"doc_boundaries lacks non-pad unit {odd[0]}")
            for i in range(real):
                if self.doc_boundaries[i] != self.units[i].doc_index:
                    raise ValueError(f"doc_boundaries maps unit {i} to {self.doc_boundaries[i]}, "
                                     f"not its doc_index {self.units[i].doc_index}")
        self.num_real_units = real
        self.unit_pad = np.arange(self.L) >= real
        lengths = np.array([len(u.tokens) for u in self.units])
        self.pad_mask = np.arange(self.T) >= lengths[:, None]


def _collect_units(docset: MultiDocSet, mode: str) -> list[tuple[int, str]]:
    """Flatten a doc set into (doc_index, unit text) pairs in document order."""
    pairs = []
    for d, doc in enumerate(docset.documents):
        for para in doc.paragraphs:
            if mode == PARAGRAPH_MODE:
                pairs.append((d, para))
            else:
                for sent in split_sentences(para):
                    pairs.append((d, sent))
    return pairs


def unitize(
    docset: MultiDocSet,
    mode: str,
    L: int,
    T: int,
) -> UnitizedInput:
    """Turn a document set into a padded L x T textual-unit grid.

    Units are taken in document order, then unit order. Tokens beyond T
    and units beyond L are dropped (leading content is kept); missing
    units and tokens are padded, so a set without units is all pads.
    """
    _check_grid(docset.set_id, L, T)
    pairs = _collect_units(docset, mode)
    units = [
        TextualUnit(doc_index=d, unit_index=idx, tokens=tokenize(text)[:T], original_text=text)
        for idx, (d, text) in enumerate(pairs[:L])
    ]
    return _padded(docset.set_id, units, L, T, mode, {u.unit_index: u.doc_index for u in units})


def _check_grid(set_id: str, L: int, T: int) -> None:
    _require(L * T <= MAX_GRID_CELLS,
             f"set {set_id!r}: L={L} x T={T} exceeds {MAX_GRID_CELLS} grid cells")


def _padded(set_id: str, units: list[TextualUnit], L: int, T: int, mode: str,
            doc_boundaries: dict[int, int] | None) -> UnitizedInput:
    """Fill the non-pad ``units`` up to L slots with pads; errors name the set."""
    pads = [TextualUnit(doc_index=-1, unit_index=i, tokens=[], original_text="")
            for i in range(len(units), L)]
    try:
        return UnitizedInput(units + pads, L=L, T=T, mode=mode, doc_boundaries=doc_boundaries)
    except ValueError as exc:
        raise ValueError(f"set {set_id!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Corpus file: JSON lines, one MultiDocSet per line.
# ---------------------------------------------------------------------------

def docset_from_json(obj: dict) -> MultiDocSet:
    _require(isinstance(obj, dict), "corpus record must be a JSON object")
    try:
        set_id = obj["set_id"]
        raw_docs = obj["documents"]
    except KeyError as exc:
        raise ValueError(f"missing corpus key {exc.args[0]!r}") from None
    _require(isinstance(set_id, str), "set_id must be a string")
    _require(isinstance(raw_docs, list) and all(isinstance(e, dict) for e in raw_docs),
             f"set {set_id!r}: documents must be a list of objects")
    documents = []
    for d, entry in enumerate(raw_docs):
        doc_id = entry.get("doc_id", f"{set_id}.doc{d}")
        if "paragraphs" in entry:
            paragraphs = entry["paragraphs"]
            _require(isinstance(paragraphs, list) and all(isinstance(p, str) for p in paragraphs),
                     f"document {doc_id!r}: paragraphs must be a list of strings")
            documents.append(RawDocument.from_paragraphs(doc_id, paragraphs))
        elif "text" in entry:
            _require(isinstance(entry["text"], str), f"document {doc_id!r}: text must be a string")
            documents.append(RawDocument.from_text(doc_id, entry["text"]))
        else:
            raise ValueError(f"document {doc_id!r} has neither 'paragraphs' nor 'text'")
    gold = obj.get("gold_summary")
    _require(gold is None or isinstance(gold, str),
             f"set {set_id!r}: gold_summary must be a string or null")
    return MultiDocSet(set_id=set_id, documents=documents, gold_summary=gold)


def read_corpus(path) -> list[MultiDocSet]:
    """Read a JSONL corpus; raises CorpusFormatError with the line number."""
    return _read_jsonl(path, docset_from_json)


def _read_jsonl(path, parse: Callable[[object], object]) -> list:
    """Parse every non-blank line; any error becomes a CorpusFormatError naming the line."""
    items = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")  # a UnicodeDecodeError is a ValueError
                if line.strip():
                    items.append(parse(json.loads(line)))
            except (ValueError, TypeError, KeyError, RecursionError) as exc:
                raise CorpusFormatError(str(exc), line=lineno) from None
    return items


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs) -> Iterator[IO]:
    """Open a temporary file beside ``path``; on a clean exit it replaces
    ``path`` with ``os.replace``, so a reader sees the old file or the
    whole new one, never a part. On an error the temporary file is
    removed and ``path`` is left as it was; a killed process leaves at
    most a stray ``*.tmp`` file. Nothing is fsynced, so power loss is
    not covered. A symlinked ``path`` is resolved first, so the link
    stays and its target is replaced; the new file is created afresh,
    with the default permissions and owner, not the old file's."""
    path = os.path.realpath(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_jsonl(objs, path) -> None:
    """Write one set's JSON object per line; text that UTF-8 cannot encode,
    such as a lone surrogate, raises a ValueError naming the set."""
    with atomic_write(path, encoding="utf-8") as fh:
        for obj in objs:
            line = json.dumps(obj, ensure_ascii=False) + "\n"
            try:
                fh.write(line)
            except UnicodeEncodeError as exc:
                raise ValueError(f"set {obj['set_id']!r}: {exc}") from None


def write_json(obj, path) -> None:
    """Write ``obj`` as one JSON document plus a newline, atomically.
    ``obj`` is encoded before the file is opened, so an unencodable
    value leaves no temporary file."""
    text = json.dumps(obj) + "\n"
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write(text)


def read_json(path, what: str, parse: Callable[[object], object] | None = None):
    """``parse`` of the JSON file at ``path``, which should hold a ``what``
    (the parsed object itself without ``parse``). Every fault raises one
    ValueError naming the file: a ``KeyError`` from ``parse`` gives
    ``<path>: <what> missing key '<key>'``; invalid UTF-8 or JSON, nesting
    too deep to parse, and a ``TypeError``, ``ValueError`` or
    ``RecursionError`` from ``parse`` give ``<path>: malformed <what>: ...``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        obj = json.loads(data.decode("utf-8"))  # a UnicodeDecodeError is a ValueError
        return obj if parse is None else parse(obj)
    except KeyError as exc:
        raise ValueError(f"{path}: {what} missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: malformed {what}: {exc}") from None


def number_array(value, what: str) -> np.ndarray:
    """Nested JSON lists as a float64 array; a leaf that is not a JSON
    number (a boolean, string, null or object), or an integer too large
    for float64, raises ValueError."""
    level = [value]
    while level:
        nested = []
        for v in level:
            if type(v) is list:
                nested.extend(v)
            elif type(v) is not float and type(v) is not int:
                raise ValueError(f"{what} must hold only JSON numbers, not {v!r}")
        level = nested
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{what} holds an integer too large for float64") from None


def docset_to_json(docset: MultiDocSet) -> dict:
    return {
        "set_id": docset.set_id,
        "documents": [
            {"doc_id": d.doc_id, "paragraphs": list(d.paragraphs)} for d in docset.documents
        ],
        "gold_summary": docset.gold_summary,
    }


def write_corpus(sets: list[MultiDocSet], path) -> None:
    """Write a JSONL corpus, one set per line, that ``read_corpus`` reads back."""
    _write_jsonl((docset_to_json(docset) for docset in sets), path)


# ---------------------------------------------------------------------------
# Unitized file: JSON lines, one record per set. Pad slots are implicit;
# non-pad units are always a leading prefix, so L/T reconstruct the grid.
# ---------------------------------------------------------------------------

@dataclass
class UnitizedRecord:
    """A unitized set paired with its identity and optional gold summary."""

    set_id: str
    unitized: UnitizedInput
    gold_summary: str | None = None


def unitized_to_json(record: UnitizedRecord) -> dict:
    inp = record.unitized
    units = [{"doc_index": u.doc_index, "unit_index": u.unit_index, "tokens": list(u.tokens),
              "original_text": u.original_text} for u in inp.units if not u.is_pad]
    boundaries = None
    if inp.doc_boundaries is not None:
        boundaries = {str(k): v for k, v in sorted(inp.doc_boundaries.items())}
    return {"set_id": record.set_id, "mode": inp.mode, "L": inp.L, "T": inp.T, "units": units,
            "doc_boundaries": boundaries, "gold_summary": record.gold_summary}


def _unit_from_json(set_id: str, u: dict) -> TextualUnit:
    """One non-pad unit; plain ``if``s keep the per-unit checks cheap."""
    try:
        doc_index, unit_index = u.get("doc_index", 0), u["unit_index"]
        tokens, text = u["tokens"], u["original_text"]
    except KeyError as exc:
        raise ValueError(f"set {set_id!r}: missing unit key {exc.args[0]!r}") from None
    if type(doc_index) is not int or type(unit_index) is not int:
        raise ValueError(f"set {set_id!r}: unit {unit_index!r}: doc_index and unit_index "
                         "must be integers")
    if type(tokens) is not list or not all(map(str.__instancecheck__, tokens)):
        raise ValueError(f"set {set_id!r}: unit {unit_index}: tokens must be a list of strings")
    if type(text) is not str:
        raise ValueError(f"set {set_id!r}: unit {unit_index}: original_text must be a string")
    return TextualUnit(doc_index=doc_index, unit_index=unit_index, tokens=list(tokens),
                       original_text=text)


def unitized_from_json(obj: dict) -> UnitizedRecord:
    try:
        L, T, mode = obj["L"], obj["T"], obj["mode"]
        raw_units = obj["units"]
        set_id = obj["set_id"]
    except KeyError as exc:
        raise ValueError(f"missing unitized key {exc.args[0]!r}") from None
    _require(isinstance(set_id, str), "set_id must be a string")
    _require(isinstance(raw_units, list) and all(isinstance(u, dict) for u in raw_units),
             f"set {set_id!r}: units must be a list of objects")
    _require(type(L) is int and type(T) is int, f"set {set_id!r}: L and T must be integers")
    _check_grid(set_id, L, T)
    units = [_unit_from_json(set_id, u) for u in raw_units]
    raw_bounds = obj.get("doc_boundaries")
    _require(raw_bounds is None or isinstance(raw_bounds, dict),
             f"set {set_id!r}: doc_boundaries must be an object or null")
    boundaries = None
    if raw_bounds is not None:
        for k, v in raw_bounds.items():
            if not _DECIMAL_RE.fullmatch(k) or type(v) is not int:
                raise ValueError(f"set {set_id!r}: doc_boundaries must map decimal unit "
                                 f"indices to integers, not {k!r}: {v!r}")
        boundaries = {int(k): v for k, v in raw_bounds.items()}
    gold = obj.get("gold_summary")
    _require(gold is None or isinstance(gold, str),
             f"set {set_id!r}: gold_summary must be a string or null")
    return UnitizedRecord(set_id, _padded(set_id, units, L, T, mode, boundaries), gold)


def write_unitized(records: list[UnitizedRecord], path) -> None:
    """Write a unitized JSONL file, one set per line, that ``read_unitized`` reads back."""
    _write_jsonl((unitized_to_json(record) for record in records), path)


def read_unitized(path) -> list[UnitizedRecord]:
    """Read a unitized JSONL file; raises CorpusFormatError with the line number."""
    return _read_jsonl(path, unitized_from_json)
