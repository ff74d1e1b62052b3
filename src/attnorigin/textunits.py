"""Ingest multi-document sets into fixed-shape grids of textual units.

A textual unit is either a paragraph or a sentence. A document set is
flattened into at most L units of at most T tokens each, padded up to a
fixed L x T token budget. Document membership of every non-pad unit is
kept in ``doc_boundaries`` so positional-bias analysis can recover the
within-document position of each unit.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

PARAGRAPH_MODE = "paragraph"
SENTENCE_MODE = "sentence"

# (units L, tokens per unit T); both shapes give an 1,800-token budget.
DEFAULT_SHAPES = {PARAGRAPH_MODE: (30, 60), SENTENCE_MODE: (60, 30)}

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)
_BLANK_LINE_RE = re.compile(r"\n\s*\n")


class CorpusFormatError(ValueError):
    """Raised for malformed corpus files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


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
    if not stripped:
        return []
    sentences = []
    start = 0
    i = 0
    n = len(stripped)
    while i < n:
        if stripped[i] not in ".!?":
            i += 1
            continue
        j = i + 1
        while j < n and stripped[j] in ".!?":
            j += 1
        k = j
        while k < n and stripped[k].isspace():
            k += 1
        if k > j and k < n and stripped[k].isupper():
            sentences.append(stripped[start:j].strip())
            start = k
            i = k
        else:
            i = j
    tail = stripped[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


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

    Non-pad units always occupy the leading slots. ``doc_boundaries``
    maps every non-pad unit index to its document index; it is ``None``
    only for externally supplied data that lacks the correspondence.
    """

    units: list[TextualUnit]
    pad_mask: np.ndarray  # (L, T) bool, True where padded
    L: int
    T: int
    mode: str
    doc_boundaries: dict[int, int] | None

    @property
    def token_budget(self) -> int:
        return self.L * self.T

    @property
    def num_real_units(self) -> int:
        return sum(1 for u in self.units if not u.is_pad)

    @property
    def unit_pad(self) -> np.ndarray:
        """Boolean (L,) vector, True for pad slots."""
        return np.array([u.is_pad for u in self.units], dtype=bool)


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
    tokenizer: Callable[[str], list[str]] = tokenize,
) -> UnitizedInput:
    """Turn a document set into a padded L x T textual-unit grid.

    Units are taken in document order, then unit order. Tokens beyond T
    and units beyond L are dropped (leading content is kept); missing
    units and tokens are padded. ``tokenizer`` may be swapped for any
    callable with the same contract (e.g. a subword model).
    """
    if mode not in (PARAGRAPH_MODE, SENTENCE_MODE):
        raise ValueError(f"unknown mode {mode!r}")
    if L < 1 or T < 1:
        raise ValueError("L and T must be >= 1")

    pairs = _collect_units(docset, mode)
    if mode == SENTENCE_MODE and not pairs:
        raise ValueError(
            f"set {docset.set_id!r}: sentence mode found no sentences in any document"
        )

    units: list[TextualUnit] = []
    pad_mask = np.ones((L, T), dtype=bool)
    doc_boundaries: dict[int, int] = {}
    for idx, (doc_index, text) in enumerate(pairs[:L]):
        tokens = tokenizer(text)[:T]
        units.append(
            TextualUnit(doc_index=doc_index, unit_index=idx, tokens=tokens, original_text=text)
        )
        pad_mask[idx, : len(tokens)] = False
        doc_boundaries[idx] = doc_index
    for idx in range(len(units), L):
        units.append(TextualUnit(doc_index=-1, unit_index=idx, tokens=[], original_text=""))

    return UnitizedInput(
        units=units, pad_mask=pad_mask, L=L, T=T, mode=mode, doc_boundaries=doc_boundaries
    )


# ---------------------------------------------------------------------------
# Corpus file: JSON lines, one MultiDocSet per line.
# ---------------------------------------------------------------------------

def docset_from_json(obj: dict) -> MultiDocSet:
    if not isinstance(obj, dict):
        raise ValueError("corpus record must be a JSON object")
    try:
        set_id = obj["set_id"]
        raw_docs = obj["documents"]
    except KeyError as exc:
        raise ValueError(f"missing corpus key {exc.args[0]!r}") from None
    documents = []
    for d, entry in enumerate(raw_docs):
        doc_id = entry.get("doc_id", f"{set_id}.doc{d}")
        if "paragraphs" in entry:
            documents.append(RawDocument.from_paragraphs(doc_id, entry["paragraphs"]))
        elif "text" in entry:
            documents.append(RawDocument.from_text(doc_id, entry["text"]))
        else:
            raise ValueError(f"document {doc_id!r} has neither 'paragraphs' nor 'text'")
    return MultiDocSet(set_id=set_id, documents=documents, gold_summary=obj.get("gold_summary"))


def read_corpus(path) -> list[MultiDocSet]:
    """Read a JSONL corpus; raises CorpusFormatError with the line number."""
    sets = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                sets.append(docset_from_json(obj))
            except (json.JSONDecodeError, ValueError, TypeError) as exc:
                raise CorpusFormatError(str(exc), line=lineno) from None
    return sets


def docset_to_json(docset: MultiDocSet) -> dict:
    return {
        "set_id": docset.set_id,
        "documents": [
            {"doc_id": d.doc_id, "paragraphs": list(d.paragraphs)} for d in docset.documents
        ],
        "gold_summary": docset.gold_summary,
    }


def write_corpus(sets: list[MultiDocSet], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for docset in sets:
            fh.write(json.dumps(docset_to_json(docset), ensure_ascii=False) + "\n")


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
    units = [
        {
            "doc_index": u.doc_index,
            "unit_index": u.unit_index,
            "tokens": list(u.tokens),
            "original_text": u.original_text,
        }
        for u in inp.units
        if not u.is_pad
    ]
    boundaries = None
    if inp.doc_boundaries is not None:
        boundaries = {str(k): v for k, v in sorted(inp.doc_boundaries.items())}
    return {
        "set_id": record.set_id,
        "mode": inp.mode,
        "L": inp.L,
        "T": inp.T,
        "units": units,
        "doc_boundaries": boundaries,
        "gold_summary": record.gold_summary,
    }


def unitized_from_json(obj: dict) -> UnitizedRecord:
    try:
        L, T, mode = obj["L"], obj["T"], obj["mode"]
        raw_units = obj["units"]
        set_id = obj["set_id"]
    except KeyError as exc:
        raise ValueError(f"missing unitized key {exc.args[0]!r}") from None
    if len(raw_units) > L:
        raise ValueError(f"set {set_id!r}: {len(raw_units)} units exceed L={L}")
    units = []
    pad_mask = np.ones((L, T), dtype=bool)
    for position, u in enumerate(raw_units):
        tokens = list(u["tokens"])
        if len(tokens) > T:
            raise ValueError(f"set {set_id!r}: unit {u['unit_index']} exceeds T={T}")
        idx = u["unit_index"]
        if idx != position:
            raise ValueError(
                f"set {set_id!r}: non-pad units must be a leading prefix in order; "
                f"found unit_index {idx} at position {position}"
            )
        if not tokens:
            raise ValueError(f"set {set_id!r}: non-pad unit {idx} has no tokens")
        doc_index = int(u.get("doc_index", 0))
        if doc_index < 0:
            raise ValueError(f"set {set_id!r}: non-pad unit {idx} has doc_index {doc_index}")
        units.append(
            TextualUnit(
                doc_index=doc_index,
                unit_index=idx,
                tokens=tokens,
                original_text=u["original_text"],
            )
        )
        pad_mask[idx, : len(tokens)] = False
    num_real = len(units)
    for idx in range(num_real, L):
        units.append(TextualUnit(doc_index=-1, unit_index=idx, tokens=[], original_text=""))
    raw_bounds = obj.get("doc_boundaries")
    boundaries = None
    if raw_bounds is not None:
        boundaries = {int(k): int(v) for k, v in raw_bounds.items()}
        outside = sorted(k for k in boundaries if not 0 <= k < num_real)
        if outside:
            raise ValueError(
                f"set {set_id!r}: doc_boundaries key {outside[0]} outside the "
                f"{num_real} non-pad units"
            )
    unitized = UnitizedInput(
        units=units, pad_mask=pad_mask, L=L, T=T, mode=mode, doc_boundaries=boundaries
    )
    return UnitizedRecord(set_id=set_id, unitized=unitized, gold_summary=obj.get("gold_summary"))


def write_unitized(records: list[UnitizedRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(unitized_to_json(record), ensure_ascii=False) + "\n")


def read_unitized(path) -> list[UnitizedRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(unitized_from_json(json.loads(line)))
            except (json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
                raise CorpusFormatError(str(exc), line=lineno) from None
    return records
