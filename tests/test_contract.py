"""The public names of ``attnorigin`` and its CLI options are part of its contract."""

import ast
import importlib
import inspect
import pkgutil
import re
import types
from pathlib import Path

import attnorigin
from attnorigin.cli.main import OPTIONS

PUBLIC_NAMES = [
    "AwdFormatError", "AwdTensor", "BadMagicError", "BeamTraceError", "CorrelationReport",
    "DecoderWeights", "DimOverflowError", "GenerationConfig", "GenerationResult",
    "MissingDocBoundariesError", "ModelConfig", "MultiDocSet", "OriginMetric",
    "PearsonAccumulator", "PosBiasHeatmap", "RawDocument", "RougeScore", "RougeTriple",
    "SentenceAwd", "SimilarityGraph", "SummaryAnalysis", "TextualUnit", "TruncatedPayloadError",
    "UnitizedInput", "UnitizedRecord", "aggregate_to_sentences", "argmax_paragraph",
    "beam_decode_awd", "build_graph", "build_report", "central_paragraph",
    "correlate_awd_origin", "cosine_similarity", "decode_step", "encode_units",
    "evaluate_summary", "generate_with_beam", "global_context", "graph_shifted_attention",
    "head_correlations", "layer_correlations", "make_concentrator_weights",
    "make_synthetic_weights", "pearson", "positional_bias", "read_awd", "read_corpus",
    "read_graph", "read_unitized", "read_weights", "reference_metric", "rouge_l", "rouge_n",
    "split_sentences", "split_summary_sentences", "summary_correlations", "tfidf_vectors",
    "tokenize", "unitize", "unscaled_attention", "write_awd", "write_corpus", "write_graph",
    "write_unitized", "write_weights",
]


def test_public_names_are_pinned():
    """A removed or renamed public name fails here and shows in the diff."""
    names = sorted(
        name for name, value in vars(attnorigin).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == sorted(PUBLIC_NAMES)


# Every settable value of each subcommand: a flag, ATTNORIGIN_<NAME> in the
# environment, or a config file key. `workers` accepts only 1 and stays
# because the benchmark's stage commands pass `--workers 1`.
CLI_OPTIONS = {
    "preprocess": ["config", "corpus", "out", "mode", "units", "tokens"],
    "graph": ["config", "unitized", "out", "tau"],
    "generate": ["config", "unitized", "graphs", "out", "weights", "seed", "beam_size",
                 "max_len", "length_penalty", "sigma", "d_model", "num_layers", "num_heads",
                 "shift_form", "model_max_len", "limit", "workers"],
    "analyze": ["config", "awd", "summaries", "unitized", "out", "layers", "variant",
                "aggregation", "posbias_layer", "format", "limit"],
    "heatmap": ["config", "report", "out"],
}


def test_cli_options_are_pinned():
    """An added or removed CLI option fails here and shows in the diff."""
    options = {command: [spec.name for spec in specs] for command, specs in OPTIONS.items()}
    assert options == CLI_OPTIONS


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    """Every ```python block of the README runs as written, in one namespace."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def _word(name: str) -> re.Pattern:
    return re.compile(rf"(?<!\w){re.escape(name)}(?!\w)")


def test_readme_names_every_public_name():
    """The README names every public name."""
    text = README.read_text(encoding="utf-8")
    assert [name for name in PUBLIC_NAMES if not _word(name).search(text)] == []


def _private_names() -> set[str]:
    """Every ``_``-prefixed, non-dunder name of a module or class in the package."""
    names = set()
    for info in pkgutil.walk_packages(attnorigin.__path__, "attnorigin."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            names.add(name)
            if isinstance(value, type) and value.__module__ == module.__name__:
                names.update(vars(value))
    return {name for name in names if re.fullmatch(r"_[A-Za-z]\w*", name)
            and not name.endswith("__")}


def test_readme_names_no_private_identifier():
    """The README states the contract; private helpers are free to change."""
    text = README.read_text(encoding="utf-8")
    assert sorted(name for name in _private_names() if _word(name).search(text)) == []


# The package modules each module imports, by name relative to the package
# ("" is the package itself). An added edge fails here and shows in the diff.
MODULE_IMPORTS = {
    "": {"awd", "graphattn", "origin", "rouge", "simgraph", "textunits"},
    "awd": {"textunits"},
    "cli": set(),
    "cli.heatmap": set(),
    "cli.main": {"awd", "cli.heatmap", "cli.report", "graphattn", "origin", "simgraph",
                 "textunits"},
    "cli.report": {"origin", "textunits"},
    "graphattn": {"awd", "simgraph", "textunits"},
    "origin": {"awd", "rouge", "textunits"},
    "rouge": {"textunits"},
    "simgraph": {"textunits"},
    "textunits": set(),
}

PACKAGE_DIR = Path(attnorigin.__file__).parent


def _relative_imports(path: Path) -> set[str]:
    """The package modules that the relative imports of the module at ``path`` name."""
    parts = path.relative_to(PACKAGE_DIR).with_suffix("").parts
    package = list(parts[:-1])  # of a module; an __init__ is its own package
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package[:len(package) - node.level + 1]
            if node.module:
                imported.add(".".join(base + node.module.split(".")))
            else:
                imported.update(".".join(base + [alias.name]) for alias in node.names)
    return imported


def test_module_imports_are_pinned():
    """Each module imports the package modules it is listed with, and no other."""
    imports = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        parts = path.relative_to(PACKAGE_DIR).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        imports[name] = _relative_imports(path)
    assert imports == MODULE_IMPORTS


def _caught(handler: ast.ExceptHandler) -> set[str]:
    """The names of the exception classes an ``except`` clause catches."""
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {node.id for node in names if isinstance(node, ast.Name)}


def test_only_textunits_words_a_bad_files_schema_error():
    """A reader outside ``textunits`` passes its schema check to ``read_json`` or
    ``_read_jsonl`` as a callback, so no ``read_*`` or ``_read_*`` function of
    another module catches a ``KeyError`` or ``TypeError`` itself."""
    own = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.name == "textunits.py":
            continue
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, ast.FunctionDef) and func.name.lstrip("_").startswith("read_"):
                own += [(path.name, func.name) for node in ast.walk(func)
                        if isinstance(node, ast.ExceptHandler)
                        and _caught(node) & {"KeyError", "TypeError"}]
    assert own == []


def test_package_names_are_imported_from_their_defining_module():
    """``attnorigin/__init__.py`` imports each class and function from the module
    that defines it, not through another module that imports it."""
    misplaced = []
    for node in ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                value = getattr(attnorigin, alias.asname or alias.name)
                if ((inspect.isclass(value) or inspect.isfunction(value))
                        and value.__module__ != f"attnorigin.{node.module}"):
                    misplaced.append((alias.name, node.module, value.__module__))
    assert misplaced == []
