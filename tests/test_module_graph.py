"""The module graph of ``src/cuelex`` follows its call graph.

A ``cuelex`` module that another one imports at module level must give it a
name that it uses outside annotations.  A module named only in annotations is
imported under ``typing.TYPE_CHECKING``; otherwise importing one module would
execute another that it never calls.  Re-exports are allowed: a name listed in
``__all__``, or an import marked ``# noqa: F401``.  The package imports its own
modules relatively (``from .x import y``), so only those imports are read.

No module reads another object's private state: an attribute whose name
starts with ``_`` is read only on ``self`` or ``cls``.

Only ``corpus`` reads a corpus's columns (``token_ids``, ``sent_offsets``,
``doc_offsets``, ``seg_index``, ``spans``, ``doc_texts``), so the map from
sentences to documents stays ``SentenceCorpus.doc_of``.

No module imports ``hashlib``, ``hmac``, ``secrets`` or ``ssl``: each maps
OpenSSL into the process (3.5 MiB of RSS) for every command that runs it.  The
one allowed import is a fallback in an ``except ImportError`` handler, taken
only where CPython's own SHA-256 module is missing.

The modules that ``agree``, ``graph``, ``cluster``, ``export`` and
``intersect`` execute import numpy only inside the functions that compute
arrays, so those commands never load it.
"""

import ast
from pathlib import Path

import pytest

import cuelex

PACKAGE = Path(cuelex.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _runtime_names(tree) -> set[str]:
    """The names loaded anywhere in ``tree`` but inside an annotation."""
    in_annotation = set()
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                in_annotation.update(map(id, ast.walk(annotation)))
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and id(n) not in in_annotation}


def type_only_imports(source: str) -> list[str]:
    """The ``cuelex`` modules imported at module level that supply no name used outside annotations."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _runtime_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            used |= set(ast.literal_eval(node.value))
    submodules = {path.stem for path in MODULES}
    supplies: dict[str, bool] = {}
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        reexport = "# noqa: F401" in "\n".join(lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names:
            module = node.module or (alias.name if alias.name in submodules else "__init__")
            name = alias.asname or alias.name
            supplies[module] = supplies.get(module, False) or reexport or name in used
    return sorted(module for module, ok in supplies.items() if not ok)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_cuelex_module_supplies_a_name_used_at_run_time(path):
    assert type_only_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_flags_a_module_named_only_in_annotations():
    header = "from __future__ import annotations\nfrom typing import TYPE_CHECKING\n"
    body = "def f(m: EmbeddingModel, n: int = 0) -> SeedLexicon:\n    x: SentenceCorpus = m\n    return x\n"
    typed = (
        "from .embeddings import EmbeddingModel\n"
        "from . import expansion\n"
        "from .corpus import SentenceCorpus, load_corpus\n"
        "SeedLexicon, LOADERS = expansion.SeedLexicon, (load_corpus,)\n"
    )
    assert type_only_imports(header + typed + body) == ["embeddings"]
    exempt = (
        "from .embeddings import EmbeddingModel  # noqa: F401\n"
        "from .corpus import SentenceCorpus\n"
        "__all__ = ['SentenceCorpus']\n"
        "if TYPE_CHECKING:\n    from .expansion import SeedLexicon\n"
    )
    assert type_only_imports(header + exempt + body) == []


def private_reads(source: str) -> list[int]:
    """Lines that name a ``_``-prefixed attribute of anything but ``self`` or ``cls``.

    Dunder names are public protocol, and ``os._exit`` is the one allowed call.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        owner = ast.unparse(node.value)
        dunder = node.attr.startswith("__") and node.attr.endswith("__")
        if not dunder and owner not in ("self", "cls") and f"{owner}.{node.attr}" != "os._exit":
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_reads_another_objects_private_state(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


def test_the_private_read_guard_flags_foreign_private_names_and_passes_own_ones():
    flagged = (
        "ok = model._usable[idx]\n"
        "rows = self.model._rows\n"
        "norms = embeddings._norms(v)\n"
        "f()._cache = {}\n"
        "sys._getframe(0)\n"
    )
    assert private_reads(flagged) == [1, 2, 3, 4, 5]
    allowed = (
        "ok = self._usable[idx]\n"
        "cls._cache = {}\n"
        "os._exit(0)\n"
        "name = type(model).__name__\n"
        "ok = model.usable(word)\n"
    )
    assert private_reads(allowed) == []


CORPUS_COLUMNS = {"token_ids", "sent_offsets", "doc_offsets", "seg_index", "spans", "doc_texts"}


def column_reads(source: str) -> list[int]:
    """Lines that name a corpus column attribute of any object."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in CORPUS_COLUMNS
    )


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "corpus.py"],
                         ids=lambda path: path.name)
def test_only_corpus_reads_the_corpus_columns(path):
    assert column_reads(path.read_text(encoding="utf-8")) == []


def test_the_column_guard_flags_every_column_read_and_passes_the_corpus_api():
    flagged = (
        "docs = corpus.doc_offsets.searchsorted(ids)\n"
        "ids = self.corpus.token_ids[a:b]\n"
        "n = len(c.sent_offsets), c.seg_index\n"
        "text = corpus.doc_texts[d][slice(*corpus.spans[s])]\n"
    )
    assert column_reads(flagged) == [1, 2, 3, 3, 4, 4]
    allowed = (
        "docs = corpus.doc_of(ids)\n"
        "n = corpus.n_sentences + corpus.n_documents\n"
        "spans = [(0, 1)]\n"
        "def f(doc_offsets, token_ids=None):\n    return doc_offsets\n"
        "name = 'doc_offsets'\n"
    )
    assert column_reads(allowed) == []


OPENSSL_MODULES = {"hashlib", "hmac", "secrets", "ssl"}


def openssl_imports(source: str) -> list[int]:
    """Lines that import a module mapping OpenSSL, but in an ``except ImportError`` handler."""
    tree = ast.parse(source)
    fallback = {
        id(node)
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler)
        and handler.type is not None and ast.unparse(handler.type) == "ImportError"
        for node in ast.walk(handler)
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        banned = any(name.split(".")[0] in OPENSSL_MODULES for name in names)
        if banned and id(node) not in fallback:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_openssl(path):
    assert openssl_imports(path.read_text(encoding="utf-8")) == []


def test_the_openssl_guard_flags_every_import_but_an_import_error_fallback():
    flagged = (
        "import hashlib\n"
        "import os, hmac\n"
        "from secrets import token_hex\n"
        "def f():\n    import ssl\n"
        "try:\n    import _sha256\nexcept ValueError:\n    import hashlib\n"
    )
    assert openssl_imports(flagged) == [1, 2, 3, 5, 9]
    allowed = (
        "try:\n    from _sha2 import sha256\nexcept ImportError:\n"
        "    from hashlib import sha256\n"
        "import hashlibx\n"
        "from .ssl import x\n"
    )
    assert openssl_imports(allowed) == []


READERS = {"load_model", "stream_model"}


def reader_references(source: str) -> list[int]:
    """Lines that name ``load_model`` or ``stream_model``, or call ``StreamedModel``.

    Every command opens a model through ``embeddings.open_model``, which picks
    the reader by the model's format, so only ``embeddings`` names a reader.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            named = name == "StreamedModel"
        else:
            named = {getattr(node, field, None) for field in ("id", "attr", "name")} & READERS
        if named:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "embeddings.py"],
                         ids=lambda path: path.name)
def test_only_embeddings_names_a_model_reader(path):
    assert reader_references(path.read_text(encoding="utf-8")) == []


def test_the_reader_guard_flags_every_reference_but_open_model_and_type_names():
    flagged = (
        "model = embeddings.load_model(path)\n"
        "from .embeddings import stream_model\n"
        "read = stream_model\n"
        "model = StreamedModel(path)\n"
        "model = embeddings.StreamedModel(path, name=name)\n"
    )
    assert reader_references(flagged) == [1, 2, 3, 4, 5]
    allowed = (
        "model = embeddings.open_model(path, fmt, name=name)\n"
        "def f(model: StreamedModel | EmbeddingModel) -> StreamedModel:\n    return model\n"
        "reader = 'load_model'\n"
        "load_models = []\n"
    )
    assert reader_references(allowed) == []


NUMPY_FREE = ("cli", "errors", "patterns", "tables", "workers", "agreement", "graph", "expansion")


def module_level_numpy_imports(source: str) -> list[int]:
    """Lines that import numpy, or a module of it, outside every function body."""
    tree = ast.parse(source)
    in_function = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names) and id(node) not in in_function:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_no_module_of_the_array_free_commands_imports_numpy_at_module_level(name):
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    assert module_level_numpy_imports(source) == []


def test_the_numpy_guard_flags_every_import_outside_a_function():
    flagged = (
        "import numpy as np\n"
        "import os, numpy\n"
        "from numpy.lib import format\n"
        "try:\n    import numpy.random\nexcept ImportError:\n    pass\n"
        "class C:\n    import numpy\n"
    )
    assert module_level_numpy_imports(flagged) == [1, 2, 3, 5, 9]
    allowed = (
        "def f():\n    import numpy as np\n    return np\n"
        "async def g():\n    from numpy import zeros\n"
        "class C:\n    def m(self):\n        import numpy\n"
        "import numpyx\n"
        "from .numpy import x\n"
    )
    assert module_level_numpy_imports(allowed) == []
