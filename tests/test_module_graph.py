"""The module graph of ``src/cuelex`` follows its call graph.

A ``cuelex`` module that another one imports at module level must give it a
name that it uses outside annotations.  A module named only in annotations is
imported under ``typing.TYPE_CHECKING``; otherwise importing one module would
execute another that it never calls.  Re-exports are allowed: a name listed in
``__all__``, or an import marked ``# noqa: F401``.  The package imports its own
modules relatively (``from .x import y``), so only those imports are read.
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
