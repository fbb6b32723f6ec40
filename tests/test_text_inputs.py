"""Only ``tables`` opens a text file for reading.

Every outside text file is found, opened and decoded by ``tables.open_text``,
so a missing file and a file that is not UTF-8 are input errors worded the
same way for every input.  This guard reads each other module of
``src/cuelex`` and flags three things: an ``open`` whose mode reads text, a
``read_text`` call on a path, and a "file not found" message of its own.
Binary opens are allowed, write-only opens are allowed, and so is the
bundled seed list, which ``importlib.resources`` reads from the package.
"""

import ast
import re
from pathlib import Path

import pytest

import cuelex

PACKAGE = Path(cuelex.__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "tables.py")
MODE = re.compile(r"[rwxabt+U]+")


def _mode(call: ast.Call):
    """The mode string of an ``open`` call: "r" when none is given, None when it is not a literal."""
    given = [kw.value for kw in call.keywords if kw.arg == "mode"] or [
        arg for arg in call.args if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        and MODE.fullmatch(arg.value)
    ]
    if not given:
        return "r"
    value = given[0]
    return value.value if isinstance(value, ast.Constant) and isinstance(value.value, str) else None


def _bundled(node) -> bool:
    """Whether ``node`` reads through ``resources.files(...)``: a package resource, not a path."""
    return any(
        isinstance(n, ast.Attribute) and n.attr == "files"
        and isinstance(n.value, ast.Name) and n.value.id == "resources"
        for n in ast.walk(node)
    )


def text_reads(source: str) -> list[int]:
    """The lines of ``source`` that read a text file, or word a "file not found", outside ``tables``."""
    flagged = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "file not found" in node.value:
                flagged.add(node.lineno)
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            mode = _mode(node)
            if mode is None or ("b" not in mode and ("r" in mode or "+" in mode)):
                flagged.add(node.lineno)
        elif name == "read_text" and isinstance(func, ast.Attribute):
            receiver = func.value
            if not (isinstance(receiver, ast.Name) and receiver.id == "tables"):
                if not _bundled(receiver):
                    flagged.add(node.lineno)
    return sorted(flagged)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_but_tables_reads_a_text_file(path):
    assert text_reads(path.read_text(encoding="utf-8")) == []


def test_the_guard_flags_a_text_read_and_passes_binary_and_bundled_reads():
    flagged = (
        "fh = open(path)\n"
        "fh = open(path, encoding='utf-8', newline='')\n"
        "fh = open(path, 'r+b' if x else 'r')\n"
        "fh = Path(path).open()\n"
        "fh = open(path, mode='rt')\n"
        "text = Path(path).read_text(encoding='utf-8')\n"
        "raise InputError(f'{what} file not found: {path}')\n"
    )
    assert text_reads(flagged) == [1, 2, 3, 4, 5, 6, 7]
    allowed = (
        "fh = open(path, 'rb')\n"
        "fh = open(path, 'w', encoding='utf-8')\n"
        "fh = Path(path).open('ab')\n"
        "text = resources.files('cuelex.data').joinpath('seeds.txt').read_text('utf-8')\n"
        "text = tables.read_text(path, 'words')\n"
        "with tables.open_text(path, 'corpus') as fh:\n    pass\n"
        "raise InputError(f'corpus directory not found: {path}')\n"
    )
    assert text_reads(allowed) == []
