"""The on-disk table format shared by every TSV and JSON artifact.

A TSV table is zero or more ``# `` metadata lines, one header row, then one
row of tab-separated fields per record.  ``#`` marks metadata only above the
header: below it every line is a row, whatever its first character
(GoogleNews spells digits as ``#``, so ``##th`` is a word).  Blank lines are
skipped anywhere.  A tab, CR or LF inside a field is written as one space.
JSON documents are written with sorted keys and two-space indentation.
Infinite floats are spelled ``inf``/``-inf`` in both.  Each artifact's config
digest is the start of a SHA-256 (``sha256_hex``).

Every text file the toolkit reads, tables or not, is found, opened and decoded
by ``open_text``: a missing file, a path that is not a file (a directory) and
a file that is not UTF-8 are input errors that name it.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from .errors import InputError

# CPython's own SHA-256.  hashlib would map OpenSSL into every command (3.5 MiB
# of RSS) for a few short digests.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # up to 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

_SEPARATORS = str.maketrans("\t\r\n", "   ")

# A comment, in seed files and word lists: "#" at the start of the line or
# after whitespace, followed by whitespace or the line end ("##th" is a word).
COMMENT = re.compile(r"(?:^|(?<=\s))#(?=\s|$).*", re.DOTALL)


def cell(value, decimals: int = 6) -> str:
    """One TSV field: None is empty, floats get ``decimals`` places, sequences join with ';'."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.{decimals}f}"
    if isinstance(value, (list, tuple)):
        return ";".join(cell(v, decimals) for v in value)
    return str(value)


def json_value(value):
    """A JSON-safe value: infinite floats become "inf"/"-inf", sequences become lists."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, (list, tuple)):
        return [json_value(v) for v in value]
    return value


def write_tsv(path, header, rows, comments=()) -> None:
    """Metadata lines, the header, then one line per row of ``str(cell)`` fields."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(str(c).translate(_SEPARATORS) for c in row) + "\n")


def sha256_hex(data: bytes) -> str:
    """The SHA-256 of ``data``, as 64 lowercase hex digits."""
    return _sha256(data).hexdigest()


def _json_text(value, depth: int) -> str:
    """``value`` as ``json.dump(indent=2, sort_keys=True)`` writes it ``depth`` levels deep.

    A JSON string holds no raw newline, so indenting every line nests the value.
    """
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def write_json(path, doc: dict) -> None:
    """``doc`` (string keys) as ``json.dump(doc, indent=2, sort_keys=True)``, and a newline.

    A top-level value that is a list or an iterator is written as a list one
    entry at a time, so a caller may pass a generator and never hold every
    entry.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        lead = "{"
        for key in sorted(doc):
            fh.write(f"{lead}\n  {json.dumps(key)}: ")
            lead, value = ",", doc[key]
            if not isinstance(value, (list, Iterator)):
                fh.write(_json_text(value, 1))
                continue
            opened = False
            for entry in value:
                fh.write(f"{',' if opened else '['}\n    {_json_text(entry, 2)}")
                opened = True
            fh.write("\n  ]" if opened else "[]")
        fh.write("{}\n" if lead == "{" else "\n}\n")


def find_file(path, what: str) -> Path:
    """``path`` as a ``Path``; a missing path, or one that is not a file, is an input error."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"{what} is not a file: {path}" if path.exists()
                         else f"{what} file not found: {path}")
    return path


@contextmanager
def open_text(path, what: str, newline=None):
    """``path`` opened as UTF-8; a byte that is not UTF-8, read in the block, is an input error."""
    path = find_file(path, what)
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise InputError(f"invalid UTF-8 in {what}: {path}") from None


def read_text(path, what: str) -> str:
    with open_text(path, what) as fh:
        return fh.read()


def read_json(path, what: str):
    with open_text(path, what) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{fh.name}: invalid JSON ({exc})") from None


def read_tsv(path, header=None, what: str = "table"):
    """``(header, rows)`` of a TSV table; each row is ``(line number in the file, fields)``.

    When ``header`` is given the file's header must equal it.  Every row must
    have as many fields as the header.  ``what`` names the table in errors.
    """
    path = Path(path)
    found = None
    rows = []
    with open_text(path, what) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip() or (found is None and line.startswith("#")):
                continue
            fields = line.rstrip("\n").split("\t")
            if found is None:
                found = tuple(fields)
                if header is not None and found != tuple(header):
                    raise InputError(f"{path}:{lineno}: expected {what} header {'/'.join(header)}")
            elif len(fields) != len(found):
                got = len(fields)
                raise InputError(f"{path}:{lineno}: expected {len(found)} fields, got {got}")
            else:
                rows.append((lineno, fields))
    if found is None:
        raise InputError(f"{what} file has no header: {path}")
    return found, rows


def number(cast, text: str, what: str, path, lineno: int):
    """``cast(text)``; text that is not a number is an input error at ``path:lineno``."""
    try:
        return cast(text)
    except ValueError:
        raise InputError(f"{path}:{lineno}: non-numeric {what} {text!r}") from None
