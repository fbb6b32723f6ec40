"""The on-disk table format shared by every TSV and JSON artifact.

A TSV table is zero or more ``# `` metadata lines, one header row, then one
row of tab-separated fields per record.  ``#`` marks metadata only above the
header: below it every line is a row, whatever its first character
(GoogleNews spells digits as ``#``, so ``##th`` is a word).  Blank lines are
skipped anywhere.  A tab, CR or LF inside a field is written as one space.
JSON documents are written with sorted keys and two-space indentation.
Infinite floats are spelled ``inf``/``-inf`` in both.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from .errors import InputError

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


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, what: str):
    path = Path(path)
    if not path.is_file():
        raise InputError(f"{what} file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON ({exc})") from None


def read_tsv(path, header=None, what: str = "table"):
    """``(header, rows)`` of a TSV table; each row is ``(line number in the file, fields)``.

    When ``header`` is given the file's header must equal it.  Every row must
    have as many fields as the header.  ``what`` names the table in errors.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"{what} file not found: {path}")
    found = None
    rows = []
    with open(path, encoding="utf-8") as fh:
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
