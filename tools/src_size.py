"""Print the lines and the AST statements of each module in src/cuelex, and their totals.

A statement is an ``ast.stmt`` node at any depth, so a compound statement
counts once and each statement in its body again.

    python tools/src_size.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cuelex"


def size(path: Path) -> tuple[int, int]:
    """(lines, statements) of one module."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    return len(text.splitlines()), sum(isinstance(n, ast.stmt) for n in ast.walk(tree))


def main() -> None:
    total_lines = total_stmts = 0
    for path in sorted(SRC.glob("*.py")):
        lines, stmts = size(path)
        total_lines, total_stmts = total_lines + lines, total_stmts + stmts
        print(f"{path.name:<16}{lines:>7}{stmts:>7}")
    print(f"{'total':<16}{total_lines:>7}{total_stmts:>7}")


if __name__ == "__main__":
    main()
