"""One fresh process of the benchmark: a traced command or a set-up probe.

    python bench/child.py trace SPANS.json -- <cuelex arguments>
    python bench/child.py setup LOADERS.json

``trace`` times the import of the ``cuelex`` command, wraps the program's
public functions (see ``spans.py``), runs ``cuelex.cli.main`` and writes the
spans as JSON; it exits with the command's status.  ``setup`` imports
the ``cuelex`` command and calls each [module, function, path] loader once;
the parent times the whole process.
"""

import importlib
import json
import sys
from dataclasses import asdict
from time import perf_counter


def trace(spans_path: str, argv: list[str]) -> int:
    start = perf_counter()
    import cuelex.cli

    import_s = perf_counter() - start
    import spans

    recorder = spans.Recorder()
    spans.install(recorder)
    code = cuelex.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": [asdict(s) for s in recorder.spans]}, fh)
    return code


def setup(loaders_path: str) -> int:
    import cuelex.cli  # noqa: F401  (the command imports every module; so does set-up)

    with open(loaders_path, encoding="utf-8") as fh:
        loaders = json.load(fh)
    for module, function, path in loaders:
        getattr(importlib.import_module(f"cuelex.{module}"), function)(path)
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "trace" and sys.argv[3] == "--":
        sys.exit(trace(sys.argv[2], sys.argv[4:]))
    if sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2]))
    sys.exit(f"usage: {__doc__}")
