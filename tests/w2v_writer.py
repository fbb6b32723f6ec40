"""Independent word2vec file writers used as round-trip oracles.

Written directly from the byte layout: ASCII header "<vocab_size> <dim>\\n",
then per record the UTF-8 token, a single space, and dim little-endian
float32 values.  Deliberately shares no code with the package loader.
"""

import struct


def write_binary(path, tokens, vectors, record_newlines=True):
    """Classic binary layout; optionally terminate records with LF bytes.

    ``record_newlines`` is the number of LF bytes after each record (``True``
    is one).  A token given as ``bytes`` is written as is, so files with
    invalid UTF-8 can be built.
    """
    dim = len(vectors[0])
    with open(path, "wb") as fh:
        fh.write(f"{len(tokens)} {dim}\n".encode("ascii"))
        for token, vec in zip(tokens, vectors):
            fh.write((token if isinstance(token, bytes) else token.encode("utf-8")) + b" ")
            fh.write(struct.pack(f"<{dim}f", *[float(x) for x in vec]))
            fh.write(b"\n" * int(record_newlines))


def write_text(path, tokens, vectors, header=True, line_end="\n"):
    """One ``token v1 ... vdim`` line per record; a ``line_end`` of "\\n\\n" adds blank lines."""
    dim = len(vectors[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(f"{len(tokens)} {dim}\n")
        for token, vec in zip(tokens, vectors):
            fh.write(token + " " + " ".join(repr(float(x)) for x in vec) + line_end)
