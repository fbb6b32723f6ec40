import gc
import os
import random
import re
import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model, random_tokens
from w2v_writer import write_binary, write_text

from cuelex import classify, embeddings
from cuelex.embeddings import EmbeddingModel, StreamedModel, load_model, screen_slack, stream_model
from cuelex.errors import InputError
from cuelex.expansion import expand, parse_seed_lexicon


def brute_force_ranking(model, query, fold_case):
    """Full-scan neighbor ranking computed independently of top_k."""
    qi = model.vocab.index(query) if query in model.vocab else model.lookup(query)
    q = model.vectors[qi].astype(np.float64)
    q /= np.linalg.norm(q)
    scored = []
    for i, token in enumerate(model.vocab):
        v = model.vectors[i].astype(np.float64)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            continue
        if fold_case:
            if token.lower() == model.vocab[qi].lower():
                continue
        elif i == qi:
            continue
        scored.append((token, float(v / norm @ q)))
    scored.sort(key=lambda t: (-t[1], t[0]))
    if not fold_case:
        return scored
    deduped = []
    seen = set()
    for token, sim in scored:
        if token.lower() in seen:
            continue
        seen.add(token.lower())
        deduped.append((token, sim))
    return deduped


# --- loading ---------------------------------------------------------------


def streamed(path):
    """``stream_model(path)`` after it has read every row once, as a retrieval does."""
    model = stream_model(path)
    model.top_k_batch([], 1)
    return model


def stream_rows(model):
    """The tokens and the matrix bytes of a streamed model, read back through its blocks."""
    matrix = b"".join(vectors.tobytes() for _, vectors, _ in model._blocks())
    return model.tokens_of(range(len(model))), matrix


def read_binary_both(path):
    """The loaded and the streamed model of a binary file, or the one message both refuse it with.

    The streamed model's rows are checked against the loaded model's.
    """
    got = []
    for read in (lambda: load_model(path, "binary"), lambda: streamed(path)):
        try:
            got.append(read())
        except InputError as exc:
            got.append(str(exc))
    loaded, stream = got
    if isinstance(loaded, str) or isinstance(stream, str):
        assert loaded == stream
        return loaded
    assert stream_rows(stream) == (loaded.vocab, loaded.vectors.tobytes())
    return loaded, stream


def refusal(path) -> str:
    """The message with which both binary readers refuse ``path``."""
    message = read_binary_both(path)
    assert isinstance(message, str), "the file was read"
    return message


def test_minimal_binary_file(tmp_path):
    path = tmp_path / "min.bin"
    with open(path, "wb") as fh:
        fh.write(b"1 2\n")
        fh.write(b"a ")
        fh.write(struct.pack("<2f", 1.0, 0.0))
    model = load_model(path, "binary")
    assert model.vocab == ["a"]
    assert model.dim == 2
    assert model.vectors.tolist() == [[1.0, 0.0]]
    assert model.declared_vocab_size == 1


def test_binary_round_trip_bit_exact(tmp_path):
    rng = random.Random(42)
    tokens = random_tokens(rng, 100)
    vectors = np.array(
        [[rng.uniform(-5, 5) for _ in range(12)] for _ in range(100)], dtype=np.float32
    )
    path = tmp_path / "rt.bin"
    write_binary(path, tokens, vectors)
    model, _ = read_binary_both(path)
    assert model.vocab == tokens
    assert model.vectors.tobytes() == vectors.tobytes()


def test_binary_without_record_newlines(tmp_path):
    rng = random.Random(3)
    tokens = random_tokens(rng, 20)
    vectors = np.array([[rng.uniform(-1, 1)] * 4 for _ in range(20)], dtype=np.float32)
    path = tmp_path / "nolf.bin"
    write_binary(path, tokens, vectors, record_newlines=False)
    model, _ = read_binary_both(path)
    assert model.vocab == tokens
    assert model.vectors.tobytes() == vectors.tobytes()


def test_text_round_trip(tmp_path):
    rng = random.Random(9)
    tokens = random_tokens(rng, 30)
    vectors = np.array(
        [[rng.uniform(-2, 2) for _ in range(5)] for _ in range(30)], dtype=np.float32
    )
    for header in (True, False):
        path = tmp_path / f"rt_{header}.txt"
        write_text(path, tokens, vectors, header=header)
        model = load_model(path, "text")
        assert model.vocab == tokens
        assert model.vectors.tobytes() == vectors.tobytes()


def test_malformed_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a header\nxxxx")
    assert "header" in refusal(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.bin"
    with open(path, "wb") as fh:
        fh.write(b"1 4\n")
        fh.write(b"tok ")
        fh.write(struct.pack("<2f", 1.0, 2.0))  # 8 bytes where 16 are declared
    assert "truncated" in refusal(path)


def test_non_finite_value(tmp_path):
    path = tmp_path / "nan.bin"
    with open(path, "wb") as fh:
        fh.write(b"1 2\n")
        fh.write(b"tok ")
        fh.write(struct.pack("<2f", float("nan"), 1.0))
    assert "non-finite" in refusal(path)


def test_empty_after_filter(tmp_path):
    path = tmp_path / "small.bin"
    write_binary(path, ["a", "b"], np.ones((2, 2), dtype=np.float32))
    with pytest.raises(InputError, match="empty vocabulary"):
        load_model(path, "binary", vocab_filter={"zzz"})


def test_vocab_filter_case_insensitive_and_order(tmp_path):
    path = tmp_path / "filt.bin"
    tokens = ["Alpha", "beta", "Gamma", "delta"]
    write_binary(path, tokens, np.eye(4, dtype=np.float32))
    model = load_model(path, "binary", vocab_filter={"alpha", "delta"})
    assert model.vocab == ["Alpha", "delta"]


def test_duplicate_tokens_kept_first_with_warning(tmp_path):
    path = tmp_path / "dup.bin"
    vecs = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float32)
    write_binary(path, ["a", "b", "a"], vecs)
    with pytest.warns(UserWarning, match="duplicate"):
        model = load_model(path, "binary")
    assert model.vocab == ["a", "b"]
    assert model.vectors[0].tolist() == [1.0, 0.0]
    with pytest.warns(UserWarning, match="dropped 1 duplicate"):
        stream = streamed(path)
    assert stream_rows(stream) == (model.vocab, model.vectors.tobytes())


def test_duplicate_tokens_are_refused_naming_the_first_repeat():
    tokens = ["x", "Y", "y", "z", "z", "y"]  # "z" repeats first, at row 4
    with pytest.raises(InputError, match="duplicate tokens in vocabulary: 'z'"):
        EmbeddingModel("d", tokens, np.eye(6, dtype=np.float32))
    with pytest.raises(InputError, match="duplicate tokens in vocabulary: 'Y'"):
        EmbeddingModel("d", ["Y", "a", "y", "Y"], np.eye(4, dtype=np.float32))


def test_a_loaded_model_keeps_little_beyond_its_vectors(tmp_path):
    # tokens, the fold index, norms and scales; the model keeps the loader's list
    path = tmp_path / "mem.bin"
    tokens = random_tokens(random.Random(13), 20_000)
    vectors = np.random.default_rng(13).standard_normal((len(tokens), 8)).astype(np.float32)
    write_binary(path, tokens, vectors)
    gc.collect()
    tracemalloc.start()
    try:
        model = load_model(path, "binary")
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - model.vectors.nbytes
    finally:
        tracemalloc.stop()
    assert model.vocab == tokens
    assert retained / len(model) <= 200


def load_peak(path, format):
    """The loaded model, and the bytes its load held at its peak beyond the finished model."""
    gc.collect()
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the duplicate-token warning
            model = load_model(path, format)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return model, peak - held


@pytest.mark.parametrize("form", ["text", "binary with a duplicate"])
def test_a_model_load_holds_one_copy_of_the_matrix(tmp_path, form):
    # Measured against a plain binary load of the same vectors, whose own peak
    # holds the norms' block and the duplicate check's set: a second copy of
    # the matrix would add 1.0.
    tokens = random_tokens(random.Random(17), 2000)
    vectors = np.random.default_rng(17).standard_normal((len(tokens), 300)).astype(np.float32)
    write_binary(tmp_path / "plain.bin", tokens, vectors)
    path = tmp_path / "model"
    if form == "text":
        write_text(path, tokens, vectors)
    else:  # row 2 again, with other values, after row 4: every later row moves up one
        repeated = np.vstack([vectors[:5], -vectors[2:3], vectors[5:]])
        write_binary(path, [*tokens[:5], tokens[2], *tokens[5:]], repeated)
    _, plain = load_peak(tmp_path / "plain.bin", "binary")
    model, extra = load_peak(path, form.split()[0])
    assert model.vocab == tokens
    assert model.vectors.tobytes() == vectors.tobytes()
    assert (extra - plain) / vectors.nbytes <= 0.3


def test_invalid_utf8_tokens_are_an_error_at_their_offset(tmp_path):
    # two distinct undecodable tokens used to both become U+FFFD, and the
    # second was then dropped as a duplicate
    path = tmp_path / "bad.bin"
    write_binary(path, ["ok", b"\xff", b"\xfe"], np.eye(3, 2, dtype=np.float32))
    assert refusal(path).startswith("invalid UTF-8 in token at byte 16: ")


def test_empty_binary_model_is_an_input_error(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    assert refusal(path) == f"empty model file: {path}"


def test_header_larger_than_the_file_is_refused_before_allocating(tmp_path):
    path = tmp_path / "huge.bin"
    path.write_bytes(b"1000000000000 300\n" + b"a " + bytes(1200))
    message = refusal(path)
    assert message.startswith("header declares 1000000000000 records of dimension 300, ")
    assert message.endswith(f": {path}")


def test_binary_data_after_the_declared_records_is_refused(tmp_path):
    path = tmp_path / "extra.bin"
    write_binary(path, ["a", "b"], np.eye(2, dtype=np.float32))
    path.write_bytes(path.read_bytes().replace(b"2 2\n", b"1 2\n", 1))
    assert refusal(path) == f"data after the last declared record at byte 15: {path}"


def test_text_model_cut_inside_a_character_is_an_input_error(tmp_path):
    path = tmp_path / "cut.txt"
    write_text(path, ["a", "b\u00e9"], np.eye(2, dtype=np.float32))
    data = path.read_bytes()
    path.write_bytes(data[: data.index("\u00e9".encode()) + 1])
    with pytest.raises(InputError, match="invalid UTF-8 in text model: .*cut.txt"):
        load_model(path, "text")


def test_text_header_declaring_more_records_than_the_file_holds(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("5 3\na 1 2 3\n\n")
    with pytest.raises(InputError, match="declares 5 records, the file holds 1: .*short.txt"):
        load_model(path, "text")
    # lines parsed count, not rows kept by the vocabulary filter
    path.write_text("2 3\na 1 2 3\nb 4 5 6\n")
    assert load_model(path, "text", vocab_filter={"b"}).vocab == ["b"]
    # a superscript digit is a digit to str.isdigit but not to int()
    path.write_text("\u00b2 3\na 1 2 3\n")
    with pytest.raises(InputError, match="truncated vector payload for token 'a'"):
        load_model(path, "text")


def test_text_header_with_a_negative_count_is_malformed(tmp_path):
    # "-1 1" could be a headerless record of dimension 1, but it reads as a header
    path = tmp_path / "neg.txt"
    path.write_text("-1 1\n0 0.0\n")
    with pytest.raises(InputError, match="malformed header"):
        load_model(path, "text")


# --- loader fuzzing: every damaged file is an InputError or loads exactly -------------

W2V_TOKENS = st.lists(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=" \n\r"),
            min_size=1, max_size=4),
    min_size=1, max_size=4, unique=True,
)


@st.composite
def w2v_models(draw):
    tokens = draw(W2V_TOKENS)
    dim = draw(st.integers(1, 3))
    row = st.lists(st.floats(-(2.0**100), 2.0**100, width=32), min_size=dim, max_size=dim)
    rows = draw(st.lists(row, min_size=len(tokens), max_size=len(tokens)))
    return tokens, np.array(rows, dtype=np.float32)


def _load_or_refuse(path, fmt):
    """The loaded model, or None for an InputError; anything else propagates."""
    try:
        return load_model(path, fmt)
    except InputError:
        return None


@settings(max_examples=30, deadline=None)
@given(w2v_models(), st.integers(0, 2))
def test_binary_file_cut_at_every_offset(tmp_path_factory, model, newlines):
    tokens, vectors = model
    path = tmp_path_factory.mktemp("cut") / "m.bin"
    write_binary(path, tokens, vectors, record_newlines=newlines)
    data = path.read_bytes()
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        read = read_binary_both(path)  # the streamed reader agrees, rows or message
        assert not isinstance(read, str) or cut < len(data)
        if not isinstance(read, str):
            assert read[0].vocab == tokens
            assert read[0].vectors.tobytes() == vectors.tobytes()


@settings(max_examples=30, deadline=None)
@given(w2v_models(), st.sampled_from(["\n", "\n\n"]))
def test_text_file_cut_at_every_offset(tmp_path_factory, model, line_end):
    # a cut inside the last value can leave a shorter number, so only the
    # tokens are compared for a cut file; the whole file loads bit for bit
    tokens, vectors = model
    path = tmp_path_factory.mktemp("cut") / "m.txt"
    write_text(path, tokens, vectors, line_end=line_end)
    data = path.read_bytes()
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        loaded = _load_or_refuse(path, "text")
        assert loaded is not None or cut < len(data)
        if loaded is not None:
            assert loaded.vocab == tokens
    assert loaded.vectors.tobytes() == vectors.tobytes()


@settings(max_examples=60, deadline=None)
@given(w2v_models(), st.sampled_from(["binary", "text"]), st.integers(-2, 2), st.integers(-1, 1))
def test_header_that_disagrees_with_the_records_is_refused(
    tmp_path_factory, model, fmt, count_delta, dim_delta
):
    # a binary record has no delimiter after its payload, so a wrong dimension
    # can happen to parse; only the record count is varied there
    tokens, vectors = model
    if fmt == "binary":
        dim_delta = 0
    path = tmp_path_factory.mktemp("hdr") / "m"
    (write_binary if fmt == "binary" else write_text)(path, tokens, vectors)
    data = path.read_bytes()
    header = f"{len(tokens) + count_delta} {vectors.shape[1] + dim_delta}\n".encode()
    path.write_bytes(header + data[data.index(b"\n") + 1 :])
    if fmt == "binary":  # the streamed reader agrees, rows or message
        read_binary_both(path)
    loaded = _load_or_refuse(path, fmt)
    if count_delta or dim_delta:
        assert loaded is None
    else:
        assert loaded.vocab == tokens and loaded.vectors.tobytes() == vectors.tobytes()


def _float_text(x: float, style: int) -> str:
    return (repr(x), f"{x:.3e}", f"{x:g}", f"{x:.9f}", str(int(x)))[style]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(st.floats(-3e38, 3e38, allow_nan=False), st.integers(0, 4)),
            min_size=3, max_size=3,
        ),
        min_size=1, max_size=6,
    ),
    st.booleans(),
)
def test_text_rows_parse_like_float_by_float(tmp_path_factory, rows, header):
    texts = [[_float_text(x, style) for x, style in row] for row in rows]
    path = tmp_path_factory.mktemp("txt") / "m.txt"
    lines = [f"w{i} " + " ".join(row) for i, row in enumerate(texts)]
    path.write_text(("%d 3\n" % len(rows) if header else "") + "\n".join(lines) + "\n")
    want = np.array([[float(t) for t in row] for row in texts], dtype=np.float32)
    assert load_model(path, "text").vectors.tobytes() == want.tobytes()


@pytest.mark.parametrize("header, keep", [(True, None), (False, None), (True, 100)],
                         ids=["declared", "headerless", "filtered"])
def test_a_text_model_holds_its_rows_in_one_block_of_their_size(tmp_path, header, keep):
    tokens = random_tokens(random.Random(31), 500)
    vectors = np.random.default_rng(31).standard_normal((len(tokens), 300)).astype(np.float32)
    path = tmp_path / "m.txt"
    write_text(path, tokens, vectors)
    if not header:
        path.write_text(path.read_text().split("\n", 1)[1])
    vocab_filter = set(tokens[:keep]) if keep else None
    tracemalloc.start()
    try:
        model = load_model(path, "text", vocab_filter=vocab_filter)
        blocks = [trace.size for trace in tracemalloc.take_snapshot().traces]
    finally:
        tracemalloc.stop()
    assert model.vectors.tobytes() == vectors[: keep or len(tokens)].tobytes()
    # the largest block is the matrix, with no spare capacity for rows
    assert max(blocks) == model.vectors.nbytes


def test_text_value_errors(tmp_path):
    path = tmp_path / "m.txt"
    for value, message in (("1.5x", "malformed vector value for token 'b'"),
                           ("nan", "non-finite value in vector for token 'b'"),
                           ("-inf", "non-finite value in vector for token 'b'"),
                           ("1e39", "non-finite value in vector for token 'b'"),
                           ("-1e39", "non-finite value in vector for token 'b'")):
        path.write_text(f"2 2\na 1 2\nb 3 {value}\n")
        with pytest.raises(InputError, match=message):
            load_model(path, "text")


def test_load_idempotent(tmp_path):
    m1 = make_model(tmp_path, seed=5)
    m2 = make_model(tmp_path, seed=5)
    assert m1.vocab == m2.vocab
    assert m1.vectors.tobytes() == m2.vectors.tobytes()


# --- cosine ----------------------------------------------------------------


def test_cosine_self_is_one(toy_model):
    for token in toy_model.vocab[:10]:
        assert toy_model.cosine(token, token) == pytest.approx(1.0, abs=1e-6)


def test_cosine_orthogonal():
    model = EmbeddingModel("two", ["x", "y"], np.array([[1, 0], [0, 1]], dtype=np.float32))
    assert model.cosine("x", "y") == 0.0


def test_cosine_symmetry_exact(toy_model):
    rng = random.Random(0)
    for _ in range(50):
        a, b = rng.sample(toy_model.vocab, 2)
        assert toy_model.cosine(a, b) == toy_model.cosine(b, a)


def test_cosine_range(toy_model):
    rng = random.Random(1)
    for _ in range(50):
        a, b = rng.sample(toy_model.vocab, 2)
        assert -1.0 - 1e-12 <= toy_model.cosine(a, b) <= 1.0 + 1e-12


def test_cosine_oov_error(toy_model):
    with pytest.raises(InputError, match="not in vocabulary"):
        toy_model.cosine("definitely-not-a-token", toy_model.vocab[0])


def test_zero_vector_unusable():
    vecs = np.array([[1, 0], [0, 0], [0, 1]], dtype=np.float32)
    model = EmbeddingModel("z", ["a", "zero", "b"], vecs)
    assert not model.usable("zero")
    with pytest.raises(InputError, match="unusable"):
        model.cosine("a", "zero")
    names = [r.neighbor for r in model.top_k("a", 10)]
    assert "zero" not in names and names == ["b"]


def test_norms_match_recomputation(toy_model):
    recomputed = np.linalg.norm(toy_model.vectors.astype(np.float64), axis=1)
    assert np.allclose(toy_model.norms, recomputed, rtol=1e-5)


def test_norms_equal_one_row_at_a_time_bit_for_bit():
    # more than one norm block, with a partial last block
    n = 3 * embeddings.NORM_BLOCK_ROWS + 17
    vectors = np.random.default_rng(29).standard_normal((n, 300)).astype(np.float32)
    model = EmbeddingModel("blocks", [f"t{i}" for i in range(n)], vectors)
    rows = vectors.astype(np.float64)
    one_by_one = np.concatenate(
        [np.sqrt(np.einsum("ij,ij->i", rows[i : i + 1], rows[i : i + 1])) for i in range(n)]
    )
    assert model.norms.tobytes() == one_by_one.tobytes()


# --- top_k -----------------------------------------------------------------


def test_top_k_zero_is_empty(toy_model):
    assert toy_model.top_k(toy_model.vocab[0], 0) == []


def test_top_k_oov_error(toy_model):
    with pytest.raises(InputError, match="not in vocabulary"):
        toy_model.top_k("definitely-not-a-token", 5)


def test_a_batch_reads_its_queries_tokens_at_once_and_refuses_its_first_absent_query_first(
        tmp_path, monkeypatch):
    path = tmp_path / "m.bin"
    write_binary(path, ["a", "zero", "Zero", "b", "B"], [[1, 0], [0, 0], [0, 0], [0, 1], [1, 1]])
    for model in (load_model(path), stream_model(path)):
        calls, read = [], model.tokens_of
        monkeypatch.setattr(model, "tokens_of", lambda rows: calls.append(list(rows)) or read(rows))
        with pytest.raises(InputError, match="^token 'ghost' not in vocabulary of model 'm'$"):
            model.top_k_batch(["a", "zero", "ghost", "nope"], 1)
        assert calls == [[0, 1, 2]]  # the rows of every query's key, in one read
        with pytest.raises(InputError, match="^token 'Zero' has near-zero norm and is unusable$"):
            model.top_k_batch(["b", "Zero", "zero"], 1)


@pytest.mark.parametrize("fold_case", [False, True])
def test_top_k_matches_brute_force(tmp_path, fold_case):
    model = make_model(tmp_path, seed=11, n=100, dim=8, duplicates=5)
    rng = random.Random(7)
    queries = rng.sample(model.vocab, 20)
    for query in queries:
        oracle = brute_force_ranking(model, query, fold_case)
        for k in (1, 5, 50):
            got = model.top_k(query, k, fold_case=fold_case)
            want = oracle[:k]
            assert [r.neighbor for r in got] == [t for t, _ in want]
            for r, (_, sim) in zip(got, want):
                assert r.similarity == pytest.approx(sim, abs=1e-12)


def test_top_k_prefix_property(toy_model):
    rng = random.Random(2)
    for query in rng.sample(toy_model.vocab, 5):
        big = toy_model.top_k(query, 30)
        for k in (1, 3, 10):
            assert toy_model.top_k(query, k) == big[:k]


def test_top_k_sorted_and_excludes_query(toy_model):
    for query in toy_model.vocab[:5]:
        results = toy_model.top_k(query, 25)
        sims = [r.similarity for r in results]
        assert sims == sorted(sims, reverse=True)
        assert all(r.neighbor.lower() != query.lower() for r in results)


def test_top_k_fold_dedupes_keeping_max(tmp_path):
    tokens = ["query", "Word", "word", "other"]
    vecs = np.array(
        [[1.0, 0.0], [0.9, 0.1], [0.5, 0.5], [0.0, 1.0]], dtype=np.float32
    )
    path = tmp_path / "case.bin"
    write_binary(path, tokens, vecs)
    model = load_model(path, "binary")
    results = model.top_k("query", 10, fold_case=True)
    assert [r.neighbor for r in results] == ["Word", "other"]
    raw = model.top_k("query", 10, fold_case=False)
    assert [r.neighbor for r in raw] == ["Word", "word", "other"]


def test_top_k_requested_more_than_vocab(toy_model):
    results = toy_model.top_k(toy_model.vocab[0], 10_000)
    # every other usable lowercase key exactly once
    keys = {t.lower() for t in toy_model.vocab} - {toy_model.vocab[0].lower()}
    assert len(results) == len(keys)


def test_concurrent_top_k_reads(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    model = make_model(tmp_path, seed=44, n=120, dim=10)
    queries = model.vocab[:16]
    serial = {q: model.top_k(q, 12) for q in queries}
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(lambda q: (q, model.top_k(q, 12)), queries * 4))
    for q, result in concurrent:
        assert result == serial[q]


# --- the batched kernel: float32 screen, float64 rerank -------------------------


def assert_ranks_like_oracle(model, query, k, fold_case, got):
    """``got`` is an oracle top-k up to similarities within 1e-12 of each other."""
    full = brute_force_ranking(model, query, fold_case)
    key = (lambda t: t.lower()) if fold_case else (lambda t: t)
    assert len(got) == min(k, len(full))
    assert len({key(r.neighbor) for r in got}) == len(got)
    for r, (_, sim) in zip(got, full):
        assert r.similarity == pytest.approx(sim, abs=1e-12)
        assert key(r.neighbor) in {key(t) for t, s in full if abs(s - sim) <= 1e-12}
        # the reported value is the float64 dot product of the two unit rows
        assert r.similarity == model.cosine(query, r.neighbor, fold_case=False)


def case_variants(word, n):
    """The first ``n`` case variants of ``word``, one per bit mask of upper-case letters."""
    return [
        "".join(c.upper() if mask >> i & 1 else c for i, c in enumerate(word)) for mask in range(n)
    ]


@st.composite
def kernel_cases(draw):
    """Models that stress the screen's cut, and queries against them.

    Rows: exact duplicates, rows one float32 ulp apart, zero rows, rows near
    the unusable norm, rows of any float32 magnitude, and a run of up to 130
    case variants of one key around one row (which makes a folded query
    widen its cut).
    """
    dim = draw(st.integers(1, 6))
    value = st.floats(-4, 4, width=32)
    rows = [np.array(r, dtype=np.float32) for r in draw(
        st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=1, max_size=25))]
    kinds = st.sampled_from(["dup", "ulp", "zero", "tiny", "huge", "max"])
    sources = st.integers(0, len(rows) - 1)
    for kind, source in draw(st.lists(st.tuples(kinds, sources), max_size=15)):
        v = rows[source].copy()
        if kind == "ulp":
            c = draw(st.integers(0, dim - 1))
            v[c] = np.nextafter(v[c], np.float32(np.inf))
        scale = {"zero": 0.0, "tiny": 2.0**-40, "huge": 2.0**100}.get(kind, 1.0)
        rows.append(np.sign(v) * np.float32(3e38) if kind == "max" else v * np.float32(scale))
    tokens = [f"t{i}" for i in range(len(rows))]
    queries = draw(st.lists(st.sampled_from(tokens), min_size=1, max_size=4))
    run = draw(st.integers(0, 130))
    if run:
        center = draw(st.integers(0, len(rows) - 1))
        jitter = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(-2, 3, (run, dim))
        rows += list(rows[center] + np.float32(1e-3) * jitter.astype(np.float32))
        tokens += case_variants("abcdefgh", run)
        queries.append(tokens[center])
    model = EmbeddingModel("h", tokens, np.vstack(rows))
    queries = [q for q in queries if model.usable(q)]
    k = draw(st.sampled_from([0, 1, 2, 3, 5, len(tokens) - 1, len(tokens) + 3]))
    return model, queries, k, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(kernel_cases(), st.sampled_from([1, 3, 16, 2048]))
def test_batch_kernel_matches_brute_force(case, block_rows):
    model, queries, k, fold_case = case
    with mock.patch.object(embeddings, "BLOCK_ROWS", block_rows):
        got = model.top_k_batch(queries, k, fold_case)
        assert got == [model.top_k(q, k, fold_case) for q in queries]
    for query, result in zip(queries, got):
        assert_ranks_like_oracle(model, query, k, fold_case, result)


def test_folded_cut_widens_past_a_run_of_case_variants():
    variants = case_variants("abcdefg", 100)
    tokens = ["q", "x", "y", *variants]
    vecs = [[1.0, 0.0], [0.8, 0.6], [0.6, 0.8]] + [[1.0, 0.001 * i] for i in range(1, 101)]
    model = EmbeddingModel("run", tokens, np.array(vecs, dtype=np.float32))
    screen = EmbeddingModel._screen
    with mock.patch.object(EmbeddingModel, "_screen", autospec=True, side_effect=screen) as spy:
        got = model.top_k("q", 3)
    assert spy.call_count == 2  # cut 64 covers one key, cut 128 covers three
    assert [r.neighbor for r in got] == ["abcdefg", "x", "y"]
    assert_ranks_like_oracle(model, "q", 3, True, got)


class FoldReference:
    """Token lookup from a dict of rows and per-key row lists built with ``str.lower()``."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.row = {t: i for i, t in enumerate(tokens)}
        self.variants: dict[str, list[int]] = {}
        for i, t in enumerate(tokens):
            self.variants.setdefault(t.lower(), []).append(i)

    def lookup(self, token, fold_case):
        if token in self.row:
            return self.row[token]
        return self.variants.get(token.lower(), [None])[0] if fold_case else None

    def top_k(self, vectors, query, k, fold_case):
        """(neighbor, similarity) by a full float64 scan, deduplicated by key."""
        units = vectors.astype(np.float64)
        norms = np.linalg.norm(units, axis=1)
        qi = self.lookup(query, fold_case)
        excluded = self.variants[self.tokens[qi].lower()] if fold_case else [qi]
        scored = sorted(
            (-float(units[i] @ units[qi] / (norms[i] * norms[qi])), t)
            for i, t in enumerate(self.tokens)
            if norms[i] >= embeddings.MIN_USABLE_NORM and i not in excluded
        )
        out, seen = [], set()
        for neg, t in scored:
            key = t.lower() if fold_case else t
            if key not in seen:
                seen.add(key)
                out.append((t, -neg))
        return out[:k]


# Tokens whose lowercase is longer (İ), merges with another token (ẞ/ß, the
# Kelvin sign and k, Σ/σ) or depends on position (ΣΑΣ -> σας, final ς).
FOLD_TRAPS = ["İ", "i̇", "i", "I", "ı", "ẞ", "ß", "ss", "SS", "Σ", "σ", "ς", "ΣΑΣ", "σας",
              "σασ", "\u212a", "k", "K", "\u212aelvin", "kelvin", "KELVIN", "ǅ", "ǆ", "Ǆ"]


@st.composite
def fold_models(draw):
    """A model over fold traps, a run of up to 70 case variants and plain words."""
    pool = FOLD_TRAPS + case_variants("abcdefg", draw(st.integers(0, 70))) + ["w1", "W1", "w2"]
    tokens = draw(st.permutations(pool))[: draw(st.integers(1, len(pool)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.standard_normal((len(tokens), 4)).astype(np.float32)
    for i in draw(st.lists(st.integers(0, len(tokens) - 1), max_size=3)):
        vectors[i] = 0.0
    return tokens, vectors


@settings(max_examples=150, deadline=None)
@given(fold_models(), st.sampled_from([1, 2, 5, 200]))
def test_fold_index_matches_a_dict_of_rows(case, k):
    tokens, vectors = case
    model = EmbeddingModel("f", list(tokens), vectors)
    ref = FoldReference(tokens)
    usable = np.linalg.norm(vectors.astype(np.float64), axis=1) >= embeddings.MIN_USABLE_NORM
    probes = {p for t in tokens for p in (t, t.lower(), t.upper(), t.casefold(), t.swapcase())}
    probes |= {"absent", "ABSENT", ""}
    for fold_case in (True, False):
        for probe in sorted(probes):
            i = ref.lookup(probe, fold_case)
            assert model.usable(probe, fold_case) == (i is not None and bool(usable[i]))
            if i is None:
                with pytest.raises(InputError, match="not in vocabulary"):
                    model.lookup(probe, fold_case)
                continue
            assert model.lookup(probe, fold_case) == i
            assert model.vector(probe, fold_case).tobytes() == vectors[i].tobytes()
        queries = sorted(p for p in probes if model.usable(p, fold_case))[:8]
        for query, got in zip(queries, model.top_k_batch(queries, k, fold_case)):
            want = ref.top_k(vectors, query, k, fold_case)
            assert [r.neighbor for r in got] == [t for t, _ in want]
            for r, (_, sim) in zip(got, want):
                assert r.similarity == pytest.approx(sim, abs=1e-12)
    for probe in probes:
        assert (probe in model) == (probe in ref.row)
        assert model.usable(probe) == (probe in ref.row and bool(usable[ref.row[probe]]))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([1, 2, 7, 64, 300, 1000]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([2.0**-40, 1e-3, 1.0, 2.0**60, 2.0**120]),
    st.booleans(),
)
def test_screen_scores_stay_within_the_slack(dim, seed, magnitude, positive):
    # positive rows make long same-sign sums, where float32 rounding piles up
    rng = np.random.default_rng(seed)
    values = rng.random((200, dim)) if positive else rng.standard_normal((200, dim))
    vectors = (values * magnitude).astype(np.float32)
    vectors[1] = vectors[0] + rng.integers(0, 2, dim).astype(np.float32) * np.spacing(vectors[0])
    model = EmbeddingModel("s", [f"t{i}" for i in range(200)], vectors)
    q32 = (model.unit_rows([0]) * 2.0**-64).astype(np.float32)
    scale = (2.0**64 / np.maximum(model.norms, embeddings.MIN_USABLE_NORM)).astype(np.float32)
    screen = (model.vectors @ q32.T)[:, 0] * scale
    exact = np.array([np.dot(u, model.unit_rows([0])[0]) for u in model.unit_rows(slice(None))])
    usable = model.norms >= embeddings.MIN_USABLE_NORM
    assert np.all(np.abs(screen - exact)[usable] <= screen_slack(dim))


@pytest.mark.parametrize("fold_case", [False, True])
def test_cut_size_is_capped_at_the_usable_rows(tmp_path, fold_case):
    # k far past the vocabulary must not size the running top list by k
    model = make_model(tmp_path, seed=9, n=40, dim=5, duplicates=4)
    queries = model.vocab[:3]
    screen = EmbeddingModel._screen
    with mock.patch.object(EmbeddingModel, "_screen", autospec=True, side_effect=screen) as spy:
        got = model.top_k_batch(queries, 10**5, fold_case)
    assert all(call.args[3] <= len(model) for call in spy.call_args_list)
    for query, result in zip(queries, got):
        assert_ranks_like_oracle(model, query, 10**5, fold_case, result)


def test_expand_is_the_same_for_any_block_size(tmp_path):
    model = make_model(tmp_path, seed=8, n=300, dim=12, duplicates=10)
    lexicon = parse_seed_lexicon([t.lower() for t in model.vocab[:12]] + ["absentword"])
    runs = [expand(model, lexicon, k=7)]
    with mock.patch.object(embeddings, "BLOCK_ROWS", 16):
        runs.append(expand(model, lexicon, k=7))
    assert runs[0].pairs == runs[1].pairs
    assert runs[0].skipped == runs[1].skipped == [("absentword", "absentword")]


# --- the streamed model: the loaded model's answers from one block of rows at a time ---


def row_answers(model, probes, fold_case):
    """Each probe's ``vector`` and ``cosine`` with the next probe, or the message refusing
    it, then the ``unit_rows`` of every row, all as bytes."""
    answers = []
    for p, q in zip(probes, probes[1:] + probes[:1]):
        for call in (lambda: model.vector(p, fold_case), lambda: model.cosine(p, q, fold_case)):
            try:
                answers.append(np.asarray(call()).tobytes())
            except InputError as exc:
                answers.append(str(exc))
    return answers + [model.unit_rows(list(range(len(model)))).tobytes()]


@settings(max_examples=100, deadline=None)
@given(kernel_cases(), st.sampled_from([1, 3, 16, 2048]), st.sampled_from([5, 2048]),
       st.integers(0, 2), st.data())
def test_a_streamed_model_answers_as_the_loaded_one(tmp_path_factory, case, block_rows, screen_rows,
                                                    newlines, data):
    # block_rows: rows a streamed block reads; screen_rows: rows the screen takes at once
    model, queries, k, _ = case
    tokens = list(model.vocab)
    # rows repeated later in the file, with other values: both readers keep the first
    repeats = data.draw(st.lists(st.integers(0, len(tokens) - 1), max_size=3))
    path = tmp_path_factory.mktemp("stream") / "m.bin"
    write_binary(path, tokens + [tokens[i] for i in repeats],
                 np.vstack([model.vectors, model.vectors[repeats] + 1]), record_newlines=newlines)
    seeds = sorted({q.lower() for q in queries} | {"absent"})
    probes = sorted({p for q in queries + [tokens[0]] for p in (q, q.lower(), q.upper())})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the duplicate-token warning
        loaded = load_model(path, "binary")
        with mock.patch.object(embeddings, "NORM_BLOCK_ROWS", block_rows):
            stream = stream_model(path)
    assert loaded.vocab == tokens
    lexicon = parse_seed_lexicon(seeds)
    for fold_case in (True, False):
        assert [stream.usable(p, fold_case) for p in probes] == [
            loaded.usable(p, fold_case) for p in probes]
        with mock.patch.object(embeddings, "NORM_BLOCK_ROWS", block_rows), \
             mock.patch.object(embeddings, "BLOCK_ROWS", screen_rows):
            got = stream.top_k_batch(queries, k, fold_case)
            expanded = expand(stream, lexicon, k=max(k, 1), fold_case=fold_case)
            rows = row_answers(stream, probes, fold_case)
        assert got == loaded.top_k_batch(queries, k, fold_case)
        assert rows == row_answers(loaded, probes, fold_case)
        want = expand(loaded, lexicon, k=max(k, 1), fold_case=fold_case)
        assert (expanded.pairs, expanded.skipped) == (want.pairs, want.skipped)


def test_both_sources_supply_only_the_primitives_of_the_one_kernel():
    shared = {"vector", "vectors_of", "check_rows", "cosine", "unit_rows", "rows_of",
              "top_k_batch", "_screen", "_key_rows"}
    assert shared <= set(vars(embeddings._BlockSource))
    primitives = {"__init__", "__len__", "tokens_of", "_vectors", "_blocks"}
    streamed = primitives | {"_read"}
    for source, own in ((EmbeddingModel, primitives), (StreamedModel, streamed)):
        assert not shared & set(vars(source))
        assert {name for name, value in vars(source).items() if callable(value)} == own


def test_a_streamed_model_looks_up_any_token(tmp_path):
    path = tmp_path / "m.bin"
    write_binary(path, ["Alpha", "beta", "alpha"], np.eye(3, dtype=np.float32))
    stream = stream_model(path)
    assert stream.lookup("alpha") == 2 and stream.lookup("aLpHa") == 0 and stream.lookup("BETA") == 1
    assert "Alpha" in stream and "beta" in stream and not stream.usable("ALPHA")
    with pytest.raises(InputError, match="^token 'gamma' not in vocabulary of model 'm'$"):
        stream.lookup("gamma")


# tokens of few letters, so that case variants and absent probes are frequent; "İ" lowers
# to two characters, "K" (the Kelvin sign) to "k", and "ß" uppers to "SS"
case_tokens = st.text(alphabet="aAbBİiKkß", min_size=1, max_size=3)


def any_token_answers(model, probes, k):
    """Every answer ``model`` gives about ``probes``: rows, lookups, usability, vectors,
    cosines and top-k lists, a refusal as its message."""
    answers = [model.rows_of(probes, True), model.rows_of(probes, False)]
    for fold_case in (True, False):
        answers += [model.usable(p, fold_case) for p in probes]
        for p in probes:
            for call in (lambda: model.lookup(p, fold_case),
                         lambda: model.top_k(p, k, fold_case)):
                try:
                    answers.append(call())
                except InputError as exc:
                    answers.append(str(exc))
        answers += row_answers(model, probes, fold_case)
    return answers


@settings(max_examples=60, deadline=None)
@given(tokens=st.lists(case_tokens, min_size=1, max_size=20),
       absent=st.lists(case_tokens, max_size=4), k=st.integers(0, 4), data=st.data())
@pytest.mark.parametrize("hash_bits", [64, 4])
def test_a_streamed_model_answers_any_token_as_the_loaded_one(tmp_path_factory, hash_bits, tokens,
                                                              absent, k, data):
    # with 4-bit hashes most keys share their run of the index with other keys; a loaded
    # model under the 64-bit hash, where no two keys share one, is the reference
    rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                              min_size=len(tokens), max_size=len(tokens)))
    path = tmp_path_factory.mktemp("any") / "m.bin"
    write_binary(path, tokens, np.array(rows, dtype=np.float32))
    probes = sorted({p for t in tokens + absent for p in (t, t.lower(), t.upper())})
    bits = (lambda token: hash(token) & 15) if hash_bits == 4 else hash
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the duplicate-token warning
        want = any_token_answers(load_model(path), probes, k)
        with mock.patch.object(embeddings, "hash", bits, create=True):
            for model in (load_model(path), stream_model(path)):
                assert any_token_answers(model, probes, k) == want


def test_a_streamed_model_keeps_under_30_bytes_a_row_after_its_scan(tmp_path):
    tokens = random_tokens(random.Random(31), 20_000)
    path = tmp_path / "m.bin"
    write_binary(path, tokens, np.random.default_rng(31).standard_normal((len(tokens), 4)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = stream_model(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(model) == len(tokens)
    assert held <= 30 * len(tokens)  # two offsets and the key index: 28 B a row


@pytest.mark.parametrize("read", ["vector", "cosine", "usable", "top_k", "draw"])
def test_a_streamed_read_of_a_non_finite_row_refuses_the_file_as_load_model_does(tmp_path, read):
    path = tmp_path / "nan.bin"
    write_binary(path, ["a", "b", "c", "d"], [[1.0, 0.0], [0.0, 1.0], [float("nan"), 1.0],
                                              [1.0, float("inf")]])
    with pytest.raises(InputError) as refused:
        load_model(path)
    stream = stream_model(path)
    assert stream.lookup("d") == 3  # a lookup reads no vector
    calls = {"vector": lambda: stream.vector("d"), "cosine": lambda: stream.cosine("a", "d"),
             "usable": lambda: stream.usable("d"), "top_k": lambda: stream.top_k("a", 1),
             "draw": lambda: classify.draw_unrelated(stream, parse_seed_lexicon(["a"]), n=1)}
    with pytest.raises(InputError, match=f"^{re.escape(str(refused.value))}$"):
        calls[read]()


def sixty_seed_models(tmp_path, names):
    """A 60-seed lexicon, and a streamed model of one 3,000 x 16 file per name."""
    tokens = random_tokens(random.Random(29), 3000)
    vectors = np.random.default_rng(29).standard_normal((len(tokens), 16)).astype(np.float32)
    seeds = tokens[:60]
    models = []
    for name in names:
        write_binary(tmp_path / f"{name}.bin", tokens, vectors)
        models.append(stream_model(tmp_path / f"{name}.bin"))
    return parse_seed_lexicon(seeds), models


def test_a_streamed_model_keeps_nothing_of_an_expand(tmp_path):
    lexicon, (warm, model) = sixty_seed_models(tmp_path, ["warm", "m"])
    expand(warm, lexicon, k=10)  # the interpreter's own caches and free lists fill here
    gc.collect()
    tracemalloc.start()
    try:
        assert len(expand(model, lexicon, k=10).pairs) > 500
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 16 * 1024  # a token kept per row read would hold over 50 KiB


def test_a_streamed_query_reads_each_token_once(tmp_path, monkeypatch):
    lexicon, (model,) = sixty_seed_models(tmp_path, ["m"])
    query = lexicon.entries[0].model_forms[0]
    rows, read = [], model.tokens_of

    def tokens_of(some):
        rows.extend(some)
        return read(some)

    monkeypatch.setattr(model, "tokens_of", tokens_of)
    for k in (1, 10, 200):
        rows.clear()
        assert len(model.top_k(query, k)) == k
        assert len(rows) == len(set(rows)) > k


def spy_reads(monkeypatch, model, screens) -> dict:
    """The rows that ``tokens_of`` and ``_vectors`` of ``model`` read while ``screens`` is empty."""
    reads = {"tokens_of": [], "_vectors": []}
    for name in reads:
        def spy(rows, read=getattr(model, name), name=name):
            if not screens:
                reads[name].extend(rows)
            return read(rows)

        monkeypatch.setattr(model, name, spy)
    return reads


def key_and_form_rows(model, forms) -> tuple[list[int], list[int]]:
    """The rows of the forms' lowercase keys, and the forms' own rows, each sorted."""
    key_rows = sorted(i for form in forms for i in model._key_rows(form.lower()))
    return key_rows, sorted(model.lookup(form) for form in forms)


def test_an_expand_reads_each_seed_forms_tokens_and_vector_once_before_its_screen(
        tmp_path, monkeypatch):
    lexicon, (model,) = sixty_seed_models(tmp_path, ["m"])
    forms = [form for entry in lexicon for form in entry.model_forms]
    key_rows, form_rows = key_and_form_rows(model, forms)
    screens = []
    reads = spy_reads(monkeypatch, model, screens)
    blocks = model._blocks
    monkeypatch.setattr(model, "_blocks", lambda: screens.append(1) or blocks())
    expand(model, lexicon, k=10)
    assert screens
    assert sorted(reads["tokens_of"]) == key_rows  # each lookup's key rows, once
    assert sorted(reads["_vectors"]) == form_rows  # each usable check and query vector, once


def test_a_draw_reads_each_seed_forms_tokens_and_vector_once_before_its_first_screen(
        tmp_path, monkeypatch):
    lexicon, (model,) = sixty_seed_models(tmp_path, ["m"])
    forms = [form for entry in lexicon for form in entry.model_forms]
    key_rows, form_rows = key_and_form_rows(model, forms)
    screens, far_rows = [], classify._far_rows
    monkeypatch.setattr(classify, "_far_rows", lambda *args: screens.append(1) or far_rows(*args))
    reads = spy_reads(monkeypatch, model, screens)
    assert len(classify.draw_unrelated(model, lexicon, n=5, max_sim=0.9)) == 5
    assert screens
    assert sorted(reads["tokens_of"]) == key_rows  # each lookup's key rows, once
    assert sorted(reads["_vectors"]) == form_rows  # each usable check and seed vector, once


def test_a_cosine_reads_each_of_its_two_rows_once(tmp_path, monkeypatch):
    lexicon, (model,) = sixty_seed_models(tmp_path, ["m"])
    words = [entry.model_forms[0] for entry in lexicon.entries[:2]]
    key_rows, rows = key_and_form_rows(model, words)
    reads = spy_reads(monkeypatch, model, [])
    assert model.cosine(*words) == load_model(model.path).cosine(*words)
    assert sorted(reads["tokens_of"]) == key_rows
    assert sorted(reads["_vectors"]) == rows


@pytest.mark.parametrize("forms", [[], ["a"], ["b"]], ids=["no-form", "a-finite-form", "the-row"])
def test_a_streamed_model_refuses_a_non_finite_row_whatever_it_retrieves(tmp_path, forms):
    path = tmp_path / "nan.bin"
    write_binary(path, ["a", "b", "c"], [[1.0, 0.0], [float("inf"), 1.0], [0.0, 1.0]])
    lexicon = parse_seed_lexicon(forms or ["absent"])
    with pytest.raises(InputError, match="^non-finite value in vector for token 'b'$"):
        expand(stream_model(path), lexicon, k=1)


def changed_while_read(path) -> str:
    return f"^model file changed while it was read: {re.escape(str(path))}$"


@pytest.mark.parametrize("change", ["grow", "truncate", "touch"])
def test_a_streamed_model_refuses_a_file_changed_after_its_scan(tmp_path, change):
    path = tmp_path / "m.bin"
    write_binary(path, ["a", "b", "c", "d"], np.eye(4, dtype=np.float32) + 1)
    stream = stream_model(path)
    st = path.stat()
    if change == "grow":
        with open(path, "ab") as fh:
            fh.write(b"\n")
    elif change == "truncate":
        os.truncate(path, st.st_size - 4)
    else:
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    for read in (lambda: stream.top_k_batch([], 0),  # a screen: reads every block
                 lambda: stream.vector("a"),  # a row
                 lambda: stream.tokens_of([3])):  # a token
        with pytest.raises(InputError, match=changed_while_read(path)):
            read()


def test_a_streamed_model_refuses_a_read_that_comes_up_short(tmp_path):
    path = tmp_path / "m.bin"
    write_binary(path, ["a", "b", "c", "d"], np.eye(4, dtype=np.float32) + 1)
    stream = stream_model(path)
    os.truncate(path, path.stat().st_size - 4)
    st = path.stat()
    stream._stamp = (st.st_size, st.st_mtime_ns)  # as if cut after the check of the stamp
    assert stream.vector("a").tolist() == [2.0, 1.0, 1.0, 1.0]  # row 0 is whole
    with pytest.raises(InputError, match=changed_while_read(path)):
        stream.top_k_batch([], 0)  # the last block is cut


def test_the_duplicate_check_compares_tokens_whose_hashes_collide(tmp_path, monkeypatch):
    path = tmp_path / "dup.bin"
    tokens = ["a", "b", "a", "c", "b", "a"]
    write_binary(path, tokens, np.arange(1, 13, dtype=np.float32).reshape(6, 2))
    monkeypatch.setattr(embeddings, "hash", lambda token: 7, raising=False)  # every pair collides
    with pytest.warns(UserWarning, match="dropped 3 duplicate token"):
        loaded = load_model(path)
    with pytest.warns(UserWarning, match="dropped 3 duplicate token"):
        stream = streamed(path)
    assert loaded.vocab == ["a", "b", "c"]
    assert loaded.vectors.tolist() == [[1.0, 2.0], [3.0, 4.0], [7.0, 8.0]]
    assert stream_rows(stream) == (loaded.vocab, loaded.vectors.tobytes())


def test_the_duplicate_check_builds_no_set_of_the_vocabulary():
    tokens = random_tokens(random.Random(3), 50_000)
    hashes = np.fromiter(map(hash, tokens), np.int64, len(tokens))
    tracemalloc.start()
    try:
        assert len(embeddings._duplicate_rows(hashes, None, "m")) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(tokens) <= 12  # a sorted copy of the hashes; a set takes over 30 B a token


# --- public reference models (manual downloads; run when the env vars point at them)


@pytest.mark.skipif(
    not os.environ.get("CUELEX_GOOGLENEWS_MODEL"), reason="set CUELEX_GOOGLENEWS_MODEL to run"
)
def test_google_news_model_shape():
    model = load_model(
        os.environ["CUELEX_GOOGLENEWS_MODEL"], "binary", name="google-news",
        vocab_filter={"unknown", "knowledge"},
    )
    assert model.dim == 300
    assert model.declared_vocab_size == 3_000_000


@pytest.mark.skipif(
    not os.environ.get("CUELEX_PUBMED_MODEL"), reason="set CUELEX_PUBMED_MODEL to run"
)
def test_pubmed_inconsistent_neighbors():
    words = {"inconsistent", "contradicting", "consistent", "discrepant"}
    model = load_model(
        os.environ["CUELEX_PUBMED_MODEL"], "binary", name="pubmed", vocab_filter=words
    )
    assert model.dim == 200
    assert model.cosine("inconsistent", "contradicting") == pytest.approx(0.71122, abs=0.005)
    neighbors = {r.neighbor.lower(): r.similarity for r in model.top_k("inconsistent", 10)}
    assert neighbors["consistent"] == pytest.approx(0.664, abs=0.005)
    assert neighbors["discrepant"] == pytest.approx(0.617, abs=0.005)
