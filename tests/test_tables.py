"""The shared table format: round trips, ``#`` rows below the header, real line numbers."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuelex import tables
from cuelex.errors import InputError
from cuelex.expansion import read_pairs
from cuelex.graph import CueGraph, export_edge_tsv, export_node_tsv, load_graph_tsv
from cuelex.reduce import ScoreMatrix, load_score_matrix, write_score_matrix

ASTRAL = "\U0001d6fc"

# Any UTF-8 text a field can hold: no tab, and no character the reader takes as a line end.
field_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\t\n\r"), max_size=8
) | st.sampled_from(["#", "##th", "# x", "#hashtag", ASTRAL, "a" + ASTRAL, " ", ""])
# A row whose fields are all blank is skipped like a blank line, so the first
# field is never blank.
first_field = field_text.filter(lambda f: f.strip())


@st.composite
def tsv_tables(draw):
    width = draw(st.integers(1, 4))
    header = [draw(first_field)] + [draw(field_text) for _ in range(width - 1)]
    rows = draw(
        st.lists(
            st.tuples(first_field, *[field_text] * (width - 1)).map(list), max_size=6
        )
    )
    comment_text = st.text(st.characters(codec="utf-8", exclude_characters="\n\r"))
    comments = draw(st.lists(comment_text, max_size=3))
    return header, rows, comments


@settings(max_examples=200, deadline=None)
@given(tsv_tables())
def test_write_then_read_returns_the_same_table(tmp_path_factory, table):
    header, rows, comments = table
    if header[0].startswith("#"):  # a header cannot start with "#": it would be metadata
        header[0] = "h" + header[0]
    path = tmp_path_factory.mktemp("t") / "t.tsv"
    tables.write_tsv(path, header, rows, comments)
    got_header, got_rows = tables.read_tsv(path, header)
    assert got_header == tuple(header)
    assert [fields for _, fields in got_rows] == rows
    assert [n for n, _ in got_rows] == list(range(len(comments) + 2, len(comments) + 2 + len(rows)))


def test_cells_and_json_values():
    assert tables.cell(None) == ""
    assert tables.cell(math.inf) == "inf" and tables.cell(-math.inf, 3) == "-inf"
    assert tables.cell(0.5, 3) == "0.500" and tables.cell(np.float64(0.25), 2) == "0.25"
    assert tables.cell(("a", "b")) == "a;b" and tables.cell(7) == "7"
    assert tables.json_value(-math.inf) == "-inf" and tables.json_value(None) is None
    assert tables.json_value(("a", math.inf)) == ["a", "inf"]


def test_metadata_lines_only_above_the_header(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("# meta\n\n#more meta\nword\tn\n#x\t1\n\n# y\t2\n", encoding="utf-8")
    header, rows = tables.read_tsv(path)
    assert header == ("word", "n")
    assert rows == [(5, ["#x", "1"]), (7, ["# y", "2"])]


def test_reader_errors_name_the_file_line(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("# meta\nword\tn\na\t1\n\nb\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"t\.tsv:5: expected 2 fields, got 1"):
        tables.read_tsv(path)
    with pytest.raises(InputError, match=r"t\.tsv:2: expected thing header word/count"):
        tables.read_tsv(path, ("word", "count"), "thing")
    path.write_text("# only metadata\n", encoding="utf-8")
    with pytest.raises(InputError, match="has no header"):
        tables.read_tsv(path)
    with pytest.raises(InputError, match="thing file not found"):
        tables.read_tsv(tmp_path / "none.tsv", what="thing")


def test_pairs_error_reports_the_files_own_line_number(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text(
        "# cuelex 0.1.0\n# config: x\nseed\tcandidate\tsimilarity\tmodel\n"
        "s\tc\t0.5\tm\n\ns\td\tnot-a-number\tm\n",
        encoding="utf-8",
    )
    with pytest.raises(InputError, match=r"pairs\.tsv:6: non-numeric similarity"):
        read_pairs(path)


def test_graph_keeps_a_node_that_starts_with_hash(tmp_path):
    g = CueGraph()
    for word in ("seed", "#hashtag", "plain"):
        g.add_node(word, is_seed=word == "seed")
    g.add_edge("seed", "#hashtag", 0.5)
    g.add_edge("seed", "plain", 0.25)
    export_node_tsv(tmp_path / "n.tsv", g, header_lines=["meta"])
    export_edge_tsv(tmp_path / "e.tsv", g, header_lines=["meta"])
    g2, _, _ = load_graph_tsv(tmp_path / "n.tsv", tmp_path / "e.tsv")
    assert list(g2.nodes) == ["seed", "#hashtag", "plain"]
    assert g2.edges == g.edges


def test_non_numeric_graph_field_is_an_input_error_at_its_line(tmp_path):
    (tmp_path / "n.tsv").write_text("word\tseed\tstatus\tcommunity\tpagerank\na\t1\taccepted\t\t\n")
    (tmp_path / "e.tsv").write_text("# meta\nu\tv\tweight\n\na\ta\theavy\n")
    with pytest.raises(InputError, match=r"e\.tsv:4: non-numeric weight 'heavy'"):
        load_graph_tsv(tmp_path / "n.tsv", tmp_path / "e.tsv")


def test_score_matrix_keeps_a_row_that_starts_with_hash(tmp_path):
    m = ScoreMatrix(["#x", "y"], ["c1", "c2"], np.array([[0.5, 1.0], [2.0, 0.0]]))
    write_score_matrix(tmp_path / "m.tsv", m, header_lines=["meta"])
    loaded = load_score_matrix(tmp_path / "m.tsv")
    assert loaded.row_labels == ["#x", "y"]
    assert np.array_equal(loaded.values, m.values)


# --- the config digest and the JSON writer ---------------------------------


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300))
def test_the_digest_is_sha256(data):
    import hashlib  # the oracle: the package itself never maps OpenSSL

    assert tables.sha256_hex(data) == hashlib.sha256(data).hexdigest()


def dumped(doc) -> str:
    """``json.dump(doc, indent=2, sort_keys=True)`` and a newline, the writer's contract."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def written(tmp_path, doc) -> str:
    tables.write_json(tmp_path / "doc.json", doc)
    return (tmp_path / "doc.json").read_bytes().decode("utf-8")


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=5), json_values, max_size=4), st.data())
def test_write_json_writes_json_dump_bytes_whatever_the_top_level_lists(tmp_path_factory, doc,
                                                                         data):
    # each top-level list may come as a list, a tuple or a generator of its entries
    passed = {
        key: data.draw(st.sampled_from([list, tuple, iter]))(value) if isinstance(value, list)
        else value
        for key, value in doc.items()
    }
    assert written(tmp_path_factory.mktemp("json"), passed) == dumped(doc)


@pytest.mark.parametrize("doc", [
    {},
    {"meta": {}, "rows": []},
    {"rows": [{"word": "naïve", "sim": 0.5}, {"word": ASTRAL + "é"}], "meta": {"b": 1}},
    {"meta": {"version": "0.1.0", "nested": {"z": [1, {"y": [], "x": {}}], "a": None}},
     "candidates": [{"models": {"b": {"seeds": ["s"]}, "a": {"seeds": []}}}], "n": 2},
], ids=["empty", "empty-list", "non-ascii", "nested-meta"])
def test_write_json_streams_a_generator_list_as_json_dump_writes_the_list(tmp_path, doc):
    lists = [key for key, value in doc.items() if isinstance(value, list)]
    consumed = []

    def entries(key):
        for entry in doc[key]:
            consumed.append(entry)
            yield entry

    passed = {**doc, **{key: entries(key) for key in lists}}
    assert written(tmp_path, passed) == dumped(doc)
    assert consumed == [entry for key in sorted(lists) for entry in doc[key]]
