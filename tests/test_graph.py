import itertools
import random
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuelex.errors import CuelexError, InputError
from cuelex.expansion import CandidatePair, parse_seed_lexicon
from cuelex.graph import (
    CueGraph,
    Partition,
    build,
    composition,
    export_edge_tsv,
    export_gexf,
    export_node_tsv,
    format_label,
    load_graph_tsv,
    louvain,
    modularity,
    pagerank,
    singleton_partition,
)


def graph_from_edges(edges, extra_nodes=()):
    g = CueGraph()
    for u, v, *w in edges:
        for node in (u, v):
            if node not in g.nodes:
                g.add_node(node)
        g.add_edge(u, v, w[0] if w else 1.0)
    for node in extra_nodes:
        if node not in g.nodes:
            g.add_node(node)
    return g


def two_triangles():
    return graph_from_edges(
        [("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")]
    )


def all_partitions(items):
    """Every partition of items (Bell-number enumeration)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [block + [first]] + smaller[i + 1 :]
        yield smaller + [[first]]


# --- build -------------------------------------------------------------------


def pair(seed, cand, sim, model="m"):
    return CandidatePair(seed, cand, sim, model)


def test_build_max_weight_dedupe():
    lex = parse_seed_lexicon(["s"])
    g = build([pair("s", "a", 0.7), pair("s", "a", 0.6)], lex)
    assert g.n_edges == 1
    assert g.edges[("a", "s")] == pytest.approx(0.7)


def test_build_no_pairs_seeds_only():
    lex = parse_seed_lexicon(["s1", "s2"])
    g = build([], lex)
    assert sorted(g.nodes) == ["s1", "s2"]
    assert g.n_edges == 0
    assert all(n.is_seed for n in g.nodes.values())


def test_build_counts_match_enumeration():
    lex = parse_seed_lexicon(["s1", "s2"])
    pairs = [
        pair("s1", "a", 0.9),
        pair("s1", "b", 0.8),
        pair("s2", "a", 0.7),
        pair("s2", "s1", 0.6),  # seed-to-seed edge
        pair("s1", "a", 0.5),  # duplicate, lower weight
    ]
    g = build(pairs, lex, statuses={"a": "accepted", "b": "rejected"})
    # union of seed surfaces and pair candidates, enumerated by hand
    assert sorted(g.nodes) == ["a", "b", "s1", "s2"]
    assert g.n_edges == 4  # s1-a, s1-b, s2-a, s1-s2
    assert g.edges[("a", "s1")] == pytest.approx(0.9)
    assert g.nodes["a"].status == "accepted"
    assert g.nodes["b"].status == "rejected"
    assert not g.nodes["a"].is_seed and g.nodes["s1"].is_seed


def test_build_rejects_empty_token():
    lex = parse_seed_lexicon(["s"])
    bad = CandidatePair.__new__(CandidatePair)  # dodge the dataclass validation
    for name, value in (("seed", ""), ("candidate", "x"), ("similarity", 0.5), ("model_name", "m")):
        object.__setattr__(bad, name, value)
    with pytest.raises(InputError, match="empty token"):
        build([bad], lex)


def test_build_idempotent():
    lex = parse_seed_lexicon(["s1", "s2"])
    pairs = [pair("s1", "a", 0.9), pair("s2", "b", 0.4)]
    g1 = build(pairs, lex)
    g2 = build(pairs, lex)
    assert list(g1.nodes) == list(g2.nodes)
    assert g1.edges == g2.edges


def test_add_edge_validation():
    g = graph_from_edges([("a", "b")])
    with pytest.raises(InputError, match="self-loop"):
        g.add_edge("a", "a", 0.5)
    with pytest.raises(InputError, match="weight"):
        g.add_edge("a", "b", 0.0)
    with pytest.raises(InputError, match="weight"):
        g.add_edge("a", "b", 1.5)


@pytest.mark.parametrize("call, message", [
    (lambda: CueGraph().add_node(""), "empty node word"),
    (lambda: CueGraph().add_node("a", status="maybe"), "unknown status 'maybe'"),
    (lambda: build([], parse_seed_lexicon(["s"]), statuses={"a": "maybe"}),
     "unknown status 'maybe' for word 'a'"),
    (lambda: modularity(two_triangles(), Partition({"a": 0, "b": 0})), "partition misses nodes"),
    (lambda: pagerank(CueGraph()), "pagerank of an empty graph"),
    (lambda: pagerank(graph_from_edges([("a", "b")]), damping=1.0), "damping must be in"),
], ids=["empty word", "node status", "build status", "partial partition", "empty pagerank",
        "damping 1"])
def test_a_graph_operation_refuses_a_bad_argument(call, message):
    with pytest.raises(InputError, match=message):
        call()


def test_add_node_refuses_a_word_already_present():
    g = CueGraph()
    g.add_node("a", is_seed=True, status="accepted")
    with pytest.raises(InputError, match="'a' is already a node"):
        g.add_node("a", status="rejected")
    assert g.nodes["a"].is_seed and g.nodes["a"].status == "accepted"


# --- modularity ----------------------------------------------------------------


def test_modularity_single_community_zero():
    g = two_triangles()
    part = Partition({n: 0 for n in g.nodes})
    assert modularity(g, part) == pytest.approx(0.0, abs=1e-12)


def test_modularity_two_triangles_half():
    g = two_triangles()
    part = Partition({n: (0 if n in "abc" else 1) for n in g.nodes})
    assert modularity(g, part) == pytest.approx(0.5, abs=1e-12)


def test_modularity_two_node_singletons():
    g = graph_from_edges([("a", "b")])
    part = Partition({"a": 0, "b": 1})
    assert modularity(g, part) == pytest.approx(-0.5, abs=1e-12)


def test_modularity_relabel_invariance():
    g = two_triangles()
    p1 = Partition({n: (0 if n in "abc" else 1) for n in g.nodes})
    p2 = Partition({n: (7 if n in "abc" else 3) for n in g.nodes})
    assert modularity(g, p1) == pytest.approx(modularity(g, p2))


def test_modularity_edgeless_graph_error():
    g = CueGraph()
    g.add_node("a")
    with pytest.raises(InputError, match="edgeless"):
        modularity(g, Partition({"a": 0}))


# --- louvain ---------------------------------------------------------------


def test_louvain_two_triangles():
    g = two_triangles()
    part = louvain(g, rng_seed=3)
    assert part.n_communities() == 2
    assert len({part["a"], part["b"], part["c"]}) == 1
    assert len({part["x"], part["y"], part["z"]}) == 1


def test_louvain_deterministic():
    g = two_triangles()
    a = louvain(g, rng_seed=11)
    b = louvain(g, rng_seed=11)
    assert a.communities == b.communities


def test_louvain_never_merges_components():
    rng = random.Random(5)
    for trial in range(5):
        edges = []
        for prefix, size in (("l", 6), ("r", 5)):
            nodes = [f"{prefix}{i}" for i in range(size)]
            for u, v in itertools.combinations(nodes, 2):
                if rng.random() < 0.5:
                    edges.append((u, v, rng.uniform(0.1, 1.0)))
            # ensure connectivity inside the component
            for i in range(size - 1):
                edges.append((nodes[i], nodes[i + 1], 0.9))
        g = graph_from_edges(edges)
        part = louvain(g, rng_seed=trial)
        left = {part[n] for n in g.nodes if n.startswith("l")}
        right = {part[n] for n in g.nodes if n.startswith("r")}
        assert left.isdisjoint(right)


def test_louvain_reaches_brute_force_optimum_range():
    rng = random.Random(17)
    for trial in range(4):
        nodes = [f"n{i}" for i in range(8)]
        edges = []
        for u, v in itertools.combinations(nodes, 2):
            if rng.random() < 0.35:
                edges.append((u, v, rng.uniform(0.2, 1.0)))
        if not edges:
            continue
        g = graph_from_edges(edges, extra_nodes=nodes)
        part = louvain(g, rng_seed=trial)
        q = modularity(g, part)
        q_singletons = modularity(g, singleton_partition(g))
        best = max(
            modularity(g, Partition({n: i for i, block in enumerate(p) for n in block}))
            for p in all_partitions(nodes)
        )
        assert q >= q_singletons - 1e-12
        assert q <= best + 1e-12
        assert part.modularity_trace == sorted(part.modularity_trace)


def test_louvain_trace_non_decreasing():
    rng = random.Random(23)
    nodes = [f"n{i}" for i in range(14)]
    edges = [
        (u, v, rng.uniform(0.1, 1.0))
        for u, v in itertools.combinations(nodes, 2)
        if rng.random() < 0.3
    ]
    g = graph_from_edges(edges, extra_nodes=nodes)
    part = louvain(g, rng_seed=2)
    trace = part.modularity_trace
    assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
    assert modularity(g, part) >= modularity(g, singleton_partition(g)) - 1e-12


def test_louvain_edgeless_error():
    g = CueGraph()
    g.add_node("only")
    with pytest.raises(InputError):
        louvain(g)


@pytest.mark.parametrize("resolution", [-2.0, -1e-9, float("nan")])
def test_louvain_refuses_a_negative_resolution(resolution):
    g = graph_from_edges([("a", "b", 1.0), ("b", "c", 1.0)])
    with pytest.raises(InputError, match="resolution must be non-negative"):
        louvain(g, resolution=resolution)
    assert louvain(g, resolution=0.0).n_communities() == 1


# --- pagerank ----------------------------------------------------------------


def pagerank_oracle_3path(damping):
    """Independent dense power iteration on the 3-node path a-b-c."""
    M = np.array([[0.0, 0.5, 0.0], [1.0, 0.0, 1.0], [0.0, 0.5, 0.0]])
    p = np.full(3, 1 / 3)
    for _ in range(10_000):
        p_new = (1 - damping) / 3 + damping * (M @ p)
        if np.abs(p_new - p).sum() < 1e-15:
            return p_new
        p = p_new
    return p


def test_pagerank_two_nodes_symmetric():
    g = graph_from_edges([("a", "b")])
    ranks = pagerank(g)
    assert ranks["a"] == pytest.approx(0.5, abs=1e-12)
    assert ranks["b"] == pytest.approx(0.5, abs=1e-12)


def test_pagerank_three_path_matches_oracle():
    g = graph_from_edges([("a", "b"), ("b", "c")])
    ranks = pagerank(g, damping=0.85)
    oracle = pagerank_oracle_3path(0.85)
    assert ranks["a"] == pytest.approx(oracle[0], abs=1e-6)
    assert ranks["b"] == pytest.approx(oracle[1], abs=1e-6)
    assert ranks["c"] == pytest.approx(oracle[2], abs=1e-6)
    assert ranks["a"] == pytest.approx(0.2568, abs=1e-4)
    assert ranks["b"] == pytest.approx(0.4865, abs=1e-4)
    assert abs(sum(ranks.scores.values()) - 1.0) < 1e-9


def test_pagerank_complete_graph_uniform():
    nodes = [f"n{i}" for i in range(6)]
    g = graph_from_edges([(u, v) for u, v in itertools.combinations(nodes, 2)])
    ranks = pagerank(g)
    for n in nodes:
        assert ranks[n] == pytest.approx(1 / 6, abs=1e-12)


def test_pagerank_weight_scale_invariance():
    rng = random.Random(31)
    nodes = [f"n{i}" for i in range(7)]
    base = [
        (u, v, rng.uniform(0.05, 0.5))
        for u, v in itertools.combinations(nodes, 2)
        if rng.random() < 0.5
    ]
    g1 = graph_from_edges(base, extra_nodes=nodes)
    g2 = graph_from_edges([(u, v, w * 2) for u, v, w in base], extra_nodes=nodes)
    r1, r2 = pagerank(g1), pagerank(g2)
    for n in nodes:
        assert r1[n] == pytest.approx(r2[n], abs=1e-12)


def test_pagerank_isolated_node_and_sum():
    g = graph_from_edges([("a", "b")], extra_nodes=["lonely"])
    ranks = pagerank(g)
    assert abs(sum(ranks.scores.values()) - 1.0) < 1e-9
    assert ranks["lonely"] < ranks["a"]


def test_pagerank_of_a_graph_without_edges_is_uniform():
    ranks = pagerank(graph_from_edges([], extra_nodes=["a", "b", "c"]))
    for n in "abc":
        assert ranks[n] == pytest.approx(1 / 3, abs=1e-12)


def test_pagerank_non_convergence_error():
    g = graph_from_edges([("a", "b"), ("b", "c")])
    with pytest.raises(CuelexError, match="converge"):
        pagerank(g, tol=0.0, max_iter=3)


# --- labels, composition -----------------------------------------------------


def test_format_label_examples():
    assert format_label("paradox", True) == "paradox - 1 - 1"
    assert format_label("inaccurate", False, "accepted") == "inaccurate - 0 - 1"
    assert format_label("erroneous", False, "rejected") == "erroneous - 0 - 0"
    assert format_label("pending", False, "unrated") == "pending - 0 - ?"


def test_composition_single_community():
    g = CueGraph()
    g.add_node("s1", is_seed=True)
    g.add_node("s2", is_seed=True)
    g.add_node("a", status="accepted")
    part = Partition({"s1": 0, "s2": 0, "a": 0})
    rows = composition(g, part)
    assert len(rows) == 1
    r = rows[0]
    assert (r.n_seed, r.n_accepted, r.n_rejected, r.n_unrated) == (2, 1, 0, 0)


def test_composition_matches_group_by_oracle():
    rng = random.Random(41)
    g = CueGraph()
    assignment = {}
    tally = {}
    for i in range(60):
        word = f"w{i}"
        is_seed = rng.random() < 0.3
        status = rng.choice(["accepted", "rejected", "unrated"])
        g.add_node(word, is_seed=is_seed, status="accepted" if is_seed else status)
        cid = rng.randint(0, 4)
        assignment[word] = cid
        key = "seed" if is_seed else status
        bucket = tally.setdefault(cid, {"seed": 0, "accepted": 0, "rejected": 0, "unrated": 0})
        bucket[key] += 1
    rows = composition(g, Partition(assignment))
    assert sum(r.size for r in rows) == 60
    sizes = [r.size for r in rows]
    assert sizes == sorted(sizes, reverse=True)
    for r in rows:
        expected = tally[r.community]
        assert (r.n_seed, r.n_accepted, r.n_rejected, r.n_unrated) == (
            expected["seed"],
            expected["accepted"],
            expected["rejected"],
            expected["unrated"],
        )


# --- export ------------------------------------------------------------------


def test_tsv_round_trip(tmp_path):
    g = graph_from_edges([("a", "b", 0.75)], extra_nodes=["c"])
    g.nodes["a"].is_seed = True
    g.nodes["b"].status = "accepted"
    part = Partition({"a": 0, "b": 0, "c": 1})
    ranks = pagerank(g)
    nodes_path, edges_path = tmp_path / "n.tsv", tmp_path / "e.tsv"
    export_node_tsv(nodes_path, g, part, ranks)
    export_edge_tsv(edges_path, g)
    g2, part2, ranks2 = load_graph_tsv(nodes_path, edges_path)
    assert list(g2.nodes) == list(g.nodes)
    assert g2.edges == {("a", "b"): 0.75}
    assert g2.nodes["a"].is_seed and g2.nodes["b"].status == "accepted"
    assert part2.communities == part.communities
    for n in g.nodes:
        assert ranks2[n] == pytest.approx(ranks[n], abs=1e-9)


def test_gexf_empty_graph(tmp_path):
    path = tmp_path / "empty.gexf"
    export_gexf(path, CueGraph())
    tree = ET.parse(path)
    ns = {"g": "http://www.gexf.net/1.2draft"}
    assert tree.getroot().tag.endswith("gexf")
    assert tree.findall(".//g:node", ns) == []


def test_gexf_pagerank_attribute_sums_to_one(tmp_path):
    g = graph_from_edges([("a", "b", 0.9), ("b", "c", 0.4)])
    ranks = pagerank(g)
    part = louvain(g, rng_seed=0)
    path = tmp_path / "g.gexf"
    export_gexf(path, g, part, ranks)
    ns = {"g": "http://www.gexf.net/1.2draft"}
    tree = ET.parse(path)
    values = [
        float(av.get("value"))
        for av in tree.findall(".//g:attvalue", ns)
        if av.get("for") == "1"
    ]
    assert len(values) == 3
    assert sum(values) == pytest.approx(1.0, abs=1e-6)
    labels = {n.get("label") for n in tree.findall(".//g:node", ns)}
    assert any(label.endswith(" - 0 - ?") for label in labels)
    edges = tree.findall(".//g:edge", ns)
    assert {e.get("weight") for e in edges} == {"0.900000", "0.400000"}


# --- networkx as an independent oracle (test-only; skipped when it is absent) --------


def random_weighted_graph(seed, n_isolated=2):
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(rng.randint(3, 12))]
    edges = [
        (u, v, rng.choice([1.0, rng.uniform(0.01, 1.0)]))
        for u, v in itertools.combinations(words, 2)
        if rng.random() < 0.35
    ]
    edges = edges or [(words[0], words[1], 0.5)]
    isolated = [f"iso{i}" for i in range(n_isolated)]
    return graph_from_edges(edges, extra_nodes=words + isolated), rng


def to_networkx(nx, g):
    G = nx.Graph()
    G.add_nodes_from(g.nodes)
    G.add_weighted_edges_from((u, v, w) for (u, v), w in g.edges.items())
    return G


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("damping", [0.0, 0.5, 0.85])
def test_pagerank_matches_networkx_with_isolated_nodes(seed, damping):
    nx = pytest.importorskip("networkx")
    g, _ = random_weighted_graph(seed)
    G = to_networkx(nx, g)
    want = nx.pagerank(G, alpha=damping, weight="weight", tol=1e-13, max_iter=10_000)
    got = pagerank(g, damping=damping, tol=1e-13)
    assert set(got.scores) == set(want)
    for node, score in want.items():
        assert got[node] == pytest.approx(score, abs=1e-9)


@pytest.mark.parametrize("seed", range(12))
def test_modularity_matches_networkx_on_random_partitions(seed):
    nx = pytest.importorskip("networkx")
    g, rng = random_weighted_graph(seed)
    G = to_networkx(nx, g)
    for _ in range(5):
        k = rng.randint(1, g.n_nodes)
        partition = Partition({w: rng.randrange(k) for w in g.nodes})
        communities = [set(members) for members in partition.groups().values()]
        want = nx.community.modularity(G, communities, weight="weight")
        assert modularity(g, partition) == pytest.approx(want, abs=1e-12)


def test_louvain_splits_a_community_left_disconnected():
    # local moves leave w3 and w5, which share no edge, in one community here
    edges = [("w5", "w11", 0.0123), ("w0", "w2", 0.2708), ("w3", "w11", 0.3183), ("w10", "w11", 1.0)]
    g = graph_from_edges(edges, extra_nodes=[f"w{i}" for i in range(15)])
    part = louvain(g, resolution=2.0, rng_seed=3)
    assert part["w3"] != part["w5"]
    assert part.modularity_trace[-1] == modularity(g, part) > part.modularity_trace[-2]


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(2, 16))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    weights = st.one_of(st.just(1.0), st.floats(0.01, 1.0))
    edges = [(f"w{u}", f"w{v}", draw(weights)) for u, v in chosen]
    return graph_from_edges(edges, extra_nodes=[f"w{i}" for i in range(n)])


@settings(max_examples=200, deadline=None)
@given(weighted_graphs(), st.integers(0, 3), st.sampled_from([0.5, 1.0, 2.0]))
def test_louvain_communities_induce_connected_subgraphs(g, rng_seed, resolution):
    # Louvain can leave a community internally disconnected (Traag, Waltman &
    # van Eck, arXiv 1810.08473); this checks that ours does not on small graphs
    nx = pytest.importorskip("networkx")
    partition = louvain(g, resolution=resolution, rng_seed=rng_seed)
    G = to_networkx(nx, g)
    for members in partition.groups().values():
        assert nx.is_connected(G.subgraph(members)), sorted(members)
