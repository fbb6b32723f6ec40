"""Word-similarity network: construction, clustering, ranking, and export.

Nodes are seed and candidate words; edges are retrieval pairs weighted by
cosine similarity.  Louvain clustering and PageRank are implemented here
directly so that node visit order, tie handling, and convergence are fully
deterministic given a seed.
"""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CuelexError, InputError

NODE_TSV_HEADER = ("word", "seed", "status", "community", "pagerank")
EDGE_TSV_HEADER = ("u", "v", "weight")


@dataclass
class Node:
    word: str
    is_seed: bool = False
    status: str = "unrated"  # accepted | rejected | unrated


class CueGraph:
    """Undirected weighted graph over cue words; at most one edge per pair."""

    def __init__(self):
        self.nodes: dict[str, Node] = {}
        self.edges: dict[tuple[str, str], float] = {}

    def add_node(self, word: str, is_seed: bool = False, status: str = "unrated") -> None:
        if not word:
            raise InputError("empty node word")
        if status not in ("accepted", "rejected", "unrated"):
            raise InputError(f"unknown status {status!r}")
        node = self.nodes.get(word)
        if node is None:
            self.nodes[word] = Node(word, is_seed, status)
        else:
            node.is_seed = node.is_seed or is_seed
            if status != "unrated":
                node.status = status

    def add_edge(self, u: str, v: str, weight: float) -> None:
        """Adds or raises an edge weight; keeps the max on duplicates."""
        if u == v:
            raise InputError(f"self-loop on {u!r}")
        if not (0.0 < weight <= 1.0):
            raise InputError(f"edge weight must be in (0, 1]: {weight}")
        for w in (u, v):
            if w not in self.nodes:
                raise InputError(f"edge endpoint {w!r} is not a node")
        key = (u, v) if u < v else (v, u)
        prev = self.edges.get(key)
        if prev is None or weight > prev:
            self.edges[key] = weight

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def total_weight(self) -> float:
        return sum(self.edges.values())

    def adjacency(self) -> dict[str, dict[str, float]]:
        adj: dict[str, dict[str, float]] = {w: {} for w in self.nodes}
        for (u, v), w in self.edges.items():
            adj[u][v] = w
            adj[v][u] = w
        return adj


def build(pairs, seeds=None, statuses: dict[str, str] | None = None) -> CueGraph:
    """Graph from retrieval pairs: seed surfaces plus candidate words.

    Edges keep the maximum weight per unordered pair.  Pairs whose seed
    endpoint is not a node, or whose similarity is not in (0, 1], are skipped
    (edges carry positive weights by contract).
    """
    statuses = statuses or {}
    for word, status in statuses.items():
        if status not in ("accepted", "rejected", "unrated"):
            raise InputError(f"unknown status {status!r} for word {word!r}")
    graph = CueGraph()
    if seeds is not None:
        for entry in seeds:
            graph.add_node(entry.surface.lower(), is_seed=True, status="accepted")
    for p in pairs:
        if not p.seed or not p.candidate:
            raise InputError("pair referencing an empty token")
        word = p.candidate.lower()
        if word not in graph.nodes:
            graph.add_node(word, status=statuses.get(word, "unrated"))
    for p in pairs:
        u, v = p.seed.lower(), p.candidate.lower()
        if u not in graph.nodes or v not in graph.nodes or u == v:
            continue
        if 0.0 < p.similarity <= 1.0:
            graph.add_edge(u, v, p.similarity)
    for word, status in statuses.items():
        node = graph.nodes.get(word)
        if node is not None and not node.is_seed:
            node.status = status
    return graph


@dataclass
class Partition:
    """Node-to-community assignment with dense integer ids from 0."""

    communities: dict[str, int]
    modularity_trace: list[float] = field(default_factory=list)

    def __getitem__(self, node: str) -> int:
        return self.communities[node]

    def n_communities(self) -> int:
        return len(set(self.communities.values()))

    def groups(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for node, cid in self.communities.items():
            out.setdefault(cid, []).append(node)
        return out


def singleton_partition(graph: CueGraph) -> Partition:
    return Partition({w: i for i, w in enumerate(graph.nodes)})


def modularity(graph: CueGraph, partition: Partition) -> float:
    """Newman-Girvan weighted modularity Q = sum_c (in_c/2m - (tot_c/2m)^2).

    in_c counts internal adjacency mass (each internal edge twice), tot_c the
    weighted degrees of the community's nodes.
    """
    if graph.n_edges == 0:
        raise InputError("modularity of an edgeless graph is undefined")
    missing = set(graph.nodes) - set(partition.communities)
    if missing:
        raise InputError(f"partition misses nodes: {sorted(missing)[:3]}")
    m = graph.total_weight()
    internal: dict[int, float] = {}
    degree: dict[int, float] = {}
    for (u, v), w in graph.edges.items():
        cu, cv = partition[u], partition[v]
        degree[cu] = degree.get(cu, 0.0) + w
        degree[cv] = degree.get(cv, 0.0) + w
        if cu == cv:
            internal[cu] = internal.get(cu, 0.0) + 2.0 * w
    q = 0.0
    for cid in degree:
        q += internal.get(cid, 0.0) / (2.0 * m) - (degree[cid] / (2.0 * m)) ** 2
    return q


class _Level:
    """One Louvain level over an aggregated weighted graph with self-loops."""

    def __init__(self, neighbors, self_loops, order, two_m, resolution):
        self.neighbors = neighbors  # node -> {other: weight}, no self entries
        self.self_loops = self_loops  # node -> self weight
        self.order = order
        self.two_m = two_m
        self.resolution = resolution
        self.node_com = {n: n for n in order}
        self.com_tot = {}
        for n in order:
            k = sum(neighbors[n].values()) + 2.0 * self_loops.get(n, 0.0)
            self.com_tot[n] = k
        self.degrees = dict(self.com_tot)

    def run(self) -> bool:
        moved_any = False
        while True:
            moved = False
            for node in self.order:
                best = self._best_move(node)
                if best is not None:
                    self.node_com[node] = best
                    moved = True
                    moved_any = True
            if not moved:
                return moved_any

    def _best_move(self, node):
        com = self.node_com[node]
        k = self.degrees[node]
        links = {}
        for other, w in self.neighbors[node].items():
            c = self.node_com[other]
            links[c] = links.get(c, 0.0) + w
        self.com_tot[com] -= k
        base = links.get(com, 0.0) - self.resolution * self.com_tot[com] * k / self.two_m
        best_com, best_gain = com, base
        for c in sorted(links):
            if c == com:
                continue
            gain = links[c] - self.resolution * self.com_tot[c] * k / self.two_m
            if gain > best_gain + 1e-12:
                best_com, best_gain = c, gain
        self.com_tot[best_com] += k
        return best_com if best_com != com else None


def louvain(graph: CueGraph, resolution: float = 1.0, rng_seed: int = 0) -> Partition:
    """Greedy modularity clustering (local moves + aggregation to a fixed point).

    Node visit order is a seeded shuffle, so results are reproducible for a
    given ``rng_seed``.  The returned partition records the modularity after
    each aggregation pass.
    """
    if graph.n_edges == 0:
        raise InputError("louvain needs at least one edge")
    rng = random.Random(rng_seed)
    two_m = 2.0 * graph.total_weight()

    # Node of the working (aggregated) graph -> members in the original graph.
    members = {w: [w] for w in graph.nodes}
    neighbors: dict = {w: {} for w in graph.nodes}
    for (u, v), w in graph.edges.items():
        neighbors[u][v] = neighbors[u].get(v, 0.0) + w
        neighbors[v][u] = neighbors[v].get(u, 0.0) + w
    self_loops: dict = {}

    assignment = {w: w for w in graph.nodes}
    trace: list[float] = []
    while True:
        order = list(neighbors)
        rng.shuffle(order)
        level = _Level(neighbors, self_loops, order, two_m, resolution)
        if not level.run():
            break
        # Fold each community into a supernode.
        com_members: dict = {}
        for node, com in level.node_com.items():
            com_members.setdefault(com, []).extend(members[node])
        new_neighbors: dict = {c: {} for c in com_members}
        new_self: dict = {c: 0.0 for c in com_members}
        for node, nbrs in neighbors.items():
            cu = level.node_com[node]
            new_self[cu] += self_loops.get(node, 0.0)
            for other, w in nbrs.items():
                cv = level.node_com[other]
                if cu == cv:
                    new_self[cu] += w / 2.0  # each internal edge visited twice
                else:
                    new_neighbors[cu][cv] = new_neighbors[cu].get(cv, 0.0) + w
        members = com_members
        neighbors = new_neighbors
        self_loops = new_self
        for com, mem in members.items():
            for w in mem:
                assignment[w] = com
        trace.append(modularity(graph, Partition(_dense_id(assignment))))

    dense = _dense_id(assignment)
    result = Partition({w: dense[w] for w in graph.nodes}, modularity_trace=trace)
    return result


def _dense_id(assignment: dict) -> dict:
    ids: dict = {}
    out = {}
    for node in assignment:
        com = assignment[node]
        if com not in ids:
            ids[com] = len(ids)
        out[node] = ids[com]
    return out


@dataclass
class PageRankVector:
    scores: dict[str, float]

    def __getitem__(self, node: str) -> float:
        return self.scores[node]


def pagerank(
    graph: CueGraph, damping: float = 0.85, tol: float = 1e-9, max_iter: int = 1000
) -> PageRankVector:
    """Power iteration over the damped random walk on the weighted graph.

    Each undirected edge acts as two arcs with weight-proportional transition
    probabilities.  Mass on nodes without outgoing weight (isolated nodes)
    teleports uniformly, keeping scores summing to 1.
    """
    if graph.n_nodes == 0:
        raise InputError("pagerank of an empty graph")
    if not 0.0 <= damping < 1.0:
        raise InputError("damping must be in [0, 1)")
    nodes = list(graph.nodes)
    idx = {w: i for i, w in enumerate(nodes)}
    n = len(nodes)

    out_weight = np.zeros(n)
    arcs = []  # (src, dst, weight)
    for (u, v), w in graph.edges.items():
        arcs.append((idx[u], idx[v], w))
        arcs.append((idx[v], idx[u], w))
        out_weight[idx[u]] += w
        out_weight[idx[v]] += w
    dangling = out_weight == 0.0

    src = np.array([a[0] for a in arcs], dtype=np.int64)
    dst = np.array([a[1] for a in arcs], dtype=np.int64)
    wgt = np.array([a[2] for a in arcs], dtype=np.float64)
    trans = np.divide(wgt, out_weight[src], out=np.zeros_like(wgt), where=out_weight[src] > 0)

    p = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        flow = np.zeros(n)
        if len(arcs):
            np.add.at(flow, dst, trans * p[src])
        dangling_mass = p[dangling].sum()
        p_new = (1.0 - damping) / n + damping * (flow + dangling_mass / n)
        if np.abs(p_new - p).sum() < tol:
            p = p_new
            break
        p = p_new
    else:
        raise CuelexError(f"pagerank did not converge within {max_iter} iterations")
    return PageRankVector({w: float(p[idx[w]]) for w in nodes})


def format_label(word: str, is_seed: bool, status: str = "unrated") -> str:
    """Node label "<word> - <a> - <b>": a = seed flag, b = acceptance flag.

    Seeds are accepted by definition; an unrated non-seed renders b as "?".
    """
    a = 1 if is_seed else 0
    if is_seed or status == "accepted":
        b = "1"
    elif status == "rejected":
        b = "0"
    else:
        b = "?"
    return f"{word} - {a} - {b}"


@dataclass(frozen=True)
class CompositionRow:
    community: int
    n_seed: int
    n_accepted: int
    n_rejected: int
    n_unrated: int

    @property
    def size(self) -> int:
        return self.n_seed + self.n_accepted + self.n_rejected + self.n_unrated


def composition(graph: CueGraph, partition: Partition) -> list[CompositionRow]:
    """Per-community counts of seeds and accepted/rejected/unrated candidates."""
    counts: dict[int, list[int]] = {}
    for word, node in graph.nodes.items():
        cid = partition[word]
        row = counts.setdefault(cid, [0, 0, 0, 0])
        if node.is_seed:
            row[0] += 1
        elif node.status == "accepted":
            row[1] += 1
        elif node.status == "rejected":
            row[2] += 1
        else:
            row[3] += 1
    rows = [CompositionRow(cid, *vals) for cid, vals in counts.items()]
    rows.sort(key=lambda r: (-r.size, r.community))
    return rows


def export_node_tsv(path, graph, partition=None, ranks=None, header_lines=()):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("\t".join(NODE_TSV_HEADER) + "\n")
        for word, node in graph.nodes.items():
            com = "" if partition is None else str(partition[word])
            pr = "" if ranks is None else f"{ranks[word]:.12g}"
            fh.write(f"{word}\t{int(node.is_seed)}\t{node.status}\t{com}\t{pr}\n")


def export_edge_tsv(path, graph, header_lines=()):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("\t".join(EDGE_TSV_HEADER) + "\n")
        for (u, v), w in graph.edges.items():
            fh.write(f"{u}\t{v}\t{w:.6f}\n")


def load_graph_tsv(node_path, edge_path):
    """Rebuild (graph, partition, ranks) from the TSV pair; empty fields mean None."""
    graph = CueGraph()
    communities: dict[str, int] = {}
    ranks: dict[str, float] = {}
    rows = _read_tsv(node_path, NODE_TSV_HEADER)
    for fields in rows:
        word, seed, status, com, pr = fields
        graph.add_node(word, is_seed=seed == "1", status=status)
        if com:
            communities[word] = int(com)
        if pr:
            ranks[word] = float(pr)
    for fields in _read_tsv(edge_path, EDGE_TSV_HEADER):
        graph.add_edge(fields[0], fields[1], float(fields[2]))
    partition = Partition(communities) if len(communities) == len(graph.nodes) else None
    rank_vec = PageRankVector(ranks) if len(ranks) == len(graph.nodes) else None
    return graph, partition, rank_vec


def _read_tsv(path, expected_header):
    path = Path(path)
    if not path.is_file():
        raise InputError(f"file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        rows = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    if not rows or tuple(rows[0].split("\t")) != tuple(expected_header):
        raise InputError(f"{path}: expected header {expected_header}")
    out = []
    for lineno, row in enumerate(rows[1:], 2):
        fields = row.split("\t")
        if len(fields) != len(expected_header):
            raise InputError(f"{path}:{lineno}: expected {len(expected_header)} fields")
        out.append(fields)
    return out


def export_gexf(path, graph, partition=None, ranks=None, meta_lines=()):
    """GEXF 1.2 with per-node label, community, and pagerank attributes."""
    root = ET.Element("gexf", xmlns="http://www.gexf.net/1.2draft", version="1.2")
    if meta_lines:
        meta = ET.SubElement(root, "meta")
        creator = ET.SubElement(meta, "creator")
        creator.text = meta_lines[0]
        if len(meta_lines) > 1:
            desc = ET.SubElement(meta, "description")
            desc.text = "; ".join(meta_lines[1:])
    g = ET.SubElement(root, "graph", defaultedgetype="undirected")
    attrs = ET.SubElement(g, "attributes", attrib={"class": "node"})
    ET.SubElement(attrs, "attribute", id="0", title="community", type="integer")
    ET.SubElement(attrs, "attribute", id="1", title="pagerank", type="double")
    nodes_el = ET.SubElement(g, "nodes")
    for word, node in graph.nodes.items():
        el = ET.SubElement(
            nodes_el, "node", id=word, label=format_label(word, node.is_seed, node.status)
        )
        values = ET.SubElement(el, "attvalues")
        if partition is not None:
            ET.SubElement(values, "attvalue", attrib={"for": "0", "value": str(partition[word])})
        if ranks is not None:
            ET.SubElement(values, "attvalue", attrib={"for": "1", "value": f"{ranks[word]:.12g}"})
    edges_el = ET.SubElement(g, "edges")
    for i, ((u, v), w) in enumerate(graph.edges.items()):
        ET.SubElement(
            edges_el, "edge", id=str(i), source=u, target=v, weight=f"{w:.6f}"
        )
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)
