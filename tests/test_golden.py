"""Golden artifacts: every subcommand's --out files and stdout, byte for byte.

All 18 subcommands run in-process on one small fixed workspace with
``--reproducible --rng-seed 3``.  The sha256 of every file they write and of
every stdout is compared with recorded digests, so a change to the output
code must leave every byte of every artifact unchanged.

The workspace is addressed by relative paths from inside it, because the
config digest in every artifact header hashes the paths as given.

Digests captured on CPython 3.11.7 with numpy 2.4.6.  The float outputs of
``pca``, ``mds``, ``train`` and the similarity columns go through numpy's
linear algebra, so another numpy or BLAS build may legitimately change them.
"""

import hashlib
import json
import random

import numpy as np

from w2v_writer import write_binary

from cuelex import cli

SEEDS = (
    "seeda\tscientific\n"
    "seedb\tscientific\n"
    "suggest*\thedging\tsuggests,suggested\n"
    "may be\thedging\n"
    "absentseed\tcustom\n"
)
SHARED = [
    "seeda", "seedb", "suggests", "suggested", "may_be",
    "canda", "candb", "candc", "candd", "cande", "knowledge", "unclear",
]
FILLER = [
    "the", "result", "was", "inconclusive", "conflicting", "may", "be", "data",
    "more", "is", "needed", "suggests", "suggested", "definite", "knowledge",
    "canda", "candb", "candc", "candd", "seeda", "seedb", "unclear", "claim",
]
WORDS = "canda\ncand*\nmay be\ninconclusive\n"
LABELS = (
    "word,judge1,judge2\n"
    "canda,pos,pos\n"
    "candb,pos,pos\n"
    "candc,neg,neg\n"
    "candd,pos,neg\n"
    "unclear,neg,neg\n"
)


def _model(path, seed):
    rng = random.Random(seed)
    tokens = list(SHARED) + [f"fill{seed}x{i}" for i in range(28)]
    anchors = {}
    rows = []
    for token in tokens:
        vec = np.array([rng.uniform(-1, 1) for _ in range(6)])
        if token.startswith("seed"):
            anchors[token] = vec
        elif token.startswith("cand"):
            vec = anchors["seeda" if token < "candc" else "seedb"] + 0.2 * vec
        rows.append(vec)
    write_binary(path, tokens, np.array(rows, dtype=np.float32))


def _docs(rng, n, prefix):
    docs = []
    for i in range(n):
        if i % 13 == 7:  # empty documents count in N_docs and in group totals
            docs.append((f"{prefix}{i}", ""))
            continue
        sentences = []
        for _ in range(rng.randint(1, 4)):
            words = [rng.choice(FILLER) for _ in range(rng.randint(4, 10))]
            sentences.append(" ".join(words).capitalize() + ".")
        docs.append((f"{prefix}{i}", " ".join(sentences)))
    return docs


def _jsonl(path, docs):
    path.write_text("".join(json.dumps({"id": d, "text": t}) + "\n" for d, t in docs))


def make_workspace(root):
    _model(root / "m1.bin", 101)
    _model(root / "m2.bin", 202)
    (root / "seeds.txt").write_text(SEEDS)
    rng = random.Random(5)
    # "cande" never meets its seeds: its PMI is -inf
    _jsonl(root / "corpus.jsonl", _docs(rng, 40, "d") + [("solo", "Cande stands alone.")])
    for g in ("g1", "g2", "g3"):
        _jsonl(root / f"{g}.jsonl", _docs(rng, 9, g))
    (root / "groups.json").write_text(
        json.dumps({"G1": "g1.jsonl", "G2": "g2.jsonl", "G3": "g3.jsonl"})
    )
    (root / "words.txt").write_text(WORDS)
    (root / "labels.csv").write_text(LABELS)
    cols = ["colA", "colB", "colC", "colD"]
    lines = ["# a score matrix\n", "word\t" + "\t".join(cols) + "\n"]
    for i in range(8):
        values = [f"{((i * 7 + j * 3) % 11) / 10 + 0.05 * j:.2f}" for j in range(4)]
        lines.append(f"word{i}\t" + "\t".join(values) + "\n")
    (root / "scores.tsv").write_text("".join(lines))


MODELS = ("--model", "m1=m1.bin", "--model", "m2=m2.bin")
PAIRS = ("--pairs", "expand/pairs_m1.tsv", "--pairs", "expand/pairs_m2.tsv")
COMMANDS = [
    ("expand", *MODELS, "--seeds", "seeds.txt", "--k", "6"),
    ("intersect", *PAIRS, "--seeds", "seeds.txt"),
    ("score", "--candidates", "intersect/candidates.json", "--corpus", "corpus.jsonl",
     "--seeds", "seeds.txt"),
    ("split", "--corpus", "corpus.jsonl", "--indicators", "inconclusive,conflicting",
     "--balance"),
    ("ratios", "--corpus", "corpus.jsonl", "--indicators", "inconclusive,conflicting",
     "--words", "@words.txt"),
    ("relscore", "--collection", "corpus.jsonl", "--words", "@words.txt"),
    ("rates", "--groups", "groups.json", "--query", "conflicting,inconclusive"),
    ("find", "--corpus", "corpus.jsonl", "--cues", "@words.txt", "--limit", "4"),
    ("graph", *PAIRS, "--seeds", "seeds.txt", "--statuses", "labels.csv"),
    ("cluster", "--nodes", "graph/nodes.tsv", "--edges", "graph/edges.tsv"),
    ("rank", "--nodes", "cluster/nodes_clustered.tsv", "--edges", "graph/edges.tsv"),
    ("export", "--nodes", "rank/nodes_ranked.tsv", "--edges", "graph/edges.tsv"),
    ("agree", "--annotations", "labels.csv"),
    ("dataset", *MODELS, "--annotations", "labels.csv", "--seeds", "seeds.txt",
     "--n-unrelated", "6", "--max-sim", "0.9"),
    ("train", "--dataset", "dataset/dataset.tsv", "--folds", "3",
     "--classifiers", "knn:k=1,gaussian_nb,logistic_sgd:epochs=5,mlp:epochs=5"),
    ("pca", "--matrix", "scores.tsv", "--components", "3", "--top", "3"),
    ("mds", "--matrix", "scores.tsv"),
    ("pipeline", *MODELS, "--seeds", "seeds.txt", "--k", "6", "--corpus", "corpus.jsonl"),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(root, capsys) -> dict[str, str]:
    """Run every command in order; digest of each artifact and each stdout."""
    digests = {}
    for command, *args in COMMANDS:
        code = cli.main([command, *args, "--out", command, "--reproducible", "--rng-seed", "3"])
        captured = capsys.readouterr()
        assert code == 0, (command, captured.err)
        digests[f"{command}/<stdout>"] = _sha(captured.out.encode())
        for f in sorted((root / command).iterdir()):
            digests[f"{command}/{f.name}"] = _sha(f.read_bytes())
    return digests


EXPECTED = {
    "expand/<stdout>": "0f4f55333233684563f4bbcea6bb3a79f76db8c8ccabd05c5f39e82e529307d5",
    "expand/pairs_m1.tsv": "9950d0c276915acaa53864d6666b3a2728a56fc050e85907dd5c7cc1f30c730e",
    "expand/pairs_m2.tsv": "1edbd4f5ee0a7feb1eea41c2970bcd364bcddca5cbebe9d62bf0723e1edda5f9",
    "expand/skipped_m1.tsv": "9273d529c11ea0b81c830b7eb29c97a3265c17979d05e58e9ddba6f4596ab223",
    "expand/skipped_m2.tsv": "9273d529c11ea0b81c830b7eb29c97a3265c17979d05e58e9ddba6f4596ab223",
    "intersect/<stdout>": "6e9ff2b4a0378cb9aee02f38afc76196610e11be51c14d472b6e0548376259fc",
    "intersect/candidates.json": "5b5baf7531e45c342061525e46a879e82a56a38c6fb0eb59ae74dea60ecfd2c9",
    "intersect/candidates.tsv": "16105a864209e6adb7169d7abd8b8df42e384d751897962522aa9abab3adfe49",
    "score/<stdout>": "695d0ad5b1fd9da7a981f34ce5f7e3bcdc7f3fcfae3f9a6e8824587cee049f6d",
    "score/candidates.json": "d52e73ad00c710e6613c200fe7e5c179057b02ea7238e88b861c9d1931ff65fb",
    "score/candidates.tsv": "61e9461bc123ab3621e84f9f7400e32a1c51ed30ace6a9efe017e138c393f681",
    "split/<stdout>": "040a2c70a18a5d4b3cc58114447d29cfbc139a586eaf5ea132fca703c1d9113c",
    "split/s_minus.tsv": "24fde75f6e2c3d1c4d7ecbd83ae60c77eedf0c9955de3bd28a461dcf4c663062",
    "split/s_plus.tsv": "f78739c4dfa27eec2853f937369bfb712e8720fa195076ab7c0cef9df2221542",
    "split/split_summary.json": "547ea8bf921cf9586e21d38bd241f85758fd9f7b3fd3796a63abd80f0034b396",
    "ratios/<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "ratios/ratios.json": "e76d00fcb16aaeca8e96806fc772652741c42fdd06de956a00f296c68871a3e0",
    "ratios/ratios.tsv": "193802050c90887440679aebb7f35d7d45b4a10418cc698eea0bae3dac66db39",
    "relscore/<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "relscore/relscore.json": "46585bb147082f99663aed05d5ce37c71dc3a9a0e3eb9fc6ccbf98dec873e8d6",
    "relscore/relscore.tsv": "340c27371bf1588f45052cfaea2feeb01b526845f2107db684b62cca486cbb1e",
    "rates/<stdout>": "1d85422672583eae8ca36d84132a35b342e9c0f3db19e3074cbffa74f1ffaf54",
    "rates/rates.json": "c69bf6c81d4af0be7616bfc7388ac1fc402b98c509a8d354ebd81b5fc2e890f1",
    "rates/rates.tsv": "79579861bceffe4c5a7f107f8af042b66a0bd5508c162c15899f9552c81fa965",
    "find/<stdout>": "e0909c2d2f304d9d4dfc660b3d825e75c6f350b72dc78d0bcc2b5f45ad012f30",
    "find/sentences.json": "1872b14c9c300790f1dfd78ccf4676c41aefaa23175449e67ec9716eb22098d1",
    "find/sentences.tsv": "822a742462f361042ea1fb298ab721ce476c9c5b0ee9751f379cb7e96cbad815",
    "graph/<stdout>": "427e8601e3ebdb352b91f417c0b165e5baedfd7bb6b47894ef3b1a74883b8463",
    "graph/edges.tsv": "1d169a87a3b2c6ed2847dfcd93ab473af2f0cac507ddffbd239d7af9c7b2d7e2",
    "graph/nodes.tsv": "caf4eb0b37b81feb7e645f96c6f9a5b13964ceed2be650eacfc11681bff45699",
    "cluster/<stdout>": "5bc9d12d2d1ecc417c87034a68e17a4fdce45715c5e88d5ac21326f236959d77",
    "cluster/cluster_summary.json": "31713aace8334ffb82b9eddee552e27ecef62d366d2718c913163b476a6ed23e",
    "cluster/composition.tsv": "174f27547121e66e7edd058124928e4f556a947b59941d100afb1a95d1384906",
    "cluster/nodes_clustered.tsv": "bb555b81ee858aa4c5e7610b24ec639397b859bd206f79d3ad9bc4909c00dd68",
    "rank/<stdout>": "44a49b688db4af176e255c26130830e20bfac34505656e866edc5c6566dd6980",
    "rank/nodes_ranked.tsv": "ad9c3528d28aed418ec8ca034b33c12e4fcb4a08a527c920747e6b75fd470a99",
    "export/<stdout>": "0cf73126d2cb064a2367b345270d7a506718cc8657d3f16830c82c8d48ca6f1d",
    "export/graph.gexf": "dda254c31432d84a72c6a35299169e05932c9cfcadf110962973f237f0584fe2",
    "agree/<stdout>": "f7d8759f51e36bf776cb5a90724e6fd96f5f486d3884afa0d6cbfe0232df7dcd",
    "agree/agreement.json": "cf0fc4dd4612aa336b96cad92dd2a2633603285b58823369ff074762182b28c0",
    "agree/agreement.tsv": "e8f76cfb583ddaf56c14ba408d209f8999708221e41e87bf6eadeebe48ae1948",
    "dataset/<stdout>": "910368d9a19191c384d78d816d883641205e2615e0c4750eedda0528117bddd2",
    "dataset/dataset.tsv": "7c6540190a777727214e40cee9469d1b94172de385abea85c723030f2db4ccfb",
    "dataset/dataset_features.npy": "483e82698f5407b139139df3bf4bedea63eaa2cc350b9438d35a5fd2339dff7a",
    "dataset/dataset_summary.json": "324ad89490ba4a49830673232e989a6bef6d69b1ed2d3a79adf597f6ddbfa0a5",
    "train/<stdout>": "76bcbdbecae5b7a3639ea4559178cbd31ffc5aec7e4001932e8e1d193934ebdc",
    "train/eval.json": "1aea6b6f2811fd40d73c6bcad51cbafcc20846e14aad6c9c9c4552b993376d65",
    "train/eval.tsv": "7003fae96181fc7a4d41a08e9f4d806f745b17518acbe285edd9336092ca7950",
    "pca/<stdout>": "6464f85471dbe170833aa4e3cb568ccdd3ad3146e3baae5902701ff2a280ef4c",
    "pca/pca_loadings.tsv": "998efec1448cf70bbaf87821917ebde9ebcf83f0aebf45d99d6dad3a2addcfa5",
    "pca/pca_summary.json": "be6468875b83f675359c6b0afa1bd760ba0921570585ab48a81e6c54256e2023",
    "pca/pca_top_words.tsv": "05c91690a26ad3207c024ccf3ce34ac1ce3493dfdfd7f7a0b082d652ec6cc65e",
    "mds/<stdout>": "07718ab3de4eea9f1f5a2d8ca06cdae93d71cfbee6d2f8115e1279fbf6ac1eb3",
    "mds/mds_coordinates.tsv": "b328556efbd17dbd92357e753bcd5330b1a1f49be1402f19cedcedbc6224c726",
    "mds/mds_summary.json": "0afda654d16ce28242ae76019f6d63703b765e5846b55669b11c2ef59d02ba50",
    "pipeline/<stdout>": "f7cf8047c4448a9edd1e787c665438fe6da5c50e6d53b0eebf589c66b51c083f",
    "pipeline/candidates.json": "f0b2f8975622c24eb89b78b34471a5b63098e527e0aec7dcfc9c2c9fd9e8e50e",
    "pipeline/candidates.tsv": "d73cca63e996456031f3707cf07adb050f60cd2c9e1594bd41dffc2ba434aa08",
    "pipeline/pairs_m1.tsv": "eb92bbb842c9f84674217e0f37d5dfe0978effee32547c8ad7f3554217d11fe2",
    "pipeline/pairs_m2.tsv": "62dccab25e2c66872e4613487bf21b0be3a5ec73c60a0284aa01241745e5bd6e",
    "pipeline/skipped_m1.tsv": "96584f2e2784c8e90b735c17fcae8028947c341d0197762da15cd46c4d14bafa",
    "pipeline/skipped_m2.tsv": "96584f2e2784c8e90b735c17fcae8028947c341d0197762da15cd46c4d14bafa",
}


def test_every_artifact_matches_golden_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    make_workspace(tmp_path)
    digests = run_all(tmp_path, capsys)
    assert sorted(digests) == sorted(EXPECTED)
    changed = [name for name in EXPECTED if digests[name] != EXPECTED[name]]
    assert not changed, f"artifacts differ from the golden digests: {changed}"
