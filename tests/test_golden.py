"""Golden artifacts: every subcommand's --out files and stdout, byte for byte.

All 18 subcommands run in-process on one small fixed workspace with
``--reproducible --rng-seed 3``.  Two things are pinned separately:

* the sha256 of every file they write and of every stdout, with the 12-hex
  config digest masked, so a change to the output code must leave every
  other byte of every artifact unchanged;
* the config digest each artifact carries, so a change to what the digest
  hashes shows up on its own.

The workspace is addressed by relative paths from inside it, because the
config digest in every artifact header hashes the paths as given.

Digests captured on CPython 3.11.7 with numpy 2.4.6.  The float outputs of
``pca``, ``mds``, ``train`` and the similarity columns go through numpy's
linear algebra, so another numpy or BLAS build may legitimately change them.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re

import numpy as np
import pytest

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


# "config: <digest>" above a TSV header and in GEXF, "config_digest" in JSON meta
DIGEST = re.compile(rb'(config: |"config_digest": ")([0-9a-f]{12})')


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(root) -> tuple[dict[str, str], dict[str, set[str]]]:
    """Run every command in order.

    Returns the masked sha256 of each artifact and each stdout, and the set of
    config digests found in each artifact that carries one.
    """
    masked, configs = {}, {}
    for command, *args in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, *args, "--out", command, "--reproducible", "--rng-seed", "3"])
        assert code == 0, (command, err.getvalue())
        outputs = {"<stdout>": out.getvalue().encode()}
        outputs.update((f.name, f.read_bytes()) for f in sorted((root / command).iterdir()))
        for name, data in outputs.items():
            key = f"{command}/{name}"
            masked[key] = _sha(DIGEST.sub(rb"\1<digest>", data))
            found = {m.group(2).decode() for m in DIGEST.finditer(data)}
            if found:
                configs[key] = found
    return masked, configs


EXPECTED = {
    "expand/<stdout>": "0f4f55333233684563f4bbcea6bb3a79f76db8c8ccabd05c5f39e82e529307d5",
    "expand/pairs_m1.tsv": "60a048152425743d502b4c63280a7d715e40e6c16c18e41360e6777e338e1484",
    "expand/pairs_m2.tsv": "bbe9312be6afe3aa38e269d00559e741b44c465cec20fad6b971630c7fd26df7",
    "expand/skipped_m1.tsv": "ec9456834e976112251af9c29dcd511adbd228b9d123bf029315398d47524ada",
    "expand/skipped_m2.tsv": "ec9456834e976112251af9c29dcd511adbd228b9d123bf029315398d47524ada",
    "intersect/<stdout>": "6e9ff2b4a0378cb9aee02f38afc76196610e11be51c14d472b6e0548376259fc",
    "intersect/candidates.json": "9c50848cefd92c07200ba14cc9a045ebd832297858c0acb912b7e5fd2937d20a",
    "intersect/candidates.tsv": "1a9d674f48fe133f0423f5fe1e2775c38539e7d643988742908ee737097ee9ee",
    "score/<stdout>": "695d0ad5b1fd9da7a981f34ce5f7e3bcdc7f3fcfae3f9a6e8824587cee049f6d",
    "score/candidates.json": "94b769066e251e4438e5545ba797d97a4bb01df40fb7e67de8d2d476afef1b89",
    "score/candidates.tsv": "979f60aa2d0b5d37c25eec44199541f2ff8dc13a5e80841740f873ba482dc84a",
    "split/<stdout>": "040a2c70a18a5d4b3cc58114447d29cfbc139a586eaf5ea132fca703c1d9113c",
    "split/s_minus.tsv": "c93d12885c599f5d9f77bb711f77637c86575018dff8da83f9894aa054be8c90",
    "split/s_plus.tsv": "1a53eb4597db206499d3a2cdc2ddfabb74ff05039a99c86d838a3a00c6dc59a0",
    "split/split_summary.json": "ca7a39e9c4d5c8db7a5e1cddf3ebc0a2e36a0a8cc73b6753cd1e758c26b37c89",
    "ratios/<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "ratios/ratios.json": "5aa16d65bc59d9449eed8483e00af596b5504ebd968770fd8f83cfb08d1ebf4f",
    "ratios/ratios.tsv": "85945d0bfa33e4182fb0343ba8a69e88532bffe3da438a12035e8a040bc4f38f",
    "relscore/<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "relscore/relscore.json": "bbebe55ba979ea37e36de03382174e14f54fbec92c8679dfe6a7afa5df703ac8",
    "relscore/relscore.tsv": "45ceadbd05dff1ca362e5d2f358039d9d07611576d4fef7ac79b2e93d5caf5da",
    "rates/<stdout>": "1d85422672583eae8ca36d84132a35b342e9c0f3db19e3074cbffa74f1ffaf54",
    "rates/rates.json": "cec8e8f25dd948e7b318726093368eb091699e49946658df659741809da93b02",
    "rates/rates.tsv": "3367e3c6df394504dabe5ec9d0b9ca3641f79a300847f14cb641379c88215564",
    "find/<stdout>": "e0909c2d2f304d9d4dfc660b3d825e75c6f350b72dc78d0bcc2b5f45ad012f30",
    "find/sentences.json": "921c746b540cf3c1f0e0a0d9ecd12df9da530f3942d6261c2ed3db2611c3dda1",
    "find/sentences.tsv": "0d73869ceb10a4c3c65a578422a92519d2aedc7e0441ce8aa2442b4ea89ecc6d",
    "graph/<stdout>": "427e8601e3ebdb352b91f417c0b165e5baedfd7bb6b47894ef3b1a74883b8463",
    "graph/edges.tsv": "8b2be9aeb0dca5c27823364e4b5be180af77b4912f851a4780a0e5bcb7b47aa1",
    "graph/nodes.tsv": "a3785f7753a54604c71fbe25185916a44a1833412af00cc0712ca12924eaac84",
    "cluster/<stdout>": "5bc9d12d2d1ecc417c87034a68e17a4fdce45715c5e88d5ac21326f236959d77",
    "cluster/cluster_summary.json": "9dc1b35c53ae1eec64ff51624193492dc09ebff0b6fe12226729e10ec14877e1",
    "cluster/composition.tsv": "8231b6db5270e657dd3457de396b2203f5230f91335fdb5ba691d6fae3a41254",
    "cluster/nodes_clustered.tsv": "14a1aaf04eb96ce8edcff71ed2db2b14a4828d98ae22e085f07d4800b219577d",
    "rank/<stdout>": "44a49b688db4af176e255c26130830e20bfac34505656e866edc5c6566dd6980",
    "rank/nodes_ranked.tsv": "75647df3c7da0b8fa68f23f129bb4db6f9ccc442fdeeb0a75fa458bbd1e75df2",
    "export/<stdout>": "0cf73126d2cb064a2367b345270d7a506718cc8657d3f16830c82c8d48ca6f1d",
    "export/graph.gexf": "d25263ad68c10e93c46d115f23acf9e1cb85bd324610e472323780dae00e3e1b",
    "agree/<stdout>": "f7d8759f51e36bf776cb5a90724e6fd96f5f486d3884afa0d6cbfe0232df7dcd",
    "agree/agreement.json": "c882a051db344decaa44783744b3e4839a755b2b2dc5b6dfc326ba905b9f3c36",
    "agree/agreement.tsv": "b2cd416e3abacf50adfbef38a5e43e08262c7c795cd06a5654b990076333ca79",
    "dataset/<stdout>": "910368d9a19191c384d78d816d883641205e2615e0c4750eedda0528117bddd2",
    "dataset/dataset.tsv": "4153a9ef38a7d1b4cf611befb32c74d001e6b2b218a8f781288ec8e41c225498",
    "dataset/dataset_features.npy": "483e82698f5407b139139df3bf4bedea63eaa2cc350b9438d35a5fd2339dff7a",
    "dataset/dataset_summary.json": "83fcd3868d6c3f8e8cd71f04d75b1acbd349acda2720842a75ac974bd34f86e0",
    "train/<stdout>": "76bcbdbecae5b7a3639ea4559178cbd31ffc5aec7e4001932e8e1d193934ebdc",
    "train/eval.json": "21594e2b560232709dc5e816af61a0d0f9d6bc506a4977f136731da8040cb5a4",
    "train/eval.tsv": "4dcb7b4a1f1ed141b5bfe1311b31976f3b763169667d91021ab61d63433db963",
    "pca/<stdout>": "6464f85471dbe170833aa4e3cb568ccdd3ad3146e3baae5902701ff2a280ef4c",
    "pca/pca_loadings.tsv": "a04c3a9efbf3ad8690bdd37717194f89ce45afe6fd9a7f16e9f6c662e0cae88f",
    "pca/pca_summary.json": "7bfe495b8198b629e5239d9b7f9672baa385c6b743e0f01a35eb03adf1738ba6",
    "pca/pca_top_words.tsv": "ba717254d80f3c55f2481846c5fbae86b995590d5da36e03a0a45bd3916fb9c3",
    "mds/<stdout>": "07718ab3de4eea9f1f5a2d8ca06cdae93d71cfbee6d2f8115e1279fbf6ac1eb3",
    "mds/mds_coordinates.tsv": "87bb3252d0278e25203c5b01966081a72f6b56e8b795150f54e66cb9b5e35c72",
    "mds/mds_summary.json": "2036bbca79f6be0b2fee01e5547a4590f3c875b84a67d788e9bee86459eb7da7",
    "pipeline/<stdout>": "f7cf8047c4448a9edd1e787c665438fe6da5c50e6d53b0eebf589c66b51c083f",
    "pipeline/candidates.json": "dee039c9559213e2b24e33fe9cfaabe29bbd30637dd9629a0aeb7d23ac27cb79",
    "pipeline/candidates.tsv": "979f60aa2d0b5d37c25eec44199541f2ff8dc13a5e80841740f873ba482dc84a",
    "pipeline/pairs_m1.tsv": "60a048152425743d502b4c63280a7d715e40e6c16c18e41360e6777e338e1484",
    "pipeline/pairs_m2.tsv": "bbe9312be6afe3aa38e269d00559e741b44c465cec20fad6b971630c7fd26df7",
    "pipeline/skipped_m1.tsv": "ec9456834e976112251af9c29dcd511adbd228b9d123bf029315398d47524ada",
    "pipeline/skipped_m2.tsv": "ec9456834e976112251af9c29dcd511adbd228b9d123bf029315398d47524ada",
}

# every artifact of one run carries its command's one config digest
CONFIG_DIGESTS = {
    "expand": "df1b7f0a9b83",
    "intersect": "2daf576af485",
    "score": "8e393df5574d",
    "split": "184f4c674464",
    "ratios": "dba9c033c1be",
    "relscore": "ceb429d13d59",
    "rates": "528f6f65d8e7",
    "find": "4e60551578a1",
    "graph": "ac19fd16010a",
    "cluster": "4e137a6f2955",
    "rank": "82095e2b176a",
    "export": "701e4b1921d4",
    "agree": "559f69c93b51",
    "dataset": "16d6d39b10a4",
    "train": "dc92896b39a1",
    "pca": "60c2dc044315",
    "mds": "4cbade08abba",
    "pipeline": "50a35b118cd7",
}


def _digests_by_command(configs) -> dict[str, set[str]]:
    by_command: dict[str, set[str]] = {}
    for name, found in configs.items():
        by_command.setdefault(name.split("/")[0], set()).update(found)
    return by_command


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        make_workspace(root)
        return run_all(root)
    finally:
        os.chdir(cwd)


def test_every_artifact_matches_golden_digest(golden_run):
    masked, _ = golden_run
    assert sorted(masked) == sorted(EXPECTED)
    changed = [name for name in EXPECTED if masked[name] != EXPECTED[name]]
    assert not changed, f"artifacts differ from the golden digests: {changed}"


def test_every_artifact_carries_its_recorded_config_digest(golden_run):
    _, configs = golden_run
    expected = {command: {digest} for command, digest in CONFIG_DIGESTS.items()}
    assert _digests_by_command(configs) == expected


def test_every_artifact_of_a_command_carries_one_config_digest(golden_run):
    _, configs = golden_run
    drifting = {c: sorted(d) for c, d in _digests_by_command(configs).items() if len(d) > 1}
    assert not drifting, f"commands whose artifacts carry different config digests: {drifting}"
