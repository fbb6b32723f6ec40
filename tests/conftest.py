import atexit
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))

# Every run draws the same examples and replays none stored by an earlier run,
# so two checkouts of one commit give the same outcomes.  Each test's own
# settings (max_examples) still apply on top of this profile.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
# Hypothesis still caches what it derives from source files under its home
# directory (./.hypothesis by default); a run-local one keeps the checkout clean.
_hypothesis_home = tempfile.mkdtemp(prefix="cuelex-hypothesis-")
atexit.register(shutil.rmtree, _hypothesis_home, ignore_errors=True)
set_hypothesis_home_dir(_hypothesis_home)

from w2v_writer import write_binary  # noqa: E402

import cuelex  # noqa: E402
from cuelex.embeddings import load_model  # noqa: E402


def child_env(env=os.environ):
    """``env`` with the ``src`` directory this suite imports cuelex from first on PYTHONPATH."""
    src = str(Path(cuelex.__file__).parent.parent)
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(label): exit-criterion test; prints a PASS/FAIL line"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker and report.when == "call":
        label = marker.kwargs.get("label") or item.name
        status = "PASS" if report.passed else "FAIL"
        print(f"[acceptance] {label}: {status}")


def random_tokens(rng, n):
    """Distinct pronounceable-ish tokens, some sharing a lowercase key."""
    tokens = set()
    while len(tokens) < n:
        length = rng.randint(2, 9)
        word = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(length))
        if rng.random() < 0.15:
            word = word.capitalize()
        tokens.add(word)
    out = sorted(tokens)
    rng.shuffle(out)
    return out


def make_model(tmp_path, seed=0, n=100, dim=8, name="synthetic", duplicates=0):
    """Write a random binary model with the independent writer and load it."""
    rng = random.Random(seed)
    tokens = random_tokens(rng, n)
    vectors = np.array(
        [[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(n)], dtype=np.float32
    )
    # exact duplicate vectors exercise the tie-break rule
    for i in range(duplicates):
        vectors[(2 * i + 1) % n] = vectors[(2 * i) % n]
    path = tmp_path / f"{name}_{seed}.bin"
    write_binary(path, tokens, vectors, record_newlines=bool(seed % 2))
    return load_model(path, "binary", name=name)


@pytest.fixture
def toy_model(tmp_path):
    return make_model(tmp_path, seed=1, n=60, dim=6)


def set_cpus(monkeypatch, n):
    """Let this process see ``n`` usable CPUs: ``workers.fork_map`` starts ``n`` workers at most."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def forks(monkeypatch):
    """The pids of the worker processes forked during the test."""
    started = []
    real = os.fork

    def spy():
        pid = real()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return started


def no_child_left() -> bool:
    """Whether this process has no child, running or unreaped (plain forks included)."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
