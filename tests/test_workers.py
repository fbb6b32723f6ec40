import errno
import os
import signal
import warnings

import numpy as np
import pytest

from conftest import no_child_left, set_cpus

from cuelex import workers

ITEMS = list(range(7))


def outcome(call, action):
    """What ``call()`` returns or raises, and the warnings it shows under ``action``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        try:
            got = ("result", call())
        except Exception as exc:
            got = ("error", type(exc), str(exc))
    return got, [(w.category, w.filename, w.lineno, str(w.message)) for w in caught]


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
def test_results_come_back_in_item_order_from_a_closure(monkeypatch, forks, n_cpus):
    set_cpus(monkeypatch, n_cpus)
    table = np.arange(len(ITEMS)) * 10  # a closure over an array: nothing but results is pickled
    parent = os.getpid()

    def work(i):
        return i, int(table[i]), os.getpid(), bytes(200_000)  # more than a pipe buffer holds

    results = workers.fork_map(work, ITEMS)
    assert [r[:2] for r in results] == [(i, 10 * i) for i in ITEMS]
    pids = [r[2] for r in results]
    if n_cpus == 1:  # runs in this process
        assert forks == [] and set(pids) == {parent}
    else:  # item i runs in child i % n
        assert pids == [forks[i % n_cpus] for i in ITEMS] and len(set(forks)) == n_cpus
    assert no_child_left()


def test_one_item_runs_in_this_process(monkeypatch, forks):
    set_cpus(monkeypatch, 4)
    assert workers.fork_map(lambda item: (item, os.getpid()), ["x"]) == [("x", os.getpid())]
    assert forks == []


def warn_then_maybe_fail(failing):
    def work(i):
        warnings.warn(f"item {i % 3}")  # items 0, 3 and 6 warn the same text from one line
        if i in failing:
            raise ValueError(f"item {i} failed")
        return i * i

    return work


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize("action", ["always", "default"])
@pytest.mark.parametrize("failing", [(), (4,), (2, 5), (5, 1)])
def test_warnings_and_first_error_come_out_as_in_a_serial_loop(
    monkeypatch, n_cpus, action, failing
):
    work = warn_then_maybe_fail(failing)
    expected = outcome(lambda: [work(item) for item in ITEMS], action)
    set_cpus(monkeypatch, n_cpus)
    assert outcome(lambda: workers.fork_map(work, ITEMS), action) == expected
    assert no_child_left()


def test_a_warning_as_error_raises_here(monkeypatch):
    set_cpus(monkeypatch, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="item 0"):
            workers.fork_map(warn_then_maybe_fail(()), ITEMS)
    assert no_child_left()


def test_a_worker_error_carries_the_worker_traceback(monkeypatch):
    set_cpus(monkeypatch, 2)

    def work(i):
        if i == 1:
            raise ValueError("item 1 failed")
        return i

    with pytest.raises(ValueError, match="item 1 failed") as info:
        workers.fork_map(work, ITEMS)
    if hasattr(info.value, "add_note"):  # Python 3.11+
        (note,) = info.value.__notes__
        assert note.startswith("raised in worker process") and ", in work\n" in note
    assert no_child_left()


def test_a_killed_worker_fails_at_its_first_item(monkeypatch):
    set_cpus(monkeypatch, 2)
    parent = os.getpid()

    def work(i, failing=()):
        if i in failing:
            raise ValueError(f"item {i} failed")
        if i == 3 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    with pytest.raises(RuntimeError, match=r"worker process \d+ ended with status -9"):
        workers.fork_map(work, ITEMS)
    assert no_child_left()
    # item 1 is the killed worker's first item, so an error at item 0 is the one raised
    with pytest.raises(ValueError, match="item 0 failed"):
        workers.fork_map(lambda i: work(i, failing=(0,)), ITEMS)
    assert no_child_left()


def test_an_error_in_this_process_stops_and_reaps_every_child(monkeypatch):
    set_cpus(monkeypatch, 2)

    def broken_loads(data):
        raise OSError("pipe read failed")

    monkeypatch.setattr(workers.pickle, "loads", broken_loads)
    with pytest.raises(OSError, match="pipe read failed"):
        workers.fork_map(lambda i: i, ITEMS)
    assert no_child_left()


def test_a_failed_fork_closes_its_pipe_and_reaps_the_children_started(monkeypatch):
    set_cpus(monkeypatch, 3)
    fds, forks, real_pipe, real_fork = [], [], os.pipe, os.fork

    def pipe():
        ends = real_pipe()
        fds.extend(ends)
        return ends

    def fork():
        forks.append(1)
        if len(forks) == 2:  # the second of three workers
            raise OSError(errno.EAGAIN, "fork failed")
        return real_fork()

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(OSError, match="fork failed"):
        workers.fork_map(lambda i: i, ITEMS)
    assert len(fds) == 4  # the pipes of the first worker and of the one that failed
    for fd in fds:
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF
    assert no_child_left()
