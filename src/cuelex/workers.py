"""Run one function over a list of items in child processes forked from this one.

A child inherits the whole address space, so ``fn`` may be a closure over
large arrays: only each call's result, exception and warnings are pickled
back.  Results, warnings and the first exception come out in item order, as
``[fn(item) for item in items]`` would give them, whatever the number of
processes.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback
import types
import warnings


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]``, one child per usable CPU (at most one per item).

    Item ``i`` goes to child ``i % n``.  The warnings of each call are
    re-issued here in item order; the first call to fail, in item order,
    raises its exception here after the warnings of the calls before it.  A
    child that ends without sending its results fails at its first item.
    With one usable CPU or one item, the calls run in this process.
    """
    items = list(items)
    n = min(_usable_cpus(), len(items))
    if n <= 1:
        return [fn(item) for item in items]
    sys.stdout.flush()  # a child must not inherit unflushed output
    sys.stderr.flush()
    outcomes = {}  # item index -> (ok, result or exception, warnings)
    children = {}  # pid -> read end of its pipe, for each child not yet reaped
    try:
        for w in range(n):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in (read, write):
                    os.close(fd)
                raise
            if pid == 0:
                _child(fn, items[w::n], read, write)
            children[pid] = open(read, "rb")
            os.close(write)
        for w, (pid, pipe) in enumerate(list(children.items())):
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status == 0:
                outcomes.update(zip(range(w, len(items), n), pickle.loads(data)))
            else:
                lost = RuntimeError(f"worker process {pid} ended with status {status}")
                outcomes[w] = (False, lost, [])
    finally:  # after an error in this process: stop and reap the children left
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = []
    for i in range(len(items)):
        ok, value, caught = outcomes[i]
        _reissue(caught)
        if not ok:
            raise value
        results.append(value)
    return results


def _child(fn, items, read: int, write: int) -> None:
    """Call ``fn`` on each item until one fails, pickle the outcomes to ``write`` and exit."""
    status = 1
    try:
        os.close(read)
        outcomes = []
        for item in items:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    ok, value = True, fn(item)
                except Exception as exc:
                    if hasattr(exc, "add_note"):  # Python 3.11+: the traceback goes along
                        tb = "".join(traceback.format_tb(exc.__traceback__))
                        exc.add_note(f"raised in worker process {os.getpid()}:\n{tb}")
                    ok, value = False, exc
            caught = [(w.message, w.category, w.filename, w.lineno) for w in caught]
            outcomes.append((ok, value, caught))
            if not ok:
                break
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(outcomes))
        status = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)  # no atexit handler runs and no inherited buffer is flushed


def _reissue(caught) -> None:
    """Issue recorded warnings with the module and registry of the module that raised them.

    So filters by module apply, and the "default" action shows a warning once
    per module and line, as a call in this process would.
    """
    for message, category, filename, lineno in caught:
        module = next(
            (
                m for m in list(sys.modules.values())
                # a lazily registered module not yet executed raised nothing; leave it unexecuted
                if type(m) is types.ModuleType and getattr(m, "__file__", None) == filename
            ),
            None,
        )
        registry = vars(module).setdefault("__warningregistry__", {}) if module else None
        warnings.warn_explicit(
            message, category, filename, lineno, module and module.__name__, registry
        )
