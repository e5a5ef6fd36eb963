"""Calls run on a set of forked worker processes, their results taken in task order.

A process holds at most one set of workers, forked at its first fan-out
and reused by the next ones while the worker count stays the same; it is
terminated and reaped when the count changes, when a worker has exited,
when a fan-out raises and at interpreter exit.  The parent's main thread
drives the fan-out by one fixed schedule: task i runs on worker i % W,
each worker holds at most two tasks in its own duplex pipe, and the
parent reads the one reply per task in task order, straight off that
worker's pipe, raising a task's exception in that order.  No thread is
started.  A worker that exits raises IoFailure when its turn comes.
Workers see the modules as they were when they forked, so a monkeypatch
made after the first fan-out does not reach them.
"""
from __future__ import annotations

import atexit
import multiprocessing
import os
from collections.abc import Callable

from .errors import IoFailure

# this process's workers as (pid, workers, processes, pipes), each pipe the
# parent's end of one worker's duplex pipe; see _worker_pool
_pool: tuple[int, int, list, list] | None = None


class _WorkerTraceback(Exception):
    """The traceback text of an exception a worker raised, chained as its cause."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _serve(pipe, inherited: list) -> None:
    """A worker's loop: receive a task, a function and its arguments, send its one reply, repeat.

    The reply is (True, what the call returns, None) or (False, the
    exception it raised, its traceback text); a reply that does not pickle
    is sent as a RuntimeError naming it.  The worker first closes the
    parent's pipe ends it inherited, so that its pipe reads end of file
    here once the parent's end closes, and returns then.
    """
    import traceback  # only workers format tracebacks

    for end in inherited:
        end.close()
    while True:
        try:
            fn, args = pipe.recv()
        except EOFError:
            return
        try:
            reply = True, fn(*args), None
        except Exception as exc:  # raised again in the parent
            reply = False, exc, traceback.format_exc()
        try:
            pipe.send(reply)  # pickled whole before a byte is written
        except OSError:  # the parent is gone
            return
        except Exception as exc:
            error = RuntimeError(f"sweep worker reply {reply[1]!r:.200} does not pickle: {exc!r}")
            pipe.send((False, error, traceback.format_exc()))


def _worker_pool(workers: int) -> tuple[list, list]:
    """This process's `workers` processes and their pipes, forked at first use and reused after.

    A set of another size, or one with a worker that has exited, is dropped
    before a new one forks.  The set is keyed by pid, so a forked child
    never uses its parent's.  Workers are forked, not spawned, so that they
    start with the modules already loaded.
    """
    global _pool
    pid = os.getpid()
    if _pool is None or _pool[:2] != (pid, workers) or not all(p.is_alive() for p in _pool[2]):
        _drop_pool()
        context = multiprocessing.get_context("fork")
        _pool = (pid, workers, [], [])  # filled in place, so a failed fork drops those before it
        for _ in range(workers):
            pipe, child = context.Pipe()
            process = context.Process(target=_serve, args=(child, [*_pool[3], pipe]), daemon=True)
            process.start()
            child.close()
            _pool[2].append(process)
            _pool[3].append(pipe)
    return _pool[2], _pool[3]


@atexit.register
def _drop_pool() -> None:
    """Terminate and reap this process's workers; forget a set inherited from a parent."""
    global _pool
    held, _pool = _pool, None
    if held is not None and held[0] == os.getpid():
        for process in held[2]:
            process.terminate()
        for process, pipe in zip(held[2], held[3]):
            process.join()
            pipe.close()


def _pipe_io(call, process, *args):
    """call(*args) on a worker's pipe; end of file or an error there raises IoFailure."""
    try:
        return call(*args)
    except (EOFError, OSError) as exc:
        process.join(5)  # its pipe closed as it exited: this reaps it and reads its exit code
        raise IoFailure(f"sweep worker {process.pid} exited with code {process.exitcode}") from exc


def _fan_out(workers: int, fn: Callable, tasks: list[tuple]) -> list:
    """fn(*args) for each argument tuple in tasks, run on this process's workers, in task order.

    Task i runs on worker i % workers.  Each worker's first two tasks are
    sent up front, and once the parent has read task i's reply it sends that
    worker task i + 2 * workers, so each worker starts its next task while
    the parent reads its reply.  The schedule suits tasks of about equal
    cost, as _run_chunked's runs of chunks are: a slow task stalls the other
    workers once they have run the two tasks they hold.  A task must pickle
    to a few hundred bytes, so that both of a worker's fit in its pipe and a
    send never waits on a worker that is itself sending.  A task's exception
    is raised when its turn comes, chained to the worker's traceback.  A
    worker that exits raises IoFailure when its turn comes, once the parent
    has read the replies to the tasks before the one it was running, which
    the other workers already hold.  An exception that leaves here drops the
    workers (_drop_pool), which may still be running this fan-out's tasks.
    The results come back as one list, not one by one, so no caller can
    leave a fan-out half read with its tasks still in the workers.
    """
    processes, pipes = _worker_pool(workers)
    results = []
    try:
        # step i reads the reply to task i - 2 * workers and sends task i,
        # both on worker i % workers
        for i in range(len(tasks) + 2 * workers):
            process, pipe = processes[i % workers], pipes[i % workers]
            if i >= 2 * workers:
                ok, reply, text = _pipe_io(pipe.recv, process)
                if not ok:
                    raise reply from _WorkerTraceback(text)
                results.append(reply)
            if i < len(tasks):
                _pipe_io(pipe.send, process, (fn, tasks[i]))
    except BaseException:
        _drop_pool()
        raise
    return results
