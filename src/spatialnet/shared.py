"""Work shared with one forked child: the report's passes and the null-model
ensembles' replicates.

A job ``(items, work, args, label)`` is ``items`` numbered pieces of work
that may run in any process and order. ``run`` cuts them into at most 255
contiguous blocks (``_block``), writes the block numbers into a pipe of the
job's own, one byte each, and forks when there are two blocks or more in
all and ``can_fork`` holds. Both processes run the jobs in order, each as
``work(indices, *args)``, where ``indices`` yields the items of each block
that this process reads first, in increasing order; a job's two result
dicts are merged. Without a fork (or if it fails) this process claims all.

The child sends its results, or ``"Type: message"`` when a ``work`` raises
an Exception, through a second pipe with ``marshal``, and leaves by
``os._exit``, so none of the parent's cleanup runs in it. The parent reads
that pipe to EOF before it reaps the child, so no result can deadlock, and
raises SweepChildError, naming the job, when the child's ``work`` raised or
the child sent nothing whole. From the fork on, any exception in the parent
(``cli.main`` turns SIGTERM into one) kills and reaps the child and closes
the result pipe.

``multiprocessing`` and ``pickle`` are left out on purpose (README,
"Shortest paths"): a spawn pool re-imports the package, and importing
``multiprocessing`` alone costs more peak RSS than the benchmark allows.
Counters kept in the parent do not see the child's work.
"""

from __future__ import annotations

import marshal
import os
import signal
import threading
from functools import partial
from typing import Callable, Sequence

from .exceptions import ComputeError


class SweepChildError(ComputeError):
    """The child process that shares ``measure_report``'s passes or a
    null-model ensemble's replicates (``run``) raised, or exited without
    sending its result."""


def can_fork() -> bool:
    """Whether this process may share work with a forked child: ``os.fork``
    and ``os.sched_getaffinity`` exist, the process may use a second CPU,
    and no other Python thread runs, since a fork copies only the calling
    thread. The children run pure Python and elementwise numpy, never
    BLAS, so a native library's idle thread pool is never needed in them."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def _block(b: int, count: int, blocks: int) -> range:
    """Block b of ``range(count)`` cut into ``blocks`` contiguous blocks."""
    return range(b * count // blocks, (b + 1) * count // blocks)


def run(jobs: Sequence[tuple[int, Callable, tuple, str]]) -> list[dict]:
    """Each job ``(items, work, args, label)`` run as ``work(indices, *args)``
    by this process and, as the module docstring says, by one forked
    child; returns each job's two result dicts merged."""
    blocks = [min(items, 255) for items, *_ in jobs]  # one byte per block number
    queues, mine, ends = [], [], []  # ends: the result pipe's open descriptors

    def claim() -> list[dict]:
        for (items, work, args, _), count, queue in zip(jobs, blocks, queues):
            claimed = map(ord, iter(partial(os.read, queue, 1), b""))
            mine.append(work((i for b in claimed for i in _block(b, items, count)), *args))
        return mine

    pid = 0
    try:
        for count in blocks:
            queue, write_fd = os.pipe()
            queues.append(queue)
            with open(write_fd, "wb") as pipe:
                pipe.write(bytes(range(count)))
        if sum(blocks) <= 1 or not can_fork():
            return claim()
        ends = list(os.pipe())
        try:
            pid = os.fork()
        except OSError:
            return claim()
        if pid == 0:
            status = 1
            try:
                # SIGTERM ends the child at once; cli.main's handler is the parent's
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.close(ends[0])
                error = None
                try:
                    claim()
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                with open(ends[1], "wb") as pipe:
                    marshal.dump((mine, error), pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(ends.pop())  # closed even when it raises
        claim()
        data = b"".join(iter(partial(os.read, ends[0], 1 << 16), b""))
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        pid = 0
    except BaseException:
        if pid > 0:  # forked and not reaped
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        for fd in queues + ends:
            os.close(fd)
    if code != 0 or not data:
        labels = ", ".join(dict.fromkeys(job[3] for job in jobs))
        raise SweepChildError(f"the child process of {labels} "
                              f"exited with code {code} and sent no result")
    theirs, error = marshal.loads(data)
    if error is not None:  # the child finished the jobs before the one that raised
        raise SweepChildError(f"{jobs[len(theirs)][3]} failed in its child process: {error}")
    return [{**here, **there} for here, there in zip(mine, theirs)]
