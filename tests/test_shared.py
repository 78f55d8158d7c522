"""Work shared with one forked child (``spatialnet.shared``): every item of
every job is handed out once, results come back whole, and every way
through, failures included, leaves no child and no open descriptor."""

import contextlib
import errno
import marshal
import os
import time

import pytest

from spatialnet import measures, shared
from spatialnet.shared import SweepChildError

import fixtures


def _claimed_by_pid(indices, a, b):
    return {os.getpid(): (list(indices), divmod(a, b))}


def _job(items, work, *args, label="a test task"):
    return items, work, args, label


def _allow_fork(monkeypatch, allowed=True):
    monkeypatch.setattr(shared, "can_fork", lambda: allowed)


def _counting_forks(monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def test_forked_task_returns_its_result(monkeypatch):
    _allow_fork(monkeypatch)
    with fixtures.leaves_nothing_behind():
        [result] = shared.run([_job(5, _claimed_by_pid, 47, 5)])
    assert os.getpid() in result and len(result) == 2  # one result from each process
    assert sorted(item for claimed, _ in result.values() for item in claimed) == list(range(5))
    assert [quotient for _, quotient in result.values()] == [(9, 2), (9, 2)]


def test_forked_result_larger_than_the_pipe_buffer_arrives_whole(monkeypatch):
    big = {f"node{i:06d}": i / 7.0 for i in range(50_000)}
    assert len(marshal.dumps(big)) > 16 * 65536  # about 1 MB
    _allow_fork(monkeypatch)
    with fixtures.leaves_nothing_behind():
        assert shared.run([_job(2, fixtures.in_the_child(dict), big)]) == [big]


@pytest.mark.parametrize("task, message", [
    (fixtures.raise_memory_error, "a test task failed in its child process: "
                                  "MemoryError: no room for the km pass"),
    (fixtures.exit_silently,
     "the child process of a test task exited with code 0 and sent no result"),
], ids=["raises", "exits"])
def test_failing_child_raises_sweep_child_error(monkeypatch, task, message):
    _allow_fork(monkeypatch)
    with fixtures.leaves_nothing_behind():
        with pytest.raises(SweepChildError, match=message):
            shared.run([_job(2, fixtures.in_the_child(task))])


def test_failed_fork_runs_the_task_in_this_process(monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    _allow_fork(monkeypatch)
    with fixtures.leaves_nothing_behind():
        result = shared.run([_job(5, _claimed_by_pid, 47, 5), _job(2, _claimed_by_pid, 8, 3)])
    assert result == [{os.getpid(): ([0, 1, 2, 3, 4], (9, 2))}, {os.getpid(): ([0, 1], (2, 2))}]


def test_unforked_task_runs_in_this_process_and_opens_nothing(monkeypatch):
    # one item, or two or more where no fork is allowed
    forks = _counting_forks(monkeypatch)
    for items, allowed in ((1, True), (3, False)):
        _allow_fork(monkeypatch, allowed)
        with fixtures.leaves_nothing_behind():
            result = shared.run([_job(items, _claimed_by_pid, 47, 5)])
        assert result == [{os.getpid(): (list(range(items)), (9, 2))}]
    assert forks == []


def test_zero_item_job_hands_out_nothing_and_is_not_forked_for(monkeypatch):
    # a job of no items (the report's time pass without an epoch) queues no
    # block, so beside a one-item job there is nothing to share
    forks = _counting_forks(monkeypatch)
    _allow_fork(monkeypatch)
    with fixtures.leaves_nothing_behind():
        result = shared.run([_job(0, _claimed_by_pid, 47, 5), _job(1, _claimed_by_pid, 8, 3)])
    assert result == [{os.getpid(): ([], (9, 2))}, {os.getpid(): ([0], (2, 2))}]
    assert forks == []


def _fail_here_and_sleep_there(indices, parent):
    if os.getpid() == parent:
        raise KeyError("parent failed first")
    time.sleep(600)


def test_parent_failure_kills_and_reaps_the_child(monkeypatch):
    _allow_fork(monkeypatch)
    start = time.perf_counter()
    with fixtures.leaves_nothing_behind():
        with pytest.raises(KeyError):
            shared.run([_job(2, _fail_here_and_sleep_there, os.getpid())])
    assert time.perf_counter() - start < 30


def _sleep_there(indices, parent):
    if os.getpid() != parent:
        time.sleep(600)
    return dict.fromkeys(indices)


def test_failure_right_after_the_fork_kills_and_reaps_the_child(monkeypatch):
    # the parent's first step after the fork, closing the result pipe's
    # write end, raises once (as a SIGTERM there would): the child that
    # would claim every block is killed and reaped, and both ends are closed
    parent = os.getpid()
    forks = _counting_forks(monkeypatch)
    close = os.close
    failed = []

    def close_failing_once(fd):
        close(fd)  # a failing close still frees the descriptor on Linux
        if forks and not failed and os.getpid() == parent:
            failed.append(fd)
            raise OSError(errno.EIO, "close failed")

    monkeypatch.setattr(os, "close", close_failing_once)
    _allow_fork(monkeypatch)
    start = time.perf_counter()
    with fixtures.leaves_nothing_behind():
        with pytest.raises(OSError, match="close failed"):
            shared.run([_job(2, _sleep_there, parent)])
    assert len(forks) == 1 and len(failed) == 1
    assert time.perf_counter() - start < 30


def _claimed_with_pid(indices, scale):
    return {item: (os.getpid(), item * scale) for item in indices}


@pytest.mark.parametrize("allowed", [False, True], ids=["serial", "forked"])
def test_every_task_of_every_job_is_claimed_once(monkeypatch, tmp_path, allowed):
    # four jobs of 255, 1, 7 and 600 items share one fork; each item is
    # handed out to one process only, in increasing order in each, and each
    # job's two results are merged
    forks = _counting_forks(monkeypatch)
    _allow_fork(monkeypatch, allowed)
    sizes = (255, 1, 7, 600)
    with contextlib.ExitStack() as stack:
        logs = [stack.enter_context(fixtures.PidLog(tmp_path / f"job{j}"))
                for j in range(len(sizes))]
        jobs = [_job(items, log.claims(_claimed_with_pid), j + 1, label=f"job {j}")
                for j, (items, log) in enumerate(zip(sizes, logs))]
        with fixtures.leaves_nothing_behind():
            done = shared.run(jobs)
    assert len(forks) == allowed
    assert len(done) == len(sizes)
    for j, (items, log, result) in enumerate(zip(sizes, logs, done)):
        assert log.items() == list(range(items))
        for pid in {pid for pid, _ in log.read()}:
            handed = [item for owner, item in log.read() if owner == pid]
            assert handed == sorted(handed)
        assert result == {item: (pid, item * (j + 1)) for pid, item in log.read()}
    if not allowed:
        assert {pid for result in done for pid, _ in result.values()} == {os.getpid()}


def test_child_failure_names_the_job_it_failed_in(monkeypatch):
    # the child finishes job 1, then raises as job 2 starts; job 3 runs here
    _allow_fork(monkeypatch)
    with fixtures.leaves_nothing_behind():
        with pytest.raises(SweepChildError) as info:
            shared.run([_job(3, _claimed_by_pid, 1, 1, label="job 1"),
                        _job(2, fixtures.in_the_child(fixtures.raise_memory_error),
                             label="job 2"),
                        _job(4, _claimed_by_pid, 1, 1, label="job 3")])
    assert str(info.value) == ("job 2 failed in its child process: "
                               "MemoryError: no room for the km pass")


def test_blocks_partition_every_count():
    # contiguous blocks in order, which differ in size by one at most
    for count in range(1, 1001):
        for blocks in (min(count, 255), 253):
            cut = [shared._block(b, count, blocks) for b in range(blocks)]
            assert [i for block in cut for i in block] == list(range(count))
            assert max(map(len, cut)) - min(map(len, cut)) <= 1


def test_report_passes_are_claims_of_their_own_past_507_sources(monkeypatch, tmp_path):
    # with 2 + n items in one job, block 0 of 255 would hold both passes
    # from n = 508 on; as a job of their own, each pass is one claim, so a
    # process that holds one pass and waits for the other to be claimed
    # elsewhere never waits in vain
    g = fixtures.geo_inputs(tmp_path, 508, 1)[1]
    _allow_fork(monkeypatch)
    with fixtures.PidLog(tmp_path / "passes") as log:

        def elsewhere():
            return {item for pid, item in log.read() if pid != os.getpid()}

        def passes(indices, g):
            for item in indices:
                log.write(item)
                deadline = time.monotonic() + 10.0
                while 1 - item not in elsewhere() and time.monotonic() < deadline:
                    time.sleep(0.01)
            return {}

        monkeypatch.setattr(measures, "_report_passes", passes)
        monkeypatch.setattr(measures, "_time_rows", lambda indices, g, arcs: dict.fromkeys(indices))
        with fixtures.leaves_nothing_behind():
            done = shared.run(measures.plan_report(g, "2010")[0])
    assert log.items() == [0, 1]
    assert len({pid for pid, _ in log.read()}) == 2
    assert done == [{}, dict.fromkeys(range(g.n))]
