"""The package's cores, forked children and threads, in one place.

usable_cores is the one core count: fork_split's gate reads it, and so
does the logit tile pool of `_products.for_each_tile`, which sizes its
workers by it and runs them through fan_out.  Callers reach every name
here as `_parallel.<name>` at use time, so patching one attribute of
this module governs both.  No result depends on any of it: a closed
gate, a fork that cannot start and a thread that cannot start each
leave the work to the calling process or thread, which gives the same
bytes.
"""

from __future__ import annotations

import os
import tempfile
import threading

from .errors import FishropeError


def usable_cores() -> int:
    """CPUs this process may run on: its affinity set, else the host's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def fork_split(child, parent, collect, failure: str):
    """Run child(out) in a forked process while parent() runs in this one.

    The gate: the platform has os.fork, this process may run on two or
    more cores and no other Python thread is alive (one could hold a lock
    that the child would wait on for ever).  When it says no, nothing
    runs and the result is None, so the caller does all its work in one
    process.  An OSError from making the temporary file or from os.fork
    (a full process table) comes before any child exists and closes the
    gate the same way.  Otherwise the child writes to `out`, an unnamed
    binary temporary file, and leaves only through os._exit: 0 once `out`
    is flushed, 1 if child raised, with no traceback.  This process runs
    parent() meanwhile and then waits for the child, also when parent()
    raises, so no child outlives the call.  A child that exited non-zero
    raises FishropeError "<failure> failed (exit code N)"; one that
    exited 0 leaves `out` rewound for collect(out).  Returns
    (parent(), collect(out)).
    """
    if not (
        hasattr(os, "fork") and usable_cores() >= 2 and threading.active_count() == 1
    ):
        return None
    try:
        out = tempfile.TemporaryFile()
    except OSError:
        return None
    with out:
        try:
            pid = os.fork()
        except OSError:
            return None
        if pid == 0:
            status = 1
            try:
                child(out)
                out.flush()
                status = 0
            finally:
                os._exit(status)
        try:
            result = parent()
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code != 0:
            raise FishropeError(f"{failure} failed (exit code {code})")
        out.seek(0)  # the child moved the shared offset to its end
        return result, collect(out)


def fan_out(work, n_workers: int) -> None:
    """Call work(w) once for every w in range(n_workers), on up to n_workers threads.

    Workers 1..n_workers-1 start on threads of their own and worker 0 runs
    on the calling thread, as does any worker whose thread cannot start
    (the platform refused a new thread).  Every started thread is joined,
    also when a worker raises, and the first exception a worker raised is
    then raised here.
    """
    errors: list[BaseException] = []

    def run(w: int) -> None:
        try:
            work(w)
        except BaseException as exc:  # re-raised by the caller after join
            errors.append(exc)

    threads, here = [], [0]
    for w in range(1, n_workers):
        thread = threading.Thread(target=run, args=(w,))
        try:
            thread.start()
        except RuntimeError:  # "can't start new thread"
            here.append(w)
        else:
            threads.append(thread)
    for w in here:
        run(w)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
