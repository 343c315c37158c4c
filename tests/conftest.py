"""Fixtures shared by the test modules."""

import json
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from toricmaps import harness
from toricmaps.polytope import DelzantPolytope, Facet


@pytest.fixture
def logged_calls(monkeypatch):
    """A function `log(owner, attr, describe)` replacing owner.attr by a
    wrapper that logs each call, in this process and in any worker forked
    after it, as one line on a pipe of its own: the pid and the ints of
    `describe(*args, **kwargs)`.  A write of at most PIPE_BUF bytes is
    atomic; a worker blocks once the pipe's 64 KiB are full, so a log holds
    a few thousand calls.  `log` returns a function returning the
    (pid, description) pairs logged so far, in the order they were written."""
    fds = []

    def log(owner, attr, describe):
        read_fd, write_fd = os.pipe()
        fds.extend((read_fd, write_fd))
        os.set_blocking(read_fd, False)
        original = getattr(owner, attr)
        received = bytearray()

        def logging(*args, **kwargs):
            line = " ".join(map(str, (os.getpid(), *describe(*args, **kwargs)))) + "\n"
            os.write(write_fd, line.encode())
            return original(*args, **kwargs)

        def calls():
            while True:
                try:
                    received.extend(os.read(read_fd, 65536))
                except BlockingIOError:
                    break
            return [(pid, tuple(rest)) for pid, *rest in
                    (map(int, line.split()) for line in received.decode().splitlines())]

        monkeypatch.setattr(owner, attr, logging)
        return calls

    yield log
    for fd in fds:
        os.close(fd)


@pytest.fixture
def newton_solves(logged_calls):
    """The (pid, targets shape) of each call of `harness._invert_monotone_1d`,
    in this process and in any worker `kahler_field` forks: a function
    returning the calls logged so far."""
    return logged_calls(harness, "_invert_monotone_1d",
                        lambda *args, **kwargs: np.shape(args[2]))


@pytest.fixture
def force_workers(monkeypatch):
    """A function making `_solve_blocks` fork n workers (0: none) whenever
    it has more blocks than that, all pinned to allowed CPUs, whatever their
    count."""
    cpus = sorted(os.sched_getaffinity(0))

    def force(n_workers):
        monkeypatch.setattr(harness, "_worker_cpus", lambda n_blocks: (
            cpus * n_workers)[:min(n_workers, n_blocks - 1)])

    return force


@pytest.fixture
def read_snapshot():
    """A function reading the text `flows.save_snapshot` writes, the writer's
    oracle: its `tau`, `domain_shape`, `polytope`, `margin`, `axes` and
    `values` (shaped by its `values shape` line), from lines in the order
    the writer puts them."""
    def read(path):
        lines = Path(path).read_text().splitlines()
        n_axes = sum(line.startswith("axis ") for line in lines)
        head = [line.split() for line in lines[:5 + n_axes]]
        assert [words[0] for words in head] == [
            "flow", "domain_shape", "polytope", "margin", *["axis"] * n_axes, "values"]
        doc = json.loads(lines[2].split(None, 1)[1])
        return SimpleNamespace(
            tau=float(head[0][2]),
            domain_shape=tuple(int(s) for s in head[1][1:]),
            polytope=DelzantPolytope(doc["dim"], tuple(Facet(f["normal"], f["offset"])
                                                       for f in doc["facets"])),
            margin=float(head[3][1]),
            axes=[np.array([float(v) for v in words[2:]]) for words in head[4:-1]],
            values=np.array([float(v) for v in lines[5 + n_axes:]])
            .reshape(tuple(int(s) for s in head[-1][2:])))

    return read
