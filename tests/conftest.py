"""Fixtures shared by the test modules."""

import os

import numpy as np
import pytest

from toricmaps import harness


@pytest.fixture
def newton_solves(monkeypatch):
    """Log each call of `harness._invert_monotone_1d` as (pid, targets
    shape), in this process and in any worker `kahler_field` forks: each
    call writes one line to a pipe, and a write of at most PIPE_BUF bytes
    is atomic.  The fixture is a function returning the calls logged so far."""
    read_fd, write_fd = os.pipe()
    os.set_blocking(read_fd, False)
    original = harness._invert_monotone_1d
    received = bytearray()

    def logging(*args, **kwargs):
        line = " ".join(map(str, (os.getpid(),) + np.shape(args[2]))) + "\n"
        os.write(write_fd, line.encode())
        return original(*args, **kwargs)

    def calls():
        while True:
            try:
                received.extend(os.read(read_fd, 65536))
            except BlockingIOError:
                break
        return [(pid, tuple(shape)) for pid, *shape in
                (map(int, line.split()) for line in received.decode().splitlines())]

    monkeypatch.setattr(harness, "_invert_monotone_1d", logging)
    yield calls
    os.close(read_fd)
    os.close(write_fd)


@pytest.fixture
def force_workers(monkeypatch):
    """A function making kahler_field fork n workers (0: none) whenever it
    has more blocks than that, all pinned to allowed CPUs, whatever their
    count."""
    cpus = sorted(os.sched_getaffinity(0))

    def force(n_workers):
        monkeypatch.setattr(harness, "_worker_cpus", lambda n_blocks: (
            cpus * n_workers)[:min(n_workers, n_blocks - 1)])

    return force
