import multiprocessing

import pytest

from bmatrix import ntriples


@pytest.fixture
def cuts(monkeypatch):
    """Plain files of more than 64 bytes take two ranges in iter_file, also
    on one CPU; the list collects where iter_file cut each file it opened
    (None: one range)."""
    monkeypatch.setattr(ntriples, "BLOCK_BYTES", 64)
    monkeypatch.setattr(ntriples.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    second_range = ntriples._second_range
    out = []

    def spied(raw):
        out.append(second_range(raw))
        return out[-1]

    monkeypatch.setattr(ntriples, "_second_range", spied)
    return out


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test ends with no child process running."""
    yield
    assert multiprocessing.active_children() == []
