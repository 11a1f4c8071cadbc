import os
import select

import pytest

WAIT_S = 60     # a side still waiting after this long fails its test


def wait_readable(fd):
    """Block until ``fd`` can be read; fail after ``WAIT_S`` seconds.  Reads
    nothing, so every later wait on ``fd`` returns at once."""
    ready, _, _ = select.select([fd], [], [], WAIT_S)
    assert ready, (f"the other side of the forked build never signalled "
                   f"within {WAIT_S} s")


@pytest.fixture
def signal_pipe():
    """A pipe one side of a forked build writes to once it has started an
    item or failed, so that the other side can wait for it."""
    r, w = os.pipe()
    yield r, w
    os.close(r)
    os.close(w)


@pytest.fixture
def in_children(signal_pipe):
    """``in_children(real, action)``: ``real``, running ``action`` first in
    forked workers only.  The build's own process takes items from the pool
    too, and on one CPU it can take them all before a worker runs; so its
    first call waits until a worker has started one."""
    r, w = signal_pipe
    parent = os.getpid()

    def make(real, action):
        def wrapped(*args, **kwargs):
            if os.getpid() != parent:
                os.write(w, b"!")
                action()
            else:
                wait_readable(r)
            return real(*args, **kwargs)
        return wrapped
    return make


@pytest.fixture
def in_parent(signal_pipe):
    """``in_parent(real, action)``: ``real``, running ``action`` first in the
    build's own process only.  Forked workers wait until that action has
    run, so that they cannot take every item before it."""
    r, w = signal_pipe
    parent = os.getpid()

    def make(real, action):
        def wrapped(*args, **kwargs):
            if os.getpid() == parent:
                try:
                    action()
                finally:
                    os.write(w, b"!")
            else:
                wait_readable(r)
            return real(*args, **kwargs)
        return wrapped
    return make
