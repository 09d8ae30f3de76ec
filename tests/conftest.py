import numpy as np
import pytest

from spatialfda.simulate import _chunks, _fill


def _serial_chunks(spec, n, k, seed):
    """The (m, k) coefficients of each chunk of an n-path stream, each drawn whole, in turn.

    The serial reference for simulate.coefficient_runs: every chunk is drawn
    on the calling thread, in one block, into a new array, from its own
    substream.
    """
    return [next(_fill(spec, child, m, np.empty((m, k)))) for _, child, m in _chunks(n, seed)]


@pytest.fixture
def serial_chunks():
    return _serial_chunks
