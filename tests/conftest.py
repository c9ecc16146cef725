import numpy as np
import pytest

from sdofkit import precoder
from sdofkit.chansim import gaussian_channels
from sdofkit.region import AntennaConfig


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def cstd(rng, rows, cols):
    """Standard complex Gaussian matrix."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def low_rank(rng, rows, cols, rank):
    """Generic complex Gaussian matrix of the given rank."""
    return cstd(rng, rows, rank) @ cstd(rng, rank, cols)


def channels_for(tup, rng):
    return gaussian_channels(AntennaConfig(*tup), rng)


def stacked(chs):
    """Channel sets of one configuration as one set of six (T, m, n) stacks."""
    return precoder._trusted(*(np.stack([getattr(c, name) for c in chs])
                               for name in precoder._CHANNELS))
