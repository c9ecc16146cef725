import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdofkit import precoder
from sdofkit.chansim import gaussian_channels
from sdofkit.region import AntennaConfig


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def run_python(code: str, **kwargs) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    sdofkit; the pytest process has already imported SciPy."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is block-buffered
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=120, **kwargs)


def cstd(rng, rows, cols):
    """Standard complex Gaussian matrix."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def split_unitary(n, p, q):
    """Random n x n unitary, seeded by the cosine-sine split (n, p, q)."""
    return np.linalg.qr(cstd(np.random.default_rng([n, p, q]), n, n))[0]


def low_rank(rng, rows, cols, rank):
    """Generic complex Gaussian matrix of the given rank."""
    return cstd(rng, rows, rank) @ cstd(rng, rank, cols)


def channels_for(tup, rng):
    return gaussian_channels(AntennaConfig(*tup), rng)


def stacked(chs):
    """Channel sets of one configuration as one set of six (T, m, n) stacks."""
    return precoder._trusted(*(np.stack([getattr(c, name) for c in chs])
                               for name in precoder._CHANNELS))
