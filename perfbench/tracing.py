"""Outside-in layer tracing for the sdofkit benchmark.

While a :class:`Tracer` is installed, every public function and public
method of the layer modules, and the LAPACK entry points they call, is
replaced by a timing wrapper.  Nothing under ``src/`` is edited: the
wrappers replace module and class attributes and the originals are put
back when the ``installed`` block ends.

A wrapper records, per call, the layer's call count, the layer's self time
(the call's duration minus the part its traced children cover) and the
function's inclusive duration.  Private helpers are not wrapped, so their
time is self time of the public function that called them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import re
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# ``alignment`` is on no user path (only an acceptance test calls it).
LAYERS = ("region", "matcore", "precoder", "verifier", "chansim", "serialize", "cli")
NUMPY_LAPACK = ("svd", "lstsq", "solve", "cholesky", "cond")


class Tracer:
    """Per-layer call counts and self time, and per-function durations."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(lambda: array("d"))
        self.raised: Counter = Counter()
        self._stack: list[list[float]] = []

    def wrap(self, fn, layer: str, key: str):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        durations, raised = self.durations[key], self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised[f"{key}:{type(exc).__name__}"] += 1
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                calls[layer] += 1
                self_s[layer] += dur - children[0]
                durations.append(dur)

        return traced

    def p50_us(self, key: str) -> float | None:
        samples = self.durations.get(key)
        if not samples:
            return None
        return statistics.median(samples) * 1e6


def _public_callables(layer: str, module):
    """(owner, attribute, function, key) for each public function of a
    layer module and each public method of the classes it defines."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj, f"{layer}.{name}"
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield obj, attr, member, f"{layer}.{name}.{attr}"


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced call through ``tracer`` for the block's duration."""
    import numpy as np

    import sdofkit.cli  # noqa: F401  (loads every layer module)
    from sdofkit import matcore

    patches = []  # (owner, attribute, original, wrapper)
    by_id = {}  # id(original) -> (original, wrapper) for module-level names
    for layer in LAYERS:
        module = sys.modules[f"sdofkit.{layer}"]
        for owner, attr, fn, key in _public_callables(layer, module):
            wrapper = tracer.wrap(fn, layer, key)
            if owner is module:
                by_id[id(fn)] = (fn, wrapper)
            else:
                patches.append((owner, attr, fn, wrapper))
    for name in NUMPY_LAPACK:
        fn = getattr(np.linalg, name)
        by_id[id(fn)] = (fn, tracer.wrap(fn, "lapack", f"lapack.{name}"))
    cossin = matcore.cossin
    by_id[id(cossin)] = (cossin, tracer.wrap(cossin, "lapack", "lapack.cossin"))

    # A function can be bound under several modules' names (``from .x import
    # f``), and intra-module calls look it up in the defining module's
    # globals, so every binding is replaced.
    owners = [m for n, m in sys.modules.items() if n == "sdofkit" or n.startswith("sdofkit.")]
    for owner in owners + [np.linalg]:
        for attr, obj in list(vars(owner).items()):
            hit = by_id.get(id(obj))
            if hit is not None and hit[0] is obj:
                patches.append((owner, attr, obj, hit[1]))

    for owner, attr, _, wrapper in patches:
        setattr(owner, attr, wrapper)
    try:
        yield tracer
    finally:
        for owner, attr, original, _ in reversed(patches):
            setattr(owner, attr, original)


_IMPORT_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( +)(\S+)\s*$")


def import_cumulative_ms(importtime_stderr: str, package: str) -> float:
    """Total cumulative import time of ``package`` from ``-X importtime``
    output: the sum over its outermost entries, so nested submodules of
    the package are not counted twice.  Zero when it was not imported."""
    entries = []
    for line in importtime_stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2))))
    # Entries are printed when an import finishes, children before their
    # parent; reversed, every parent precedes its children.
    total_us = 0
    open_depths: list[int] = []
    for depth, name, cumulative_us in reversed(entries):
        while open_depths and open_depths[-1] >= depth:
            open_depths.pop()
        if name == package or name.startswith(package + "."):
            if not open_depths:
                total_us += cumulative_us
            open_depths.append(depth)
    if not entries:
        raise ValueError("no -X importtime lines in the output")
    return total_us / 1000.0
