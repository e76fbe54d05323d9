"""Machine-speed probe: a fixed piece of work timed next to every op.

The host's speed drifts: a pure-Python loop alone slows by up to 2x in
phases that last from seconds to minutes, and an op's wall time moves
with it. ``probe()`` times a fixed piece of work that uses no scanplan
code: JSON parsing into ``Fraction`` and tuple objects (the interpreter
and allocator work of the graph and solver layers) and numpy arithmetic
on 256x256 arrays (the work of the FOV quadrature). Its inputs are fixed,
not drawn from the benchmark's seed, so only the machine moves it.

``scale`` converts an op's wall seconds to seconds at the reference
speed: wall seconds times ``REFERENCE_S`` over the probe seconds measured
next to the op. ``REFERENCE_S`` is the probe's median on the machine the
baseline in README.md was measured on, so on that machine, in a quiet
phase, scaled and wall seconds agree.
"""

from __future__ import annotations

import functools
import gc
import json
import time

REFERENCE_S = 0.21

_ROWS = 20_000
_ARRAY_ROUNDS = 60


@functools.cache
def _inputs():
    # Imported here, not at the top: set-up time includes these imports,
    # and the probe must not pay them in advance.
    import random

    import numpy as np

    rng = random.Random(0)
    doc = json.dumps(
        [[rng.randrange(1000), rng.randrange(1000), f"{rng.randint(1, 4000)}/{rng.choice((3, 7, 9))}"]
         for _ in range(_ROWS)]
    )
    return doc, np.random.default_rng(0).random((256, 256))


def _work(doc: str, array) -> None:
    from fractions import Fraction

    import numpy as np

    rows = json.loads(doc)
    costs = {(u, v): Fraction(w) for u, v, w in rows}
    del rows, costs
    for _ in range(_ARRAY_ROUNDS):
        (np.exp(array * 1.5) + np.sin(array)) @ array


def probe() -> float:
    """Seconds the fixed work takes now."""
    doc, array = _inputs()
    gc.collect()
    start = time.perf_counter()
    _work(doc, array)
    return time.perf_counter() - start


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at the reference speed."""
    return seconds * REFERENCE_S / probe_s
