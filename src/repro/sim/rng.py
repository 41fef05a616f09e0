"""Deterministic named random-number streams.

Every stochastic component in the testbed draws from its own named stream so
that adding a new traffic source does not perturb the draws of existing ones.
Streams are derived from a single root seed with :class:`numpy.random.SeedSequence`
spawned per name, which gives independence guarantees without bookkeeping.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

__all__ = ["RngRegistry"]


class RngRegistry:
    """Factory of independent, reproducible :class:`numpy.random.Generator` s.

    Parameters
    ----------
    seed:
        Root seed.  Two registries built with the same seed hand out
        bit-identical streams for the same names, regardless of the order
        in which the names are first requested.

    Examples
    --------
    >>> a = RngRegistry(42).stream("traffic.web")
    >>> b = RngRegistry(42).stream("traffic.web")
    >>> float(a.random()) == float(b.random())
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The per-name key is derived by hashing the name, so stream identity
        depends only on ``(seed, name)`` -- never on creation order.
        """
        gen = self._streams.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(key,))
            gen = np.random.Generator(np.random.Philox(seq))
            self._streams[name] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngRegistry(seed={self._seed}, streams={len(self._streams)})"
