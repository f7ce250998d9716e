"""Deterministic random-number streams for the simulation.

Every stochastic component of the substrate (network jitter, scheduler
delays, application workloads) draws from its own named stream derived from
a single experiment seed.  Using independent named streams keeps results
reproducible even when the set of components or the order in which they
draw numbers changes between library versions.
"""

from __future__ import annotations

import hashlib
import random


#: The type of one named stream.  Deterministic modules annotate injected
#: streams with this alias instead of importing :mod:`random` themselves —
#: this module is the only sanctioned importer (lint rule R001).
RandomStream = random.Random


class RandomStreams:
    """A factory of named, independently seeded ``random.Random`` streams.

    Parameters
    ----------
    seed:
        Master seed.  Two :class:`RandomStreams` built from the same seed
        hand out identical streams for identical names.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The master seed this factory was created with."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(self.derive(name))
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Return a child factory whose streams are independent of ours."""
        return RandomStreams(self.derive(name))

    def derive(self, name: str) -> int:
        """Derive the 64-bit seed for ``name`` without creating a stream.

        This is the public, stable seed-derivation function: anything that
        needs a raw integer seed tied to this factory (for example the
        campaign runner deriving per-experiment seeds, possibly in a worker
        process) must use it rather than reimplementing the hash, so serial
        and parallel execution provably agree on every seed.
        """
        digest = hashlib.sha256(f"{self._seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RandomStreams(seed={self._seed}, streams={sorted(self._streams)})"

