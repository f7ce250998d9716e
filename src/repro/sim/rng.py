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

try:  # numpy accelerates block draws; the pure-python fallback is bit-identical
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a baked-in dependency
    _np = None  # type: ignore[assignment]


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


# ---------------------------------------------------------------------------
# The uniform-variate source: RNG-order-preserving blocks
# ---------------------------------------------------------------------------
#
# Every distribution the substrate samples on its hot paths reduces to a
# sequence of ``Random.random()`` calls: ``expovariate(lambd)`` is
# ``-log(1 - random()) / lambd`` and ``uniform(a, b)`` is
# ``a + (b - a) * random()`` (CPython's own implementations).  The source
# exposes exactly that underlying double sequence, pre-drawn in chunks
# without changing which variate feeds which decision — the consumption
# order, and hence every simulated outcome, is bit-identical to calling
# ``random()`` at each point of use.


class BlockUniformSource:
    """Uniform doubles pre-drawn from the wrapped stream in fixed chunks.

    Refilling transplants the stream's Mersenne-Twister state into a numpy
    ``RandomState`` (the two share the generator *and* the 53-bit double
    construction), vectorizes one ``random_sample(chunk)`` call, and writes
    the advanced state back — so the block holds exactly the doubles the
    wrapped stream would have produced, and the stream continues past the
    block seamlessly.  Without numpy the refill falls back to ``chunk``
    plain ``random()`` calls — the reference the transplant is tested
    against.

    The wrapped stream must not be drawn from by anyone else while a block
    is outstanding: its state is already advanced past the block's end.
    The delivery engine owns its ``"network"`` stream exclusively, which is
    what makes the pre-draw transparent there (pinned by the batched-
    delivery golden test).
    """

    __slots__ = ("_rng", "_chunk", "buffer")

    def __init__(self, rng: random.Random, chunk: int) -> None:
        if chunk < 2:
            raise ValueError("block sizes below 2 defeat pre-drawing")
        self._rng = rng
        self._chunk = chunk
        #: The outstanding block, stored reversed so :meth:`next` is a
        #: C-level ``list.pop`` from the end, which still hands the
        #: doubles out in draw order.  The list object is *stable* —
        #: :meth:`refill` mutates it in place — so hot consumers may bind
        #: ``buffer.pop`` once, call it directly, and :meth:`refill` on
        #: the resulting ``IndexError`` when the block runs dry.
        self.buffer: list[float] = []

    def next(self) -> float:
        """The next uniform double in [0, 1) from the pre-drawn block."""
        block = self.buffer
        if not block:
            self.refill()
        return block.pop()

    def refill(self) -> None:
        """Pre-draw the next chunk into :attr:`buffer` (in place)."""
        if _np is None:
            block = [self._rng.random() for _ in range(self._chunk)]
        else:
            version, internal, gauss_next = self._rng.getstate()
            transplant = _np.random.RandomState()
            transplant.set_state(
                ("MT19937", _np.array(internal[:-1], dtype=_np.uint32), internal[-1])
            )
            block = transplant.random_sample(self._chunk).tolist()
            advanced = transplant.get_state()
            self._rng.setstate(
                (version, tuple(map(int, advanced[1])) + (int(advanced[2]),), gauss_next)
            )
        block.reverse()
        self.buffer[:] = block
