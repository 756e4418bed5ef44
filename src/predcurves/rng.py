"""Reproducible random streams.

Every stochastic entry point in this package takes a
``numpy.random.Generator``. :class:`RngStream` makes them, and
:func:`labeled_generator` keys one per consumer of a stream. Streams
are values, not stateful objects: the pair
``(seed, stream)`` fully determines the draw sequence, on any host and
under any execution schedule. Monte Carlo repetitions use
``stream = rep index`` so that running repetitions in a different order
(or in parallel) can never change results.

The backing bit generator is Philox 4x64, a counter-based generator, keyed
through ``numpy.random.SeedSequence(entropy=seed, spawn_key=(stream,))``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    """Value-semantics handle identifying one reproducible random stream."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream.

        Calling this twice on the same handle gives two generators that
        produce bitwise-identical sequences.
        """
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(ss))


def labeled_generator(seed: int, stream: int, label: str) -> np.random.Generator:
    """Generator keyed by (seed, stream) plus a stable string label.

    Used where several consumers (e.g. different learners fitted on the
    same repetition's data) each need their own independent randomness:
    the label is folded into the spawn key via CRC-32, which is stable
    across platforms and sessions.
    """
    key = zlib.crc32(label.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, key))
    return np.random.Generator(np.random.Philox(ss))


class LazyGenerator:
    """``labeled_generator(seed, stream, label)``, made on first use.

    For consumers that may never draw, such as the closed-form learners,
    which then pay nothing for the ``SeedSequence`` and ``Philox`` set-up.
    The first attribute access builds the generator and keeps it; every
    access forwards to that one generator, so its stream runs on exactly
    as a generator passed directly would.
    """

    __slots__ = ("_key", "_gen")

    def __init__(self, seed: int, stream: int, label: str):
        self._key = (seed, stream, label)
        self._gen = None

    def __getattr__(self, name: str):
        if self._gen is None:
            self._gen = labeled_generator(*self._key)
        return getattr(self._gen, name)
