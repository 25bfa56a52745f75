"""Vectorized, bit-exact replica of the stdlib Mersenne Twister.

The simulator's bit-identity contract pins every destination draw to
the stdlib ``random.Random`` stream (see
:meth:`repro.network.corebase.CoreBase._resolve_packets`).  Resolving a
batch of replicas event-by-event in Python is the dominant cost of the
packet pre-pass, so :class:`VecRandom` replays the *same* MT19937
stream in numpy: it imports a ``random.Random`` instance's state via
``getstate()``, generates tempered 32-bit words with a vectorized twist,
replicates CPython's ``_randbelow_with_getrandbits`` rejection sampling
en bloc, and writes the advanced state back with ``setstate()`` — so
scalar draws before and after a vectorized block see exactly the stream
they would have seen without it.

Two CPython facts make the vectorization exact:

* ``getrandbits(k)`` for ``k <= 32`` consumes exactly one output word
  (``genrand_uint32() >> (32 - k)``), and
* ``_randbelow(n)`` redraws while the ``k = n.bit_length()``-bit value
  is ``>= n`` — so the i-th *accepted* word of the stream is the result
  of the i-th call, no matter how the calls are grouped.

Anything outside that envelope (``n >= 2**32``, a ``random.Random``
subclass, a non-version-3 state) makes :meth:`VecRandom.for_rng` or
:meth:`VecRandom.randbelow` decline with ``None``, and callers fall
back to the scalar path.
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np

__all__ = ["VecRandom"]

_N = 624
_M = 397
_MATRIX_A = np.uint32(0x9908B0DF)
_UPPER = np.uint32(0x80000000)
_LOWER = np.uint32(0x7FFFFFFF)
_ZERO = np.uint32(0)
_ONE = np.uint32(1)


def _twist(mt: np.ndarray) -> np.ndarray:
    """One MT19937 state transition (624 words -> 624 words).

    The reference loop updates in place with reads that reach at most
    227 slots back, so splitting at the wrap points [0, 227), [227,
    454), [454, 623), {623} makes every segment's reads refer either to
    the *old* state or to a segment already computed — each segment
    vectorizes.
    """
    new = mt.copy()
    y = (mt[0:227] & _UPPER) | (mt[1:228] & _LOWER)
    new[0:227] = mt[397:624] ^ (y >> _ONE) ^ np.where(y & _ONE, _MATRIX_A, _ZERO)
    y = (mt[227:454] & _UPPER) | (mt[228:455] & _LOWER)
    new[227:454] = new[0:227] ^ (y >> _ONE) ^ np.where(y & _ONE, _MATRIX_A, _ZERO)
    y = (mt[454:623] & _UPPER) | (mt[455:624] & _LOWER)
    new[454:623] = new[227:396] ^ (y >> _ONE) ^ np.where(y & _ONE, _MATRIX_A, _ZERO)
    y = (mt[623] & _UPPER) | (new[0] & _LOWER)
    new[623] = new[396] ^ (y >> _ONE) ^ (_MATRIX_A if y & _ONE else _ZERO)
    return new


def _temper(y: np.ndarray) -> np.ndarray:
    """MT19937 output tempering (vectorized, uint32 in/out)."""
    y = y ^ (y >> np.uint32(11))
    y = y ^ ((y << np.uint32(7)) & np.uint32(0x9D2C5680))
    y = y ^ ((y << np.uint32(15)) & np.uint32(0xEFC60000))
    return y ^ (y >> np.uint32(18))


class VecRandom:
    """Batch view over one ``random.Random``'s MT19937 stream.

    Usage: build with :meth:`for_rng`, draw with :meth:`randbelow`,
    then :meth:`commit` the advanced state back onto the source RNG
    before anyone consumes it scalar-wise again.  The source RNG must
    not be touched between ``for_rng`` and ``commit``.
    """

    def __init__(self, rng: random.Random, mt: np.ndarray, pos: int, gauss):
        self._rng = rng
        self._mt = mt
        self._pos = pos
        self._gauss = gauss

    @classmethod
    def for_rng(cls, rng: random.Random) -> Optional["VecRandom"]:
        """Wrap ``rng``; ``None`` when its stream cannot be replicated
        (subclass with overridden methods, unknown state version)."""
        if type(rng) is not random.Random:
            return None
        state = rng.getstate()
        if len(state) != 3 or state[0] != 3:
            return None
        _, internal, gauss = state
        if len(internal) != _N + 1:
            return None
        mt = np.array(internal[:_N], dtype=np.uint32)
        return cls(rng, mt, int(internal[_N]), gauss)

    # ------------------------------------------------------------------
    def _take_words(self, m: int, trail=None) -> np.ndarray:
        """Next ``m`` tempered output words, advancing the state.

        ``_twist`` is functional (returns a fresh array), so each
        intermediate state survives by reference: with ``trail`` (a
        list) every post-twist state array is recorded, letting
        :meth:`randbelow` rewind to any intermediate word position
        without re-twisting.
        """
        out = np.empty(m, dtype=np.uint32)
        filled = 0
        while filled < m:
            if self._pos >= _N:
                self._mt = _twist(self._mt)
                self._pos = 0
                if trail is not None:
                    trail.append(self._mt)
            take = min(_N - self._pos, m - filled)
            out[filled : filled + take] = self._mt[
                self._pos : self._pos + take
            ]
            self._pos += take
            filled += take
        return _temper(out)

    def randbelow(self, n: int, count: int) -> Optional[np.ndarray]:
        """The results of ``count`` consecutive ``randrange(n)`` calls.

        Replicates CPython's rejection sampling exactly: draw
        ``k``-bit values (one word each), keep those ``< n``.  Returns
        ``None`` (consuming nothing) when ``n`` needs more than one
        word per draw — the caller falls back to scalar draws.
        """
        n = int(n)
        if n <= 0:
            raise ValueError("n must be positive")
        k = n.bit_length()
        if k > 32:
            return None
        out = np.empty(count, dtype=np.int64)
        shift = np.uint32(32 - k)
        # acceptance rate is n / 2^k in (0.5, 1]; oversample by the
        # expected reject count (plus noise margin) so one round
        # usually suffices without over-drawing words that the
        # overshoot path would only roll back again — for the common
        # near-power-of-two n the overhead collapses to the margin
        rejects_per_accept = float(((1 << k) - n) / n)
        have = 0
        while have < count:
            need = count - have
            m = need + int(need * rejects_per_accept * 1.5) + 16
            snap_mt, snap_pos = self._mt, self._pos
            trail: list = []
            w = self._take_words(m, trail) >> shift
            acc = np.flatnonzero(w < n)
            if acc.size >= need:
                used = int(acc[need - 1]) + 1
                if used < m:
                    # overshot: rewind to the state right after word
                    # `used`.  The first `_N - snap_pos` words came off
                    # `snap_mt`; each trail entry spans `_N` more — so
                    # the target state is a recorded array plus an
                    # index, no re-twisting needed.
                    first = _N - snap_pos
                    if used <= first:
                        self._mt, self._pos = snap_mt, snap_pos + used
                    else:
                        j, pos = divmod(used - first - 1, _N)
                        self._mt, self._pos = trail[j], pos + 1
                out[have:] = w[acc[:need]]
                have = count
            else:
                out[have : have + acc.size] = w[acc]
                have += acc.size
        return out

    def commit(self) -> None:
        """Write the advanced state back onto the wrapped RNG."""
        internal = tuple(int(x) for x in self._mt) + (int(self._pos),)
        self._rng.setstate((3, internal, self._gauss))
