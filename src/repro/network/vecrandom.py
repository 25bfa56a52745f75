"""Batch draws on the exact stdlib MT19937 stream.

The simulator's bit-identity contract pins every destination and
Valiant-intermediate draw to the stdlib ``random.Random`` stream, in
schedule order (see
:meth:`repro.network.corebase.CoreBase._resolve_packets`, the scalar
specification).  Drawing a batch event by event in Python dominated the
packet pre-pass, so the compiled kernel's ``draw_pass`` (``_simcore.c``)
replays the *same* stream: :class:`VecRandom` imports a
``random.Random``'s state via ``getstate()``, the kernel generates words
and replicates CPython's ``_randbelow_with_getrandbits`` rejection
sampling, and :meth:`VecRandom.commit` writes the advanced state back
with ``setstate()`` — so scalar draws before and after a batch see
exactly the stream they would have seen without it.

What is drawn is data.  Every draw the bundled patterns and routings
make is a uniform pick from a row keyed by labels, with up to two
excluded positions skipped in increasing order
(:func:`repro.routing.base.draw_other_group` is the idiom), so a pattern
publishes its destination draw as :class:`DestRows` and a Valiant
routing its intermediate draw as :class:`ViaRows`.  A pattern or
routing whose draw is not of that shape (``rng.random()``, a mask
applied after the draw) publishes nothing and keeps the scalar path.

A ``random.Random`` subclass, a non-version-3 state or a host without
the kernel makes :meth:`VecRandom.for_rng` decline with ``None``.
"""

from __future__ import annotations

import ctypes
import random
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["DestRows", "KernelTables", "VecRandom", "ViaRows", "csr"]

_STATE_WORDS = 625  # the MT19937 key plus the position
_i64p = ctypes.POINTER(ctypes.c_int64)


def csr(rows: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """``(ptr, val)`` of ``rows``: row ``r`` is ``val[ptr[r]:ptr[r+1]]``."""
    ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    ptr[1:] = np.cumsum([len(row) for row in rows])
    val = np.fromiter(
        (v for row in rows for v in row), dtype=np.int64, count=int(ptr[-1])
    )
    return ptr, val


class KernelTables:
    """Scalars and int64 tables handed to the compiled kernel as one
    struct, ``struct <c_name>`` of ``_simcore.c``.  The constructor
    takes every field of that struct by name, a ``NULL`` table as
    ``None``; the struct itself is filled on first use, from the layout
    the loaded kernel exports, so a host without the kernel never needs
    it.  The draw rows below and
    :class:`~repro.routing.plane.RoutePlane` are such tables."""

    def __init__(self, **fields) -> None:
        for name, value in fields.items():
            if isinstance(value, (bool, int, np.integer)):
                fields[name] = int(value)
            elif value is not None:
                fields[name] = np.ascontiguousarray(value, dtype=np.int64)
        self.__dict__.update(fields)
        self._fields = fields

    def table_bytes(self) -> int:
        """Memory held by the tables."""
        return sum(
            value.nbytes for value in self._fields.values()
            if isinstance(value, np.ndarray)
        )

    @cached_property
    def _struct(self):
        """The kernel's struct over these fields (built on first use)."""
        from .native import kernel_struct  # lazy: native imports corebase

        return kernel_struct(self.c_name, **self._fields)


class DestRows(KernelTables):
    """A traffic pattern's destination draw as data.

    Source ``s`` draws from row ``key[s]`` of ``(ptr, val)`` with
    position ``skip[s]`` excluded (``-1``: none); a source with
    ``key[s] == -1`` draws nothing and sends to ``fixed[s]`` (``-1``:
    drop).  With ``chain`` the picked value is itself a row key and a
    second, skip-free pick from that row is the destination (a chip,
    then a node on it).  A row left empty by its skip drops the packet
    without drawing, as the scalar ``dest()`` returns ``None``.
    """

    c_name = "DestRows"

    @classmethod
    def build(
        cls, num_nodes: int, rows, srcs, keys, skips=-1, *,
        fixed=None, chain: bool = False,
    ) -> "DestRows":
        """Sources ``srcs`` draw from ``rows[keys]`` skipping position
        ``skips``; ``fixed`` maps other sources to their destination."""
        table = np.full((3, num_nodes), -1, dtype=np.int64)
        srcs = np.asarray(srcs, dtype=np.int64)
        table[0][srcs] = keys
        table[1][srcs] = skips
        if fixed:
            table[2][list(fixed)] = list(fixed.values())
        ptr, val = csr(rows)
        return cls(
            chain=chain, ptr=ptr, val=val,
            key=table[0], skip=table[1], fixed=table[2],
        )


class ViaRows(KernelTables):
    """A Valiant routing's intermediate-group draw as data.

    A kept packet ``s -> d`` whose endpoints' ``group`` labels differ,
    on more than two ``groups``, draws its intermediate group: with
    ``sub`` from row ``(gs * groups + gd) * subs + sub[d]`` (an empty row
    routes it minimally, counted as a fallback when
    ``count_fallback``), else from row 0 with ``gs`` and ``gd``
    skipped.  ``val`` ``None`` means a row's values are its positions.
    """

    c_name = "ViaRows"

    @classmethod
    def other_group(cls, group, groups: int) -> "ViaRows":
        """Any group but the pair's own two (``draw_other_group``)."""
        return cls(
            groups=groups, subs=0, count_fallback=False, ptr=[0, groups],
            val=None, group=group, sub=None,
        )


class VecRandom:
    """Batch view over one ``random.Random``'s MT19937 stream.

    Usage: build with :meth:`for_rng`, draw with :meth:`draw` or
    :meth:`randbelow`, then :meth:`commit` the advanced state back onto
    the source RNG before anyone consumes it scalar-wise again.  The
    source RNG must not be touched between ``for_rng`` and ``commit``;
    dropping the view without committing leaves the RNG where it was.
    """

    def __init__(self, rng: random.Random, state: np.ndarray, gauss, lib):
        self._rng = rng
        self._state = state
        self._gauss = gauss
        self._lib = lib

    @classmethod
    def for_rng(cls, rng: random.Random) -> Optional["VecRandom"]:
        """Wrap ``rng``; ``None`` when its stream cannot be replicated
        (subclass with overridden methods, unknown state version, no
        compiled kernel)."""
        if type(rng) is not random.Random:
            return None
        state = rng.getstate()
        if len(state) != 3 or state[0] != 3 or len(state[1]) != _STATE_WORDS:
            return None
        from .native import load_native  # lazy: native imports corebase

        lib = load_native()
        if lib is None:
            return None
        return cls(rng, np.array(state[1], dtype=np.uint32), state[2], lib)

    def draw(self, srcs, dest: DestRows, via: Optional[ViaRows] = None):
        """``(dst, via, fallbacks)`` of events from sources ``srcs``, in
        order: each event's destination (``-1``: dropped) and, with
        ``via`` rows, the intermediate group of each kept packet
        (``-1``: minimal; ``None`` without rows)."""
        srcs = np.ascontiguousarray(srcs, dtype=np.int64)
        n = srcs.size
        if n and not (0 <= srcs.min() and srcs.max() < dest.key.size):
            raise ValueError("source outside the rows' nodes")
        dst = np.empty(n, dtype=np.int64)
        vias = np.empty(n, dtype=np.int64) if via is not None else None
        fallbacks = self._lib.draw_pass(
            self._state.ctypes.data_as(ctypes.POINTER(ctypes.c_uint32)),
            ctypes.byref(dest._struct),
            ctypes.byref(via._struct) if via is not None else None,
            n,
            srcs.ctypes.data_as(_i64p),
            dst.ctypes.data_as(_i64p),
            vias.ctypes.data_as(_i64p) if vias is not None else None,
        )
        return dst, vias, int(fallbacks)

    def randbelow(self, n: int, count: int) -> Optional[np.ndarray]:
        """The results of ``count`` consecutive ``randrange(n)`` calls;
        ``None`` (consuming nothing) when ``n`` needs more than one word
        per draw."""
        n = int(n)
        if n <= 0:
            raise ValueError("n must be positive")
        if n.bit_length() > 32:
            return None
        row = DestRows(
            chain=False, ptr=[0, n], val=None, key=[0], skip=[-1], fixed=[-1]
        )
        return self.draw(np.zeros(count, dtype=np.int64), row)[0]

    def commit(self) -> None:
        """Write the advanced state back onto the wrapped RNG."""
        self._rng.setstate((3, tuple(self._state.tolist()), self._gauss))
