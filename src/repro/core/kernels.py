"""Vectorized struct-of-arrays kernels for the per-seed hot paths.

Every sweep layer so far parallelizes *around* a seed (pools, caches,
work queues); this module makes one seed cheaper.  It provides numpy
kernels for the inner loops — the forgetting update of Eq. 19–22, policy
scoring over candidate columns, the Eq. 5 / Eq. 7 chain combiners, and
block generation of the exact random streams the sequential code draws —
behind the ``compute="python" | "vectorized"`` switch threaded through
:class:`~repro.core.engine.DelegationEngine`, the simulation classes and
the ``*-vectorized`` registry scenarios.

The contract is **bit-identity**, not approximation: a vectorized run
must return results ``==``-equal to the sequential oracle.  Three facts
make that achievable:

* CPython's ``random.Random(obj)`` seeding of the Mersenne Twister is
  reproducible (:func:`mt_seed_key`), and ``numpy.random.RandomState``
  initialized with the same key produces the *same* 32-bit stream, so
  ``RandomState.random_sample(n)`` equals ``n`` successive
  ``Random.random()`` calls bit for bit;
* a block-consuming :class:`DrawStream` can hand its exact generator
  state back to a genuine ``random.Random`` (:meth:`DrawStream.to_python`),
  so phases needing ``choice``/``shuffle`` run the unmodified stdlib
  code mid-stream;
* IEEE-754 float64 arithmetic is deterministic per operation, so numpy
  expressions mirroring the scalar expression trees (same operations,
  same association order) produce identical doubles elementwise.

numpy is imported on first vectorized use, not with this module:
``HAVE_NUMPY`` says whether it is importable without importing it, and
the python path (``resolve_compute("python")``, :func:`forget_scan`,
:func:`rank_order`) never loads it, so a freshly started worker's first
python-path seed does not pay for numpy's import.
Everything degrades gracefully: without numpy installed (or with one
that fails to import) ``resolve_compute("vectorized")`` returns
``"python"`` and every caller falls back to the python kernels, which
*are* the oracle.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
import sys
import threading
from typing import List, Optional, Sequence, Union

from repro.core.ids import validate_probability
from repro.core.policy import (
    GainOnlyPolicy,
    NetProfitPolicy,
    SelectionPolicy,
    SuccessRatePolicy,
)

__all__ = [
    "HAVE_NUMPY",
    "DrawStream",
    "borrow_stream",
    "mt_seed_key",
    "bernoulli_block",
    "forget_scan",
    "trust_update_columns",
    "factor_columns",
    "score_columns",
    "resolve_compute",
    "rank_order",
    "combine_chain_columns",
    "traditional_chain_columns",
]


# ---------------------------------------------------------------------------
# numpy, loaded on first vectorized use
# ---------------------------------------------------------------------------

def _numpy_importable() -> bool:
    """Whether numpy can be imported, answered without importing it.

    A ``None`` entry in ``sys.modules`` is how Python spells "this
    import is blocked", and a loaded module may carry no ``__spec__``,
    so ``find_spec`` is asked only when numpy is not loaded yet.
    """
    if "numpy" in sys.modules:
        return sys.modules["numpy"] is not None
    return importlib.util.find_spec("numpy") is not None


# numpy is optional: the python kernels are always available.
HAVE_NUMPY = _numpy_importable()


def _load_numpy() -> bool:
    """Bind numpy into this module; ``False`` when it cannot be imported.

    A broken install (found, but raising on import) flips
    ``HAVE_NUMPY`` off, so :func:`resolve_compute` degrades to python.
    """
    global _np, HAVE_NUMPY
    if HAVE_NUMPY and isinstance(_np, _LazyNumpy):
        try:
            import numpy
        except ImportError:
            HAVE_NUMPY = False
        else:
            _np = numpy
    return HAVE_NUMPY


class _LazyNumpy:
    """Stands in for numpy until the first attribute lookup loads it.

    After that lookup ``_np`` is numpy itself, so the vectorized kernels
    pay no indirection per call.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        if not _load_numpy():
            raise RuntimeError(
                "the vectorized kernels need numpy; gate on "
                "kernels.resolve_compute('vectorized')"
            )
        return getattr(_np, name)


_np = _LazyNumpy()


# ---------------------------------------------------------------------------
# exact replication of CPython's Mersenne Twister seeding
# ---------------------------------------------------------------------------

def mt_seed_key(seed: Union[int, str, bytes]) -> List[int]:
    """The ``init_by_array`` key ``random.Random(seed)`` seeds MT19937 with.

    CPython hashes ``str``/``bytes`` seeds by appending their SHA-512
    digest and treating the result as a big integer; integers are used
    directly.  Either way the absolute value is split into little-endian
    32-bit words — the key ``numpy.random.RandomState`` accepts (as a
    plain list; an ndarray takes numpy's different legacy-seeding path).
    """
    if isinstance(seed, str):
        seed = seed.encode()
    if isinstance(seed, (bytes, bytearray)):
        seed = int.from_bytes(
            bytes(seed) + hashlib.sha512(seed).digest(), "big"
        )
    if not isinstance(seed, int):
        raise TypeError(
            f"only int/str/bytes seeds can be replicated, got "
            f"{type(seed).__name__}"
        )
    value = abs(seed)
    key: List[int] = []
    while value:
        key.append(value & 0xFFFFFFFF)
        value >>= 32
    return key or [0]


class DrawStream:
    """A block-producing replica of ``random.Random(seed)``'s stream.

    ``block(n)`` returns the next ``n`` doubles of the stream as an
    ndarray — bit-identical to ``n`` successive ``.random()`` calls on
    the replicated generator.  ``to_python()`` transplants the current
    Mersenne Twister state into a genuine ``random.Random``, which then
    continues the *same* stream, so sequential phases that need
    ``choice``/``shuffle``/``getrandbits`` run unmodified stdlib code.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: Union[int, str, bytes]) -> None:
        self._state = _np.random.RandomState(mt_seed_key(seed))

    def reseed(self, seed: Union[int, str, bytes]) -> "DrawStream":
        """Rewind this stream to a fresh seed (12x cheaper than a new
        ``RandomState``; the underlying reseed is the same
        ``init_by_array``)."""
        self._state.seed(mt_seed_key(seed))
        return self

    def block(self, count: int):
        """The next ``count`` uniform [0, 1) doubles of the stream."""
        return self._state.random_sample(count)

    def to_python(self) -> random.Random:
        """A ``random.Random`` continuing this stream from right here."""
        _kind, keys, pos, _has_gauss, _gauss = self._state.get_state()
        rng = random.Random()
        rng.setstate((3, tuple(int(k) for k in keys) + (int(pos),), None))
        return rng


_STREAM_POOL = threading.local()


def borrow_stream(seed: Union[int, str, bytes]) -> DrawStream:
    """This thread's pooled :class:`DrawStream`, reseeded to ``seed``.

    Hot loops replicate a fresh stream per run/seed; reusing one
    ``RandomState`` per thread makes that a cheap reseed instead of a
    full generator construction.  The previous stream borrowed on the
    same thread is rewound by this call — borrow again only after you
    are done drawing (handing off via :meth:`DrawStream.to_python`
    detaches the state, so the handed-off ``random.Random`` stays
    valid).
    """
    stream = getattr(_STREAM_POOL, "stream", None)
    if stream is None:
        stream = DrawStream(seed)
        _STREAM_POOL.stream = stream
        return stream
    return stream.reseed(seed)


def _is_ndarray(value) -> bool:
    """``isinstance(value, numpy.ndarray)`` without loading numpy: no
    ndarray can exist before something imported it."""
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(value, numpy.ndarray)


def bernoulli_block(draws, threshold):
    """``1.0 if draw < threshold else 0.0`` over a block of draws.

    ``threshold`` may be a scalar or a per-draw array; the comparison is
    the same float64 ``<`` the scalar code performs.
    """
    return _np.where(draws < threshold, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Eq. 19–22: the forgetting update
# ---------------------------------------------------------------------------

def forget_scan(
    initial: float,
    observed,
    beta: float,
    cap_one: bool = False,
) -> List[float]:
    """The Eq. 19 recurrence over a whole observation sequence.

    Returns ``[est_1, est_2, ...]`` where ``est_k = beta*est_{k-1} +
    (1-beta)*observed_k`` — each element exactly what repeated
    :func:`repro.core.update.forget` calls produce, with ``beta``
    validated once instead of per step.  ``cap_one=True`` applies the
    ``min(1.0, ·)`` cap the Fig. 15 proposed tracker uses after each
    step.

    The recurrence is inherently sequential, so this runs as a python
    scalar loop; the vectorized win is everything *around* it (block
    draws, vector comparisons, de-biasing).
    """
    validate_probability(beta, "forgetting factor beta")
    if _is_ndarray(observed):
        observed = observed.tolist()
    weight = 1.0 - beta
    estimate = initial
    out: List[float] = []
    append = out.append
    if cap_one:
        for value in observed:
            blended = beta * estimate + weight * value
            # Exactly ``min(1.0, blended)``: 1.0 unless strictly below it.
            estimate = blended if blended < 1.0 else 1.0
            append(estimate)
    else:
        for value in observed:
            estimate = beta * estimate + weight * value
            append(estimate)
    return out


def trust_update_columns(expected, observed, betas):
    """One vectorized Eq. 19–22 step over columns of factor vectors.

    ``expected`` and ``observed`` are ``(S, G, D, C)`` tuples of
    ndarrays; ``betas`` the four forgetting factors in the same order.
    Mirrors :meth:`repro.core.update.ForgettingUpdater.update`: each
    aspect blends ``beta*old + (1-beta)*obs`` and the success column is
    clamped into [0, 1] (``np.clip`` matches ``clamp01`` bitwise,
    including NaN passthrough).
    """
    for beta in betas:
        validate_probability(beta, "forgetting factor beta")
    blended = [
        beta * old + (1.0 - beta) * obs
        for old, obs, beta in zip(expected, observed, betas)
    ]
    blended[0] = _np.clip(blended[0], 0.0, 1.0)
    return tuple(blended)


# ---------------------------------------------------------------------------
# candidate scoring (the rank_candidates hot path)
# ---------------------------------------------------------------------------

def factor_columns(factors):
    """``(S, G, D, C)`` struct-of-arrays view of an ``OutcomeFactors``
    sequence — the columnar layout :func:`score_columns` consumes."""
    return (
        _np.array([f.success_rate for f in factors], dtype=float),
        _np.array([f.gain for f in factors], dtype=float),
        _np.array([f.damage for f in factors], dtype=float),
        _np.array([f.cost for f in factors], dtype=float),
    )


def score_columns(policy: SelectionPolicy, S, G, D, C):
    """Vectorized ``policy.score`` over candidate columns, or ``None``.

    Supports the three built-in policies with expression trees matching
    their scalar ``score`` implementations exactly; any other policy
    returns ``None`` and the caller falls back to per-candidate scoring
    (subclassed policies can compute anything).
    """
    policy_type = type(policy)
    if policy_type is SuccessRatePolicy:
        return _np.asarray(S, dtype=float)
    if policy_type is NetProfitPolicy:
        return S * G - (1.0 - S) * D - C
    if policy_type is GainOnlyPolicy:
        return S * G
    return None


def rank_order(scores) -> List[int]:
    """Indices of ``scores`` ordered best-first, oracle-identically.

    The sequential path sorts ``(candidate, score)`` pairs with
    ``list.sort(key=..., reverse=True)``; sorting *indices* by python
    floats with the same stable Timsort yields the identical
    permutation — including the oracle's exact (arbitrary but
    deterministic) placement of NaN scores, which an ``argsort`` would
    order differently.
    """
    values = scores.tolist() if _is_ndarray(scores) else list(scores)
    return sorted(range(len(values)), key=values.__getitem__, reverse=True)


# ---------------------------------------------------------------------------
# Eq. 5 / Eq. 7: transitivity chain combiners
# ---------------------------------------------------------------------------

def combine_chain_columns(hops):
    """Eq. 7 folded along axis 1 of a ``(chains, hops)`` matrix.

    Column ``k`` applies ``combine_two_sided(result, hop_k)`` =
    ``r*h + (1-r)*(1-h)`` to every chain at once — the same fold order
    and expression tree as :func:`repro.core.transitivity.combine_chain`
    per row (hop-range validation is the caller's business; the
    simulation draws hops from [0.5, 1.0] by construction).
    """
    hops = _np.asarray(hops, dtype=float)
    result = _np.ones(hops.shape[0])
    for column in range(hops.shape[1]):
        hop = hops[:, column]
        result = result * hop + (1.0 - result) * (1.0 - hop)
    return result


def traditional_chain_columns(hops):
    """Eq. 5 (plain product) folded along axis 1, row-wise."""
    hops = _np.asarray(hops, dtype=float)
    result = _np.ones(hops.shape[0])
    for column in range(hops.shape[1]):
        result = result * hops[:, column]
    return result


def resolve_compute(compute: str) -> str:
    """Validate a compute-backend name; numpy-less hosts fall back.

    ``"vectorized"`` silently degrades to ``"python"`` when numpy is
    unavailable — the python kernels are the oracle, so the results are
    identical either way (that is the whole contract); only the speed
    differs.
    """
    if compute not in ("python", "vectorized"):
        raise ValueError(
            f"compute must be 'python' or 'vectorized', got {compute!r}"
        )
    if compute == "vectorized" and not _load_numpy():
        return "python"
    return compute
