"""Pluggable array-namespace backends for the batched kernels.

The batched trial path (:mod:`repro.parallel.batch`,
:func:`repro.geometry.torus.batched_pairwise_distances`, the routing
batch math) takes the array namespace and dtype from an
:class:`ArrayBackend` instead of importing :mod:`numpy` directly.  Two
backends are always registered:

``numpy64``
    float64 numpy -- the *canonical* backend.  Every batched kernel on
    it is bit-identical to the serial per-trial code, so results feed
    the same content digests and trial-cache keys as serial runs.

``numpy32``
    float32 numpy -- tolerance-gated.  Results agree with ``numpy64``
    within the per-kernel ``rtol`` map and are *excluded* from the
    canonical digest (the backend name is folded into cache keys and
    sweep digests so they can never collide with canonical results).

Kernels accept ``backend=None`` meaning "the current default"
(``numpy64`` unless :func:`using_backend` overrides it).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "ArrayBackend",
    "available_backends",
    "default_backend",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "using_backend",
]

#: Fallback relative tolerance for kernels a backend does not list.
DEFAULT_RTOL = 1e-4


@dataclass(frozen=True)
class ArrayBackend:
    """One array namespace plus its dtype policy and tolerance contract.

    ``xp`` is a numpy-compatible module; ``float_dtype`` is the dtype
    every batched kernel computes in; ``canonical`` marks the single backend whose results are
    bit-identical to serial float64 and therefore digest-eligible;
    ``rtol`` maps kernel names (``"torus_distance"``,
    ``"contact_probability"``, ``"scheme_rate"``) to the relative
    tolerance within which this backend must agree with ``numpy64``.
    """

    name: str
    xp: Any
    float_dtype: Any
    canonical: bool = False
    rtol: Mapping[str, float] = field(default_factory=dict)

    def asarray(self, array) -> Any:
        """``array`` as a device array in this backend's float dtype."""
        return self.xp.asarray(self.to_device(array), dtype=self.float_dtype)

    def to_device(self, array) -> Any:
        """Move a host (numpy) array onto this backend's device."""
        return self.xp.asarray(array)

    def from_device(self, array) -> np.ndarray:
        """Bring a device array back as a host numpy array."""
        return np.asarray(array)

    def tolerance(self, kernel: str) -> float:
        """The declared ``rtol`` gate for ``kernel`` on this backend.

        The canonical backend is exact (0.0); others fall back to
        :data:`DEFAULT_RTOL` for kernels they do not list.
        """
        if self.canonical:
            return 0.0
        return float(self.rtol.get(kernel, DEFAULT_RTOL))


_REGISTRY: Dict[str, ArrayBackend] = {}


def register_backend(backend: ArrayBackend) -> ArrayBackend:
    """Add ``backend`` to the registry (idempotent by name) and return it."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> ArrayBackend:
    """The registered backend called ``name``.

    Raises ``KeyError`` naming the available backends when ``name`` is
    unknown.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown array backend {name!r}; available: {known}"
        ) from None


def available_backends() -> Tuple[str, ...]:
    """Names of every backend this process can actually run, sorted."""
    return tuple(sorted(_REGISTRY))


def default_backend() -> ArrayBackend:
    """The canonical ``numpy64`` backend."""
    return _REGISTRY["numpy64"]


def resolve_backend(backend: Optional[object]) -> ArrayBackend:
    """Normalise ``backend`` (None | name | instance) to an instance.

    ``None`` resolves to the *current* backend: the innermost
    :func:`using_backend` override, or ``numpy64``.
    """
    if backend is None:
        return _current_backend
    if isinstance(backend, ArrayBackend):
        return backend
    return get_backend(str(backend))


register_backend(
    ArrayBackend(name="numpy64", xp=np, float_dtype=np.float64, canonical=True)
)
register_backend(
    ArrayBackend(
        name="numpy32",
        xp=np,
        float_dtype=np.float32,
        rtol={
            "torus_distance": 1e-5,
            "contact_probability": 1e-4,
            "scheme_rate": 1e-3,
        },
    )
)


_current_backend: ArrayBackend = default_backend()


@contextmanager
def using_backend(backend: Optional[object]):
    """Temporarily make ``backend`` the default ``backend=None`` resolves to."""
    global _current_backend
    previous = _current_backend
    _current_backend = resolve_backend(backend)
    try:
        yield _current_backend
    finally:
        _current_backend = previous
