"""Pluggable execution backends for the SL-CSPOT sweep-line kernel.

Every detector funnels its per-snapshot search into
:func:`repro.core.sweepline.sweep_bursty_point`; this package provides the
interchangeable kernels that actually run the sweep:

``python``
    The optimized pure-Python kernel (no dependencies beyond the standard
    library).  Incremental slab evaluation makes it strictly faster than the
    original seed kernel while remaining bit-for-bit exact.

``numpy``
    A vectorized, event-blocked kernel: the burst score is kept as the
    maximum of two slab arrays that are linear in ``(fc, fp)``, so a block of
    64 rectangle events is scored with one segment-maximum pass plus a
    ``64 × segments`` offset table instead of one evaluation per event (see
    :mod:`repro.core.sweep_backends.numpy_backend`).  Available only when
    the optional ``numpy`` dependency is installed (``pip install .[fast]``).

``auto``
    Adaptive dispatch: small snapshots (where the fixed cost of building
    the arrays dominates) run on the Python kernel, the rest on NumPy when
    it is importable.  This is the default.

Selection
---------
:func:`resolve_backend` accepts a backend instance, a name, or ``None``.
``None`` consults the ``REPRO_SWEEP_BACKEND`` environment variable and falls
back to ``auto``.  Detector constructors resolve their backend once and reuse
it for every sweep.  The ``auto`` crossover size can be overridden with the
``REPRO_SWEEP_CROSSOVER`` environment variable (read when the ``auto``
backend instance is created; shared instances are cached per process).
"""

from __future__ import annotations

import os
from typing import Protocol, runtime_checkable

from repro.core.sweep_backends.python_backend import PythonSweepBackend
from repro.core.sweep_backends.types import (
    LabeledRect,
    RectColumns,
    RectSnapshot,
    SweepResult,
    as_columns,
    clip_rects,
)

#: Environment variable consulted by :func:`resolve_backend` when no explicit
#: backend is requested.
BACKEND_ENV_VAR = "REPRO_SWEEP_BACKEND"

#: Environment variable overriding the ``auto`` backend's python→numpy
#: crossover size (a positive integer; see :func:`resolve_crossover`).
CROSSOVER_ENV_VAR = "REPRO_SWEEP_CROSSOVER"

#: Default snapshot size at which ``auto`` switches from the Python kernel to
#: NumPy.  Below this the fixed cost of the array set-up (~145 µs)
#: outweighs vectorization.  Measured on what detectors actually sweep —
#: prefixes of 150 cell snapshots captured from each of the gating
#: benchmark's two exact workloads, handed over as the cells' own columns
#: (every rectangle touches a cell corner and spans about half the slabs),
#: median µs per sweep, python / numpy:
#:
#:     n      8     16     24     28     32     40     48     64     96    128
#:   hot   42/149 82/156 139/168 173/176 213/183 300/213 386/241 600/269 1207/332 2054/415
#:   unif  42/150 85/158 142/170 171/179 209/183 302/198 390/239 586/261 1168/370 1944/426
#:
#: (2 cores, CPython 3.11, numpy 2.4).  The kernels tie at n ≈ 28 and numpy
#: is 13% ahead at 32.  Override per environment with
#: ``REPRO_SWEEP_CROSSOVER`` when the measured crossover differs on your
#: hardware.
AUTO_NUMPY_THRESHOLD = 32


def resolve_crossover(value: "int | None" = None) -> int:
    """The ``auto`` backend's python→numpy crossover snapshot size.

    An explicit ``value`` wins; otherwise the :data:`CROSSOVER_ENV_VAR`
    environment variable is consulted, falling back to
    :data:`AUTO_NUMPY_THRESHOLD`.  The result must be a positive integer —
    anything else raises :class:`ValueError` (a silently-ignored typo in the
    env var would quietly change which kernel serves every sweep).
    """
    if value is None:
        raw = os.environ.get(CROSSOVER_ENV_VAR, "").strip()
        if not raw:
            return AUTO_NUMPY_THRESHOLD
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"invalid {CROSSOVER_ENV_VAR}={raw!r}: expected a positive "
                f"integer snapshot size"
            ) from None
    if value < 1:
        raise ValueError(
            f"sweep crossover must be a positive integer, got {value}"
        )
    return value

try:  # pragma: no cover - exercised indirectly through available_backends()
    from repro.core.sweep_backends.numpy_backend import NumpySweepBackend

    _HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy is an optional dependency
    NumpySweepBackend = None  # type: ignore[assignment,misc]
    _HAVE_NUMPY = False


@runtime_checkable
class SweepBackend(Protocol):
    """Protocol every sweep kernel implements.

    ``sweep`` receives a non-empty, already-clipped snapshot — a
    :class:`RectColumns` (what a cell keeps and the facade passes) or a
    sequence of records with :class:`LabeledRect`'s six attributes, converted
    once by :func:`as_columns` — and must return the exact bursty point of
    the snapshot (the facade handles clipping and the empty case).
    """

    name: str

    def sweep(
        self,
        rects: RectSnapshot,
        alpha: float,
        current_length: float,
        past_length: float,
    ) -> SweepResult: ...


class AdaptiveSweepBackend:
    """Dispatch to NumPy for large snapshots, pure Python for small ones."""

    name = "auto"

    def __init__(self, numpy_threshold: "int | None" = None) -> None:
        """``numpy_threshold=None`` reads ``REPRO_SWEEP_CROSSOVER`` (else the
        measured default); an explicit value overrides both."""
        self.numpy_threshold = resolve_crossover(numpy_threshold)
        self._python = PythonSweepBackend()
        self._numpy = NumpySweepBackend() if _HAVE_NUMPY else None

    def select(self, n_rects: int) -> SweepBackend:
        """The concrete kernel a snapshot of ``n_rects`` dispatches to.

        Exposed so callers that label work by kernel (the tracing layer's
        ``sweep.<backend>`` spans) can name the kernel that actually ran
        instead of the ``auto`` facade.
        """
        if self._numpy is not None and n_rects >= self.numpy_threshold:
            return self._numpy
        return self._python

    def sweep(
        self,
        rects: RectSnapshot,
        alpha: float,
        current_length: float,
        past_length: float,
    ) -> SweepResult:
        columns = as_columns(rects)
        return self.select(len(columns)).sweep(
            columns, alpha, current_length, past_length
        )


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend` in this environment."""
    if _HAVE_NUMPY:
        return ("auto", "python", "numpy")
    return ("auto", "python")


_INSTANCES: dict[str, SweepBackend] = {}


def get_backend(name: str) -> SweepBackend:
    """The shared backend instance registered under ``name``."""
    key = name.lower()
    cached = _INSTANCES.get(key)
    if cached is not None:
        return cached
    if key == "python":
        backend: SweepBackend = PythonSweepBackend()
    elif key == "auto":
        backend = AdaptiveSweepBackend()
    elif key == "numpy":
        if not _HAVE_NUMPY:
            raise RuntimeError(
                "the numpy sweep backend was requested but numpy is not "
                "installed; install the optional dependency with "
                "'pip install .[fast]' or select the 'python' backend"
            )
        backend = NumpySweepBackend()
    else:
        raise ValueError(
            f"unknown sweep backend {name!r}; expected one of "
            f"{', '.join(available_backends())}"
        )
    _INSTANCES[key] = backend
    return backend


def resolve_backend(spec: "str | SweepBackend | None" = None) -> SweepBackend:
    """Turn a backend spec (instance, name, or ``None``) into a backend.

    ``None`` reads the :data:`BACKEND_ENV_VAR` environment variable and falls
    back to ``auto`` when it is unset or empty.
    """
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR, "").strip() or "auto"
    if isinstance(spec, str):
        return get_backend(spec)
    return spec


__all__ = [
    "AUTO_NUMPY_THRESHOLD",
    "BACKEND_ENV_VAR",
    "CROSSOVER_ENV_VAR",
    "resolve_crossover",
    "AdaptiveSweepBackend",
    "LabeledRect",
    "PythonSweepBackend",
    "RectColumns",
    "SweepBackend",
    "SweepResult",
    "as_columns",
    "available_backends",
    "clip_rects",
    "get_backend",
    "resolve_backend",
]
