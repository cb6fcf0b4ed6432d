"""Cross-scenario batched tensor execution.

Public surface:

* :func:`execute_batch` — run N scenarios as fused ``(N, T)`` array
  passes in one process (see :mod:`repro.tensor.batch`).

The batch executor loads lazily on first attribute access because
:mod:`.batch` imports :mod:`repro.engine.executor`; an eager import
here would load the whole engine on every ``import repro.tensor``.
"""

from __future__ import annotations

_BATCH_EXPORTS = ("execute_batch", "optical_key", "fast_path_eligible",
                  "clear_plan_cache")

__all__ = list(_BATCH_EXPORTS)


def __getattr__(name: str):
    if name in _BATCH_EXPORTS:
        from . import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
