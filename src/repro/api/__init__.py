"""repro.api — the library's declarative front door.

Two pieces:

* :mod:`repro.api.spec` — :class:`KernelSpec` (frozen, JSON/dict
  round-trippable, picklable kernel descriptions) and the kernel-factory
  registry (:func:`register_kernel`, :func:`kernel_from_spec`,
  :func:`spec_from_kernel`).  Every kernel kind the CLI and the pipeline
  offer derives from this registry.
* :mod:`repro.api.session` — :class:`AnalysisSession`, the service facade
  owning one token interner and one warm Gram engine per spec.  Jobs
  (asynchronous work) belong to the service, :mod:`repro.service`.

:class:`ServiceClient` (the networked mirror of the session surface, see
:mod:`repro.service`) is re-exported lazily so ``from repro.api import
ServiceClient`` works without importing the service stack — or the session
module importing it — at package-import time.
"""

from repro.api.session import AnalysisSession
from repro.core.cachestore import MatrixCache
from repro.api.spec import (
    KernelSpec,
    KernelSpecError,
    canonicalize_spec,
    coerce_spec,
    kernel_choices,
    kernel_from_spec,
    make_spec,
    register_kernel,
    registered_kinds,
    spec_from_kernel,
    spec_signature,
)

__all__ = [
    "AnalysisSession",
    "KernelSpec",
    "KernelSpecError",
    "MatrixCache",
    "ServiceClient",
    "canonicalize_spec",
    "coerce_spec",
    "kernel_choices",
    "kernel_from_spec",
    "make_spec",
    "register_kernel",
    "registered_kinds",
    "spec_from_kernel",
    "spec_signature",
]


def __getattr__(name: str):
    if name == "ServiceClient":
        from repro.service.client import ServiceClient

        return ServiceClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
