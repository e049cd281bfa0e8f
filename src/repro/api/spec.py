"""Declarative kernel specifications and the kernel-factory registry.

Kernels used to exist only as live :class:`~repro.kernels.base.StringKernel`
instances built by ad-hoc glue, which meant they could not be shipped to
another process, could not produce a principled persistence signature, and every
entry point re-implemented its own construction path.  This module reifies
the kernel *configuration* as data:

* :class:`KernelSpec` — a frozen, hashable, picklable dataclass naming a
  kernel kind, its parameters and (for combinators) its child specs.  Specs
  round-trip losslessly through ``dict`` and JSON, so they can be stored in
  experiment manifests, shipped over the wire, or handed to worker processes.
* the **registry** — every kernel kind registers a factory
  (:func:`register_kernel`); :func:`kernel_from_spec` instantiates a live
  kernel from a spec and :func:`spec_from_kernel` recovers the canonical spec
  from a live kernel.  Adding a kernel to the library is one registration:
  the CLI choices (:func:`kernel_choices`) and the persistence signatures
  all derive from it.
* :func:`spec_signature` — the canonical serialization of a spec minus its
  declared value-irrelevant parameters (e.g. the Kast kernel's ``backend``,
  whose two implementations produce identical values).  The
  :class:`~repro.core.engine.GramEngine` stamps persisted matrices with this
  signature, so a stale on-disk matrix is detected whenever any
  value-affecting field changes.

Canonical specs
---------------
A spec is *canonical* when every parameter the kind accepts is present with
a normalised value.  :func:`make_spec` and :func:`spec_from_kernel` always
produce canonical specs, and for those the round-trip identity

    ``spec_from_kernel(kernel_from_spec(spec)) == spec``

holds exactly.  :func:`kernel_from_spec` also accepts *partial* specs
(missing parameters take the registered defaults), which keeps hand-written
JSON convenient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.core.kast import KastSpectrumKernel
from repro.kernels.bag import BagOfCharactersKernel, BagOfWordsKernel
from repro.kernels.base import StringKernel
from repro.kernels.blended import BlendedSpectrumKernel
from repro.kernels.composite import NormalizedKernel, ProductKernel, ScaledKernel, SumKernel
from repro.kernels.spectrum import SpectrumKernel
from repro.strings.interner import TokenInterner

__all__ = [
    "KernelSpec",
    "KernelSpecError",
    "register_kernel",
    "registered_kinds",
    "kernel_choices",
    "kernel_from_spec",
    "spec_from_kernel",
    "make_spec",
    "spec_signature",
]

#: JSON-representable scalar parameter values.
ParamValue = Union[str, int, float, bool, None]

_SCALAR_TYPES = (str, int, float, bool, type(None))


class KernelSpecError(ValueError):
    """Raised for malformed specs, unknown kinds or invalid parameters."""


def _check_scalar(name: str, value: Any) -> ParamValue:
    if not isinstance(value, _SCALAR_TYPES):
        raise KernelSpecError(
            f"spec parameter {name!r} must be a JSON scalar (str/int/float/bool/None), "
            f"got {type(value).__name__}"
        )
    return value


@dataclass(frozen=True)
class KernelSpec:
    """Frozen, declarative description of one kernel configuration.

    Attributes
    ----------
    kind:
        Registered kernel kind (case-insensitive; stored lower-cased).
    params:
        Scalar parameters as a key-sorted tuple of ``(name, value)`` pairs.
        A mapping may be passed at construction time; it is normalised to
        the sorted-tuple form so equality and hashing are order-independent.
    children:
        Child specs for combinator kinds (``sum``, ``product``, ``scaled``,
        ``normalized``); empty for leaf kernels.
    """

    kind: str
    params: Tuple[Tuple[str, ParamValue], ...] = ()
    children: Tuple["KernelSpec", ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or not self.kind:
            raise KernelSpecError(f"spec kind must be a non-empty string, got {self.kind!r}")
        object.__setattr__(self, "kind", self.kind.lower())
        raw = self.params.items() if isinstance(self.params, Mapping) else tuple(self.params)
        items = []
        seen = set()
        for name, value in raw:
            name = str(name)
            if name in seen:
                raise KernelSpecError(f"duplicate spec parameter {name!r}")
            seen.add(name)
            items.append((name, _check_scalar(name, value)))
        object.__setattr__(self, "params", tuple(sorted(items)))
        children = tuple(self.children)
        for child in children:
            if not isinstance(child, KernelSpec):
                raise KernelSpecError(f"spec children must be KernelSpec instances, got {type(child).__name__}")
        object.__setattr__(self, "children", children)

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    @property
    def params_dict(self) -> Dict[str, ParamValue]:
        """The parameters as a plain dict (copy)."""
        return dict(self.params)

    def get(self, name: str, default: ParamValue = None) -> ParamValue:
        """Value of parameter *name*, or *default* when absent."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def replace(self, **params: ParamValue) -> "KernelSpec":
        """Copy of this spec with the given parameters overridden."""
        merged = self.params_dict
        merged.update(params)
        return KernelSpec(self.kind, merged, self.children)

    def with_children(self, children: Sequence["KernelSpec"]) -> "KernelSpec":
        """Copy of this spec with different child specs."""
        return KernelSpec(self.kind, self.params, tuple(children))

    # ------------------------------------------------------------------
    # dict / JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data representation (inverse of :meth:`from_dict`)."""
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.params:
            payload["params"] = self.params_dict
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "KernelSpec":
        """Rebuild a spec from :meth:`to_dict` output (extra keys rejected)."""
        if not isinstance(payload, Mapping):
            raise KernelSpecError(f"spec payload must be a mapping, got {type(payload).__name__}")
        unknown = set(payload) - {"kind", "params", "children"}
        if unknown:
            raise KernelSpecError(f"unknown spec payload keys: {sorted(unknown)}")
        if "kind" not in payload:
            raise KernelSpecError("spec payload is missing the 'kind' key")
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise KernelSpecError(f"spec 'params' must be a mapping, got {type(params).__name__}")
        children = payload.get("children", ())
        if isinstance(children, (str, bytes)) or not isinstance(children, Sequence):
            raise KernelSpecError(f"spec 'children' must be a sequence, got {type(children).__name__}")
        return cls(
            kind=str(payload["kind"]),
            params=dict(params),
            children=tuple(cls.from_dict(child) for child in children),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON text (inverse of :meth:`from_json`)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "KernelSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise KernelSpecError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def canonical(self) -> str:
        """Deterministic compact serialization (sorted keys, no whitespace).

        Two equal specs always canonicalise to the same string, so this is a
        stable content key for caches and manifests.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def signature(self) -> str:
        """Persistence signature: see :func:`spec_signature`."""
        return spec_signature(self)

    def __str__(self) -> str:  # pragma: no cover - display convenience
        return self.canonical()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegisteredKernel:
    """One entry of the kernel-kind registry."""

    #: Registered kind name (lower-case).
    kind: str
    #: ``factory(params, children, interner) -> StringKernel`` where *params*
    #: is the defaults-merged parameter dict and *children* the already-built
    #: child kernels.
    factory: Callable[[Dict[str, ParamValue], Tuple[StringKernel, ...], Optional[TokenInterner]], StringKernel]
    #: Full parameter schema: every accepted parameter with its default.
    defaults: Tuple[Tuple[str, ParamValue], ...] = ()
    #: Kernel class instances of this kind (for :func:`spec_from_kernel`).
    kernel_class: Optional[type] = None
    #: ``to_spec(kernel) -> KernelSpec`` recovering the canonical spec.
    to_spec: Optional[Callable[[StringKernel], "KernelSpec"]] = None
    #: Parameters that do not affect kernel *values* (excluded from the
    #: persistence signature, e.g. the Kast kernel's ``backend``).
    signature_exempt: frozenset = frozenset()
    #: Whether the kind takes child specs (combinators).
    composite: bool = False
    #: Whether the kind appears in :func:`kernel_choices` / CLI choice lists.
    choice: bool = True
    #: One-line human description (CLI help, docs).
    description: str = ""


_REGISTRY: "Dict[str, RegisteredKernel]" = {}


def register_kernel(
    kind: str,
    factory: Callable[..., StringKernel],
    *,
    defaults: Optional[Mapping[str, ParamValue]] = None,
    kernel_class: Optional[type] = None,
    to_spec: Optional[Callable[[StringKernel], KernelSpec]] = None,
    signature_exempt: Sequence[str] = (),
    composite: bool = False,
    choice: Optional[bool] = None,
    description: str = "",
    replace: bool = False,
) -> RegisteredKernel:
    """Register a kernel kind with the spec registry.

    Parameters
    ----------
    kind:
        Kind name (stored lower-case; must be unique unless *replace*).
    factory:
        ``factory(params, children, interner)`` building a live kernel from
        the defaults-merged parameter dict and pre-built child kernels.
    defaults:
        Complete parameter schema — every accepted parameter mapped to its
        default value.  Unknown parameters in a spec are rejected.
    kernel_class / to_spec:
        Enable :func:`spec_from_kernel` for this kind: instances of
        *kernel_class* (including subclasses) are mapped back to their
        canonical spec by *to_spec*.
    signature_exempt:
        Parameter names excluded from :func:`spec_signature` because they do
        not affect kernel values.
    composite:
        Whether the kind consumes child specs.
    choice:
        Whether the kind is offered as a user-facing choice (CLI,
        :func:`kernel_choices`).  Defaults to ``not composite``.
    description:
        One-line description used in CLI help.
    replace:
        Allow overwriting an existing registration.
    """
    kind = kind.lower()
    if kind in _REGISTRY and not replace:
        raise KernelSpecError(f"kernel kind {kind!r} is already registered")
    entry = RegisteredKernel(
        kind=kind,
        factory=factory,
        defaults=tuple(sorted((defaults or {}).items())),
        kernel_class=kernel_class,
        to_spec=to_spec,
        signature_exempt=frozenset(signature_exempt),
        composite=composite,
        choice=not composite if choice is None else choice,
        description=description,
    )
    _REGISTRY[kind] = entry
    return entry


def registry_entry(kind: str) -> RegisteredKernel:
    """The registry entry for *kind* (:class:`KernelSpecError` if unknown)."""
    entry = _REGISTRY.get(kind.lower())
    if entry is None:
        raise KernelSpecError(
            f"unknown kernel kind {kind!r}; registered kinds: {', '.join(sorted(_REGISTRY))}"
        )
    return entry


def registered_kinds(choices_only: bool = False) -> Tuple[str, ...]:
    """All registered kind names in registration order."""
    return tuple(kind for kind, entry in _REGISTRY.items() if entry.choice or not choices_only)


def kernel_choices() -> Tuple[str, ...]:
    """The user-facing kernel kinds (the CLI's ``--kernel`` choices)."""
    return registered_kinds(choices_only=True)


def _merge_params(entry: RegisteredKernel, spec_params: Mapping[str, ParamValue]) -> Dict[str, ParamValue]:
    """Defaults-merged, type-normalised parameters; unknown names rejected."""
    defaults = dict(entry.defaults)
    unknown = set(spec_params) - set(defaults)
    if unknown:
        raise KernelSpecError(
            f"kernel kind {entry.kind!r} does not accept parameter(s) {sorted(unknown)}; "
            f"accepted: {sorted(defaults)}"
        )
    merged = dict(defaults)
    for name, value in spec_params.items():
        default = defaults[name]
        # Normalise ints written where a float is expected (e.g. scale=2 in
        # hand-written JSON) so canonical specs are stable under round trips.
        if isinstance(default, float) and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        merged[name] = value
    return merged


def make_spec(kind: str, children: Sequence[KernelSpec] = (), **params: ParamValue) -> KernelSpec:
    """Canonical spec for *kind*: every parameter present, defaults filled.

    This is the constructor to prefer in library code — the resulting spec
    satisfies the exact round-trip identity
    ``spec_from_kernel(kernel_from_spec(spec)) == spec``.
    """
    entry = registry_entry(kind)
    merged = _merge_params(entry, params)
    if entry.composite and not children:
        raise KernelSpecError(f"composite kernel kind {entry.kind!r} requires at least one child spec")
    if not entry.composite and children:
        raise KernelSpecError(f"kernel kind {entry.kind!r} does not take child specs")
    return KernelSpec(entry.kind, merged, tuple(children))


def kernel_from_spec(
    spec: Union[KernelSpec, Mapping[str, Any], str],
    interner: Optional[TokenInterner] = None,
) -> StringKernel:
    """Instantiate a live kernel from *spec*.

    *spec* may be a :class:`KernelSpec`, a :meth:`KernelSpec.to_dict`
    mapping, a JSON string, or a bare kind name (all defaults).  Missing
    parameters take the registered defaults.  *interner* is threaded through
    to every (sub-)kernel that supports a shared token interner.
    """
    spec = coerce_spec(spec)
    entry = registry_entry(spec.kind)
    params = _merge_params(entry, spec.params_dict)
    if entry.composite and not spec.children:
        raise KernelSpecError(f"composite kernel kind {entry.kind!r} requires at least one child spec")
    if not entry.composite and spec.children:
        raise KernelSpecError(f"kernel kind {entry.kind!r} does not take child specs")
    children = tuple(kernel_from_spec(child, interner=interner) for child in spec.children)
    return entry.factory(params, children, interner)


def spec_from_kernel(kernel: StringKernel) -> KernelSpec:
    """Recover the canonical :class:`KernelSpec` of a live kernel.

    Dispatches on the kernel's class through the registry: exact class
    first, then ``isinstance``, so instrumented subclasses (test doubles,
    counters) map back to their base kind.
    """
    for entry in _REGISTRY.values():
        if entry.kernel_class is not None and type(kernel) is entry.kernel_class:
            assert entry.to_spec is not None
            return entry.to_spec(kernel)
    for entry in _REGISTRY.values():
        if entry.kernel_class is not None and entry.to_spec is not None and isinstance(kernel, entry.kernel_class):
            return entry.to_spec(kernel)
    raise KernelSpecError(
        f"no registered kernel kind matches {type(kernel).__name__}; "
        "register it with repro.api.register_kernel(..., kernel_class=..., to_spec=...)"
    )


def canonicalize_spec(spec: KernelSpec) -> KernelSpec:
    """Fill registered defaults (recursively) so equivalent specs compare equal.

    A hand-written partial spec like ``{"kind": "kast"}`` and the canonical
    ``make_spec("kast")`` describe the same kernel; canonicalizing both to
    the same value keeps session engine keys, warm caches and persistence
    signatures consistent across input forms.  Unregistered kinds pass
    through unchanged; unknown parameters of registered kinds are rejected.
    """
    if spec.kind not in _REGISTRY:
        return spec
    entry = _REGISTRY[spec.kind]
    return KernelSpec(
        spec.kind,
        _merge_params(entry, spec.params_dict),
        tuple(canonicalize_spec(child) for child in spec.children),
    )


def coerce_spec(spec: Union[KernelSpec, Mapping[str, Any], str, StringKernel]) -> KernelSpec:
    """Normalise the accepted spec shorthands to a canonical :class:`KernelSpec`.

    Accepts a spec, a ``to_dict`` mapping, a JSON object string, a bare kind
    name, or a live kernel (via :func:`spec_from_kernel`).  The result is
    canonicalized (:func:`canonicalize_spec`), so every shorthand naming the
    same kernel configuration coerces to the same value.
    """
    if isinstance(spec, KernelSpec):
        return canonicalize_spec(spec)
    if isinstance(spec, StringKernel):
        return spec_from_kernel(spec)
    if isinstance(spec, Mapping):
        return canonicalize_spec(KernelSpec.from_dict(spec))
    if isinstance(spec, str):
        text = spec.strip()
        if text.startswith("{"):
            return canonicalize_spec(KernelSpec.from_json(text))
        return make_spec(text)
    raise KernelSpecError(f"cannot interpret {type(spec).__name__} as a kernel spec")


def spec_signature(spec: KernelSpec) -> str:
    """Canonical serialization of *spec* minus value-irrelevant parameters.

    This is the string the :class:`~repro.core.engine.GramEngine` stamps
    into persisted matrices: it changes whenever any value-affecting spec
    field changes (invalidating stale caches) while deliberately ignoring
    parameters registered as ``signature_exempt`` (e.g. the Kast kernel's
    ``backend``, whose implementations are value-equivalent).  Unregistered
    kinds keep all their parameters.
    """

    def strip(node: KernelSpec) -> Dict[str, Any]:
        exempt = _REGISTRY[node.kind].signature_exempt if node.kind in _REGISTRY else frozenset()
        payload: Dict[str, Any] = {"kind": node.kind}
        params = {name: value for name, value in node.params if name not in exempt}
        if params:
            payload["params"] = params
        if node.children:
            payload["children"] = [strip(child) for child in node.children]
        return payload

    return json.dumps(strip(spec), sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Built-in kinds
# ----------------------------------------------------------------------
def _build_kast(params, children, interner):
    return KastSpectrumKernel(
        cut_weight=params["cut_weight"],
        normalization=params["normalization"],
        filter_tokens_below_cut=params["filter_tokens_below_cut"],
        require_independent_occurrence=params["require_independent_occurrence"],
        backend=params["backend"],
        interner=interner,
    )


def _kast_to_spec(kernel: KastSpectrumKernel) -> KernelSpec:
    return make_spec(
        "kast",
        cut_weight=kernel.cut_weight,
        normalization=kernel.normalization,
        filter_tokens_below_cut=kernel.filter_tokens_below_cut,
        require_independent_occurrence=kernel.require_independent_occurrence,
        backend=kernel.backend,
    )


def _build_blended(params, children, interner):
    return BlendedSpectrumKernel(
        max_length=params["max_length"],
        decay=params["decay"],
        weighted=params["weighted"],
        min_weight=params["min_weight"],
    )


def _blended_to_spec(kernel: BlendedSpectrumKernel) -> KernelSpec:
    return make_spec(
        "blended",
        max_length=kernel.max_length,
        decay=kernel.decay,
        weighted=kernel.weighted,
        min_weight=kernel.min_weight,
    )


def _build_spectrum(params, children, interner):
    return SpectrumKernel(k=params["k"], weighted=params["weighted"])


def _spectrum_to_spec(kernel: SpectrumKernel) -> KernelSpec:
    return make_spec("spectrum", k=kernel.k, weighted=kernel.weighted)


def _build_bag_of_characters(params, children, interner):
    return BagOfCharactersKernel(
        weighted=params["weighted"], include_structural=params["include_structural"]
    )


def _bag_of_characters_to_spec(kernel: BagOfCharactersKernel) -> KernelSpec:
    return make_spec(
        "bag-of-characters", weighted=kernel.weighted, include_structural=kernel.include_structural
    )


def _build_bag_of_words(params, children, interner):
    return BagOfWordsKernel(weighted=params["weighted"])


def _bag_of_words_to_spec(kernel: BagOfWordsKernel) -> KernelSpec:
    return make_spec("bag-of-words", weighted=kernel.weighted)


def _build_sum(params, children, interner):
    return SumKernel(children)


def _sum_to_spec(kernel: SumKernel) -> KernelSpec:
    return make_spec("sum", children=[spec_from_kernel(child) for child in kernel.kernels])


def _build_product(params, children, interner):
    return ProductKernel(children)


def _product_to_spec(kernel: ProductKernel) -> KernelSpec:
    return make_spec("product", children=[spec_from_kernel(child) for child in kernel.kernels])


def _build_scaled(params, children, interner):
    if len(children) != 1:
        raise KernelSpecError(f"'scaled' takes exactly one child spec, got {len(children)}")
    return ScaledKernel(children[0], params["scale"])


def _scaled_to_spec(kernel: ScaledKernel) -> KernelSpec:
    return make_spec("scaled", children=[spec_from_kernel(kernel.kernel)], scale=kernel.scale)


def _build_normalized(params, children, interner):
    if len(children) != 1:
        raise KernelSpecError(f"'normalized' takes exactly one child spec, got {len(children)}")
    return NormalizedKernel(children[0])


def _normalized_to_spec(kernel: NormalizedKernel) -> KernelSpec:
    return make_spec("normalized", children=[spec_from_kernel(kernel.kernel)])


# Registration order fixes the order of kernel_choices() and the CLI choice
# lists; the first five entries reproduce the library's historical tuple.
register_kernel(
    "kast",
    _build_kast,
    defaults={
        "cut_weight": 2,
        "normalization": "gram",
        "filter_tokens_below_cut": False,
        "require_independent_occurrence": True,
        "backend": "numpy",
    },
    kernel_class=KastSpectrumKernel,
    to_spec=_kast_to_spec,
    signature_exempt=("backend",),
    description="the paper's Kast Spectrum Kernel (weighted shared substrings)",
)
register_kernel(
    "blended",
    _build_blended,
    defaults={"max_length": 3, "decay": 1.0, "weighted": True, "min_weight": 1},
    kernel_class=BlendedSpectrumKernel,
    to_spec=_blended_to_spec,
    description="blended k-spectrum baseline (substrings of every length <= k)",
)
register_kernel(
    "spectrum",
    _build_spectrum,
    defaults={"k": 3, "weighted": True},
    kernel_class=SpectrumKernel,
    to_spec=_spectrum_to_spec,
    description="plain k-spectrum baseline (substrings of length exactly k)",
)
register_kernel(
    "bag-of-characters",
    _build_bag_of_characters,
    defaults={"weighted": True, "include_structural": True},
    kernel_class=BagOfCharactersKernel,
    to_spec=_bag_of_characters_to_spec,
    description="token-literal histogram baseline",
)
register_kernel(
    "bag-of-words",
    _build_bag_of_words,
    defaults={"weighted": True},
    kernel_class=BagOfWordsKernel,
    to_spec=_bag_of_words_to_spec,
    description="block-body histogram baseline",
)
register_kernel(
    "sum",
    _build_sum,
    kernel_class=SumKernel,
    to_spec=_sum_to_spec,
    composite=True,
    description="pointwise sum of the child kernels",
)
register_kernel(
    "product",
    _build_product,
    kernel_class=ProductKernel,
    to_spec=_product_to_spec,
    composite=True,
    description="pointwise product of the child kernels",
)
register_kernel(
    "scaled",
    _build_scaled,
    defaults={"scale": 1.0},
    kernel_class=ScaledKernel,
    to_spec=_scaled_to_spec,
    composite=True,
    description="child kernel multiplied by a positive constant",
)
register_kernel(
    "normalized",
    _build_normalized,
    kernel_class=NormalizedKernel,
    to_spec=_normalized_to_spec,
    composite=True,
    description="child kernel with cosine normalisation baked into its raw value",
)
