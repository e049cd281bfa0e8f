"""Tests for the declarative kernel-spec registry (repro.api.spec)."""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import (
    KernelSpec,
    KernelSpecError,
    coerce_spec,
    kernel_choices,
    kernel_from_spec,
    make_spec,
    registered_kinds,
    spec_from_kernel,
    spec_signature,
)
from repro.core.kast import KAST_BACKENDS, KastSpectrumKernel
from repro.kernels.composite import NormalizedKernel, ScaledKernel, SumKernel
from repro.strings.interner import TokenInterner

# ----------------------------------------------------------------------
# Parameter strategies per registered kind (used by the property tests)
# ----------------------------------------------------------------------
_KIND_STRATEGIES = {
    "kast": st.fixed_dictionaries(
        {
            "cut_weight": st.integers(min_value=1, max_value=1024),
            "normalization": st.sampled_from(["gram", "weight", None]),
            "filter_tokens_below_cut": st.booleans(),
            "require_independent_occurrence": st.booleans(),
            "backend": st.sampled_from(list(KAST_BACKENDS)),
        }
    ),
    "blended": st.fixed_dictionaries(
        {
            "max_length": st.integers(min_value=1, max_value=6),
            "decay": st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
            "weighted": st.booleans(),
            "min_weight": st.integers(min_value=1, max_value=64),
        }
    ),
    "spectrum": st.fixed_dictionaries(
        {"k": st.integers(min_value=1, max_value=6), "weighted": st.booleans()}
    ),
    "bag-of-characters": st.fixed_dictionaries(
        {"weighted": st.booleans(), "include_structural": st.booleans()}
    ),
    "bag-of-words": st.fixed_dictionaries({"weighted": st.booleans()}),
}

_kind_and_params = st.sampled_from(sorted(_KIND_STRATEGIES)).flatmap(
    lambda kind: st.tuples(st.just(kind), _KIND_STRATEGIES[kind])
)


class TestKernelSpecBasics:
    def test_params_sorted_and_hashable(self):
        a = KernelSpec("kast", {"cut_weight": 4, "backend": "numpy"})
        b = KernelSpec("kast", (("backend", "numpy"), ("cut_weight", 4)))
        assert a == b
        assert hash(a) == hash(b)
        assert a.params == (("backend", "numpy"), ("cut_weight", 4))

    def test_kind_lower_cased(self):
        assert KernelSpec("KAST").kind == "kast"

    def test_get_and_replace(self):
        spec = make_spec("kast", cut_weight=4)
        assert spec.get("cut_weight") == 4
        assert spec.get("missing", "fallback") == "fallback"
        assert spec.replace(cut_weight=8).get("cut_weight") == 8
        # replace() leaves the original untouched (frozen dataclass).
        assert spec.get("cut_weight") == 4

    def test_rejects_non_scalar_params(self):
        with pytest.raises(KernelSpecError):
            KernelSpec("kast", {"cut_weight": [1, 2]})

    def test_rejects_duplicate_params(self):
        with pytest.raises(KernelSpecError):
            KernelSpec("kast", (("a", 1), ("a", 2)))

    def test_rejects_non_spec_children(self):
        with pytest.raises(KernelSpecError):
            KernelSpec("sum", children=("kast",))

    def test_unknown_kind_rejected(self):
        with pytest.raises(KernelSpecError):
            make_spec("transformer")
        with pytest.raises(ValueError):  # KernelSpecError subclasses ValueError
            kernel_from_spec(KernelSpec("transformer"))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(KernelSpecError):
            make_spec("kast", window=7)

    def test_choices_derive_from_registry(self):
        assert kernel_choices() == ("kast", "blended", "spectrum", "bag-of-characters", "bag-of-words")
        # Composites are registered but not offered as experiment choices.
        assert set(registered_kinds()) - set(kernel_choices()) == {"sum", "product", "scaled", "normalized"}


class TestRoundTrips:
    @pytest.mark.parametrize("kind", kernel_choices())
    def test_default_spec_round_trips(self, kind):
        spec = make_spec(kind)
        assert spec_from_kernel(kernel_from_spec(spec)) == spec

    @settings(max_examples=60, deadline=None)
    @given(_kind_and_params)
    def test_spec_kernel_spec_identity(self, kind_and_params):
        kind, params = kind_and_params
        spec = make_spec(kind, **params)
        assert spec_from_kernel(kernel_from_spec(spec)) == spec

    @settings(max_examples=60, deadline=None)
    @given(_kind_and_params)
    def test_spec_json_spec_identity(self, kind_and_params):
        kind, params = kind_and_params
        spec = make_spec(kind, **params)
        assert KernelSpec.from_json(spec.to_json()) == spec
        assert KernelSpec.from_dict(json.loads(spec.canonical())) == spec

    @settings(max_examples=60, deadline=None)
    @given(_kind_and_params)
    def test_spec_pickle_identity(self, kind_and_params):
        kind, params = kind_and_params
        spec = make_spec(kind, **params)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)

    def test_partial_spec_fills_defaults(self):
        kernel = kernel_from_spec(KernelSpec("kast", {"cut_weight": 16}))
        assert isinstance(kernel, KastSpectrumKernel)
        assert kernel.cut_weight == 16
        assert kernel.backend == "numpy"
        # The canonical spec of the built kernel carries the filled defaults.
        assert spec_from_kernel(kernel) == make_spec("kast", cut_weight=16)

    def test_composite_round_trip(self):
        spec = make_spec(
            "sum",
            children=[
                make_spec("kast", cut_weight=4),
                make_spec("scaled", children=[make_spec("spectrum", k=2)], scale=2),
            ],
        )
        kernel = kernel_from_spec(spec)
        assert isinstance(kernel, SumKernel)
        assert isinstance(kernel.kernels[1], ScaledKernel)
        assert kernel.kernels[1].scale == 2.0
        assert spec_from_kernel(kernel) == spec
        assert KernelSpec.from_json(spec.to_json()) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_normalized_wrapper_round_trip(self):
        spec = make_spec("normalized", children=[make_spec("bag-of-words")])
        kernel = kernel_from_spec(spec)
        assert isinstance(kernel, NormalizedKernel)
        assert spec_from_kernel(kernel) == spec

    def test_int_scale_canonicalised_to_float(self):
        spec = make_spec("scaled", children=[make_spec("spectrum")], scale=3)
        assert spec.get("scale") == 3.0
        assert isinstance(spec.get("scale"), float)

    def test_composite_without_children_rejected(self):
        with pytest.raises(KernelSpecError):
            make_spec("sum")
        with pytest.raises(KernelSpecError):
            kernel_from_spec(KernelSpec("normalized"))

    def test_leaf_with_children_rejected(self):
        with pytest.raises(KernelSpecError):
            make_spec("kast", children=[make_spec("spectrum")])

    def test_interner_threaded_to_kast(self):
        interner = TokenInterner()
        kernel = kernel_from_spec(make_spec("kast"), interner=interner)
        assert kernel.interner is interner
        nested = kernel_from_spec(
            make_spec("sum", children=[make_spec("kast"), make_spec("spectrum")]), interner=interner
        )
        assert nested.kernels[0].interner is interner


class TestCoercion:
    def test_coerce_kind_name(self):
        assert coerce_spec("kast") == make_spec("kast")

    def test_coerce_json_text(self):
        spec = make_spec("blended", min_weight=4)
        assert coerce_spec(spec.to_json()) == spec

    def test_coerce_mapping(self):
        spec = make_spec("spectrum", k=2)
        assert coerce_spec(spec.to_dict()) == spec

    def test_coerce_kernel_instance(self):
        assert coerce_spec(KastSpectrumKernel(cut_weight=8)) == make_spec("kast", cut_weight=8)

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(KernelSpecError):
            KernelSpec.from_dict({"kind": "kast", "bogus": 1})
        with pytest.raises(KernelSpecError):
            KernelSpec.from_dict({"params": {}})
        with pytest.raises(KernelSpecError):
            KernelSpec.from_json("{not json")


class TestSignature:
    def test_backend_is_value_irrelevant(self):
        numpy_sig = spec_signature(make_spec("kast", backend="numpy"))
        python_sig = spec_signature(make_spec("kast", backend="python"))
        assert numpy_sig == python_sig

    @pytest.mark.parametrize(
        "change",
        [
            {"cut_weight": 3},
            {"normalization": "weight"},
            {"filter_tokens_below_cut": True},
            {"require_independent_occurrence": False},
        ],
    )
    def test_every_value_affecting_kast_field_changes_signature(self, change):
        assert spec_signature(make_spec("kast", **change)) != spec_signature(make_spec("kast"))

    def test_signature_distinguishes_kinds_and_children(self):
        assert spec_signature(make_spec("spectrum")) != spec_signature(make_spec("bag-of-words"))
        single = make_spec("sum", children=[make_spec("spectrum")])
        double = make_spec("sum", children=[make_spec("spectrum"), make_spec("spectrum")])
        assert spec_signature(single) != spec_signature(double)

    def test_signature_deterministic_under_param_order(self):
        a = KernelSpec("kast", {"cut_weight": 2, "backend": "numpy"})
        b = KernelSpec("kast", {"backend": "numpy", "cut_weight": 2})
        assert spec_signature(a) == spec_signature(b)


class TestCanonicalization:
    def test_partial_shorthands_coerce_to_canonical(self):
        # Regression: a hand-written partial spec and the canonical spec of
        # the same kernel must coerce to one value, or sessions would key
        # separate engines (and signatures would spuriously differ).
        canonical = make_spec("kast")
        assert coerce_spec('{"kind": "kast"}') == canonical
        assert coerce_spec({"kind": "kast"}) == canonical
        assert coerce_spec(KernelSpec("kast")) == canonical
        assert spec_signature(coerce_spec('{"kind": "kast"}')) == spec_signature(canonical)

    def test_partial_composite_children_canonicalized(self):
        partial = {"kind": "sum", "children": [{"kind": "kast"}, {"kind": "spectrum"}]}
        assert coerce_spec(partial) == make_spec("sum", children=[make_spec("kast"), make_spec("spectrum")])

    def test_unknown_params_rejected_at_coercion(self):
        with pytest.raises(KernelSpecError):
            coerce_spec({"kind": "kast", "params": {"window": 3}})

    def test_unregistered_kind_passes_through(self):
        spec = KernelSpec("mystery", {"x": 1})
        from repro.api.spec import canonicalize_spec

        assert canonicalize_spec(spec) == spec
