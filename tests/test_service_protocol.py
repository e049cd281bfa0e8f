"""Tests for the service wire protocol (repro.service.protocol)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import coerce_spec
from repro.learn.hierarchical import LINKAGES
from repro.service import protocol
from repro.service.protocol import (
    JOB_REQUESTS,
    PROTOCOL_VERSION,
    BadRequest,
    CacheStatsRequest,
    CancelRequest,
    CannotCancel,
    FitModelRequest,
    HealthRequest,
    JobFailed,
    JobPending,
    ResultRequest,
    ServiceError,
    SpecsRequest,
    StatusRequest,
    SubmitAnalyzeRequest,
    SubmitMatrixRequest,
    UnknownJob,
    UnsupportedVersion,
    check_response,
    decode_corpus,
    dump_message,
    encode_corpus,
    error_response,
    http_status_for_response,
    job_input,
    job_request,
    load_message,
    ok_response,
    parse_request,
)
from repro.streaming.landmarks import LANDMARK_STRATEGIES
from repro.strings.tokens import Token, WeightedString

# Literal alphabet mirroring what the string encoder can emit: printable,
# no whitespace (token text is whitespace-separated on the wire).
_literals = st.text(
    alphabet=st.characters(
        codec="ascii", categories=("L", "N", "P", "S"), exclude_characters=" \t\n\r"
    ),
    min_size=1,
    max_size=12,
)

_tokens = st.builds(Token, literal=_literals, weight=st.integers(min_value=1, max_value=10_000))

_strings = st.builds(
    WeightedString,
    tokens=st.lists(_tokens, min_size=1, max_size=8),
    name=st.text(min_size=1, max_size=16),
    label=st.one_of(st.none(), st.sampled_from(["A", "B", "C", "D", "E"])),
)


class TestCorpusCodec:
    @settings(max_examples=60, deadline=None)
    @given(corpus=st.lists(_strings, min_size=0, max_size=6))
    def test_round_trip(self, corpus):
        decoded = decode_corpus(encode_corpus(corpus))
        assert [string.tokens for string in decoded] == [string.tokens for string in corpus]
        assert [string.name for string in decoded] == [string.name for string in corpus]
        assert [string.label for string in decoded] == [string.label for string in corpus]

    def test_wire_form_is_json_safe(self):
        items = encode_corpus([WeightedString.parse("[ROOT]:1 write[1024]:3", name="t", label="A")])
        reparsed = load_message(dump_message({"strings": items}))
        assert decode_corpus(reparsed["strings"])[0].tokens == (Token("[ROOT]", 1), Token("write[1024]", 3))

    @pytest.mark.parametrize(
        "items",
        [
            "not-a-list",
            [42],
            [{"tokens": 42}],
            [{"tokens": "a:1", "surprise": True}],
            [{"tokens": "a:0"}],  # weight < 1 rejected by Token
        ],
    )
    def test_malformed_corpus_rejected(self, items):
        with pytest.raises(BadRequest):
            decode_corpus(items)


_requests = st.one_of(
    st.builds(
        SubmitMatrixRequest,
        spec=st.sampled_from(["kast", {"kind": "kast", "params": {"cut_weight": 4}}]),
        strings=st.lists(_strings, min_size=0, max_size=3).map(lambda ws: tuple(encode_corpus(ws))),
        normalized=st.booleans(),
        repair=st.booleans(),
        shards=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
        distributed=st.booleans(),
        use_cache=st.booleans(),
    ),
    st.builds(
        SubmitAnalyzeRequest,
        spec=st.just("kast"),
        strings=st.lists(_strings, min_size=0, max_size=3).map(lambda ws: tuple(encode_corpus(ws))),
        n_clusters=st.integers(min_value=1, max_value=8),
        n_components=st.integers(min_value=1, max_value=4),
        linkage=st.sampled_from(LINKAGES),
    ),
    st.builds(StatusRequest, job_id=st.text(min_size=1, max_size=24)),
    st.builds(
        ResultRequest,
        job_id=st.text(min_size=1, max_size=24),
        wait=st.floats(min_value=0, max_value=60, allow_nan=False),
        forget=st.booleans(),
    ),
    st.builds(CancelRequest, job_id=st.text(min_size=1, max_size=24)),
    st.builds(SpecsRequest),
    st.builds(HealthRequest),
    st.builds(CacheStatsRequest),
)


class TestRequestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(request=_requests)
    def test_payload_round_trip(self, request):
        payload = request.to_payload()
        assert payload["v"] == PROTOCOL_VERSION
        # The wire form must survive JSON framing and re-parse to equality.
        reparsed = parse_request(load_message(dump_message(payload)))
        assert type(reparsed) is type(request)
        assert reparsed == request

    def test_version_is_checked_first(self):
        with pytest.raises(UnsupportedVersion):
            parse_request({"v": 99, "type": "definitely-not-a-type"})
        with pytest.raises(UnsupportedVersion):
            parse_request({"type": "health"})  # missing version

    def test_unknown_type_rejected(self):
        with pytest.raises(BadRequest):
            parse_request({"v": PROTOCOL_VERSION, "type": "frobnicate"})

    def test_unknown_fields_rejected(self):
        with pytest.raises(BadRequest):
            parse_request({"v": PROTOCOL_VERSION, "type": "health", "surprise": 1})

    def test_non_mapping_rejected(self):
        with pytest.raises(BadRequest):
            parse_request([1, 2, 3])

    @pytest.mark.parametrize(
        "fields",
        [
            {"type": "submit-matrix", "spec": "kast", "shards": 0},
            {"type": "submit-matrix", "spec": "kast", "shards": True},
            {"type": "submit-matrix", "spec": "kast", "normalized": "yes"},
            {"type": "submit-matrix", "spec": "kast", "distributed": "yes"},
            {"type": "submit-analyze", "spec": "kast", "linkage": "foo"},
            {"type": "submit-analyze", "spec": "kast", "linkage": 1},
            {"type": "result", "job_id": "x", "wait": -1},
            {"type": "result", "job_id": ""},
            {"type": "status"},
        ],
    )
    def test_invalid_field_values_rejected(self, fields):
        with pytest.raises(BadRequest):
            parse_request({"v": PROTOCOL_VERSION, **fields})


_submissions = st.one_of(
    _requests.filter(lambda request: isinstance(request, (SubmitMatrixRequest, SubmitAnalyzeRequest))),
    st.builds(
        FitModelRequest,
        spec=st.sampled_from(["kast", {"kind": "kast", "params": {"cut_weight": 4}}]),
        strings=st.lists(_strings, min_size=0, max_size=3).map(lambda ws: tuple(encode_corpus(ws))),
        name=st.sampled_from(["m", "model-1", "a.b_c"]),
        landmarks=st.integers(min_value=1, max_value=64),
        strategy=st.sampled_from(LANDMARK_STRATEGIES),
        seed=st.integers(min_value=1, max_value=10_000),
        n_components=st.integers(min_value=1, max_value=4),
        n_clusters=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        use_cache=st.booleans(),
    ),
)


class TestJobRequests:
    """A job record's ``input`` is its wire request, read back through the dataclass."""

    def test_the_wire_mirrors_equal_the_library_tuples(self):
        assert protocol._LINKAGES == LINKAGES
        assert protocol._LANDMARK_STRATEGIES == LANDMARK_STRATEGIES

    @settings(max_examples=60, deadline=None)
    @given(request=_submissions)
    def test_a_stored_input_reads_back_to_the_same_input(self, request):
        kind = {request_class: kind for kind, request_class in JOB_REQUESTS.items()}[type(request)]
        stored = job_input(request)
        assert "trace_id" not in stored
        assert stored["spec"] == coerce_spec(request.spec).to_dict()
        reread = job_request(kind, load_message(dump_message(stored)))
        assert type(reread) is type(request)
        assert job_input(reread) == stored

    def test_the_input_resolves_shards_and_drops_the_trace(self):
        request = SubmitMatrixRequest(spec="kast", strings=(), trace_id="abc")
        stored = job_input(request)
        assert stored["shards"] == 1
        assert set(stored) == {"spec", "strings", "normalized", "repair", "shards", "distributed", "use_cache"}
        assert job_request("matrix", stored).trace_id is None

    def test_omitted_fields_take_the_dataclass_defaults(self):
        request = job_request("fit-model", {"spec": "kast", "strings": [], "name": "m"})
        assert request == FitModelRequest(spec="kast", name="m")

    def test_an_invalid_stored_input_is_a_bad_request(self):
        with pytest.raises(BadRequest):
            job_request("analyze", {"spec": "kast", "linkage": "foo"})
        with pytest.raises(BadRequest):
            job_request("matrix", {"spec": "kast", "surprise": 1})
        with pytest.raises(BadRequest):
            job_request("block", {"spec": "kast"})
        with pytest.raises(BadRequest, match="invalid kernel spec"):
            job_input(SubmitMatrixRequest(spec="no-such-kernel"))


_ERROR_CLASSES = [
    ServiceError,
    BadRequest,
    UnsupportedVersion,
    UnknownJob,
    JobFailed,
    JobPending,
    CannotCancel,
]


class TestErrorRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        error_class=st.sampled_from(_ERROR_CLASSES),
        message=st.text(min_size=1, max_size=60),
        details=st.dictionaries(st.text(min_size=1, max_size=8), st.text(max_size=12), max_size=3),
    )
    def test_typed_errors_survive_the_wire(self, error_class, message, details):
        response = load_message(dump_message(error_response(error_class(message, details))))
        with pytest.raises(error_class) as caught:
            check_response(response)
        assert type(caught.value) is error_class
        assert str(caught.value) == message
        assert caught.value.details == details

    def test_job_id_accessor(self):
        error = UnknownJob("nope", details={"job_id": "matrix-abc"})
        assert error.job_id == "matrix-abc"
        assert ServiceError("x").job_id is None

    def test_unknown_code_falls_back_to_base(self):
        response = {"v": PROTOCOL_VERSION, "ok": False, "error": {"code": "weird", "message": "m"}}
        with pytest.raises(ServiceError) as caught:
            check_response(response)
        assert type(caught.value) is ServiceError


class TestResponses:
    def test_ok_response_passes_check(self):
        payload = check_response(ok_response("status", job_id="j", status="done"))
        assert payload["ok"] and payload["status"] == "done"

    def test_check_response_rejects_wrong_version(self):
        with pytest.raises(UnsupportedVersion):
            check_response({"v": 2, "ok": True, "type": "health"})

    def test_http_status_mapping(self):
        assert http_status_for_response(ok_response("health")) == 200
        assert http_status_for_response(error_response(BadRequest("x"))) == 400
        assert http_status_for_response(error_response(UnknownJob("x"))) == 404
        assert http_status_for_response(error_response(JobPending("x"))) == 409
        assert http_status_for_response(error_response(ServiceError("x"))) == 500

    def test_load_message_rejects_junk(self):
        with pytest.raises(BadRequest):
            load_message("{not json")
