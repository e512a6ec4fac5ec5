"""Tier-1 wire-protocol tests: parsing, status mapping, canonical bytes."""

import json

import pytest

from repro.core.engine import Engine
from repro.hdl.source import SourceFile
from repro.runtime.diagnostics import Diagnostic, Severity, SourceSpan
from repro.serve import protocol
from repro.serve.protocol import ProtocolError
from tests._measure import measure_one

_ADDER = SourceFile(
    "adder.v",
    """
    module top_adder #(parameter W = 8)(input [W-1:0] a, b,
                                        output [W-1:0] s);
      assign s = a + b;
    endmodule
    """,
)


class TestEncoding:
    def test_encode_is_canonical(self):
        a = protocol.encode({"b": 1, "a": [1, 2]})
        b = protocol.encode({"a": [1, 2], "b": 1})
        assert a == b
        assert a.endswith(b"\n")
        assert json.loads(a) == {"a": [1, 2], "b": 1}

    def test_status_mapping_covers_exit_contract(self):
        assert protocol.STATUS_BY_EXIT == {0: 200, 1: 422, 2: 500}


class TestDiagnosticWire:
    def test_excludes_run_dependent_span_id(self):
        diag = Diagnostic(
            Severity.ERROR, "parse", "boom",
            span=SourceSpan("x.v", 3), component="adder",
            hint="fix it", span_id=42,
        )
        wire = protocol.diagnostic_to_wire(diag)
        assert "span_id" not in wire
        assert wire["severity"] == "error"
        assert wire["span"] == {"file": "x.v", "line": 3, "end_line": 0}
        assert wire["rendered"] == diag.render()
        assert "hint: fix it" in wire["rendered"]

    def test_same_diagnostic_different_span_id_same_bytes(self):
        one = Diagnostic(Severity.ERROR, "parse", "boom", span_id=1)
        two = Diagnostic(Severity.ERROR, "parse", "boom", span_id="w3:7")
        assert protocol.encode(protocol.diagnostic_to_wire(one)) == \
            protocol.encode(protocol.diagnostic_to_wire(two))


class TestMeasureRequest:
    def _body(self, **overrides):
        body = {
            "files": [{"name": "adder.v", "text": "module m; endmodule"}],
            "top": "m",
        }
        body.update(overrides)
        return body

    def test_parses_minimal_body(self):
        req = protocol.parse_measure_request(self._body())
        assert req.spec.top == "m"
        assert req.spec.name == "m"  # defaults to top
        assert not req.strict and not req.lint
        assert req.spec.policy.count_each_component_once

    def test_accounting_flag_selects_policy(self):
        req = protocol.parse_measure_request(self._body(accounting=False))
        assert not req.spec.policy.count_each_component_once

    @pytest.mark.parametrize(
        "mutation",
        [
            {"files": []},
            {"files": "nope"},
            {"files": [{"name": "", "text": "x"}]},
            {"files": [{"name": "a.v"}]},
            {"top": ""},
            {"top": 7},
            {"strict": "yes"},
        ],
    )
    def test_rejects_malformed_bodies(self, mutation):
        with pytest.raises(ProtocolError):
            protocol.parse_measure_request(self._body(**mutation))

    def test_rejects_non_object_body(self):
        with pytest.raises(ProtocolError):
            protocol.parse_measure_request([1, 2])


class TestLintRequest:
    def test_rule_codes_accept_list_or_csv(self):
        body = {
            "files": [{"name": "a.v", "text": "x"}],
            "rules": "ACC001,ACC002",
            "disable": ["W004"],
        }
        req = protocol.parse_lint_request(body)
        assert req.only == ("ACC001", "ACC002")
        assert req.disable == ("W004",)


class TestEstimateRequest:
    def test_rejects_non_numeric_metrics(self):
        with pytest.raises(ProtocolError):
            protocol.parse_estimate_request(
                {"metrics": {"Stmts": "many"}}
            )

    def test_rejects_boolean_metric(self):
        with pytest.raises(ProtocolError):
            protocol.parse_estimate_request({"metrics": {"Stmts": True}})


class TestMeasureResponse:
    def test_clean_result_maps_to_200(self):
        result = measure_one(Engine(), [_ADDER], "top_adder", name="adder")
        status, payload = protocol.measure_response("r1", result)
        assert status == 200
        assert payload["verdict"] == "ok"
        assert payload["exit_code"] == 0
        assert payload["component"]["name"] == "adder"
        assert payload["component"]["metrics"]["Stmts"] > 0

    def test_fatal_result_maps_to_500(self):
        result = measure_one(
            Engine(), [SourceFile("x.v", "garbage(")], "nope"
        )
        status, payload = protocol.measure_response("r1", result)
        assert status == 500
        assert payload["verdict"] == "failed"
        assert payload["component"] is None
        assert payload["diagnostics"]

    def test_strict_promotes_degraded_to_500(self):
        from repro.runtime.faultinject import truncate_source

        result = measure_one(
            Engine(), [_ADDER, truncate_source(_ADDER, 0.4)], "top_adder",
        )
        assert result.degraded
        lax_status, _ = protocol.measure_response("r1", result)
        strict_status, _ = protocol.measure_response(
            "r1", result, strict=True
        )
        assert lax_status == 422
        assert strict_status == 500

    def test_payload_is_pure_function_of_result(self):
        engine = Engine()
        result = measure_one(engine, [_ADDER], "top_adder", name="adder")
        again = measure_one(engine, [_ADDER], "top_adder", name="adder")
        assert protocol.encode(protocol.measure_response("r9", result)[1]) \
            == protocol.encode(protocol.measure_response("r9", again)[1])
