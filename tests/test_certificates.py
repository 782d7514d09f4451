import json

from pvcgap import __version__
from pvcgap.certificates import (
    ENUM_ORDER_FINGERPRINT, Certificate, negative_verdict, rational_entry,
)
from pvcgap.rational import Rat


def test_rational_entry_pairs_exact_and_decimal():
    entry = rational_entry(Rat(1, 3))
    assert entry == {"exact": "1/3", "decimal": "0.33333333333333333333"}


def test_canonical_json_is_sorted_and_stable():
    cert = Certificate(
        claim="obs-1",
        params={"n": 4, "t": 2},
        verdict="verified",
        values={"lp_value": rational_entry(Rat(1, 2))},
    )
    a = cert.canonical_json()
    b = cert.canonical_json()
    assert a == b
    doc = json.loads(a)
    assert list(doc) == sorted(doc)
    assert doc["tool"] == "pvcgap"
    assert doc["tool_version"] == __version__
    assert doc["enumeration_order"] == ENUM_ORDER_FINGERPRINT
    assert "time" not in a and "date" not in a


def test_negative_verdict_mapping():
    ok = Certificate("x", {}, "feasible", {})
    bad = Certificate("x", {}, "infeasible", {})
    assert not negative_verdict(ok)
    assert negative_verdict(bad)
    assert not negative_verdict(Certificate("x", {}, "refuted", {}))
    assert negative_verdict(Certificate("x", {}, "not-refuted", {}))
