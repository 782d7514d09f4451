"""Machine-readable verdict certificates.

A certificate ties one checked claim to its exact numbers.  Rationals are
rendered losslessly as 'num/den' strings, each paired with a 20-digit
round-half-even decimal for human reading (the decimal is never compared).
The canonical body contains no timestamps and is serialized with sorted
keys, so re-running the same command byte-reproduces it.  Every body
carries the tool version and the fingerprint of the (Y, N) enumeration
order that `hierarchy` scans in, which fixes which violation a scan reports.
"""

from __future__ import annotations

import json

from . import __version__
from .rational import decimal_str, rational_str

ENUM_ORDER_FINGERPRINT = "size-asc/union-lex/ymask-asc;rows=edges,demand,box0,box1;v1"


def rational_entry(q) -> dict:
    """The standard two-field rendering of one exact rational."""
    return {"exact": rational_str(q), "decimal": decimal_str(q)}


class Certificate:
    def __init__(self, claim: str, params: dict, verdict: str, values: dict,
                 witness: dict | None = None):
        self.claim, self.params, self.verdict = claim, params, verdict
        self.values, self.witness = values, witness

    def body(self) -> dict:
        return {
            "claim": self.claim,
            "params": self.params,
            "verdict": self.verdict,
            "values": self.values,
            "witness": self.witness,
            "tool": "pvcgap",
            "tool_version": __version__,
            "enumeration_order": ENUM_ORDER_FINGERPRINT,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.body(), sort_keys=True, separators=(",", ":")) + "\n"


def negative_verdict(cert: Certificate) -> bool:
    """True when the certificate reports the unwanted outcome (exit code 2)."""
    return cert.verdict not in ("feasible", "refuted", "verified", "ok")
