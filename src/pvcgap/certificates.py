"""Machine-readable verdict certificates.

A certificate ties one checked claim to its exact numbers.  Rationals are
rendered losslessly as 'num/den' strings, each paired with a 20-digit
round-half-even decimal for human reading (the decimal is never compared).
The canonical body contains no timestamps and is serialized with sorted
keys, so re-running the same command byte-reproduces it.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

from . import __version__
from .rational import decimal_str, rational_str


def rational_entry(q) -> dict:
    """The standard two-field rendering of one exact rational."""
    return {"exact": rational_str(q), "decimal": decimal_str(q)}


@dataclass
class Certificate:
    claim: str
    params: dict
    verdict: str
    values: dict
    witness: dict | None = None
    tool_version: str = __version__
    enumeration_order: str = ""

    def body(self) -> dict:
        return {
            "claim": self.claim,
            "params": self.params,
            "verdict": self.verdict,
            "values": self.values,
            "witness": self.witness,
            "tool": "pvcgap",
            "tool_version": self.tool_version,
            "enumeration_order": self.enumeration_order,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.body(), sort_keys=True, separators=(",", ":")) + "\n"


def negative_verdict(cert: Certificate) -> bool:
    """True when the certificate reports the unwanted outcome (exit code 2)."""
    return cert.verdict not in ("feasible", "refuted", "verified", "ok")
