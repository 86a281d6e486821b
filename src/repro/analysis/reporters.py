"""Finding reporters: human text and machine JSON."""

from __future__ import annotations

import json
from typing import Sequence

from repro.analysis.findings import Finding

__all__ = ["render_text", "render_json", "REPORTERS"]


def render_text(findings: Sequence[Finding]) -> str:
    """``path:line:col: RPnnn message`` per finding, plus a tally line."""
    lines = [f.render() for f in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"{len(findings)} {noun}")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Stable JSON document: ``{"version", "count", "findings": [...]}``.

    ``version`` changes whenever the schema of a finding does.
    """
    doc = {
        "version": 2,
        "count": len(findings),
        "findings": [f.to_dict() for f in findings],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


#: Reporter name -> renderer (the CLI's ``--format`` choices).
REPORTERS = {"text": render_text, "json": render_json}
