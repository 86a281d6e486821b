"""Evidence manifests: the machine-readable release artifact of the gate.

One ``repro-gate check`` run produces one manifest: a single atomic
JSON document mapping every checked obligation to its verdict and the
concrete evidence behind it (pytest node results, benchmark gauge
values vs their floors, campaign-parity divergence lists, lint finding
counts), plus env/git provenance so the artifact alone answers "what
was promised, was it kept, on which code, and how do we know".

The write goes through the same pid-unique-temp + ``os.replace``
discipline as checkpoints and run manifests: a gate killed mid-write
can never publish a torn manifest.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.jsonlog import atomic_write_text
from repro.utils.tables import format_table

__all__ = [
    "EVIDENCE_FORMAT",
    "EVIDENCE_VERSION",
    "build_manifest",
    "load_manifest",
    "render_manifest",
    "write_manifest",
]

EVIDENCE_FORMAT = "repro-evidence-manifest"
EVIDENCE_VERSION = 1


def build_manifest(report: dict, *, spec_dir: str | Path, argv: list[str] | None = None) -> dict:
    """Wrap a :func:`repro.gate.runner.check_obligations` report."""
    from repro.obs.manifest import environment_info

    return {
        "format": EVIDENCE_FORMAT,
        "version": EVIDENCE_VERSION,
        "status": "pass" if report["ok"] else "fail",
        "blocking_failures": list(report["blocking_failures"]),
        "counts": dict(report["counts"]),
        "gate": {
            "spec_dir": str(spec_dir),
            "argv": list(argv or []),
        },
        "env": environment_info(),
        "obligations": report["obligations"],
    }


def write_manifest(path: str | Path, manifest: dict) -> Path:
    return atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_manifest(path: str | Path) -> dict:
    path = Path(path)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict) or manifest.get("format") != EVIDENCE_FORMAT:
        raise ValueError(f"{path} is not a {EVIDENCE_FORMAT} document")
    return manifest


_VERDICT_MARK = {"pass": "ok", "fail": "FAIL", "waived": "waived"}


def render_manifest(manifest: dict, only_id: str | None = None) -> str:
    """Human rendering of an evidence manifest (``repro-gate evidence``)."""
    blocks = []
    obligations = manifest.get("obligations", [])
    if only_id is not None:
        obligations = [o for o in obligations if o.get("id") == only_id]
        if not obligations:
            return f"no obligation {only_id} in this manifest"
    rows = []
    for obl in obligations:
        rows.append([
            obl.get("id", "?"),
            obl.get("severity", "?"),
            _VERDICT_MARK.get(obl.get("verdict"), str(obl.get("verdict"))),
            obl.get("title", ""),
        ])
    counts = manifest.get("counts", {})
    env = manifest.get("env", {})
    header = (
        f"gate: {manifest.get('status', '?')} — "
        f"{counts.get('passed', 0)}/{counts.get('total', 0)} passed, "
        f"{counts.get('failed', 0)} failed, {counts.get('waived', 0)} waived"
    )
    if env.get("git_rev"):
        header += f"  (git {str(env['git_rev'])[:12]})"
    blocks.append(header)
    blocks.append(format_table(["obligation", "severity", "verdict", "title"], rows,
                               title="verdicts"))
    for obl in obligations:
        if only_id is None and obl.get("verdict") == "pass":
            continue  # evidence detail on demand or on failure
        detail_rows = []
        for recipe in obl.get("recipes", []):
            duration = recipe.get("duration_s")
            detail_rows.append([
                recipe.get("type", "?"),
                recipe.get("status", "?"),
                "n/a" if duration is None else f"{duration:.1f}s",
                recipe.get("pointer", ""),
            ])
        blocks.append(format_table(
            ["recipe", "status", "time", "evidence"], detail_rows,
            title=f"{obl.get('id')}: {obl.get('verdict')}"))
        if obl.get("waiver"):
            w = obl["waiver"]
            blocks.append(f"{obl.get('id')}: waived — {w.get('reason')} "
                          f"(expires {w.get('expires')})")
        if obl.get("waiver_expired"):
            w = obl["waiver_expired"]
            blocks.append(f"{obl.get('id')}: waiver EXPIRED {w.get('expires')} — "
                          "failure counts again")
    return "\n\n".join(blocks)
