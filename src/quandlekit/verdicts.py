"""Structured outcomes of theorem checks.

A Verdict records what one check computed on each side of a claimed
relationship, whether the relationship holds, and enough evidence (witness
or counterexample) to replay the computation with the public operations.
Checks that bundle several claims nest their pieces under ``parts``.

Three constructors build the nodes, and each decides ``holds`` by one rule.
``claim`` builds a two-sided node: under "implies" it holds when lhs is
false or rhs is true, under every other relationship when lhs equals rhs;
it keeps the witness only when the claim holds and the counterexample only
when it fails.  ``combine`` rolls parts up: it holds when every part holds.
``make_skipped`` records a claim that was not checked, with its reason.

A verdict copied to another parameter of a sweep from the verdict of its
Aut(G)-orbit representative names that representative and the conjugator in
``via`` (see ``harness._per_orbit``); a verdict decided directly has none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional

RELATIONSHIPS = ("iff", "implies", "subgroup-embedding", "isomorphism", "emptiness")


@dataclass
class Verdict:
    theorem_id: str
    inputs: str
    relationship: str
    holds: bool
    lhs: Optional[bool] = None
    rhs: Optional[bool] = None
    vacuous: bool = False
    skipped: bool = False
    witness: Any = None
    counterexample: Any = None
    notes: str = ""
    parts: List["Verdict"] = field(default_factory=list)
    via: Optional[dict] = None

    def __post_init__(self):
        if self.relationship not in RELATIONSHIPS:
            raise ValueError(f"unknown relationship {self.relationship!r}")

    def walk(self) -> Iterator["Verdict"]:
        """This verdict and every nested part, preorder."""
        yield self
        for part in self.parts:
            yield from part.walk()

    def to_json(self) -> dict:
        out = {
            "theorem_id": self.theorem_id,
            "inputs": self.inputs,
            "relationship": self.relationship,
            "holds": self.holds,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "vacuous": self.vacuous,
            "skipped": self.skipped,
            "witness": self.witness,
            "counterexample": self.counterexample,
            "notes": self.notes,
        }
        if self.parts:
            out["parts"] = [p.to_json() for p in self.parts]
        if self.via is not None:
            out["via"] = self.via
        return out

    def render_text(self, indent: int = 0) -> str:
        if not self.holds:
            status = "FAIL"
        elif self.skipped:
            status = "skip"
        elif self.vacuous:
            status = "ok (vacuous)"
        else:
            status = "ok"
        pieces = [f"{'  ' * indent}[{status}] {self.theorem_id} :: {self.inputs}"]
        detail = []
        if self.lhs is not None or self.rhs is not None:
            detail.append(f"lhs={self.lhs} rhs={self.rhs} ({self.relationship})")
        if self.notes:
            detail.append(self.notes)
        if self.counterexample is not None:
            detail.append(f"counterexample: {self.counterexample}")
        if self.via is not None:
            detail.append(f"from index {self.via['index']} by conjugator {self.via['conjugator']}")
        if detail:
            pieces[0] += "  " + "; ".join(detail)
        pieces.extend(p.render_text(indent + 1) for p in self.parts)
        return "\n".join(pieces)


def claim(
    theorem_id: str,
    inputs: str,
    relationship: str,
    lhs: bool,
    rhs: bool = True,
    *,
    witness: Any = None,
    counterexample: Any = None,
    vacuous: bool = False,
    notes: str = "",
) -> Verdict:
    """A two-sided verdict whose ``holds`` follows from lhs and rhs under the relationship.

    Under "implies" the claim holds when lhs is false or rhs is true; under
    every other relationship it holds when the two sides agree.  The witness
    is kept only when the claim holds, the counterexample only when it fails.
    """
    lhs, rhs = bool(lhs), bool(rhs)
    holds = ((not lhs) or rhs) if relationship == "implies" else lhs == rhs
    return Verdict(
        theorem_id,
        inputs,
        relationship,
        holds,
        lhs=lhs,
        rhs=rhs,
        vacuous=vacuous,
        witness=witness if holds else None,
        counterexample=None if holds else counterexample,
        notes=notes,
    )


def combine(
    theorem_id: str,
    inputs: str,
    relationship: str,
    parts: List[Verdict],
    notes: str = "",
) -> Verdict:
    """Roll sub-verdicts into one: holds iff every part holds."""
    return Verdict(
        theorem_id,
        inputs,
        relationship,
        holds=all(p.holds for p in parts),
        vacuous=bool(parts) and all(p.vacuous for p in parts),
        skipped=bool(parts) and all(p.skipped for p in parts),
        notes=notes,
        parts=parts,
    )


def make_skipped(theorem_id: str, inputs: str, relationship: str, reason: str) -> Verdict:
    return Verdict(theorem_id, inputs, relationship, holds=True, skipped=True, notes=reason)


def summarize(verdicts: List[Verdict]) -> dict:
    """Counts over every verdict node, nested parts included."""
    nodes = [v for top in verdicts for v in top.walk()]
    return {
        "total": len(nodes),
        "holds": sum(1 for v in nodes if v.holds),
        "failed": sum(1 for v in nodes if not v.holds),
        "vacuous": sum(1 for v in nodes if v.vacuous and v.holds),
        "skipped": sum(1 for v in nodes if v.skipped),
    }


REPORT_VERSION = 2


def report_json(catalog: List[str], verdicts: List[Verdict]) -> dict:
    return {
        "version": REPORT_VERSION,
        "catalog": list(catalog),
        "checks": [v.to_json() for v in verdicts],
        "summary": summarize(verdicts),
    }


REPORT_SCHEMA = {
    "type": "object",
    "required": ["version", "catalog", "checks", "summary"],
    "properties": {
        "version": {"type": "integer"},
        "catalog": {"type": "array", "items": {"type": "string"}},
        "checks": {"type": "array", "items": {"$ref": "#/$defs/verdict"}},
        "summary": {
            "type": "object",
            "required": ["total", "holds", "failed", "vacuous", "skipped"],
            "properties": {
                "total": {"type": "integer"},
                "holds": {"type": "integer"},
                "failed": {"type": "integer"},
                "vacuous": {"type": "integer"},
                "skipped": {"type": "integer"},
            },
            "additionalProperties": False,
        },
    },
    "$defs": {
        "verdict": {
            "type": "object",
            "required": ["theorem_id", "inputs", "relationship", "holds"],
            "properties": {
                "theorem_id": {"type": "string"},
                "inputs": {"type": "string"},
                "relationship": {"enum": list(RELATIONSHIPS)},
                "holds": {"type": "boolean"},
                "lhs": {"type": ["boolean", "null"]},
                "rhs": {"type": ["boolean", "null"]},
                "vacuous": {"type": "boolean"},
                "skipped": {"type": "boolean"},
                "witness": {},
                "counterexample": {},
                "notes": {"type": "string"},
                "parts": {"type": "array", "items": {"$ref": "#/$defs/verdict"}},
                "via": {
                    "type": "object",
                    "required": ["index", "conjugator"],
                    "properties": {"index": {"type": "integer"}, "conjugator": {"type": "integer"}},
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        }
    },
}
