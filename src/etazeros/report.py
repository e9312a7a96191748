"""Verification reports: one row per checked identity or inequality cell.

Every theorem-check operation returns a :class:`VerificationReport`.  A row
records either a signed margin (inequality checks, positive = holds) or a
discrepancy against a tolerance (equality checks), or both.  Rows flagged
``gating=False`` are informational and do not affect the pass/fail verdict.
"""

from __future__ import annotations

from collections import namedtuple


def fmt17(x: float) -> str:
    """Full-precision decimal rendering (17 significant digits)."""
    return "%.17g" % x


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt17(v)
    return str(v)


def csv_row(values) -> str:
    """One CSV line, by the rule every writer shares: None is empty, a bool
    is true/false, a float has 17 significant digits (:func:`fmt17`) and
    anything else is its ``str``."""
    return ",".join(map(_cell, values))


class CheckRow(namedtuple(
        "CheckRow", "label passed gating margin discrepancy tol lhs rhs note",
        defaults=(True, None, None, None, None, None, ""))):
    """One checked cell: ``margin`` is the signed slack of an inequality
    (> 0 means it holds), ``discrepancy`` |lhs - rhs| of an equality."""

    __slots__ = ()


class VerificationReport:
    def __init__(self, name: str, rows: list[CheckRow] | None = None):
        self.name = name
        self.rows = [] if rows is None else rows

    def add(self, label, passed, **kw) -> CheckRow:
        row = CheckRow(label=label, passed=bool(passed), **kw)
        self.rows.append(row)
        return row

    def add_inequality(self, label, margin, *, gating=True, lhs=None, rhs=None,
                       min_margin=0.0, note="") -> CheckRow:
        """Row that passes when ``margin > min_margin`` (strict)."""
        return self.add(label, margin > min_margin, gating=gating, margin=margin,
                        tol=min_margin, lhs=lhs, rhs=rhs, note=note)

    def add_equality(self, label, lhs, rhs, tol, *, gating=True, note="") -> CheckRow:
        disc = abs(lhs - rhs)
        return self.add(label, disc <= tol, gating=gating, discrepancy=disc,
                        tol=tol, lhs=lhs, rhs=rhs, note=note)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows if r.gating)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.rows if r.gating and not r.passed)

    def min_margin(self) -> float | None:
        margins = [r.margin for r in self.rows if r.gating and r.margin is not None]
        return min(margins) if margins else None

    def max_discrepancy(self) -> float | None:
        discs = [r.discrepancy for r in self.rows if r.gating and r.discrepancy is not None]
        return max(discs) if discs else None

    def extend(self, other: "VerificationReport") -> None:
        self.rows.extend(other.rows)

    # ---- serialization (deterministic: sorted keys, shortest-roundtrip floats)

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "summary": {
                "rows": len(self.rows),
                "failed": self.n_failed,
                "min_margin": self.min_margin(),
                "max_discrepancy": self.max_discrepancy(),
            },
            "checks": [
                {
                    "label": r.label,
                    "passed": r.passed,
                    "gating": r.gating,
                    "margin": r.margin,
                    "discrepancy": r.discrepancy,
                    "tol": r.tol,
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "note": r.note,
                }
                for r in self.rows
            ],
        }

    def to_csv(self) -> str:
        lines = ["report,label,passed,gating,margin,discrepancy,tol,lhs,rhs,note"]
        for r in self.rows:
            lines.append(csv_row((self.name, *r[:-1], r.note.replace(",", ";"))))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"{self.name}: {'PASS' if self.passed else 'FAIL'} "
                 f"({len(self.rows)} checks, {self.n_failed} failed)"]
        width = max((len(r.label) for r in self.rows), default=0)
        for r in self.rows:
            bits = [("ok  " if r.passed else "FAIL"), r.label.ljust(width)]
            if r.margin is not None:
                bits.append(f"margin={r.margin:.6e}")
            if r.discrepancy is not None:
                bits.append(f"disc={r.discrepancy:.6e}")
            if r.tol is not None:
                bits.append(f"tol={r.tol:.3e}")
            if not r.gating:
                bits.append("[info]")
            if r.note:
                bits.append(f"({r.note})")
            lines.append("  " + "  ".join(bits))
        return "\n".join(lines) + "\n"
