"""Congruence reports: one verified claim instance, serializable as JSON or
CSV with a stable field order.

Schema (version 1):
    {schema, claim, p, params, mod_power, lhs: {val, unit}, rhs: {val, unit},
     diff_valuation, pass, ms}

Exact rational identities (the binomial/harmonic ones) are carried with p = 0
and mod_power = 0; their pass flag means "identically zero over Q".  Reports
carry no wall clock: the ms field is always null (reserved in schema 1), so
identical runs serialize to identical bytes regardless of parallelism.

The JSON writer renders each report straight from the fixed schema-1 layout,
with the bytes of ``json.dumps(rows, indent=2, default=str)`` (rows the
``to_dict`` values) plus a newline: strings go through the C string encoder
that ``json.dumps`` uses, ints through ``int.__repr__``.  A ``params`` dict
with ``str`` keys and ``str``/``int``/``bool``/``None`` values is written
inline; any other params value (lists, nested dicts, floats, ``Fraction``s,
non-``str`` keys, an empty dict) is written by ``json.dumps(..., indent=2,
default=str)`` and re-indented, which is exact because JSON text holds no raw
newline inside a string.  The ``json.dumps`` writer it replaced is kept as the
oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str

from .padic import PadicValue, _require_abs_prec

SCHEMA_VERSION = 1

CSV_COLUMNS = [
    "schema", "claim", "p", "params", "mod_power",
    "lhs_val", "lhs_unit", "rhs_val", "rhs_unit",
    "diff_valuation", "pass", "ms",
]


@dataclass
class CongruenceReport:
    claim: str
    p: int
    params: dict
    mod_power: int
    lhs_val: int | None
    lhs_unit: int
    rhs_val: int | None
    rhs_unit: int
    diff_valuation: int | None
    passed: bool

    @classmethod
    def from_sides(cls, claim: str, p: int, params: dict, k: int,
                   lhs: PadicValue, rhs: PadicValue) -> "CongruenceReport":
        # congruent_mod(lhs, rhs, k), with the difference computed once
        diff = lhs - rhs
        _require_abs_prec(lhs, rhs, k)
        dv = None if diff.is_zero else diff.valuation
        return cls(claim, p, dict(params), k,
                   lhs.valuation, lhs.unit, rhs.valuation, rhs.unit,
                   dv, dv is None or dv >= k)

    @classmethod
    def exact_rational(cls, claim: str, params: dict, difference) -> "CongruenceReport":
        """A claim of exact equality over Q; difference must be 0 to pass."""
        zero = difference == 0
        return cls(claim, 0, dict(params), 0, None, 0, None, 0,
                   None if zero else -(10**9), zero)

    def sort_key(self) -> tuple:
        return (self.claim, self.p,
                json.dumps(self.params, sort_keys=True, default=str))

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "claim": self.claim,
            "p": self.p,
            "params": self.params,
            "mod_power": self.mod_power,
            "lhs": {"val": self.lhs_val, "unit": self.lhs_unit},
            "rhs": {"val": self.rhs_val, "unit": self.rhs_unit},
            "diff_valuation": self.diff_valuation,
            "pass": self.passed,
            "ms": None,
        }

    def to_csv_row(self) -> list:
        d = self.to_dict()
        return [d["schema"], d["claim"], d["p"],
                json.dumps(d["params"], sort_keys=True, default=str),
                d["mod_power"],
                d["lhs"]["val"], d["lhs"]["unit"],
                d["rhs"]["val"], d["rhs"]["unit"],
                d["diff_valuation"], d["pass"], d["ms"]]

    def human_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        ps = ",".join(f"{k}={v}" for k, v in self.params.items())
        mod = f"p^{self.mod_power}" if self.mod_power else "exact"
        dv = "oo" if self.diff_valuation is None else self.diff_valuation
        return f"[{status}] {self.claim:<18} p={self.p:<3} {mod:<5} v(diff)={dv:<4} {ps}"


def sort_reports(reports) -> list[CongruenceReport]:
    """The canonical (claim, prime, params) order, which checks.run_tasks
    returns; the writers below keep the order they are given."""
    return sorted(reports, key=CongruenceReport.sort_key)


def _json_int(v: int | None) -> str:
    return "null" if v is None else int.__repr__(v)


def _json_params(params) -> str:
    """params as json.dumps writes it inside a row of the report list."""
    if type(params) is dict and params:
        items = []
        for k, v in params.items():
            if type(k) is not str:
                break
            t = type(v)
            if t is str:
                text = _json_str(v)
            elif t is int:
                text = int.__repr__(v)
            elif v is None:
                text = "null"
            elif t is bool:
                text = "true" if v else "false"
            else:
                break
            items.append(f"      {_json_str(k)}: {text}")
        else:
            return "{\n" + ",\n".join(items) + "\n    }"
    return json.dumps(params, indent=2, default=str).replace("\n", "\n    ")


def _json_row(r: CongruenceReport) -> str:
    return (
        "  {\n"
        f'    "schema": {SCHEMA_VERSION},\n'
        f'    "claim": {_json_str(r.claim)},\n'
        f'    "p": {int.__repr__(r.p)},\n'
        f'    "params": {_json_params(r.params)},\n'
        f'    "mod_power": {int.__repr__(r.mod_power)},\n'
        '    "lhs": {\n'
        f'      "val": {_json_int(r.lhs_val)},\n'
        f'      "unit": {int.__repr__(r.lhs_unit)}\n'
        '    },\n'
        '    "rhs": {\n'
        f'      "val": {_json_int(r.rhs_val)},\n'
        f'      "unit": {int.__repr__(r.rhs_unit)}\n'
        '    },\n'
        f'    "diff_valuation": {_json_int(r.diff_valuation)},\n'
        f'    "pass": {"true" if r.passed else "false"},\n'
        '    "ms": null\n'
        "  }"
    )


def reports_to_json(reports) -> str:
    """The reports as one indented JSON list, in the order given."""
    rows = [_json_row(r) for r in reports]
    if not rows:
        return "[]\n"
    return "[\n" + ",\n".join(rows) + "\n]\n"


def reports_to_csv(reports) -> str:
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(CSV_COLUMNS)
    for r in reports:
        w.writerow(r.to_csv_row())
    return buf.getvalue()


def reports_to_human(reports) -> str:
    lines = [r.human_line() for r in reports]
    n_pass = sum(r.passed for r in reports)
    lines.append(f"-- {n_pass}/{len(reports)} passed")
    return "\n".join(lines) + "\n"
