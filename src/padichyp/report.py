"""Congruence reports: one verified claim instance, serializable as JSON or
CSV with a stable field order.

Schema (version 1):
    {schema, claim, p, params, mod_power, lhs: {val, unit}, rhs: {val, unit},
     diff_valuation, pass, ms}

Exact rational identities (the binomial/harmonic ones) are carried with p = 0
and mod_power = 0; their pass flag means "identically zero over Q".  Reports
carry no wall clock: the ms field is always null (reserved in schema 1), so
identical runs serialize to identical bytes regardless of parallelism.

A report keeps the params dict its row gives it (``from_sides`` and
``exact_rational`` store it as given, with no copy), so the rows of a task
that repeat a parameter set share one dict: check-all's 10,343 reports hold
about 4,900 params dicts.  Params are read-only once a row is made; nothing
here or in the rows' makers mutates them.

``write_reports`` formats the rows one at a time into a buffer that it hands
the file in blocks of 16 KiB (``BLOCK``), so the reports are never held in
memory as one string, and a write-through stdout gets about 200 writes for
check-all, not one per row.

The JSON writer renders each report straight from the fixed schema-1 layout,
with the bytes of ``json.dumps(rows, indent=2, default=str)`` (each row the
schema-1 dict of a report) plus a newline: strings go through the C string
encoder that ``json.dumps`` uses, ints through ``int.__repr__``.  A
``params`` dict with ``str`` keys and ``str``/``int``/``bool``/``None``
values is written inline; any other params value (lists, nested dicts,
floats, ``Fraction``s, non-``str`` keys, an empty dict) is written by
``json.dumps(..., indent=2, default=str)`` and re-indented, which is exact
because JSON text holds no raw newline inside a string.

Reports sort by (claim, p, params text), the params text being
``json.dumps(params, sort_keys=True, default=str)``, which is also the CSV's
params column; a flat params dict (as above) is written by the same inline
path with its keys sorted, any other by that ``json.dumps`` call.  The sort
goes group by group: the reports are grouped by (claim, p) and each group is
sorted by its params texts on its own, so the texts of one group exist at a
time, never a key for every report.  The ``json.dumps`` writers and sort key
these replaced, and the schema-1 dict of a report (``to_dict``), are kept as
oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import io
import json
from json.encoder import encode_basestring_ascii as _json_str

from ._record import Record
from .padic import PadicValue, _diff_valuation

SCHEMA_VERSION = 1
BLOCK = 16 * 1024  # characters per write of write_reports

CSV_COLUMNS = [
    "schema", "claim", "p", "params", "mod_power",
    "lhs_val", "lhs_unit", "rhs_val", "rhs_unit",
    "diff_valuation", "pass", "ms",
]


class CongruenceReport(Record):
    """One row: the sides of a congruence at p, mod p^mod_power, and its verdict."""

    __slots__ = ("claim", "p", "params", "mod_power", "lhs_val", "lhs_unit",
                 "rhs_val", "rhs_unit", "diff_valuation", "passed")

    def __init__(self, claim: str, p: int, params: dict, mod_power: int,
                 lhs_val: int | None, lhs_unit: int, rhs_val: int | None, rhs_unit: int,
                 diff_valuation: int | None, passed: bool) -> None:
        self.claim = claim
        self.p = p
        self.params = params
        self.mod_power = mod_power
        self.lhs_val = lhs_val
        self.lhs_unit = lhs_unit
        self.rhs_val = rhs_val
        self.rhs_unit = rhs_unit
        self.diff_valuation = diff_valuation
        self.passed = passed

    @classmethod
    def from_sides(cls, claim: str, p: int, params: dict, k: int,
                   lhs: PadicValue, rhs: PadicValue) -> "CongruenceReport":
        """The congruence lhs = rhs mod p^k at p.  The report keeps the params
        dict its row gives it, not a copy: the rows of a task share one dict
        wherever the content repeats, and nothing mutates a row's params."""
        dv = _diff_valuation(lhs, rhs, k)  # the valuation congruent_mod tests
        return cls(claim, p, params, k,
                   lhs.valuation, lhs.unit, rhs.valuation, rhs.unit,
                   dv, dv is None or dv >= k)

    @classmethod
    def exact_rational(cls, claim: str, params: dict, difference) -> "CongruenceReport":
        """A claim of exact equality over Q; difference must be 0 to pass.  As
        in from_sides, the report keeps its row's params dict, which rows
        share and nothing mutates."""
        zero = difference == 0
        return cls(claim, 0, params, 0, None, 0, None, 0,
                   None if zero else -(10**9), zero)

    def to_csv_row(self) -> list:
        return [SCHEMA_VERSION, self.claim, self.p, _params_text(self.params),
                self.mod_power, self.lhs_val, self.lhs_unit,
                self.rhs_val, self.rhs_unit, self.diff_valuation, self.passed, None]

    def human_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        ps = ",".join(f"{k}={v}" for k, v in self.params.items())
        mod = f"p^{self.mod_power}" if self.mod_power else "exact"
        dv = "oo" if self.diff_valuation is None else self.diff_valuation
        return f"[{status}] {self.claim:<18} p={self.p:<3} {mod:<5} v(diff)={dv:<4} {ps}"


def sort_reports(reports: list) -> list:
    """Sort reports in place into the canonical (claim, prime, params) order,
    which checks.run_tasks returns, and return the list; the writers below
    keep the order they are given.  The sort goes group by group: one pass
    groups the reports by (claim, p), then each group, in key order, is
    sorted by its params texts and written back.  Ties keep their input
    order."""
    groups = {}
    for r in reports:
        groups.setdefault((r.claim, r.p), []).append(r)
    i = 0
    for key in sorted(groups):
        group = groups.pop(key)
        group.sort(key=lambda r: _params_text(r.params))
        reports[i:i + len(group)] = group
        i += len(group)
    return reports


def _flat_entries(params: dict, keys) -> list[str] | None:
    """The '"key": value' texts of params, in the order of keys, as json.dumps
    writes them, when every key is a str and every value a str, int, bool or
    None; None otherwise."""
    entries = []
    for k in keys:
        if type(k) is not str:
            return None
        v = params[k]
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
            return None
        entries.append(f"{_json_str(k)}: {text}")
    return entries


def _params_text(params) -> str:
    """json.dumps(params, sort_keys=True, default=str), the text a (claim, p)
    group sorts by and the CSV column's text."""
    if type(params) is dict and params:
        entries = _flat_entries(params, sorted(params))
        if entries is not None:
            return "{" + ", ".join(entries) + "}"
    return json.dumps(params, sort_keys=True, default=str)


def _json_int(v: int | None) -> str:
    return "null" if v is None else int.__repr__(v)


def _json_params(params) -> str:
    """params as json.dumps writes it inside a row of the report list."""
    if type(params) is dict and params:
        entries = _flat_entries(params, params)
        if entries is not None:
            return "{\n      " + ",\n      ".join(entries) + "\n    }"
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


def _json_chunks(reports):
    """The reports as one indented JSON list, one row per chunk."""
    sep = "[\n"
    for r in reports:
        yield sep + _json_row(r)
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def _human_chunks(reports):
    """One line per report, then a pass count."""
    n = n_pass = 0
    for r in reports:
        n += 1
        n_pass += r.passed
        yield r.human_line() + "\n"
    yield f"-- {n_pass}/{n} passed\n"


def write_reports(reports, fmt: str, fh) -> None:
    """Write the reports to the text file fh in format fmt ("json", "csv" or
    "human"), in blocks of BLOCK characters or a row more; any other fmt raises KeyError."""
    buf = io.StringIO()
    if fmt == "csv":
        import csv

        w = csv.writer(buf)
        w.writerow(CSV_COLUMNS)
        rows = (w.writerow(r.to_csv_row()) for r in reports)
    else:
        rows = map(buf.write, {"json": _json_chunks, "human": _human_chunks}[fmt](reports))
    for _ in rows:  # each step writes one row into buf
        if buf.tell() >= BLOCK:
            fh.write(buf.getvalue())
            buf.seek(0)
            buf.truncate()
    fh.write(buf.getvalue())
