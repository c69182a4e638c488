"""Output checks: when a CLI call counts as failed.

A call fails when its exit code is not allowed for its subcommand, when its
report does not parse with the expected header and row count, or when an
oracle value is not the closed form computed here.  Exit 1 from ``verify``
is a statistical verdict, not a failure; it is counted as failed checks.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass

ALLOWED_EXIT = {"simulate": {0}, "limit-sample": {0}, "oracle": {0}, "verify": {0, 1}}

SIMULATE_HEADER = ["rank", "value", "value_normalized", "label", "locations"]
LIMIT_HEADER = ["replica", "set_id", "value", "atoms_used"]
VERIFY_HEADER = ["suite", "check", "estimate", "target", "se_or_crit", "pass", "n",
                 "replicas", "seed"]


class ReportError(ValueError):
    """The report does not have the expected form."""


@dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str = ""
    checks: int = 0  # verify rows
    checks_failed: int = 0


def digest(report: bytes) -> str:
    return hashlib.sha256(report).hexdigest()


def _rows(text: str, header: list) -> list:
    csv.field_size_limit(len(text) + 1)  # a frequent box's location list runs to megabytes
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ReportError(f"header {rows[0] if rows else None} is not {header}")
    return rows[1:]


def _positive(value: str) -> float:
    x = float(value)
    if not (math.isfinite(x) and x > 0):
        raise ReportError(f"value {value!r} is not finite and positive")
    return x


def _check_simulate(text: str, expect: dict) -> None:
    if expect["format"] == "json":
        occ = json.loads(text)
        hist = {int(k): v for k, v in occ["histogram"].items()}
        if occ["n"] != expect["n"] or occ["seed"] != expect["seed"]:
            raise ReportError("n or seed differs from the call")
        if sum(k * c for k, c in hist.items()) != occ["n"] or sum(hist.values()) != occ["k_n"]:
            raise ReportError("histogram does not add up to n draws in k_n boxes")
        _positive(repr(occ["b_n"]))
        return
    rows = _rows(text, SIMULATE_HEADER)
    if len(rows) != expect["top_m"]:
        raise ReportError(f"{len(rows)} rows, expected {expect['top_m']}")
    values = []
    for rank, (r, value, normalized, label, locations) in enumerate(rows, start=1):
        if int(r) != rank or int(label) < 1:
            raise ReportError(f"bad rank or label in row {rank}")
        values.append(_positive(value))
        _positive(normalized)
        if not all(0.0 <= float(x) < 1.0 for x in locations.split(";")):
            raise ReportError(f"location outside [0, 1) in row {rank}")
    if values != sorted(values, reverse=True):
        raise ReportError("top values are not in descending order")


def _check_limit_sample(text: str, expect: dict) -> None:
    rows = _rows(text, LIMIT_HEADER)
    sets = expect["sets"]
    if len(rows) != expect["replicas"] * sets:
        raise ReportError(f"{len(rows)} rows, expected {expect['replicas']} x {sets}")
    for i, (replica, set_id, value, atoms) in enumerate(rows):
        if int(replica) != i // sets or int(set_id) != i % sets or int(atoms) < 1:
            raise ReportError(f"bad replica, set or atom count in row {i + 1}")
        _positive(value)


def _check_oracle(text: str, expect: dict) -> None:
    """The printed value must be the 12-significant-digit rounding of the closed form.

    The CLI prints 12 significant digits, so a correct value can sit half a
    unit of the 12th digit from the closed form; 1e-14 relative is allowed on
    top for rounding in the two computations.  A wrong digit before the last
    moves the value by at least ten units of the 12th digit.
    """
    lines = text.splitlines()
    if len(lines) != 1:
        raise ReportError(f"{len(lines)} lines, expected 1")
    got = float(lines[0])
    want = expect["value"]
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(want))) - 11)
    if not abs(got - want) <= half_unit + 1e-14 * abs(want):
        raise ReportError(f"oracle value {lines[0]} differs from the closed form {want!r}")


def _check_verify(text: str, expect: dict, returncode: int) -> Outcome:
    rows = _rows(text, VERIFY_HEADER)
    if len(rows) != expect["rows"]:
        raise ReportError(f"{len(rows)} rows, expected {expect['rows']}")
    failed = 0
    for row in rows:
        if row[0] != expect["suite"] or int(row[8]) != expect["seed"]:
            raise ReportError("suite or seed column differs from the call")
        if row[5] not in ("true", "false"):
            raise ReportError(f"pass column reads {row[5]!r}")
        for v in row[2:5]:
            float(v)
        failed += row[5] == "false"
    if returncode != (1 if failed else 0):
        raise ReportError(f"exit code {returncode} with {failed} failed checks")
    return Outcome(True, checks=len(rows), checks_failed=failed)


def check(kind: str, expect: dict, returncode: int, report: bytes) -> Outcome:
    """Whether one call succeeded, and its verdict counts for ``verify``."""
    if returncode not in ALLOWED_EXIT[kind]:
        return Outcome(False, f"exit code {returncode}")
    try:
        text = report.decode()
        if kind == "verify":
            return _check_verify(text, expect, returncode)
        {"simulate": _check_simulate, "limit-sample": _check_limit_sample,
         "oracle": _check_oracle}[kind](text, expect)
    except (ValueError, KeyError, IndexError, TypeError, csv.Error) as exc:
        return Outcome(False, f"malformed report: {exc}")
    return Outcome(True)
