"""Simulation and verification laboratory for watermelon path ensembles.

A watermelon is a family of p mutually non-touching +-1-step lattice paths
of common even length, pinned at both ends to the heights 0, 2, ..., 2p-2,
optionally constrained to stay nonnegative (the wall condition).  The
package provides

* exact integer counting of watermelons and stars (free-endpoint families),
* exact uniform sampling of discrete watermelons,
* the continuum limit laws: marginal densities, random-matrix samplers,
  and the limiting interacting SDEs,
* closed-form moment formulas for two-branch ensembles, and
* a deterministic statistical verification suite tying all of it together.

format_json, the one JSON writer of reports and CLI output, lives here
with the report types (CheckRecord, TestReport, report_to_json) and imports
only the standard library, so a subcommand that writes JSON or a report
loads no numerical layer it does not run.
"""

import json
import math
from dataclasses import asdict, dataclass

__version__ = "0.1.0"

__all__ = [
    "exact_count",
    "paths",
    "discrete_walk",
    "spectral_laws",
    "sde_sim",
    "moments",
    "stats_verify",
    "cli",
    "CheckRecord",
    "TestReport",
    "format_json",
    "report_to_json",
]


def format_json(obj):
    """One-line deterministic JSON with 17-significant-digit floats.

    Keys keep their order and strings go through json.dumps.  NaN and
    infinities have no JSON form and raise ValueError.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite value {obj} in JSON output")
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {format_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(format_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


@dataclass(frozen=True)
class CheckRecord:
    name: str
    statistic: float
    threshold: float
    passed: bool
    sample_size: int
    seed: int
    detail: str = ""


@dataclass(frozen=True)
class TestReport:
    records: tuple

    @property
    def verdict(self):
        return all(r.passed for r in self.records)


def report_to_json(report):
    """Deterministic JSON: fixed key order, 17 significant digits, sorted records.

    Each record is one format_json row, in CheckRecord field order.
    """
    lines = ['{', '  "schema": "watermelon-report-1",']
    lines.append(f'  "verdict": {"true" if report.verdict else "false"},')
    lines.append('  "checks": [')
    records = sorted(report.records, key=lambda r: r.name)
    for i, r in enumerate(records):
        row = "    " + format_json(asdict(r))
        lines.append(row + ("," if i + 1 < len(records) else ""))
    lines.append('  ]')
    lines.append('}')
    return "\n".join(lines) + "\n"
