"""Benchmark workloads: how each one invokes the CLI and how its outputs are judged.

Every workload is one shipped config run through ``nlslab.cli.main``.  After a
call, :func:`inspect_outputs` reads the tables and per-run JSON the scenario
wrote, applies the acceptance thresholds read-only, and hashes the output
bytes with the runtime fields removed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# Name of the aggregate table each call writes, relative to its own
# temporary working directory.  A relative name keeps the ``out`` field of
# the echoed config, and with it the digest, the same for every call.
OUT_NAME = "table.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: str  # relative to the checkout root
    extra_args: tuple[str, ...]
    methods: tuple[str, ...]
    # Largest vector a kernel touches, in bytes, for the provenance note
    # on working-set size against the L2 cache.
    largest_vector_bytes: int

    def argv(self, root: Path) -> list[str]:
        return [
            self.subcommand,
            "--config", str(root / self.config),
            *self.extra_args,
            "--out", OUT_NAME,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # T=4 is the shortest horizon at which both growth exponents fit
        # inside the acceptance bounds; at T=3 the MR fit reads 2.56.
        Workload(
            "fem-growth",
            "error-growth",
            "configs/error_growth_2soliton.cfg",
            ("--T", "4"),
            ("FEM-ImEx4", "FEM-ImEx4(MR)(EC)"),
            2 * 4480 * 8,  # real-pairs view, 2m doubles
        ),
        Workload(
            "sp-invariants",
            "invariants",
            "configs/soliton_invariants.cfg",
            (),
            ("SP-S2", "SP-AK4", "SP-ImEx3", "SP-ImEx3(R)", "SP-ImEx4", "SP-ImEx4(R)"),
            1120 * 16,
        ),
        # --T is ignored by this scenario (it reads t_out), so the shipped
        # config runs as is.
        Workload(
            "semiclassical",
            "semiclassical",
            "configs/semiclassical_eps02.cfg",
            (),
            ("SP-S2", "SP-AK4", "SP-ImEx4", "SP-ImEx4(R)", "SP-ImEx4(R)(EC)"),
            4096 * 16,  # fine reference mesh, dx/8 on [-8, 8]
        ),
    )
}

# Acceptance thresholds, as in tests/test_acceptance.py (criteria 2, 4, 5, 6).
RELAXED_MASS_DRIFT_MAX = 5e-15
RELAXED_ENERGY_DRIFT_MAX = 5e-14
MR_EXPONENT_MAX = 1.3
PLAIN_EXPONENT_MIN = 1.7
PLAIN_IMEX3_DRIFT_MIN = 1e-4
AK4_REFERENCE_ERROR = 1.99e-3
AK4_ERROR_FACTOR = 3.0
IMEX4R_OVER_AK4_MAX = 1.5

CONTROLLER_FIELDS = ("accepted", "eps_rejections", "conservation_rejections")


@dataclass
class CallOutputs:
    """What one scenario call wrote, reduced to what the benchmark reports."""

    digest: str
    failures: dict[str, list[str]]  # method label -> reasons; empty if it passed
    final_errors: list[float]
    controller: dict[str, int] = field(default_factory=dict)
    error_rows: int = 0

    @property
    def failed(self) -> int:
        return sum(1 for reasons in self.failures.values() if reasons)


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    columns = lines[0].split(",")
    # The trailing diagnosis column holds free exception text, which may
    # contain commas.
    return columns, [line.split(",", len(columns) - 1) for line in lines[1:]]


def _normalized_bytes(path: Path) -> bytes:
    """File bytes with the wall-clock fields removed."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        payload["summary"].pop("runtime_seconds", None)
        return (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode()
    columns, rows = _read_table(path)
    if "runtime" not in columns:
        return path.read_bytes()
    drop = columns.index("runtime")
    keep = lambda cells: cells[:drop] + cells[drop + 1:]  # noqa: E731
    lines = [",".join(keep(columns))] + [",".join(keep(r)) for r in rows]
    return ("\n".join(lines) + "\n").encode()


def output_digest(workdir: Path) -> str:
    """sha256 over every written file, runtime columns and fields excluded."""
    h = hashlib.sha256()
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        h.update(path.relative_to(workdir).as_posix().encode() + b"\0")
        h.update(_normalized_bytes(path) + b"\0")
    return h.hexdigest()


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def inspect_outputs(workload: Workload, workdir: Path) -> CallOutputs:
    """Judge one call's outputs: diagnoses, acceptance checks, errors, digest."""
    failures: dict[str, list[str]] = {label: [] for label in workload.methods}
    table = workdir / OUT_NAME
    columns, rows = _read_table(table)
    col = {name: i for i, name in enumerate(columns)}
    by_method: dict[str, list[list[str]]] = {}
    for row in rows:
        by_method.setdefault(row[0], []).append(row)

    runs_dir = workdir / (table.stem + "_runs")
    summaries: dict[str, list[dict]] = {label: [] for label in workload.methods}
    for path in sorted(runs_dir.glob("*.json")):
        summary = json.loads(path.read_text())["summary"]
        # Records are named by method label, with "_t_<t>" appended per
        # output time in the semiclassical scenario ('=' is written as '_').
        for label in workload.methods:
            if path.stem == label or path.stem.startswith(label + "_t_"):
                summaries[label].append(summary)

    final_errors: list[float] = []
    controller = dict.fromkeys(CONTROLLER_FIELDS, 0)
    for label in workload.methods:
        method_rows = by_method.get(label, [])
        if not method_rows:
            failures[label].append("no row in the aggregate table")
        for row in method_rows:
            if row[col["diagnosis"]]:
                failures[label].append(f"diagnosis: {row[col['diagnosis']]}")
        if not summaries[label]:
            failures[label].append("no per-run JSON record")
        for summary in summaries[label]:
            err = summary["final_error"]
            if err is None or not math.isfinite(err) or err <= 0.0:
                failures[label].append(f"final_error {err!r} is not a positive number")
            else:
                final_errors.append(err)
            if "ImEx" in label:
                for key in CONTROLLER_FIELDS:
                    controller[key] += summary[key]

    _CHECKS[workload.name](by_method, col, summaries, failures)
    error_rows = 0
    if "error" in col:
        error_rows = sum(1 for r in rows if math.isfinite(_float(r[col["error"]])))
    return CallOutputs(
        digest=output_digest(workdir),
        failures=failures,
        final_errors=final_errors,
        controller=controller,
        error_rows=error_rows,
    )


def _require(failures, label: str, ok: bool, message: str) -> None:
    if not ok:
        failures[label].append(message)


def _exponent(by_method, col, label: str) -> float:
    rows = by_method.get(label)
    return _float(rows[0][col["exponent"]]) if rows else math.nan


def _check_fem_growth(by_method, col, summaries, failures) -> None:
    mr, plain = "FEM-ImEx4(MR)(EC)", "FEM-ImEx4"
    for s in summaries[mr]:
        mass, energy = s["max_mass_drift"], s["max_energy_drift"]
        _require(failures, mr, mass is not None and mass <= RELAXED_MASS_DRIFT_MAX,
                 f"mass drift {mass!r} > {RELAXED_MASS_DRIFT_MAX}")
        _require(failures, mr, energy is not None and energy <= RELAXED_ENERGY_DRIFT_MAX,
                 f"energy drift {energy!r} > {RELAXED_ENERGY_DRIFT_MAX}")
    e_mr, e_plain = _exponent(by_method, col, mr), _exponent(by_method, col, plain)
    _require(failures, mr, e_mr <= MR_EXPONENT_MAX,
             f"growth exponent {e_mr} > {MR_EXPONENT_MAX}")
    _require(failures, plain, e_plain >= PLAIN_EXPONENT_MIN,
             f"growth exponent {e_plain} < {PLAIN_EXPONENT_MIN}")


def _mass_drift(by_method, col, label: str) -> float:
    rows = by_method.get(label)
    return _float(rows[0][col["max_mass_drift"]]) if rows else math.nan


def _check_sp_invariants(by_method, col, summaries, failures) -> None:
    for label in ("SP-ImEx3(R)", "SP-ImEx4(R)"):
        drift = _mass_drift(by_method, col, label)
        _require(failures, label, drift <= RELAXED_MASS_DRIFT_MAX,
                 f"mass drift {drift} > {RELAXED_MASS_DRIFT_MAX}")
    drift = _mass_drift(by_method, col, "SP-ImEx3")
    _require(failures, "SP-ImEx3", drift >= PLAIN_IMEX3_DRIFT_MIN,
             f"unrelaxed mass drift {drift} < {PLAIN_IMEX3_DRIFT_MIN}")


def _error_at(by_method, col, label: str, t: float) -> float:
    for row in by_method.get(label, []):
        if _float(row[col["t"]]) == t:
            return _float(row[col["error"]])
    return math.nan


def _check_semiclassical(by_method, col, summaries, failures) -> None:
    ak4 = _error_at(by_method, col, "SP-AK4", 0.8)
    low, high = AK4_REFERENCE_ERROR / AK4_ERROR_FACTOR, AK4_REFERENCE_ERROR * AK4_ERROR_FACTOR
    _require(failures, "SP-AK4", low <= ak4 <= high,
             f"AK4 error {ak4} at t=0.8 outside [{low}, {high}]")
    relaxed = _error_at(by_method, col, "SP-ImEx4(R)", 0.8)
    _require(failures, "SP-ImEx4(R)", relaxed <= IMEX4R_OVER_AK4_MAX * ak4,
             f"ImEx4(R) error {relaxed} at t=0.8 > {IMEX4R_OVER_AK4_MAX} x AK4 {ak4}")


_CHECKS = {
    "fem-growth": _check_fem_growth,
    "sp-invariants": _check_sp_invariants,
    "semiclassical": _check_semiclassical,
}
