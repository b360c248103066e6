"""Experiment configuration, scenario runners, and CSV/JSON persistence.

A scenario is described by a flat key=value config document (``#`` starts a
comment; commas may separate pairs on one line).  Method names follow the
conventional notation: an optional discretization prefix ``SP-`` or ``FEM-``,
a base method ``S2``/``AK4``/``ImEx3``/``ImEx4``, then optional ``(R)``
(single relaxation of mass), ``(MR)`` (multiple relaxation of mass and
energy, finite elements only), and ``(EC)`` (hybrid adaptive step control).

Each scenario writes an aggregate table to the requested output path and a
per-run JSON record (step log plus summary) per method into a sibling
``<stem>_runs`` directory.  Output is deterministic for a fixed config,
excluding the runtime columns.

The five scenario runners share one setup (:func:`_setup`, whose helpers
also build the semiclassical fine-mesh reference) and one failure path
(:func:`_guarded`: a run that raises leaves a ``nan`` row with the exception
text as its diagnosis); convergence and work-precision are one dt sweep.

Every scenario grid is periodic, so the ``SP-``/``FEM-`` prefix only picks
the symbol of the Fourier-multiplier stiff operator
(:func:`nlslab.spectral.spectral_operator` or
:func:`nlslab.spectral.fem_operator`); both discretizations then share one
ImEx path and one (mass, energy) pair from :mod:`nlslab.core`.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import oracles, splitting
from .core import (
    ConfigurationError,
    Grid,
    GridState,
    Problem,
    RunRecord,
    energy_functional,
    make_grid,
    mass_functional,
)
from .imexrk import tableau
from .relaxation import (
    ControllerConfig,
    adaptive_integrate,
    check_fixed_step,
    integrate_imex,
    landing_tolerance,
    make_imex_stepper,
)
from .spectral import cubic_term, fem_operator, spectral_operator, spectral_tail


_NAN = float("nan")
_DEFAULT_DTS = (1 / 25, 1 / 50, 1 / 100, 1 / 200, 1 / 400)
# Step of a semiclassical run, and base of its reference's step, without 'dt'.
_SEMICLASSICAL_DT = 1 / 100


class FitError(ValueError):
    """Growth-exponent fit was requested on unusable data."""


@dataclass(frozen=True)
class MethodSpec:
    """One fully discretized method: base scheme x relaxation x step control;
    ``relax`` is 0, 1 (``(R)``, the mass) or 2 (``(MR)``, mass and energy)."""

    family: str
    discretization: str = "spectral"
    relax: int = 0
    error_control: bool = False

    @property
    def label(self) -> str:
        prefix = "SP" if self.discretization == "spectral" else "FEM"
        ec = "(EC)" if self.error_control else ""
        return f"{prefix}-{self.family}{('', '(R)', '(MR)')[self.relax]}{ec}"

    @property
    def is_splitting(self) -> bool:
        return self.family in ("S2", "AK4")


_METHOD_RE = re.compile(
    r"^(?:(?P<prefix>SP|FEM)-)?(?P<base>S2|AK4|ImEx3|ImEx4)"
    r"(?P<mods>(\((?:R|MR|EC)\))*)$"
)


def parse_method(text: str) -> MethodSpec:
    """Parse a method label; compatibility rules are enforced here."""
    match = _METHOD_RE.match(text.strip())
    if not match:
        raise ConfigurationError(
            f"unrecognized method {text!r}; expected e.g. SP-ImEx3(R) or FEM-ImEx4(MR)(EC)"
        )
    mods = set(re.findall(r"\((R|MR|EC)\)", match.group("mods") or ""))
    if "R" in mods and "MR" in mods:
        raise ConfigurationError(f"method {text!r} combines (R) and (MR)")
    disc = {"SP": "spectral", "FEM": "fem", None: "spectral"}[match.group("prefix")]
    relax = 1 if "R" in mods else (2 if "MR" in mods else 0)
    spec = MethodSpec(match.group("base"), disc, relax, "EC" in mods)
    if spec.is_splitting:
        if disc == "fem":
            raise ConfigurationError(
                f"method {text!r}: splitting methods require the spectral discretization"
            )
        if mods:
            raise ConfigurationError(
                f"method {text!r}: splitting methods take no (R)/(MR)/(EC) modifiers"
            )
    if relax == 2 and disc != "fem":
        raise ConfigurationError(
            f"method {text!r}: multiple relaxation requires an energy-conserving "
            "semi-discretization (use the FEM- prefix)"
        )
    return spec


def _parse_number(text: str) -> float:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        value = float(num) / float(den)
    else:
        value = float(text)
    if not np.isfinite(value):
        raise ValueError("not a finite number")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    methods: tuple[MethodSpec, ...] = ()
    n_solitons: int = 2
    eps: float | None = None
    phase: str = "constant_phase"
    m: int | None = None
    dx: float | None = None
    dt: float | None = None
    dts: tuple[float, ...] = ()
    T: float | None = None
    tol: float = 1e-4
    t_out: tuple[float, ...] = ()
    out: str = "results.csv"
    fmt: str = "csv"
    fit_t_min: float = 2.0
    fit_t_max: float = 15.0
    samples: int = 400
    dt_min: float | None = None
    dx_ref: float | None = None
    dt_ref: float | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise ConfigurationError(f"samples must be at least 1, got {self.samples}")

    @property
    def is_semiclassical(self) -> bool:
        return self.eps is not None


_LIST_SPLIT = re.compile(r"[;\s]+")


def _list_of(parse):
    return lambda v: tuple(parse(p) for p in _LIST_SPLIT.split(v.strip()) if p)


def _parse_scenario(text: str) -> str:
    value = text.strip()
    if value not in SCENARIOS:
        raise ConfigurationError(f"unknown scenario {value!r}; known: {SCENARIOS}")
    return value


def _one_of(kind: str, known: tuple[str, ...]):
    def parse(text: str) -> str:
        value = text.strip()
        if value not in known:
            raise ConfigurationError(f"unknown {kind} {value!r}")
        return value

    return parse


_KEY_PARSERS = {
    "scenario": ("scenario", _parse_scenario),
    "method": ("methods", lambda v: (parse_method(v),)),
    "methods": ("methods", _list_of(parse_method)),
    "nsolitons": ("n_solitons", lambda v: int(v)),
    "eps": ("eps", _parse_number),
    "phase": ("phase", _one_of("phase kind", ("constant_phase", "varying_phase"))),
    "m": ("m", lambda v: int(v)),
    "dx": ("dx", _parse_number),
    "dt": ("dt", _parse_number),
    "dts": ("dts", _list_of(_parse_number)),
    "T": ("T", _parse_number),
    "tol": ("tol", _parse_number),
    "t_out": ("t_out", _list_of(_parse_number)),
    "out": ("out", str.strip),
    "format": ("fmt", _one_of("format", ("csv", "json"))),
    "fit_t_min": ("fit_t_min", _parse_number),
    "fit_t_max": ("fit_t_max", _parse_number),
    "samples": ("samples", lambda v: int(v)),
    "dt_min": ("dt_min", _parse_number),
    "dx_ref": ("dx_ref", _parse_number),
    "dt_ref": ("dt_ref", _parse_number),
}


def parse_value(key: str, text: str) -> tuple[str, object]:
    """(config attribute, parsed value) for one ``key = text`` pair, of a
    config document or a CLI override alike.

    Any failure to parse, or a value outside a key's choices, is reported as
    a ConfigurationError.
    """
    if key not in _KEY_PARSERS:
        raise ConfigurationError(f"unknown config key {key!r}")
    attr, parser = _KEY_PARSERS[key]
    try:
        return attr, parser(text)
    except ConfigurationError:
        raise
    except Exception as exc:
        raise ConfigurationError(f"bad value for {key!r}: {text!r} ({exc})") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat key=value document into a validated config."""
    values: dict = {}
    for raw_line in text.splitlines():
        for pair in filter(str.strip, raw_line.split("#", 1)[0].split(",")):
            if "=" not in pair:
                raise ConfigurationError(f"expected key=value, got {pair.strip()!r}")
            key, value = (p.strip() for p in pair.split("=", 1))
            attr, parsed = parse_value(key, value)
            values[attr] = parsed
    if not values:
        raise ConfigurationError("empty configuration document")
    if "scenario" not in values:
        raise ConfigurationError("config must set 'scenario'")
    return ExperimentConfig(**values)


def config_echo(cfg: ExperimentConfig) -> dict:
    echo = {}
    for key in cfg.__dataclass_fields__:
        value = getattr(cfg, key)
        if key == "methods":
            value = [m.label for m in value]
        elif isinstance(value, tuple):
            value = list(value)
        echo[key] = value
    return echo


# ---------------------------------------------------------------------------
# run machinery


def _grid_for(cfg: ExperimentConfig, problem: Problem) -> Grid:
    length = problem.x_right - problem.x_left
    if cfg.m is not None:
        m = cfg.m
    elif cfg.dx is not None:
        if not cfg.dx > 0:
            raise ConfigurationError(f"dx must be positive, got {cfg.dx}")
        m = round(length / cfg.dx)
        if abs(m * cfg.dx - length) > 1e-9 * length:
            raise ConfigurationError(f"dx={cfg.dx} does not divide the domain length")
    elif cfg.is_semiclassical:
        m = round(length * 32)
    else:
        m = 1120 if cfg.n_solitons == 2 else 2240
    return make_grid(problem.x_left, problem.x_right, m)


def _initial_state(cfg: ExperimentConfig, grid: Grid) -> GridState:
    if cfg.is_semiclassical:
        return oracles.semiclassical_initial(cfg.phase, cfg.eps, grid)
    state, _ = oracles.soliton_initial(cfg.n_solitons, grid)
    return state


def _setup(cfg: ExperimentConfig) -> tuple[Problem, Grid, GridState]:
    """The problem, grid and initial state every scenario starts from."""
    if cfg.is_semiclassical:
        problem = oracles.semiclassical_problem(cfg.eps)
    else:
        problem = oracles.soliton_problem(cfg.n_solitons)
    grid = _grid_for(cfg, problem)
    return problem, grid, _initial_state(cfg, grid)


def run_method(
    method: MethodSpec,
    problem: Problem,
    grid: Grid,
    s0: GridState,
    dt: float,
    T: float,
    cfg: ExperimentConfig,
    observer=None,
) -> tuple[GridState, RunRecord]:
    """Integrate one method to time T on the given grid.

    Every run tracks the drift of the (mass, energy) pair; ``(R)`` relaxes
    the first of them and ``(MR)`` both, against the same initial values.
    """
    make_operator = fem_operator if method.discretization == "fem" else spectral_operator
    op = make_operator(grid, problem.a)
    invariants = [mass_functional(), energy_functional(problem.b, problem.a)]
    if method.is_splitting:
        sch = splitting.scheme(method.family)
        return splitting.integrate_splitting(
            s0, sch, op, problem.b, dt, T, invariants=invariants, observer=observer
        )
    tab = tableau(method.family)
    stepper = make_imex_stepper(tab, op, cubic_term(problem.b), method.relax)
    tracking = (invariants, method.relax, observer)
    if method.error_control:
        controller = ControllerConfig(cfg.tol, tab.embedded_order, dt_min=cfg.dt_min)
        return adaptive_integrate(s0, stepper, controller, T, dt, *tracking)
    return integrate_imex(s0, stepper, dt, T, *tracking)


def _soliton_error(cfg: ExperimentConfig, state: GridState) -> float:
    exact = oracles.soliton_exact(cfg.n_solitons, state.grid.nodes, state.t)
    return float(np.max(np.abs(state.u - exact)))


# A default reference mesh is halved while a state it reaches carries more
# than this share of its largest DFT coefficient in the top quarter of |k|.
# The shipped eps=0.2 config reads 3e-11 at dx/2, where dx/2 and dx/8 agree
# to 1e-11; eps=0.05 at dx=1/32 reads 3e-6 at dx/2 and 3e-11 at dx/4.
REFERENCE_TAIL_MAX = 3e-10
# Finest default reference mesh, in nodes: past it a still under-resolved
# state fails the scored run instead of doubling the memory again.
REFERENCE_MAX_M = 2**17


class SemiclassicalReference:
    """Fine-mesh AK4 splitting reference, advanced on demand to each run's
    recorded time.

    The step defaults to ``dt/20`` of the run's step and the mesh to
    ``dx/2`` of the run's grid (whether ``m`` or ``dx`` sets it).  A default
    mesh checks each state it integrates to with
    :func:`nlslab.spectral.spectral_tail`: above ``REFERENCE_TAIL_MAX`` it
    halves ``dx_ref``, drops its cached states and integrates again from
    t=0, so small ``eps`` gets the mesh it needs.  An explicit ``dx_ref`` is
    used as given.  ``dx_ref`` must divide the domain, and each run grid must
    subsample the fine one exactly.  Starts from the runs' own initial data
    (same ``phase``) sampled on the fine grid and integrates incrementally,
    caching states so ascending query times reuse work.
    """

    def __init__(self, cfg: ExperimentConfig, problem: Problem):
        dt = cfg.dt if cfg.dt is not None else _SEMICLASSICAL_DT
        self.dt_ref = cfg.dt_ref if cfg.dt_ref is not None else dt / 20.0
        self.problem = problem
        self._cfg = cfg
        self._refines = cfg.dx_ref is None
        self._start(cfg.dx_ref if cfg.dx_ref is not None else _grid_for(cfg, problem).dx / 2.0)

    def _start(self, dx_ref: float) -> None:
        """Build the mesh of spacing ``dx_ref``, holding only the initial state."""
        self.dx_ref = dx_ref
        grid = _grid_for(replace(self._cfg, m=None, dx=dx_ref), self.problem)
        base = _initial_state(self._cfg, grid)
        self._states: dict[float, GridState] = {base.t: base}
        self._op = spectral_operator(base.grid, self.problem.a)

    def state_at(self, t: float) -> GridState:
        # A cached state within the step loop's landing tolerance of t is
        # where integrating to t would stop.
        tiny = landing_tolerance(t)
        while True:
            best_t = max((s for s in self._states if s <= t + tiny), default=None)
            if best_t is None:
                raise ConfigurationError(f"reference cannot rewind to t={t}")
            state = self._states[best_t]
            if t <= state.t + tiny:
                return state
            state, _ = splitting.integrate_splitting(
                state, splitting.scheme("AK4"), self._op, self.problem.b, self.dt_ref, t
            )
            if not self._refines or spectral_tail(state.u) <= REFERENCE_TAIL_MAX:
                self._states[state.t] = state
                return state
            if 2 * state.grid.m > REFERENCE_MAX_M:
                raise ConfigurationError(
                    f"reference mesh dx_ref={self.dx_ref:.6g} is under-resolved at t={t:.6g} "
                    f"and cannot be refined past m={REFERENCE_MAX_M}; set dx_ref"
                )
            self._start(self.dx_ref / 2.0)

    def error(self, state: GridState) -> float:
        ref = oracles.subsample(self.state_at(state.t), state.grid)
        return float(np.max(np.abs(state.u - ref.u)))


def fit_growth_exponent(series, window: tuple[float, float]) -> float:
    """Least-squares slope of log(err) against log(t) inside the window."""
    t_a, t_b = window
    points = [(t, e) for t, e in series if t_a <= t <= t_b and e > 0 and t > 0]
    if len(points) < 10:
        raise FitError(
            f"need at least 10 positive samples in [{t_a}, {t_b}], found {len(points)}"
        )
    return _loglog_slope(points)


def _loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x) over (x, y) points."""
    xs = np.log([p[0] for p in points])
    ys = np.log([p[1] for p in points])
    return float(np.polyfit(xs, ys, 1)[0])


class ErrorSampler:
    """Observer collecting (t, error vs oracle) at every ``stride``-th
    accepted step, scored as the step arrives.

    A step that arrives with ``max_samples`` rows kept first doubles the
    stride, which drops every other kept row, so the rows stay evenly spread
    over the run's steps.  :meth:`rows_to` closes the table with the run's
    final state.
    """

    def __init__(self, error_of, max_samples: int):
        self.error_of = error_of
        self.max_samples = max_samples
        self.stride = 1
        self._steps = 0
        self._kept: list[tuple[int, tuple[float, float]]] = []  # (accepted step number, row)

    def __call__(self, state: GridState) -> None:
        while len(self._kept) >= self.max_samples:
            self.stride *= 2
            self._kept = [kept for kept in self._kept if kept[0] % self.stride == 0]
        self._steps += 1
        if self._steps % self.stride == 0:
            self._kept.append((self._steps, (state.t, self.error_of(state))))

    def rows_to(self, final: GridState) -> list[tuple[float, float]]:
        """The kept rows, ending with ``final``, the run's last state, which
        is scored here unless its step is the last kept one."""
        rows = [row for _, row in self._kept]
        if not self._kept or self._kept[-1][0] != self._steps:
            rows.append((final.t, self.error_of(final)))
        return rows


# ---------------------------------------------------------------------------
# scenario runners


@dataclass
class ScenarioResult:
    columns: list[str]
    rows: list[list]
    records: dict[str, RunRecord] = field(default_factory=dict)
    extra_tables: dict[str, tuple[list[str], list[list]]] = field(default_factory=dict)


_SPECTRAL_METHODS = ("SP-S2", "SP-AK4", "SP-ImEx3", "SP-ImEx3(R)", "SP-ImEx4", "SP-ImEx4(R)")
_DEFAULT_METHODS = {
    "convergence": _SPECTRAL_METHODS,
    "invariant_table": _SPECTRAL_METHODS,
    "error_growth": ("FEM-ImEx4", "FEM-ImEx4(MR)(EC)"),
    "work_precision": ("SP-S2", "SP-AK4", "SP-ImEx4", "SP-ImEx4(R)"),
    "semiclassical": ("SP-S2", "SP-AK4", "SP-ImEx4", "SP-ImEx4(R)", "SP-ImEx4(R)(EC)"),
}


def _default_methods(cfg: ExperimentConfig) -> tuple[MethodSpec, ...]:
    if cfg.methods:
        return cfg.methods
    return tuple(parse_method(n) for n in _DEFAULT_METHODS[cfg.scenario])


def _guarded(result: ScenarioResult, failed_row: list, run) -> None:
    """Call ``run()``, which appends its own rows to ``result``; if it raises,
    append ``failed_row`` with the exception text as its diagnosis.  Rows a
    failed ``run()`` appended before raising are kept."""
    try:
        run()
    except Exception as exc:  # noqa: BLE001 - recorded as a failed row
        result.rows.append(failed_row + [str(exc)])


def _growth_default_dt(cfg: ExperimentConfig, method: MethodSpec) -> float:
    if cfg.dt is not None:
        return cfg.dt
    if cfg.n_solitons == 2 and method.family == "ImEx4":
        return 0.05
    return 0.01


def _dt_sweep(cfg: ExperimentConfig, fourth: str, T: float) -> ScenarioResult:
    """One fixed-step run per (method, dt), over ``dts``, else the one
    ``dt``, else the default sweep.  A semiclassical config is scored against
    the fine-mesh reference, any other against the exact soliton.  With
    ``fourth="runtime"`` the fourth column is the run's runtime; with
    ``fourth="slope"`` it is the method's fitted convergence slope."""
    problem, grid, s0 = _setup(cfg)
    timed = fourth == "runtime"
    dts = cfg.dts or ((cfg.dt,) if cfg.dt is not None else _DEFAULT_DTS)
    for dt in dts:
        # A positive step too small to finish is refused before any run;
        # dt <= 0 fails its own run, as a failed row.
        if dt > 0:
            check_fixed_step(dt, T)
    if cfg.is_semiclassical:
        error_of = SemiclassicalReference(cfg, problem).error
    else:
        error_of = functools.partial(_soliton_error, cfg)
    result = ScenarioResult(["method", "dt", "error", fourth, "diagnosis"], [])
    for method in _default_methods(cfg):
        first = len(result.rows)
        for dt in dts:

            def run():
                state, record = run_method(method, problem, grid, s0, dt, T, cfg)
                record.final_error = err = error_of(state)
                result.records[f"{method.label}_dt={dt:.6g}"] = record
                runtime = record.runtime_seconds if timed else None
                result.rows.append([method.label, dt, err, runtime, ""])

            _guarded(result, [method.label, dt, _NAN, _NAN if timed else None], run)
        if not timed:
            rows = result.rows[first:]
            slope = _tail_slope([row[1] for row in rows], [row[2] for row in rows])
            for row in rows:
                row[3] = slope
    return result


def run_convergence(cfg: ExperimentConfig) -> ScenarioResult:
    """Fixed-step dt sweep; max-norm error at T against the exact solution
    (the fine-mesh reference on a semiclassical config)."""
    T = cfg.T if cfg.T is not None else 1.0
    return _dt_sweep(cfg, "slope", T)


def _tail_slope(dts, errors) -> float:
    """Slope over the asymptotic tail: the longest suffix (in decreasing dt)
    with finite, monotonically decreasing errors below 1.0, fitted on its
    (at most) four smallest dts."""
    pairs = sorted(zip(dts, errors), key=lambda p: -p[0])
    tail: list[tuple[float, float]] = []
    for dt, err in pairs:
        if not np.isfinite(err) or err > 1.0:
            tail = []
            continue
        if tail and err >= tail[-1][1]:
            tail = []
        tail.append((dt, err))
    if len(tail) < 2:
        return float("nan")
    return _loglog_slope(tail[-4:])


def run_invariant_table(cfg: ExperimentConfig) -> ScenarioResult:
    """Max invariant drifts and runtimes at a fixed starting step size."""
    problem, grid, s0 = _setup(cfg)
    dt = cfg.dt if cfg.dt is not None else 0.01
    T = cfg.T if cfg.T is not None else 5.0
    result = ScenarioResult(
        ["method", "max_mass_drift", "max_energy_drift", "runtime", "diagnosis"], []
    )
    for method in _default_methods(cfg):

        def run():
            state, record = run_method(method, problem, grid, s0, dt, T, cfg)
            if not cfg.is_semiclassical:
                record.final_error = _soliton_error(cfg, state)
            result.records[method.label] = record
            drifts = [record.max_mass_drift, record.max_energy_drift]
            result.rows.append([method.label, *drifts, record.runtime_seconds, ""])

        _guarded(result, [method.label, _NAN, _NAN, _NAN], run)
    return result


def run_error_growth(cfg: ExperimentConfig) -> ScenarioResult:
    """Error against the exact soliton over time, with a fitted growth rate;
    the sampled rows end with the final state that ``run_method`` returns."""
    if cfg.is_semiclassical:
        raise ConfigurationError(
            "error_growth scenario scores against the exact soliton; it takes no 'eps' key"
        )
    problem, grid, s0 = _setup(cfg)
    T = cfg.T if cfg.T is not None else 20.0
    result = ScenarioResult(["method", "t", "error", "exponent", "diagnosis"], [])
    for method in _default_methods(cfg):

        def run():
            sampler = ErrorSampler(functools.partial(_soliton_error, cfg), cfg.samples)
            dt = _growth_default_dt(cfg, method)
            state, record = run_method(method, problem, grid, s0, dt, T, cfg, observer=sampler)
            rows = sampler.rows_to(state)
            record.final_error = rows[-1][1]
            result.records[method.label] = record
            try:
                exponent = fit_growth_exponent(rows, (cfg.fit_t_min, cfg.fit_t_max))
            except FitError:
                exponent = _NAN
            for t, err in rows:
                result.rows.append([method.label, t, err, exponent, ""])

        _guarded(result, [method.label, _NAN, _NAN, _NAN], run)
    return result


def run_work_precision(cfg: ExperimentConfig) -> ScenarioResult:
    """Error and wall-clock runtime per (method, dt) over a dt sweep."""
    T = cfg.T if cfg.T is not None else (0.8 if cfg.is_semiclassical else 1.0)
    return _dt_sweep(cfg, "runtime", T)


def run_semiclassical(cfg: ExperimentConfig) -> ScenarioResult:
    """Density profiles at requested times plus an error/runtime table."""
    if not cfg.is_semiclassical:
        raise ConfigurationError("semiclassical scenario requires the 'eps' key")
    if cfg.T is not None:
        raise ConfigurationError(
            "semiclassical scenario stops at the 't_out' times; it takes no 'T' key"
        )
    problem, grid, s0 = _setup(cfg)
    if cfg.t_out:
        t_out = cfg.t_out
    elif cfg.eps < 0.1:
        # desk scale: the eps=0.05 fixed-step baselines are the costliest
        # runs; a full-scale run sets t_out = 0.8
        t_out = (0.4,)
    else:
        t_out = (0.8,)
    dt = cfg.dt if cfg.dt is not None else _SEMICLASSICAL_DT
    reference = SemiclassicalReference(cfg, problem)
    result = ScenarioResult(["method", "t", "error", "runtime", "diagnosis"], [])
    density_rows: list[list] = []
    for method in _default_methods(cfg):

        def run():
            state, runtime = s0, 0.0
            for t_stop in sorted(t_out):
                state, record = run_method(method, problem, grid, state, dt, t_stop, cfg)
                runtime += record.runtime_seconds
                record.final_error = err = reference.error(state)
                result.records[f"{method.label}_t={t_stop:.6g}"] = record
                result.rows.append([method.label, t_stop, err, runtime, ""])
                rho = oracles.density(state)
                density_rows.extend([method.label, t_stop, x, v] for x, v in zip(grid.nodes, rho))

        _guarded(result, [method.label, _NAN, _NAN, _NAN], run)
    result.extra_tables["density"] = (["method", "t", "x", "density"], density_rows)
    return result


_RUNNERS = {
    "convergence": run_convergence,
    "invariant_table": run_invariant_table,
    "error_growth": run_error_growth,
    "work_precision": run_work_precision,
    "semiclassical": run_semiclassical,
}


SCENARIOS = tuple(_RUNNERS)


def run_scenario(cfg: ExperimentConfig) -> ScenarioResult:
    return _RUNNERS[cfg.scenario](cfg)


# ---------------------------------------------------------------------------
# persistence


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, columns: list[str], rows: list[list]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


STEP_COLUMNS = ["t", "dt", "eps", "Gamma", "gamma2", "residual", "disposition"]


def _record_payload(record: RunRecord, echo: dict | None) -> dict:
    steps = [
        [r.t, r.dt, r.eps, r.gamma1, r.gamma2, r.residual, r.disposition] for r in record.steps
    ]
    return {
        "config": echo,
        "summary": record.summary(),
        "step_columns": STEP_COLUMNS,
        "steps": steps,
    }


def emit(record: RunRecord, path, echo: dict | None = None) -> Path:
    """Write one run record as JSON.

    Floats are serialized with 17 significant digits so a JSON round trip
    reproduces the summary exactly.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = _record_payload(record, echo)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def write_scenario(cfg: ExperimentConfig, result: ScenarioResult) -> list[Path]:
    """Write the aggregate table plus per-run records; returns written paths."""
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    echo = config_echo(cfg)
    if cfg.fmt == "json":
        payload = {
            "config": echo,
            "columns": result.columns,
            "rows": result.rows,
            "runs": {k: _record_payload(r, None) for k, r in result.records.items()},
            "tables": {
                name: {"columns": cols, "rows": rows}
                for name, (cols, rows) in result.extra_tables.items()
            },
        }
        out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return [out]
    _write_csv(out, result.columns, result.rows)
    written.append(out)
    for name, (cols, rows) in result.extra_tables.items():
        extra = out.with_name(f"{out.stem}_{name}.csv")
        _write_csv(extra, cols, rows)
        written.append(extra)
    runs_dir = out.with_name(out.stem + "_runs")
    for label, record in result.records.items():
        safe = re.sub(r"[^A-Za-z0-9_.()\-]+", "_", label)
        written.append(emit(record, runs_dir / f"{safe}.json", echo))
    return written
