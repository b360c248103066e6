"""The benchmark's span tracer (bench/spans.py) still finds what it wraps.

The tracer replaces functions by name; renaming one of them would make a
traced benchmark run report zeros for that layer without any error.
"""

import importlib.util
from pathlib import Path

from nlslab import cli, relaxation

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("nlslab_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_cli_call_reaches_every_layer(tmp_path):
    config = tmp_path / "table.cfg"
    config.write_text(
        "scenario = invariant_table\n"
        "nsolitons = 2\n"
        "m = 256\n"
        "dt = 0.01\n"
        "T = 0.05\n"
        "methods = SP-S2 SP-ImEx3(R) FEM-ImEx4(MR)(EC)\n"
    )
    original = relaxation.relax_multi
    with _load_spans().Tracer() as tracer:
        argv = ["invariants", "--config", str(config), "--out", str(tmp_path / "t.csv")]
        assert cli.main(argv) == 0
    assert relaxation.relax_multi is original
    counts, _ = tracer.run_summary()
    assert counts["harness.run_method.calls"] == 3
    for name in (
        "splitting.integrate",
        "relaxation.integrate_imex",
        "relaxation.adaptive_integrate",
    ):
        assert counts[f"{name}.calls"] == 1, name
    for name in ("imexrk.imex_step", "relaxation.relax_single", "relaxation.relax_multi"):
        assert counts.get(f"{name}.calls", 0) >= 1, name


def test_traced_semiclassical_call_reaches_the_reference(tmp_path):
    # the fine-mesh reference dominates the semiclassical workload
    config = tmp_path / "semi.cfg"
    config.write_text(
        "scenario = semiclassical\n"
        "eps = 0.2\n"
        "dx = 1/16\n"
        "dt = 1/50\n"
        "t_out = 0.04\n"
        "dx_ref = 1/64\n"
        "dt_ref = 1/400\n"
        "methods = SP-S2\n"
    )
    with _load_spans().Tracer() as tracer:
        argv = ["semiclassical", "--config", str(config), "--out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 0
    counts, _ = tracer.run_summary()
    assert counts.get("oracles.reference.calls", 0) >= 1
    assert counts["splitting.integrate.calls"] >= 2  # the run and the reference
