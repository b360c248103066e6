"""The README's library quick tour runs as written against the public API."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text().split("## Library quick tour", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_runs(capsys):
    code = _quick_tour()
    # the tour integrates to T = 5; a tenth of that keeps the test quick
    assert code.count("0.01, 5.0") == 3
    namespace: dict = {}
    exec(compile(code.replace("0.01, 5.0", "0.01, 0.5"), str(README), "exec"), namespace)
    final, record = namespace["final"], namespace["record"]
    # relaxed steps advance time by (1 + gamma)*dt, so the run ends near T
    assert final.t == record.final_t and abs(final.t - 0.5) <= 1e-4
    assert record.max_mass_drift <= 1e-15 and record.max_energy_drift <= 1e-13
    assert float(capsys.readouterr().out) <= 1e-15  # the printed mass drift
