"""The benchmark's span tracer still binds to the library.

``perfbench/spans.py`` wraps corfd functions by name at their lookup sites.
A renamed or deleted name breaks it, and its own self-test takes minutes, so
this test installs the tracer, runs one small call per layer, and checks
that every layer recorded self time.
"""

from pathlib import Path

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_every_layer_records_self_time(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv("CORFD_THREADS", raising=False)
    import spans

    import corfd.cli
    import corfd.dfo
    import corfd.estimators
    import corfd.oracle
    from corfd.sampling import stream

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        sin1 = corfd.oracle.parse_problem("sin1")
        corfd.estimators.cor_cfd(
            sin1.oracle, sin1.theta0, 0, 100, corfd.estimators.EstimatorConfig(), stream(1)
        )
        zak = corfd.oracle.parse_problem("zakharov@2")
        corfd.dfo.corcfd_lbfgs(zak.oracle, zak.theta0, corfd.dfo.DfoConfig(budget=200), stream(2))
        code = corfd.cli.main([
            "bench", "--set", "reps=1", "--set", "budgets=100",
            "--set", f"out={tmp_path / 'summary.csv'}",
        ])
    finally:
        tracer.restore()
    assert code == 0
    assert [layer for layer in spans.LAYERS if not tracer.self_s[layer] > 0] == []
