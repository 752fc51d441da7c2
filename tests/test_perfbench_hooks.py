"""The benchmark's span tracer still binds to the library.

``perfbench/spans.py`` wraps corfd functions by name at their lookup sites.
A renamed or deleted name breaks it, and its own self-test takes minutes, so
this test installs the tracer around one small call per workload, and checks
that each call records self time in every layer its workload stresses, and
that together they cover every layer.
"""

from pathlib import Path

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_every_layer_records_self_time(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv("CORFD_THREADS", raising=False)
    import spans
    import workloads

    import corfd.cli
    import corfd.dfo
    import corfd.estimators
    import corfd.oracle
    from corfd.sampling import stream

    def estimate():
        # A real (short) queue, so a queue draw that bypassed the traced
        # ``sample`` would leave the oracle layer empty.
        queue = corfd.oracle.parse_problem("queue@3,5,20,service")
        corfd.estimators.cor_cfd(
            queue.oracle, queue.theta0, 0, 100, corfd.estimators.EstimatorConfig(), stream(1)
        )

    def optimize():
        zak = corfd.oracle.parse_problem("zakharov@2")
        corfd.dfo.corcfd_lbfgs(zak.oracle, zak.theta0, corfd.dfo.DfoConfig(budget=200), stream(2))

    codes = []

    def bench():
        codes.append(corfd.cli.main([
            "bench", "--set", "reps=1", "--set", "budgets=100",
            "--set", f"out={tmp_path / 'summary.csv'}",
        ]))

    # Each call stands for the workload that stresses the same path.
    tracers = {}
    for workload, run in (("queue", estimate), ("dfo", optimize), ("grid", bench)):
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            run()
        finally:
            tracer.restore()
        tracers[workload] = tracer
    assert codes == [0]
    for workload, tracer in tracers.items():
        stressed = workloads.WORKLOADS[workload].stress
        assert [layer for layer in stressed if not tracer.self_s[layer] > 0] == [], workload
    assert [
        layer for layer in spans.LAYERS
        if not any(tracer.self_s[layer] > 0 for tracer in tracers.values())
    ] == []
