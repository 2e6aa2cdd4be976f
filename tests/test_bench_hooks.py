"""The benchmark harness in ``perfbench/`` looks up mbloch names when it
starts a traced run.  Building its instrumentation here makes the removal of
a name it binds fail this suite, not only a traced benchmark run.  These
tests read ``perfbench/`` and change nothing in it."""

import json
import os

import numpy as np
import pytest

from mbloch import cli, core, verify
from mbloch.integrate import IntegratorConfig, integrate, rk4_step

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_tracer_binds_its_targets(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    inst = tracing.Instrumentation(tracing.Tracer())
    assert all(callable(fn) for fn, _, _ in inst.targets)


def test_verify_gives_the_tracer_its_spans(monkeypatch):
    # the traced run takes these layers' spans only from ``verify``
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    tracer = tracing.Tracer()
    inst = tracing.Instrumentation(tracer)
    inst.install()
    try:
        verify.run_all(0, verify.QUICK)
    finally:
        inst.uninstall()
    wanted = {span for _, _, span, _ in tracing.LAYER_TABLE
              if span.startswith(("core.", "verify.")) or span == "equilibria.quartic_roots"}
    assert wanted - set(tracer.names) == set()


def test_counting_field_path_is_the_default_path():
    # the rk45 counting pass re-runs integrate with field=; its counts
    # describe the timed run only if the samples agree bit for bit
    p0 = [1.0, 1.0, 0.5, -0.5, 0.2]
    cfg = IntegratorConfig(method="rk45", t_end=5.0)
    default = integrate(p0, cfg)
    counted = integrate(p0, cfg, field=core.vector_field)
    assert np.array_equal(default.times, counted.times)
    assert np.array_equal(default.states, counted.states)


def test_rk4_step_takes_the_harness_call(monkeypatch):
    # the worker times rk4_step on BASE_POINT as an array, step 1e-2
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    new = rk4_step(np.array(workloads.BASE_POINT), 1e-2)
    assert new.shape == (5,) and np.isfinite(new).all()


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_simulate_gives_the_tracer_its_spans(monkeypatch, tmp_path, capsys, method):
    # the traced rk4_long and cli_session runs wrap ``integrate.integrate``
    # and ``cli.write_trajectory_csv`` by name, take the steps and rows from
    # their spans, and re-run each rk45 call for its counts on the arrays of
    # the Trajectory it returned
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    tracer = tracing.Tracer()
    inst = tracing.Instrumentation(tracer)
    path = tmp_path / "s.csv"
    argv = ["simulate", "--x1=1.0", "--y1=1.0", "--x2=0.5", "--y2=-0.5", "--z=0.2",
            "--t-end=5.0", f"--method={method}", "--dt=0.01", "--stride=3", f"--out={path}"]
    inst.install()
    try:
        code = cli.main(argv)
    finally:
        inst.uninstall()
    assert code == 0
    samples = json.loads(capsys.readouterr().out)["samples"]
    spans = dict(zip(tracer.names, range(len(tracer.names))))
    assert {f"integrate.{method}", "cli.write_trajectory_csv"} <= set(spans)
    writer = list(tracer.name_id).index(spans["cli.write_trajectory_csv"])
    assert tracer.work[writer] == samples
    assert tracer.work2[writer] == os.path.getsize(path)
    assert inst.count_pass() == 0
    if method == "rk45":
        run = list(tracer.name_id).index(spans["integrate.rk45"])
        assert tracer.work[run] >= 3 * (samples - 2) and tracer.work2[run] > 0
