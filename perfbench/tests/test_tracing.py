"""The traced run's counts repeat exactly and the tracer leaves the program
as it found it."""

import pytest

import workloads
from ndspin import coils, core, protocol
from tracing import METRICS, Tracer, per_layer


def _traced_counts(wl, i):
    case = wl.round_cases(0)[i]
    tracer = Tracer().install()
    try:
        wl.run(case)
    finally:
        tracer.uninstall()
    counts = tracer.snapshot()
    return {k: v for k, v in counts.items() if not k.endswith(("_s", "_t"))}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_traced_runs_give_identical_counts(name, tmp_path):
    wl = workloads.WORKLOADS[name](seed=3, workdir=str(tmp_path))
    first = _traced_counts(wl, 1)
    assert first == _traced_counts(wl, 1)
    assert sum(first.values()) > 0


def test_layers_do_no_work_outside_their_workloads(tmp_path):
    design = workloads.DesignScan(seed=3, workdir=str(tmp_path))
    trap = workloads.TrapDynamics(seed=3, workdir=str(tmp_path))
    d, t = _traced_counts(design, 0), _traced_counts(trap, 0)
    assert d["protocol.cells"] > 0
    assert d.get("coils.field_calls", 0) == d.get("trajectory.integrate_calls", 0) == 0
    assert t["trajectory.rhs_evals"] > 0 and t.get("protocol.cells", 0) == 0


def test_uninstall_restores_every_binding():
    originals = (protocol.optimize_tmin, core.derive_oscillator,
                 protocol.derive_oscillator, coils.complete_elliptic_KE,
                 coils.CoilAssembly.jacobian_at)
    tracer = Tracer().install()
    assert protocol.derive_oscillator is not originals[2]
    tracer.uninstall()
    assert (protocol.optimize_tmin, core.derive_oscillator,
            protocol.derive_oscillator, coils.complete_elliptic_KE,
            coils.CoilAssembly.jacobian_at) == originals


def test_every_layer_metric_is_reported():
    values = per_layer({})
    assert list(values) == [name for name, _unit in METRICS]
