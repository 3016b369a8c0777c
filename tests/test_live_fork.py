"""Live queries fork each FGP estimator from frozen parts.

``LiveEngine.estimate`` forks every FGP estimator from a template (the
live estimator itself on the serial backend, a driver-side one on the
process backend) instead of rebuilding it from its spec.  The fork
must be the rebuilt estimator in every respect a caller sees: each case
below compares the engine's answers with the rebuild path —
``spec.build`` on the frozen prefix, ``load_state_dict`` of the
gathered state, then the remaining passes — ``EstimateResult`` for
``EstimateResult``, every field and every ``details`` key, on nonzero
estimates.  A fork must also never write to its template.
"""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from repro import generators
from repro.engine import EstimatorSpec, LiveEngine
from repro.engine.core import _drive_local
from repro.engine.estimators import RoundAdaptiveEstimator, copy_specs, fgp_estimator
from repro.faults import FaultPlan
from repro.patterns import pattern as zoo
from repro.streams.generators import turnstile_churn_stream
from repro.streams.stream import insertion_stream

#: Counter kind -> (pattern, extra factory options).
KINDS = {
    "insertion": (zoo.triangle, {}),
    "turnstile": (zoo.triangle, {"sampler_repetitions": 2}),
    "two-pass": (lambda: zoo.path(3), {}),
}

GRAPH = generators.gnp(30, 0.35, rng=7)


def columns(kind):
    """The feed of counter *kind*: churned turnstile or plain insertions."""
    if kind == "turnstile":
        stream = turnstile_churn_stream(GRAPH, 40, rng=11)
    else:
        stream = insertion_stream(GRAPH, rng=11)
    return stream.columns()


def specs(kind, copies=3, seed=40):
    pattern, options = KINDS[kind]
    return copy_specs(
        fgp_estimator, dict(kind=kind, pattern=pattern(), trials=200, **options), copies, seed
    )


def engine_for(kind, backend="serial", copies=3, **options):
    engine = LiveEngine(
        n=GRAPH.n, allow_deletions=kind == "turnstile", batch_size=64, backend=backend,
        **options,
    )
    engine.register_all(specs(kind, copies))
    return engine


def feed(engine, cols, start, stop, chunk):
    u, v, delta = cols
    for first in range(start, stop, chunk):
        last = min(first + chunk, stop)
        engine.feed((u[first:last], v[first:last], delta[first:last]))


def rebuilt_estimates(engine):
    """The rebuild path: every estimator built from its spec, then loaded."""
    states = engine._gather_states()
    stream = engine.journal.freeze_stream()
    results = {}
    for name, state in states.items():
        estimator = engine._spec_names[name].build(stream)
        estimator.load_state_dict(state)
        if estimator.wants_pass():
            estimator.end_pass()
        _drive_local([stream], [[estimator]], engine._batch_size, 0)
        results[name] = estimator.result()
    return results


def assert_same(results, expected):
    assert set(results) == set(expected)
    for name, result in results.items():
        assert result.details.keys() == expected[name].details.keys()
        assert dataclasses.asdict(result) == dataclasses.asdict(expected[name])
    assert any(result.estimate > 0 for result in results.values())


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("chunk", [37, 500])
def test_forks_equal_rebuilt_estimators(kind, backend, chunk):
    cols = columns(kind)
    half, total = len(cols[0]) // 2, len(cols[0])
    with engine_for(kind, backend, workers=2) as engine:
        feed(engine, cols, 0, half, chunk)
        assert_same(engine.estimate(), rebuilt_estimates(engine))
        feed(engine, cols, half, total, chunk)
        assert_same(engine.estimate(), rebuilt_estimates(engine))
        rebuilt = rebuilt_estimates(engine)["copy-1"]
        assert_same(engine.estimate(["copy-1"]), {"copy-1": rebuilt})


@pytest.mark.parametrize("kind", list(KINDS))
def test_estimate_feed_estimate_equals_fresh_engines(kind):
    cols = columns(kind)
    half, total = len(cols[0]) // 2, len(cols[0])
    with engine_for(kind) as engine:
        feed(engine, cols, 0, half, 50)
        middle = engine.estimate()
        feed(engine, cols, half, total, 50)
        final = engine.estimate()
    for stop, results in ((half, middle), (total, final)):
        with engine_for(kind) as fresh:
            feed(fresh, cols, 0, stop, stop)
            assert_same(results, fresh.estimate())


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_restored_engine_forks_equal_rebuilt_estimators(tmp_path, backend):
    cols = columns("turnstile")
    half, total = len(cols[0]) // 2, len(cols[0])
    path = str(tmp_path / "live.ckpt")
    with engine_for("turnstile") as engine:
        feed(engine, cols, 0, half, 64)
        engine.snapshot(path)
        feed(engine, cols, half, total, 64)
        expected = engine.estimate()
    with LiveEngine.restore(path, backend=backend, workers=2) as restored:
        assert_same(restored.estimate(), rebuilt_estimates(restored))
        feed(restored, cols, half, total, 64)
        assert_same(restored.estimate(), rebuilt_estimates(restored))
        assert_same(restored.estimate(), expected)


def test_degraded_process_engine_forks_survivors():
    cols = columns("insertion")
    plan = FaultPlan(seed=90).kill_worker(2, nth_batch=3)
    with engine_for(
        "insertion", "process", copies=4, workers=4, respawn_budget=0, fault_plan=plan
    ) as engine:
        feed(engine, cols, 0, len(cols[0]), 64)
        results = engine.estimate()
        assert engine.degraded and engine.lost_estimators == ["copy-2"]
        assert set(results) == {"copy-0", "copy-1", "copy-3"}
        assert_same(results, rebuilt_estimates(engine))


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_queries_fork_instead_of_rebuilding(monkeypatch, backend):
    """After the templates exist, a query builds nothing from a spec."""
    builds = []
    original = EstimatorSpec.build

    def counting_build(spec, stream):
        builds.append(spec.name)
        return original(spec, stream)

    monkeypatch.setattr(EstimatorSpec, "build", counting_build)
    cols = columns("insertion")
    with engine_for("insertion", backend, workers=2) as engine:
        feed(engine, cols, 0, 200, 64)
        builds.clear()
        engine.estimate()
        # The process backend builds one driver-side template per spec, once.
        assert builds == ([] if backend == "serial" else ["copy-0", "copy-1", "copy-2"])
        builds.clear()
        feed(engine, cols, 200, 400, 64)
        engine.estimate()
        assert builds == []


def _arrays(obj):
    """The numpy arrays among *obj*'s attributes (slots or dict)."""
    names = list(getattr(obj, "__slots__", ())) + list(getattr(obj, "__dict__", {}))
    return [
        (name, value)
        for name in names
        for value in [getattr(obj, name, None)]
        if isinstance(value, np.ndarray)
    ]


def template_digest(template):
    """A hash of a template's tape, bank state, pass-state arrays and capture."""
    digest = hashlib.sha256()
    bank, state = template._lockstep, template._state
    parts = [bank, state, state._counters]
    parts += [getattr(state, name) for name in ("_edge_bank", "_neighbor_bank")
              if hasattr(state, name)]
    for part in parts:
        for name, array in _arrays(part):
            digest.update(name.encode())
            digest.update(array.tobytes())
    digest.update(pickle.dumps((bank._round, bank.outputs, template.state_dict())))
    return digest.hexdigest()


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("kind", ["insertion", "turnstile"])
def test_forks_never_write_their_template(kind, backend):
    cols = columns(kind)
    with engine_for(kind, backend, workers=2) as engine:
        feed(engine, cols, 0, len(cols[0]), 64)
        first = engine.estimate()
        templates = engine._templates(engine._specs)
        assert all(isinstance(t, RoundAdaptiveEstimator) for t in templates.values())
        before = {name: template_digest(t) for name, t in templates.items()}
        assert all(t._lockstep._tape.size for t in templates.values())
        for _ in range(5):
            assert_same(engine.estimate(), first)
        assert {name: template_digest(t) for name, t in templates.items()} == before
