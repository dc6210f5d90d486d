"""Span tracing of juntaleap's modules from outside the package.

`Tracer.patched()` replaces public functions and methods with wrappers at
the places where callers look them up (a module attribute or a class
attribute), and restores them on exit. Each wrapper records one span: a
name, a start, an end and the index of the enclosing span. Spans are kept
in flat arrays so that a traced run of a million calls stays small; self
times are worked out at the end as a span's duration minus the durations
of its direct children (children nest inside their parent, one thread).
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, name, fn, after=None):
        """Wrap fn in a span named `name` (a string, or a function of the call
        arguments returning one); `after(result, *args)` adds counters."""
        tracer = self
        fixed = None if callable(name) else self._id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(fixed if fixed is not None else tracer._id(name(*args, **kwargs)))
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer._stack.append(idx)
            tracer.end.append(0.0)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name, after=None):
        """A replacement factory: wrap the original in a span."""
        return lambda original: self.wrap(name, original, after)

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace owner.attribute by factory(original) for each target."""
        saved = []
        try:
            for owner, attr, factory in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self):
        """{name: (calls, total self seconds)} over every recorded span."""
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=dur - child, minlength=len(self.names))
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


# span names, one per layer boundary that juntaleap_targets wraps
LAYERS = (
    "cli", "setsystem.build", "setsystem.exponents", "fourier.moment_tensor", "fourier.gram_schmidt", "detect",
    "junta.problem", "junta.expand_hypercube", "junta.joint_expectation", "junta.draw_batch", "losses.deriv",
    "oracle.learner", "oracle.answer", "oracle.exact", "oracle.null_norm", "oracle.adversary",
    "oracle.transcript_write", "dynamics.run_sgd", "dynamics.sgd_step", "dynamics.forward", "dynamics.run_df",
    "dynamics.df_step_s0", "dynamics.df_step_spos", "dynamics.df_risk", "dynamics.layerwise", "dynamics.kernel",
    "dynamics.smallest_eigenvalue", "dynamics.bayes_risk",
)


def juntaleap_targets(tracer):
    """The layer boundaries of juntaleap, named after its modules.

    A function imported by name into another module is wrapped there too,
    since that module's global is what its callers look up.
    """
    # `juntaleap.detect` the package attribute is the function; take the modules
    cli, detect, dynamics, fourier, junta, losses, oracle, setsystem = (
        importlib.import_module(f"juntaleap.{name}")
        for name in ("cli", "detect", "dynamics", "fourier", "junta", "losses", "oracle", "setsystem"))

    def detection(report, *args, **kwargs):
        tracer.count("detect.subsets", 2**report.p - 1)
        tracer.count("detect.sets_detected", len(report.system.sets))

    def moment_flops(g, problem, basis, u):
        rows, nb, m = problem.n_rows, basis.size - 1, g.ndim - 1
        build = rows * sum(nb**k for k in range(1, m + 1))
        tracer.count("fourier.moment_tensor.flops", build + rows * problem.ny + 2 * problem.ny * rows * nb**m)

    def sgd_flops(ens, _ens_arg, x, y, cfg):
        n, (m, d) = x.shape[0], ens.w.shape
        tracer.count("dynamics.sgd_step.flops", 4 * n * m * d + 2 * m * d)

    def transcript(_result, tr, fp):
        tracer.count("oracle.queries", len(tr.records))
        tracer.count("oracle.accepted", sum(bool(r.get("accepted")) for r in tr.records))

    def traced_losses(get_loss):
        def get_traced_loss(*args, **kwargs):
            spec = get_loss(*args, **kwargs)
            return dataclasses.replace(spec, deriv=tracer.wrap("losses.deriv", spec.deriv))

        return get_traced_loss

    def df_step_name(state, *args, **kwargs):
        return "dynamics.df_step_s0" if not np.any(state.s) else "dynamics.df_step_spos"

    span = tracer.span
    return [
        (cli, "main", span("cli")),
        (setsystem.SetSystem, "__post_init__", span("setsystem.build")),
        *((detect, f, span("setsystem.exponents")) for f in ("leap", "cover", "rel_leap", "rel_cover")),
        (fourier, "conditional_moment_tensor", span("fourier.moment_tensor", moment_flops)),
        (detect, "conditional_moment_tensor", span("fourier.moment_tensor", moment_flops)),
        (fourier, "gram_schmidt", span("fourier.gram_schmidt")),
        (detect, "gram_schmidt", span("fourier.gram_schmidt")),
        *((detect, f, span("detect", detection)) for f in ("detect_sq", "detect_csq", "detect_dlq")),
        (junta, "problem_from_dict", span("junta.problem")),
        (junta, "expand_hypercube", span("junta.expand_hypercube")),
        (junta.JuntaProblem, "joint_expectation", span("junta.joint_expectation")),
        (junta.Sampler, "draw_batch", span("junta.draw_batch")),
        (losses, "get_loss", traced_losses),
        (oracle, "play_game", span("oracle.learner")),
        (oracle.HonestOracle, "answer", span("oracle.answer")),
        (oracle.HonestOracle, "exact_expectation", span("oracle.exact")),
        (oracle.AdversarialOracle, "answer", span("oracle.adversary")),
        (oracle.Query, "l2_null_norm", span("oracle.null_norm")),
        (oracle.Transcript, "to_jsonl", span("oracle.transcript_write", transcript)),
        (dynamics, "run_sgd", span("dynamics.run_sgd")),
        (dynamics, "sgd_step", span("dynamics.sgd_step", sgd_flops)),
        (dynamics.ParticleEnsemble, "forward", span("dynamics.forward")),
        (dynamics, "run_df", span("dynamics.run_df")),
        (dynamics, "df_step", span(df_step_name)),
        (dynamics, "df_risk", span("dynamics.df_risk")),
        (dynamics, "layerwise_train", span("dynamics.layerwise")),
        (dynamics, "kernel", span("dynamics.kernel")),
        (dynamics, "smallest_eigenvalue", span("dynamics.smallest_eigenvalue")),
        (dynamics, "bayes_risk", span("dynamics.bayes_risk")),
    ]
