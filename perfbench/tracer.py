"""Per-layer spans and counters for the traced benchmark run.

Spans are taken from the benchmark's side of each module boundary. While a
:class:`Tracer` is installed, every traced public function is replaced, in
each ``infobounds`` namespace that holds it, by a wrapper that times and
counts its calls; the originals come back when the ``with`` block ends.
Spans are inclusive: a span nested in another also counts in the outer one.

Model, adapter and state counters come from wrappers built only through the
public constructors ``ConditionalModel`` and ``StateFamily``, so a traced run
computes exactly what an untraced run computes.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

import infobounds as ib
import infobounds.cli  # noqa: F401  (its functions are traced too)

#: Public functions timed as spans: (module, function) -> span name.
_SPANS = {
    ("infobounds.models", "uniform_prior"): "models.prior_build",
    ("infobounds.models", "gaussian_prior"): "models.prior_build",
    ("infobounds.models", "gamma_prior"): "models.prior_build",
    ("infobounds.grids", "quadrature"): "grids.quadrature",
    ("infobounds.grids", "quadrature_rows"): "grids.quadrature",
    ("infobounds.information", "pmi"): "information.pmi",
    ("infobounds.information", "mutual_information"): "information.mutual_information",
    ("infobounds.information", "fisher_information"): "information.fisher_information",
    ("infobounds.bounds", "average_pointwise_bound"): "bounds.average_pointwise_bound",
    ("infobounds.bounds", "mi_bound_average"): "bounds.mi_bound_average",
    ("infobounds.bounds", "mi_chain_values"): "bounds.mi_chain_values",
    ("infobounds.bounds", "bound_sweep"): "bounds.bound_sweep",
    ("infobounds.scenarios", "demon_work_check"): "scenarios.demon_check",
    ("infobounds.cli", "RunContext"): "cli.context",
    ("infobounds.cli", "render_verify_csv"): "cli.render",
    ("infobounds.cli", "render_verify_json"): "cli.render",
    ("infobounds.cli", "render_chain_csv"): "cli.render",
    ("infobounds.cli", "render_chain_json"): "cli.render",
}

#: Scenario model constructors, replaced by counting versions of themselves.
_MODEL_CONSTRUCTORS = ("langevin_model", "discrete_exponential_model", "qubit_measurement_model")


def span(tracer: "Tracer | None", name: str):
    """Time a block as span ``name``; a no-op when ``tracer`` is None."""
    return nullcontext() if tracer is None else tracer.span(name)


def installed(tracer: "Tracer | None"):
    """Install ``tracer`` for a block; a no-op when it is None."""
    return nullcontext() if tracer is None else tracer.installed()


class Tracer:
    """Accumulates ``<span>_s`` seconds, ``<span>_calls`` and other counts."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def values(self) -> dict:
        return {**self.counts, **self.seconds}

    def merge(self, values: dict) -> None:
        """Add another tracer's :meth:`values`, e.g. from a child process."""
        for name, value in values.items():
            target = self.seconds if name.endswith("_s") else self.counts
            target[name] += value

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name + "_s"] += time.perf_counter() - start
            self.counts[name + "_calls"] += 1

    def _wrap(self, names: tuple, fn, on_result=None):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                for name in names:
                    self.seconds[name + "_s"] += elapsed
                    self.counts[name + "_calls"] += 1
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def _count(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _add(self, name: str, amount) -> None:
        self.counts[name] += int(amount)

    # -- models and the quantum adapter ------------------------------------

    def model(self, base: ib.ConditionalModel, quantum: bool = False) -> ib.ConditionalModel:
        """The same model, counting its log-density and score evaluations."""
        extra = ("quantum.adapter",) if quantum else ()
        log_pdf = self._wrap(
            ("models.log_pdf",) + extra,
            base.log_pdf,
            lambda out: self._add("models.log_pdf_cells", np.size(out)),
        )
        score = self._wrap(
            ("models.score",) + extra,
            base.score,
            lambda out: self._add("models.score_cells", np.size(out)),
        )
        return ib.ConditionalModel(log_pdf, base.outcome_space, score=score)

    def _qubit_measurement_model(self, povm=None, outcomes=None):
        # Same steps as scenarios.qubit_measurement_model, with the state
        # family's evaluations counted: one per parameter value the adapter
        # decomposes.
        family, povm = ib.qubit_phase_scenario(povm)
        if outcomes is None and len(povm) == 2:
            outcomes = ("+", "-")
        counted = ib.StateFamily(self._count("quantum.state_evals", family.rho), family.drho)
        model, sensitivity = ib.quantum_conditional_model(counted, povm, outcomes=outcomes)
        return self.model(model, quantum=True), self._wrap(("quantum.adapter",), sensitivity)

    def _constructor(self, name: str, original):
        if name == "qubit_measurement_model":
            build = self._qubit_measurement_model
        else:
            def build(*args, **kwargs):
                return self.model(original(*args, **kwargs))
        return self._wrap(("scenarios.model_build",), build)

    # -- installation -------------------------------------------------------

    def _plan(self) -> dict:
        """id(original) -> replacement for every traced function."""
        plan = {}
        for (module, attr), name in _SPANS.items():
            original = getattr(sys.modules[module], attr)
            on_result = None
            if attr == "bound_sweep":
                on_result = self._sweep_counts
            elif name == "cli.render":
                on_result = lambda text: self._add("cli.report_bytes", len(text.encode()))
            plan[id(original)] = self._wrap((name,), original, on_result)
        for attr in _MODEL_CONSTRUCTORS:
            original = getattr(ib.scenarios, attr)
            plan[id(original)] = self._constructor(attr, original)
        return plan

    def _sweep_counts(self, out) -> None:
        reports, skipped = out
        self._add("bounds.sweep_points", len(reports) + len(skipped))
        self._add("bounds.skipped_points", len(skipped))

    @contextmanager
    def installed(self):
        """Swap the traced functions in every loaded ``infobounds`` module."""
        plan = self._plan()
        modules = [m for n, m in sys.modules.items() if n == "infobounds" or n.startswith("infobounds.")]
        saved = []
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    replacement = plan.get(id(value))
                    if replacement is not None:
                        saved.append((module, attr, value))
                        setattr(module, attr, replacement)
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)
