"""Span tracing around the package's public functions, from outside it.

``Tracer.installed()`` rebinds each traced function in every loaded
``elaa_doa`` module that holds it.  ``from .x import f`` makes a second
binding, so ``pseudospectrum`` is rebound in both ``ss_music`` and
``nf_localizer``, and ``estimate_doa_music`` in ``harness`` as well.
Nelder-Mead is traced by rebinding ``scipy.optimize.minimize``, which
``nf_localizer`` calls through the module.  The originals come back on
exit.  Spans stay in memory until the run writes them out.

A span is ``[name, op, parent, start_ns, end_ns, raised, value, trial]``:
the operation index the benchmark set, the index of the enclosing span
(-1 for none), the exception class name if the call raised, a value the
span's hook extracted (a seed, a grid size, an evaluation count, a route)
and the trial id.  Each operation starts a trial, and so does every
further snapshot the harness draws inside one operation.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

import scipy.optimize

from checks import check_angles, check_positions
from elaa_doa import harness, nf_localizer, signal_model, ss_esprit, ss_music, subspace

TRACED = {
    "signal_model.snapshot": signal_model.snapshot,
    "subspace.split_subspaces": subspace.split_subspaces,
    "subspace.stacked_subspace": subspace.stacked_subspace,
    "ss_music.estimate": ss_music.estimate_doa_music,
    "ss_music.steering_build": ss_music.hankel_steering_matrix,
    "ss_music.pseudospectrum": ss_music.pseudospectrum,
    "ss_music.peak_pick": ss_music.peak_pick,
    "ss_esprit.estimate": ss_esprit.estimate_doa_esprit,
    "ss_esprit.pair_eigenvalues": ss_esprit.pair_eigenvalues,
    "ss_esprit.dealias": ss_esprit.dealias,
    "nf_localizer.localize": nf_localizer.localize,
    "nf_localizer.local_doas": nf_localizer.local_doas,
    "nf_localizer.associate": nf_localizer.associate,
    "harness.run_monte_carlo": harness.run_monte_carlo,
}
NELDER_MEAD = "nf_localizer.nm"
_MINIMIZE = scipy.optimize.minimize
_MATCH_ERRORS = harness.match_errors


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _localize_outcome(result, args, kwargs):
    """(route, status) of a localize call; ``deflation`` when no entry is a pair."""
    check_positions(result, _arg(args, kwargs, 2, "num_sources"))
    errors = [t.error or "Unpaired" for t in result.targets if t.position is None]
    deflation = all(t.pair is None and t.error is None for t in result.targets)
    return ("deflation" if deflation else "pair", errors[0] if errors else "ok")


HOOKS = {
    "signal_model.snapshot": lambda r, a, kw: _arg(a, kw, 3, "seed"),
    "ss_music.pseudospectrum": lambda r, a, kw: len(_arg(a, kw, 1, "grid")),
    "ss_music.estimate": lambda r, a, kw: check_angles(
        r, _arg(a, kw, 2, "num_sources"), "ss_music"
    ).size,
    "ss_esprit.estimate": lambda r, a, kw: check_angles(
        r[0], _arg(a, kw, 2, "num_sources"), "ss_esprit"
    ).size,
    "nf_localizer.localize": _localize_outcome,
    NELDER_MEAD: lambda r, a, kw: int(r.nfev),
}


def _package_bindings(fn) -> list[tuple[object, str]]:
    return [
        (module, attr)
        for name, module in list(sys.modules.items())
        if name == "elaa_doa" or name.startswith("elaa_doa.")
        for attr, value in list(vars(module).items())
        if value is fn
    ]


class Tracer:
    """In-memory span recorder for the traced rounds of a run."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[str] = []
        self.match_error_calls = 0
        self.trials = 0
        self._op_snapshots = 0
        self._stack: list[int] = []

    def begin_op(self, label: str) -> None:
        self.ops.append(label)
        self.trials += 1
        self._op_snapshots = 0

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = HOOKS.get(name)
        starts_trial = name == "signal_model.snapshot"

        def traced(*args, **kwargs):
            if starts_trial:
                self._op_snapshots += 1
                self.trials += self._op_snapshots > 1
            span = [name, len(self.ops) - 1, stack[-1] if stack else -1, 0, 0, None, None,
                    self.trials - 1]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                span[6] = hook(result, args, kwargs)
            return result

        return traced

    def _count_match_errors(self, *args, **kwargs):
        self.match_error_calls += 1
        return _MATCH_ERRORS(*args, **kwargs)

    @contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        patches = [
            (module, attr, fn, self._wrap(name, fn))
            for name, fn in TRACED.items()
            for module, attr in _package_bindings(fn)
        ]
        patches += [
            (module, attr, _MATCH_ERRORS, self._count_match_errors)
            for module, attr in _package_bindings(_MATCH_ERRORS)
        ]
        patches.append((scipy.optimize, "minimize", _MINIMIZE, self._wrap(NELDER_MEAD, _MINIMIZE)))
        try:
            for module, attr, _, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original, _ in patches:
                setattr(module, attr, original)

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[2] >= 0:
                child[s[2]] += s[4] - s[3]
        return [s[4] - s[3] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, trials: int, op_ns: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures over the traced operations.

        ``trials`` and ``op_ns`` are the trials and the benchmark-timed
        nanoseconds of those operations.  Times are self times per call,
        except ``nf_localizer.localize.ms``, the whole localize call.
        """
        self_ns, total_ns, calls, raised, values = Counter(), Counter(), Counter(), Counter(), Counter()
        for s, own in zip(self.spans, self.self_times()):
            name = s[0]
            self_ns[name] += own
            total_ns[name] += s[4] - s[3]
            calls[name] += 1
            if s[5]:
                raised[name, s[5]] += 1
            if name in ("ss_music.pseudospectrum", NELDER_MEAD):
                values[name] += s[6] or 0
            elif name == "nf_localizer.localize" and s[6] and s[6][0] == "deflation":
                values[name] += 1

        def per_call(count, name):
            return count / calls[name] if calls[name] else 0.0

        def ms(name):
            return per_call(self_ns[name], name) / 1e6

        svd_calls = calls["subspace.split_subspaces"]
        svd_ns = self_ns["subspace.split_subspaces"] + self_ns["subspace.stacked_subspace"]
        localize = "nf_localizer.localize"
        return {
            "signal_model.snapshot.ms": (ms("signal_model.snapshot"), "ms"),
            "subspace.svd.ms": (svd_ns / svd_calls / 1e6 if svd_calls else 0.0, "ms"),
            "subspace.svd.calls_per_trial": (svd_calls / trials, "calls/trial"),
            "ss_music.estimate.ms": (ms("ss_music.estimate"), "ms"),
            "ss_music.pseudospectrum.ms": (ms("ss_music.pseudospectrum"), "ms"),
            "ss_music.pseudospectrum.grid_points": (
                per_call(values["ss_music.pseudospectrum"], "ss_music.pseudospectrum"),
                "points",
            ),
            "ss_music.pseudospectrum.share": (self_ns["ss_music.pseudospectrum"] / op_ns, "fraction"),
            "ss_music.peak_pick.ms": (ms("ss_music.peak_pick"), "ms"),
            "ss_music.peak_pick.share": (self_ns["ss_music.peak_pick"] / op_ns, "fraction"),
            "ss_music.steering_build.ms": (ms("ss_music.steering_build"), "ms"),
            "ss_music.steering_builds_per_trial": (calls["ss_music.steering_build"] / trials, "calls/trial"),
            "ss_music.under_resolved_rate": (
                per_call(raised["ss_music.peak_pick", "UnderResolved"], "ss_music.peak_pick"),
                "fraction",
            ),
            "ss_esprit.estimate.ms": (ms("ss_esprit.estimate"), "ms"),
            "ss_esprit.pair_eigenvalues.ms": (ms("ss_esprit.pair_eigenvalues"), "ms"),
            "ss_esprit.dealias.ms": (ms("ss_esprit.dealias"), "ms"),
            "ss_esprit.ambiguous_rate": (
                per_call(raised["ss_esprit.estimate", "AmbiguousDealias"], "ss_esprit.estimate"),
                "fraction",
            ),
            "ss_esprit.ill_conditioned_rate": (
                per_call(raised["ss_esprit.estimate", "IllConditioned"], "ss_esprit.estimate"),
                "fraction",
            ),
            "nf_localizer.localize.ms": (per_call(total_ns[localize], localize) / 1e6, "ms"),
            "nf_localizer.local_doas.ms": (ms("nf_localizer.local_doas"), "ms"),
            "nf_localizer.associate.ms": (ms("nf_localizer.associate"), "ms"),
            "nf_localizer.search.ms": (ms(localize), "ms"),
            "nf_localizer.nm.ms": (ms(NELDER_MEAD), "ms"),
            "nf_localizer.nm.share": (self_ns[NELDER_MEAD] / op_ns, "fraction"),
            "nf_localizer.nm.calls_per_trial": (calls[NELDER_MEAD] / trials, "calls/trial"),
            "nf_localizer.nm.nfev_per_trial": (values[NELDER_MEAD] / trials, "evals/trial"),
            "nf_localizer.deflation_route_share": (per_call(values[localize], localize), "fraction"),
            "harness.self.ms_per_trial": (self_ns["harness.run_monte_carlo"] / trials / 1e6, "ms"),
            "harness.match_errors.calls": (self.match_error_calls / trials, "calls/trial"),
            "trace.trial_ms": (op_ns / trials / 1e6, "ms"),
        }

    def write(self, prefix: str, op_ns: dict[int, int]) -> None:
        """Write ``<prefix>-spans.csv`` and one ``<prefix>-ops.jsonl`` line per op.

        An op line holds the trial seeds, the estimator outcomes, the
        localize routes, Nelder-Mead calls and evaluations, and the self
        time of each span name, next to the benchmark-timed op time.
        """
        per_op = [
            {"op": i, "label": label, "seeds": [], "status": [], "route": [],
             "nm_calls": 0, "nm_nfev": 0, "self_ms": Counter(), "op_ms": op_ns.get(i, 0) / 1e6}
            for i, label in enumerate(self.ops)
        ]
        with open(f"{prefix}-spans.csv", "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "op", "parent", "start_ns", "end_ns", "raised", "value", "trial"])
            for s, own in zip(self.spans, self.self_times()):
                out.writerow(s)
                rec = per_op[s[1]]
                rec["self_ms"][s[0]] += own / 1e6
                if s[0] == "signal_model.snapshot":
                    rec["seeds"].append(s[6])
                elif s[0] == NELDER_MEAD:
                    rec["nm_calls"] += 1
                    rec["nm_nfev"] += s[6] or 0
                elif s[0] == "nf_localizer.localize" and s[6]:
                    rec["route"].append(s[6][0])
                    rec["status"].append(s[6][1])
                if s[0] in ("ss_music.estimate", "ss_esprit.estimate", "nf_localizer.localize") and s[5]:
                    rec["status"].append(s[5])
                elif s[0] in ("ss_music.estimate", "ss_esprit.estimate"):
                    rec["status"].append("ok")
        with open(f"{prefix}-ops.jsonl", "w") as fh:
            for rec in per_op:
                fh.write(json.dumps(rec) + "\n")
