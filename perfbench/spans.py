"""Spans recorded from outside hopfphase, and the per-layer figures they give.

The tracer replaces the public hopfphase functions that the cli module calls
(plus phase_model.moments and cluster.g_factored, which are called from
inside other modules) with wrappers that record one span per call: name,
start, end, parent span and solve id. Spans stay in memory until the run
ends. A span's self time is its duration minus the durations of its direct
children; calls are strictly nested in this single-threaded process.
"""
from __future__ import annotations

import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("config", "reduction", "normal_form", "phase_model", "integrator",
          "cluster", "cli")


def _integrate_info(traj):
    steps = traj.times.size - 1
    return (steps, traj.n_osc, traj.states.itemsize)


# what a span keeps from its call's result, by function name
_INFO = {
    "full_rhs_array": lambda out: out.size,
    "phase_rhs_fast": lambda out: out.size,
    "integrate": _integrate_info,
    "trajectory_text": len,
    "find_roots_from_coefficients": lambda out: len(out.roots),
}


class Tracer:
    """Span recorder; install() patches hopfphase, uninstall() restores it."""

    def __init__(self):
        # each span is [name, start, end, parent index, solve id, info]
        self.spans = []
        self.solve = -1
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        info = _INFO.get(name.split(".", 1)[1])

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.solve, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(out)
            return out

        return traced

    def _patch(self, module, attr, layer):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self._wrap(f"{layer}.{attr}", original))

    def install(self, hopfphase):
        """Wrap the public functions the cli module calls, and two inner ones."""
        cli = hopfphase.cli
        for attr, obj in sorted(vars(cli).items()):
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__.startswith("hopfphase.")
                    and obj.__module__ != cli.__name__):
                self._patch(cli, attr, obj.__module__.rsplit(".", 1)[1])
        self._patch(hopfphase.phase_model, "moments", "phase_model")
        self._patch(hopfphase.cluster, "g_factored", "cluster")

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def call(self, name, fn, *args):
        """Run fn(*args) as a span of its own (the runner's call into cli)."""
        return self._wrap(name, fn)(*args)

    def write(self, path, header: dict):
        """Write every span, times in ns from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[s[0], round((s[1] - origin) * 1e9), round((s[2] - origin) * 1e9),
                 s[3], s[4], s[5]] for s in self.spans]
        doc = {**header,
               "columns": ["name", "start_ns", "end_ns", "parent", "solve", "info"],
               "spans": rows}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n",
                        encoding="utf-8")


def _solve_figures(spans, indices) -> dict:
    """Per-layer figures of one solve, from the spans it recorded."""
    child_time = defaultdict(float)
    child_count = defaultdict(int)
    for i in indices:
        parent = spans[i][3]
        if parent >= 0:
            child_time[parent] += spans[i][2] - spans[i][1]
            child_count[parent] += 1

    dur = defaultdict(float)        # inclusive time by span name
    self_time = defaultdict(float)  # self time by span name
    calls = defaultdict(int)
    info_sum = defaultdict(int)     # summed span info by span name
    layer_self = defaultdict(float)
    steps = rhs_evals = traj_bytes = 0
    for i in indices:
        name, start, end, _, _, info = spans[i]
        d = end - start
        own = d - child_time[i]
        dur[name] += d
        self_time[name] += own
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own
        if name == "integrator.integrate":
            n_steps, n_osc, itemsize = info
            steps += n_steps
            rhs_evals += child_count[i]
            traj_bytes += (n_steps + 1) * n_osc * itemsize
        elif info is not None:
            info_sum[name] += info

    def per(total, count, scale):
        return total / count * scale if count else 0.0

    nf_calls = calls["normal_form.full_rhs_array"]
    nf_self = self_time["normal_form.full_rhs_array"]
    pm_calls = calls["phase_model.phase_rhs_fast"]
    pm_self = self_time["phase_model.phase_rhs_fast"]
    moments_s = dur["phase_model.moments"]
    loop_self = self_time["integrator.integrate"]
    find_roots_s = dur["cluster.find_roots_from_coefficients"]
    g_evals = calls["cluster.g_factored"]
    roots = info_sum["cluster.find_roots_from_coefficients"]
    solve_s = dur["cli.main"]
    out = {
        "normal_form.rhs_calls": nf_calls,
        "normal_form.rhs_self_s": nf_self,
        "normal_form.rhs_us_per_call": per(nf_self, nf_calls, 1e6),
        "normal_form.rhs_ns_per_osc": per(
            nf_self, info_sum["normal_form.full_rhs_array"], 1e9),
        "phase_model.rhs_calls": pm_calls,
        "phase_model.rhs_self_s": pm_self,
        "phase_model.rhs_us_per_call": per(pm_self, pm_calls, 1e6),
        "phase_model.rhs_ns_per_osc": per(
            pm_self, info_sum["phase_model.phase_rhs_fast"], 1e9),
        "phase_model.moments_s": moments_s,
        "phase_model.moments_share": per(moments_s,
                                         dur["phase_model.phase_rhs_fast"], 1.0),
        "integrator.steps": steps,
        "integrator.rhs_evals": rhs_evals,
        "integrator.loop_self_s": loop_self,
        "integrator.loop_us_per_step": per(loop_self, steps, 1e6),
        "integrator.traj_bytes_computed": traj_bytes,
        "integrator.compare_s": dur["integrator.compare"],
        "integrator.text_s": dur["integrator.trajectory_text"],
        "integrator.text_bytes": info_sum["integrator.trajectory_text"],
        "cluster.points": (calls["cluster.ab_coefficients"]
                           + calls["cluster.alpha_roots_for_psi"]),
        "cluster.ab_s": dur["cluster.ab_coefficients"],
        "cluster.find_roots_s": find_roots_s,
        "cluster.find_roots_us_per_point": per(
            find_roots_s, calls["cluster.find_roots_from_coefficients"], 1e6),
        "cluster.alpha_roots_s": dur["cluster.alpha_roots_for_psi"],
        "cluster.g_evals": g_evals,
        "cluster.roots_found": roots,
        "cluster.g_evals_per_root": per(g_evals, roots, 1.0),
        "cli.self_s": self_time["cli.main"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = per(layer_self[layer], solve_s, 1.0)
    return out


def layer_figures(spans, kind_of_solve) -> dict:
    """Per-layer figures of every traced solve: name -> {kind: [values]}."""
    by_solve = defaultdict(list)
    for i, span in enumerate(spans):
        by_solve[span[4]].append(i)
    figures = defaultdict(lambda: defaultdict(list))
    for solve, indices in sorted(by_solve.items()):
        for name, value in _solve_figures(spans, indices).items():
            figures[name][kind_of_solve[solve]].append(value)
    return figures
