"""Outside-in call tracing for the benchmark's traced run.

The tracer wraps the public functions and methods of each coxwalk module
from here, so nothing under src/ changes.  Every wrapped call is counted
and timed: inclusive time (outermost call of each name only, so recursion
is not counted twice) and self time (its duration minus the time spent in
wrapped calls it made).  A span with a parent link is recorded where a
call crosses from one layer into another, except for the arithmetic layer,
whose millions of calls are only aggregated.  Everything stays in memory
until the run ends.
"""

import inspect
import resource
import sys
from collections import defaultdict
from enum import Enum
from time import perf_counter

from workloads import FROZEN_SIZES

LAYERS = ("cli", "verification", "antichain", "affine", "automaton", "element", "algebra", "diagram")

# Called once per matrix entry or per exported coordinate; wrapping them
# would multiply the tracing overhead without adding a metric.
SKIP = {"AlgReal.is_zero", "AlgReal.to_fractions"}

# Operators worth counting, by the name their calls are aggregated under.
DUNDERS = {
    "AlgReal": {
        "__add__": "add",
        "__radd__": "add",
        "__sub__": "sub",
        "__neg__": "neg",
        "__mul__": "mul",
        "__rmul__": "mul",
        "__truediv__": "div",
    },
    "GroupElement": {"__mul__": "product"},
    "ReducedWordAutomaton": {"__eq__": "eq"},
}

KERNEL_FUNCTIONS = {
    "poly_mul_mod": "kernel_polymul",
    "dot_mod": "kernel_dot",
    "eval_sign_at_dyadic": "sign_refinement",
}

CERTIFICATE_FUNCTIONS = {
    "good_pair_family",
    "case_vi_certificate",
    "not_locally_finite_antichain",
    "transfer_label_increase",
    "certify_antichain",
}


def peak_rss_mb():
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Counts, times and spans for one traced unit of work.

    `fixture_names` maps parsed diagrams to fixture names, so that each
    automaton build is also timed per fixture.
    """

    def __init__(self, fixture_names=None):
        self.fixture_names = dict(fixture_names or {})
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.values = defaultdict(float)
        self.spans = []
        self._stack = []
        self._active = defaultdict(int)
        self._patches = []
        self._hook_table = self._hooks()

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, layer, name):
        key = f"{layer}.{name}"
        stack = self._stack
        active = self._active
        calls = self.calls
        total = self.total
        self_time = self.self_time
        spans = self.spans
        hook = self._hook_table.get(key)
        record_span = layer != "algebra"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[2] if parent is not None else None
            outer = parent is None or parent[0] != layer
            span_id = None
            if record_span and outer:
                span_id = len(spans)
                spans.append(None)
            frame = [layer, 0.0, parent_span if span_id is None else span_id]
            stack.append(frame)
            active[key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[key] -= 1
                calls[key] += 1
                self_time[key] += dt - frame[1]
                if not active[key]:
                    total[key] += dt
                if parent is not None:
                    parent[1] += dt
                if span_id is not None:
                    spans[span_id] = (span_id, parent_span, key, t0, t0 + dt)
            if hook is not None:
                hook(result, args, dt, outer)
            return result

        wrapper.traced = True
        return wrapper

    def _replace_everywhere(self, orig, wrapped):
        """Point every coxwalk module attribute bound to `orig` at `wrapped`,
        so names imported with `from x import f` are traced too."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "coxwalk" or modname.startswith("coxwalk.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)
                    self._patches.append((mod, attr, orig))

    def _patch_class(self, cls, layer):
        dunders = DUNDERS.get(cls.__name__, {})
        for attr, raw in list(vars(cls).items()):
            if attr in dunders:
                name = dunders[attr]
            elif attr.startswith("_") or f"{cls.__name__}.{attr}" in SKIP:
                continue
            else:
                name = attr
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, layer, name))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, layer, name)
            else:
                continue  # properties, constants
            setattr(cls, attr, new)
            self._patches.append((cls, attr, raw))

    def install(self):
        """Wrap every layer's public surface; undo with uninstall()."""
        from coxwalk import _kernel, cli, verification

        for fn_name, name in KERNEL_FUNCTIONS.items():
            orig = getattr(_kernel, fn_name)
            self._replace_everywhere(orig, self._wrap(orig, "algebra", name))
        for layer in ("diagram", "algebra", "element", "automaton", "antichain", "affine"):
            mod = sys.modules[f"coxwalk.{layer}"]
            for public in mod.__all__:
                obj = getattr(mod, public)
                if inspect.isclass(obj):
                    if issubclass(obj, (BaseException, Enum)):
                        continue
                    self._patch_class(obj, layer)
                elif callable(obj) and not getattr(obj, "traced", False):
                    self._replace_everywhere(obj, self._wrap(obj, layer, public))
        self._patch_class(verification.VerificationContext, "verification")
        self._replace_everywhere(
            verification.run_checks, self._wrap(verification.run_checks, "verification", "run_checks")
        )
        checks = verification.CHECKS
        verification.CHECKS = [
            (crit, cid, desc, self._wrap(fn, "verification", cid)) for crit, cid, desc, fn in checks
        ]
        self._patches.append((verification, "CHECKS", checks))
        for attr, val in list(vars(cli).items()):
            if inspect.isfunction(val) and (attr == "main" or attr.startswith("cmd_")):
                self._replace_everywhere(val, self._wrap(val, "cli", attr))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- values taken from return values --------------------------------------

    def _hooks(self):
        values = self.values

        def build(auto, args, dt, outer):
            values["automaton.states"] += auto.num_states
            values["automaton.edges"] += auto.num_edges
            values["automaton.roots"] += len(auto.root_vectors)
            values["automaton.build_peak_rss_mb"] = max(values["automaton.build_peak_rss_mb"], peak_rss_mb())
            name = self.fixture_names.get(args[0]) if args else None
            if name is not None:
                values[f"automaton.build_s.{name}"] += dt

        def expressions(result, args, dt, outer):
            values["element.expressions_enumerated"] += len(result)

        def json_bytes(text, args, dt, outer):
            values["automaton.json_bytes"] += len(text)

        def certificate(cert, args, dt, outer):
            if outer:
                values["antichain.certificate_s"] += dt
                values["antichain.pairs_checked"] += len(cert.checks)

        hooks = {
            "automaton.build": build,
            "element.reduced_expressions": expressions,
            "automaton.to_json": json_bytes,
        }
        for name in CERTIFICATE_FUNCTIONS:
            hooks[f"antichain.{name}"] = certificate
        return hooks

    # -- reporting -------------------------------------------------------------

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(t for key, t in self.self_time.items() if key.startswith(prefix))


PAPER_CHECK_IDS = (
    "case_vi.exact_facts",
    "case_vi.family",
    "case_v.expression_counts",
    "case_v.junction_braids",
    "case_v.good_pair",
    "case_i.family",
    "case_ii.family",
    "case_iii.family",
    "case_iv.family",
    "classify.figure1",
    "classify.triangles",
    "classify.named",
    "oracle.i2inf",
    "oracle.affine_a2",
    "oracle.universal_rank3",
    "oracle.triangle_334",
    "oracle.case_vi",
    "automaton.state_counts",
    "embedding.affine_a2",
    "embedding.affine_c2",
    "embedding.a1",
    "growth.counts",
    "growth.same_length_incomparable",
    "coset.universal_rank3",
    "transfer.case_i",
)


def per_layer_metrics(tracer, overhead, over_budget):
    """The per-layer metrics of one traced pass, {name: {"value", "unit"}}
    in a fixed order; layers the pass never reached read 0."""
    calls, total, values = tracer.calls, tracer.total, tracer.values
    out = {}

    def put(name, value, unit):
        out[name] = {"value": int(value) if unit in ("count", "B") else value, "unit": unit}

    for name in ("mul", "add", "neg", "sign"):
        put(f"algebra.{name}_calls", calls[f"algebra.{name}"], "count")
    put("algebra.sign_refinements", calls["algebra.sign_refinement"], "count")
    put("algebra.kernel_dot_calls", calls["algebra.kernel_dot"], "count")
    put("algebra.kernel_polymul_calls", calls["algebra.kernel_polymul"], "count")

    for name in ("element_of", "shortlex_nf", "product", "right_mul_gen", "weak_leq", "reduced_expressions"):
        put(f"element.{name}_calls", calls[f"element.{name}"], "count")
    put("element.shortlex_nf_self_s", tracer.self_time["element.shortlex_nf"], "s")
    for name in ("element_of", "weak_leq", "ball"):
        put(f"element.{name}_s", total[f"element.{name}"], "s")
    put("element.expressions_enumerated", values["element.expressions_enumerated"], "count")

    build_s = total["automaton.build"]
    put("automaton.build_s", build_s, "s")
    for name in FROZEN_SIZES:
        put(f"automaton.build_s.{name}", values[f"automaton.build_s.{name}"], "s")
    for name in ("states", "edges", "roots"):
        put(f"automaton.{name}", values[f"automaton.{name}"], "count")
    put("automaton.states_per_s", values["automaton.states"] / build_s if build_s else 0.0, "1/s")
    put("automaton.build_peak_rss_mb", values["automaton.build_peak_rss_mb"], "MB")
    for name, key in (
        ("count", "count_reduced_words"),
        ("run", "run"),
        ("to_json", "to_json"),
        ("from_json", "from_json"),
        ("eq", "eq"),
    ):
        put(f"automaton.{name}_s", total[f"automaton.{key}"], "s")
    put("automaton.json_bytes", values["automaton.json_bytes"], "B")
    put("automaton.export_over_budget", over_budget, "count")

    put("antichain.certificate_s", values["antichain.certificate_s"], "s")
    put("antichain.check_good_pair_s", total["antichain.check_good_pair"], "s")
    put("antichain.pairs_checked", values["antichain.pairs_checked"], "count")
    put("diagram.classify_calls", calls["diagram.classify"], "count")
    put("diagram.classify_s", total["diagram.classify"], "s")
    put("affine.embedding_check_s", total["affine.embedding_check"], "s")
    for check_id in PAPER_CHECK_IDS:
        put(f"verification.{check_id}_s", total[f"verification.{check_id}"], "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", tracer.layer_self_s(layer), "s")
    put("trace.overhead", overhead, "x")
    return out
