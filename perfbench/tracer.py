"""Spans around calls into fairdiv's public functions, recorded from outside.

The benchmark never edits the library. It swaps module attributes in the
namespace that calls them (``fairdiv.harness.mms_exact``), patches the two
methods whose instances are built inside the library
(``Allocation.bundle_disutility``, ``RunTrace.to_jsonl``), and wraps methods
on policy, adversary and grid-game instances it can reach. Instances are
wrapped in place rather than proxied, because ``play_game`` dispatches on
``isinstance``.

Spans stay in memory as ``(name, start, end, parent, unit)`` tuples and are
written out once the run ends.
"""

from __future__ import annotations

import functools
from time import perf_counter

MODULES = ("core", "mms", "allocator", "stacking", "adversary", "harness", "cli")

# Every wrapped entry point, named <module>.<public name>.
SPAN_NAMES = (
    "core.load_instance",
    "core.Allocation.bundle_disutility",
    "mms.mms_exact",
    "mms.witness_max_bundle",
    "allocator.run_online",
    "allocator.Policy.choose",
    "allocator.Policy.pressure_snapshot",
    "allocator.validate_pressure_trace",
    "allocator.RunTrace.to_jsonl",
    "stacking.allocator_to_stacking",
    "stacking.check_bound",
    "stacking.GridGame.apply_cells",
    "stacking.GridGame.bound_ok",
    "stacking.GridGame.integral_is_zero",
    "adversary.next_item",
    "adversary.observe",
    "adversary.certificate",
    "adversary.certify_ratio",
    "adversary.check_O1_O2",
    "adversary.verify_certificate",
    "harness.run_experiment",
    "harness.generate_instance",
    "cli.main",
)

# Useful-work counters, counted at the same boundaries as the spans.
COUNTER_NAMES = (
    "mms.mms_exact.refused",
    "allocator.RunTrace.to_jsonl.bytes",
    "stacking.allocator_to_stacking.steps",
    "adversary.games.certified",
    "adversary.games.exhausted",
    "cli.exit_code.0",
    "cli.exit_code.1",
    "cli.exit_code.2",
)

# (module attribute path, attribute, span name): functions swapped in the
# namespace that calls them.
_FUNCTION_PATCHES = (
    ("cli", "load_instance", "core.load_instance"),
    ("harness", "mms_exact", "mms.mms_exact"),
    ("adversary", "mms_exact", "mms.mms_exact"),
    ("adversary", "witness_max_bundle", "mms.witness_max_bundle"),
    ("cli", "run_online", "allocator.run_online"),
    ("harness", "run_online", "allocator.run_online"),
    ("harness", "validate_pressure_trace", "allocator.validate_pressure_trace"),
    ("harness", "allocator_to_stacking", "stacking.allocator_to_stacking"),
    ("harness", "check_bound", "stacking.check_bound"),
    ("harness", "certify_ratio", "adversary.certify_ratio"),
    ("adversary", "certify_ratio", "adversary.certify_ratio"),
    ("cli", "check_O1_O2", "adversary.check_O1_O2"),
    ("cli", "verify_certificate", "adversary.verify_certificate"),
    ("cli", "run_experiment", "harness.run_experiment"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "generate_instance", "harness.generate_instance"),
    ("cli", "main", "cli.main"),
)

# Methods patched on the class, because the library builds these instances
# itself and the benchmark never holds them before they are used.
_METHOD_PATCHES = (
    ("core", "Allocation", "bundle_disutility", "core.Allocation.bundle_disutility"),
    ("allocator", "RunTrace", "to_jsonl", "allocator.RunTrace.to_jsonl"),
)


class Tracer:
    """Collects spans and counters while installed on a fairdiv import."""

    def __init__(self, fd):
        self.fd = fd
        self.spans: list = []
        self._stack: list[int] = []
        self.unit = -1
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._mms_calls = 0
        self._mms_keys: set[int] = set()
        self._saved: list = []
        self.wall = 0.0
        self._installed_at: float | None = None

    # spans -------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording one span per call; ``after(args, result)`` counts."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.unit)
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    # install / remove --------------------------------------------------

    def install(self) -> None:
        fd = self.fd
        for mod, attr, name in _FUNCTION_PATCHES:
            module = getattr(fd, mod)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap_function(name, original))
        for mod, cls_name, attr, name in _METHOD_PATCHES:
            cls = getattr(getattr(fd, mod), cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap_function(name, original))
        for attr, factory in (
            ("make_policy", self.wrap_policy),
            ("TwoAgentAdversary", self.wrap_adversary),
            ("make_recursive_adversary", self.wrap_adversary),
        ):
            original = getattr(fd.cli, attr)
            self._saved.append((fd.cli, attr, original))
            setattr(fd.cli, attr, _constructing(original, factory))
        self._installed_at = perf_counter()

    def remove(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()
        if self._installed_at is not None:
            self.wall += perf_counter() - self._installed_at
            self._installed_at = None

    def _wrap_function(self, name: str, fn):
        if name == "mms.mms_exact":
            return self._wrap_mms_exact(fn)
        if name == "allocator.RunTrace.to_jsonl":
            return self.wrap(name, fn, lambda a, r: self.count(name + ".bytes", len(r)))
        if name == "stacking.allocator_to_stacking":
            return self.wrap(name, fn, lambda a, r: self.count(name + ".steps", len(r.steps)))
        if name == "cli.main":
            return self.wrap(name, fn, lambda a, r: self.count(f"cli.exit_code.{r}"))
        return self.wrap(name, fn)

    def _wrap_mms_exact(self, fn):
        refused_type = self.fd.mms.InstanceTooLarge
        traced = self.wrap("mms.mms_exact", fn)

        @functools.wraps(fn)
        def counted(values, n):
            self._mms_calls += 1
            self._mms_keys.add(hash((n, tuple(values))))
            try:
                return traced(values, n)
            except refused_type:
                self.count("mms.mms_exact.refused")
                raise

        return counted

    # instance wrapping ---------------------------------------------------

    def wrap_policy(self, policy):
        policy.choose = self.wrap("allocator.Policy.choose", policy.choose)
        policy.pressure_snapshot = self.wrap(
            "allocator.Policy.pressure_snapshot", policy.pressure_snapshot
        )
        return policy

    def wrap_adversary(self, adversary):
        for attr in ("next_item", "observe", "certificate"):
            setattr(adversary, attr, self.wrap(f"adversary.{attr}", getattr(adversary, attr)))
        return adversary

    def wrap_grid_game(self, game):
        for attr in ("apply_cells", "bound_ok", "integral_is_zero"):
            setattr(game, attr, self.wrap(f"stacking.GridGame.{attr}", getattr(game, attr)))
        return game

    # results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls and self time, module shares and counters."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[idx]
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.s"] = (self_s[name], "s")
        for module in MODULES:
            busy = sum(s for name, s in self_s.items() if name.startswith(module + "."))
            out[f"{module}.share"] = (busy / self.wall if self.wall else 0.0, "share")
        for name, value in self.counters.items():
            out[name] = (value, "bytes" if name.endswith(".bytes") else "count")
        ratio = len(self._mms_keys) / self._mms_calls if self._mms_calls else 0.0
        out["mms.mms_exact.useful_ratio"] = (ratio, "share")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tunit\n")
            for name, t0, t1, parent, unit in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{unit}\n")


def _constructing(original, wrap_instance):
    """A stand-in for a class or factory that wraps each instance it returns."""

    def build(*args, **kwargs):
        return wrap_instance(original(*args, **kwargs))

    return build
