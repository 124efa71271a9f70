"""Per-layer tracing from outside the program.

:class:`Tracer` replaces each traced public function of jameslab,
wherever the package binds it (module globals and the names pulled in by
``from ... import``), with a wrapper that records a span: name, start,
end and the span that was open when it started.  Self time is a span's
duration minus the time covered by its child spans.  :meth:`Tracer.remove`
puts every original object back.

:func:`count_constructions` is the separate counting pass for the
``scalars`` layer; it runs under cProfile, so its times are discarded.
"""

from __future__ import annotations

import cProfile
import functools
import json
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

from jameslab import basis_tools
from jameslab.hierarchy import ExceedsBudget
from jameslab.metastability import BudgetExceeded
from jameslab.scalars import Root2Scalar

# layer -> (defining module, attribute) of each function whose calls it owns
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "james_core.norm_dp": (("james_core", "james_norm_sq"),),
    "james_core.norm_dp_float": (("james_core", "james_norm_sq_float"),),
    "james_core.chain_check": (
        ("james_core", "chain_stability_check"),
        ("james_core", "coordinate_chain_check"),
    ),
    "james_core.witness": (("james_core", "violation_to_witness"),),
    "basis_tools.basis_init": (("basis_tools", "Basis.__init__"),),
    "basis_tools.moduli": (
        ("basis_tools", "modulus_vector"),
        ("basis_tools", "modulus_functional"),
    ),
    "basis_tools.uc": (("basis_tools", "uc_lower_bound"), ("basis_tools", "ratio_sq")),
    "measure_space.build": (("measure_space", "build"),),
    "measure_space.product_matrix": (("measure_space", "product_matrix"),),
    "measure_space.identities": (("measure_space", "check_identities"),),
    "measure_space.integrate": (("measure_space", "integrate_over"),),
    "measure_space.subsets": (("measure_space", "atom_subsets"),),
    "metastability.report": (
        ("metastability", "hypothesis_report"),
        ("metastability", "fluctuation_harness"),
    ),
    "metastability.finder": (("metastability", "find_stable_interval"),),
    "metastability.conclusion": (("metastability", "conclusion_search"),),
    "hierarchy": tuple(
        ("hierarchy", name)
        for name in (
            "fgh_eval",
            "fgh_omega",
            "eval_expr",
            "fgh_compare",
            "threshold_arg",
            "threshold_arg_with_eps",
            "format_value",
        )
    ),
    "cli": (("cli", "main"),),
}

# per-layer metric -> (unit, better); the order is the reporting order
PER_LAYER_METRICS: dict[str, tuple[str, str]] = {
    "scalars.fraction_new": ("count", "lower"),
    "scalars.root2_new": ("count", "lower"),
    **{
        f"{layer}.{suffix}": unit_better
        for layer in (
            "james_core.norm_dp",
            "james_core.norm_dp_float",
            "james_core.chain_check",
            "james_core.witness",
            "basis_tools.basis_init",
            "basis_tools.moduli",
        )
        for suffix, unit_better in (("calls", ("count", "lower")), ("self_s", ("s", "lower")))
    },
    "basis_tools.uc.self_s": ("s", "lower"),
    "basis_tools.uc.replays": ("count", "lower"),
    "basis_tools.uc.replay_improved_frac": ("ratio", "higher"),
    "measure_space.build.calls": ("count", "lower"),
    "measure_space.build.self_s": ("s", "lower"),
    "measure_space.product_matrix.self_s": ("s", "lower"),
    "measure_space.identities.self_s": ("s", "lower"),
    "measure_space.integrate.calls": ("count", "lower"),
    "measure_space.integrate.self_s": ("s", "lower"),
    "measure_space.subsets": ("count", "lower"),
    "metastability.report.self_s": ("s", "lower"),
    "metastability.finder.calls": ("count", "lower"),
    "metastability.finder.self_s": ("s", "lower"),
    "metastability.finder.iterations": ("count", "lower"),
    "metastability.finder.budget_used_frac": ("ratio", "lower"),
    "metastability.finder.budget_exceeded": ("count", "lower"),
    "metastability.conclusion.self_s": ("s", "lower"),
    "hierarchy.calls": ("count", "lower"),
    "hierarchy.self_s": ("s", "lower"),
    "hierarchy.breach_digits": ("digits", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}


def _decimal_digits(n: int) -> int:
    n = abs(n)
    digits = max(1, int((n.bit_length() - 1) * 0.30102999566398120) + 1)
    return digits + 1 if n >= 10**digits else digits


def package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "jameslab" or name.startswith("jameslab.")
    ]


class Tracer:
    """Spans and counters for one traced pass.

    Wrappers record only between :meth:`begin_job` and :meth:`end_job`,
    so output checks that call back into the package stay invisible.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, start, child time]
        self.calls: dict[str, int] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.active = False
        self._layer_of: dict[int, str] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._uc_best: list | None = None

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of[self._name_ids[name]] = layer
        return self._name_ids[name]

    def _enter(self, name_id: int) -> None:
        now = time.perf_counter()
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(now)
        self.span_end.append(now)
        self._stack.append([len(self.span_name) - 1, now, 0.0])

    def _exit(self) -> None:
        now = time.perf_counter()
        index, start, child = self._stack.pop()
        self.span_end[index] = now
        duration = now - start
        layer = self._layer_of[self.span_name[index]]
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.self_time[layer] = self.self_time.get(layer, 0.0) + duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def begin_job(self, label: str) -> None:
        self.active = True
        self._enter(self._name_id(f"job:{label}", "job"))

    def end_job(self) -> None:
        self._exit()
        self.active = False

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at each place the package binds it."""
        modules = package_modules()
        by_name = {mod.__name__.removeprefix("jameslab."): mod for mod in modules}
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                name_id = self._name_id(f"{module_name}.{attr}", layer)
                if attr == "Basis.__init__":
                    original = basis_tools.Basis.__init__
                    self._patch(basis_tools.Basis, "__init__", self._wrap(original, name_id, attr))
                    continue
                original = getattr(by_name[module_name], attr)
                wrapper = self._wrap(original, name_id, attr)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner: object, key: str, wrapper: object) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, fn, name_id: int, attr: str):
        before, after, failed = self._hooks(attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            saved = before(args, kwargs) if before else None
            tracer._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit()
                if failed:
                    failed(args, kwargs, exc, saved)
                raise
            tracer._exit()
            if after:
                after(args, kwargs, result, saved)
            return result

        return wrapper

    # -- per-function counters ---------------------------------------------

    def _hooks(self, attr: str):
        if attr == "find_stable_interval":
            return None, self._finder_done, self._finder_failed
        if attr == "atom_subsets":
            return None, lambda a, k, result, s: self.count("subsets", len(result)), None
        if attr == "fgh_eval":
            return None, self._fgh_done, None
        if attr == "uc_lower_bound":
            return self._uc_begin, self._uc_end, self._uc_end
        if attr == "ratio_sq":
            return None, self._replay_done, self._replay_failed
        return None, None, None

    @staticmethod
    def _budget(args, kwargs) -> int:
        return kwargs["budget"] if "budget" in kwargs else args[4]

    def _finder_done(self, args, kwargs, result, saved) -> None:
        self.count("finder.iterations", result.fluctuations_used)
        self.count("finder.budget", self._budget(args, kwargs))

    def _finder_failed(self, args, kwargs, exc, saved) -> None:
        if isinstance(exc, BudgetExceeded):
            self.count("finder.iterations", exc.iterations)
            self.count("finder.budget", self._budget(args, kwargs))
            self.count("finder.budget_exceeded")

    def _fgh_done(self, args, kwargs, result, saved) -> None:
        if isinstance(result, ExceedsBudget):
            digits = _decimal_digits(result.certified_lower_bound)
            self.counters["breach_digits"] = max(self.counters.get("breach_digits", 0), digits)

    def _uc_begin(self, args, kwargs):
        saved, self._uc_best = self._uc_best, [None]
        return saved

    def _uc_end(self, args, kwargs, result, saved) -> None:
        self._uc_best = saved

    def _replay_done(self, args, kwargs, result, saved) -> None:
        if self._uc_best is None:
            return
        self.count("uc.replays")
        best = self._uc_best[0]
        if best is not None and result > best:
            self.count("uc.replay_improved")
        if best is None or result > best:
            self._uc_best[0] = result

    def _replay_failed(self, args, kwargs, exc, saved) -> None:
        if self._uc_best is not None:
            self.count("uc.replays")

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far (no scalars)."""
        out: dict[str, float] = {}
        for name in PER_LAYER_METRICS:
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls.get(layer, 0)
            elif kind == "self_s":
                out[name] = self.self_time.get(layer, 0.0)
        c = self.counters
        replays = c.get("uc.replays", 0)
        budget = c.get("finder.budget", 0)
        out.update(
            {
                "basis_tools.uc.replays": replays,
                "basis_tools.uc.replay_improved_frac": (
                    c.get("uc.replay_improved", 0) / replays if replays else 0.0
                ),
                "measure_space.subsets": c.get("subsets", 0),
                "metastability.finder.iterations": c.get("finder.iterations", 0),
                "metastability.finder.budget_used_frac": (
                    c.get("finder.iterations", 0) / budget if budget else 0.0
                ),
                "metastability.finder.budget_exceeded": c.get("finder.budget_exceeded", 0),
                "hierarchy.breach_digits": c.get("breach_digits", 0),
            }
        )
        return out

    def write(self, path: Path, header: dict, per_layer: dict) -> None:
        """Spans as columns (times in ns from the first span) plus metrics."""
        t0 = self.span_start[0] if self.span_start else 0.0
        doc = {
            **header,
            "per_layer": per_layer,
            "names": self.names,
            "layers": [self._layer_of[i] for i in range(len(self.names))],
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start_ns": [round((t - t0) * 1e9) for t in self.span_start],
                "end_ns": [round((t - t0) * 1e9) for t in self.span_end],
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def _code_key(fn) -> tuple[str, int, str]:
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def count_constructions(profile: cProfile.Profile) -> dict[str, int]:
    """``Fraction.__new__`` and ``Root2Scalar.__init__`` call counts."""
    profile.create_stats()
    calls = {key: stat[1] for key, stat in profile.stats.items()}
    return {
        "scalars.fraction_new": calls.get(_code_key(Fraction.__new__), 0),
        "scalars.root2_new": calls.get(_code_key(Root2Scalar.__init__), 0),
    }


def new_counting_profile() -> cProfile.Profile:
    return cProfile.Profile(subcalls=False, builtins=False)
