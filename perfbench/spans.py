"""Spans around qbarrier's public functions, recorded from outside the package.

`Tracer.install()` wraps each function named in `LAYERS` and rebinds the
wrapper everywhere a loaded ``qbarrier`` module holds the original (for
example ``qbarrier.resonance.transmission`` is the object imported from
``qbarrier.closed_form``).  Each call records one span: name, start, end and
the index of the enclosing span.  Spans live in flat arrays in memory and
are written out once, at the end of a run, by `Tracer.save`.

A span's self time is its duration minus the durations of its direct
children.  Calls are strictly nested on one thread, so the children of a
span never overlap and the sum of all self times under a root equals the
root's duration.
"""

from __future__ import annotations

import cmath
import functools
import inspect
import math
import sys
import time
from array import array

from qbarrier.errors import QBarrierError

#: (module, function) pairs wrapped by the tracer, in layer order
LAYERS = (
    ("barrier", "wave_params"),
    ("closed_form", "denominator_factored"),
    ("closed_form", "transmission"),
    ("solver", "solve"),
    ("ode_oracle", "oracle_amplitudes"),
    ("transfer", "transfer_closed"),
    ("transfer", "transfer_numeric"),
    ("resonance", "scan_peaks"),
    ("critical", "critical_complex"),
    ("critical", "critical_quaternionic"),
    ("critical", "asymptotic_moduli"),
    ("verify", "check_norm_conservation"),
    ("verify", "check_theta_invariance"),
    ("verify", "check_transfer_agreement"),
    ("verify", "check_transmission_cross"),
    ("verify", "check_series_asymptotics"),
    ("cli", "run_sweep"),
    ("cli", "main"),
)

#: layers whose outcomes are classified as typed error, uncaught or non-finite
CLASSIFIED = ("closed_form.transmission", "solver.solve")

#: name of the span the benchmark opens around each measured pass
ROOT = "perfbench.pass"


def _finite_result(result) -> bool:
    return all(
        cmath.isfinite(getattr(result, field))
        for field in ("t", "r")
        if getattr(result, field, None) is not None
    )


def _scan_grid_points(bound: inspect.BoundArguments) -> int:
    """Coarse-grid size of one `scan_peaks` call, from its arguments."""
    args = bound.arguments
    return int(math.floor((args["hi"] - args["lo"]) / args["coarse_step"] + 1e-9)) + 1


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: per-layer outcome counters and observed values, e.g. "solver.solve.uncaught"
        self.counters: dict[str, float] = {}
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(math.nan)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def observe_max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, -math.inf), value)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        classified = name in CLASSIFIED
        signature = inspect.signature(fn)
        is_scan = name == "resonance.scan_peaks"
        is_check = name.startswith("verify.check_")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if classified:
                    kind = "typed_errors" if isinstance(exc, QBarrierError) else "uncaught"
                    tracer.count(f"{name}.{kind}")
                raise
            finally:
                tracer.close(index)
            if classified and not _finite_result(result):
                tracer.count(f"{name}.nonfinite")
            elif is_scan:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.count("resonance.scan_peaks.grid_points", _scan_grid_points(bound))
            elif is_check:
                tracer.observe_max(f"{name}.worst", result.worst)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer and rebind it in each loaded qbarrier module."""
        import qbarrier.cli  # noqa: F401  (loads every module the layers live in)

        modules = [m for n, m in sys.modules.items() if n == "qbarrier" or n.startswith("qbarrier.")]
        for module_name, func_name in LAYERS:
            original = getattr(sys.modules[f"qbarrier.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    # ------------------------------------------------------------ output

    def arrays(self):
        import numpy as np

        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def save(self, path: str) -> None:
        """Write every span and counter recorded so far (numpy .npz)."""
        import numpy as np

        name_id, parent, start, end = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            start=start,
            end=end,
            counter_keys=np.array(sorted(self.counters)),
            counter_values=np.array([self.counters[k] for k in sorted(self.counters)], dtype=float),
        )


def self_times(names, name_id, parent, start, end) -> dict[str, tuple[int, float]]:
    """(calls, summed self time) per span name.

    Self time = duration minus the summed durations of direct children.
    """
    import numpy as np

    duration = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    own = duration - child_time
    calls = np.bincount(name_id, minlength=len(names))
    total = np.bincount(name_id, weights=own, minlength=len(names))
    return {name: (int(calls[i]), float(total[i])) for i, name in enumerate(names)}


def calls_under(names, name_id, parent, child: str, ancestor: str) -> int:
    """Number of `child` spans that have an `ancestor` span above them."""
    if child not in names or ancestor not in names:
        return 0
    child_id, ancestor_id = names.index(child), names.index(ancestor)
    inside = [False] * len(name_id)
    hits = 0
    for i, (nid, par) in enumerate(zip(name_id.tolist(), parent.tolist())):
        # parents are opened before their children, so inside[par] is final
        inside[i] = par >= 0 and (inside[par] or name_id[par] == ancestor_id)
        if nid == child_id and inside[i]:
            hits += 1
    return hits
