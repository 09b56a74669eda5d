"""Per-layer spans recorded from outside the package.

The tracer replaces public functions of oscigeo, in every oscigeo module
namespace that holds them, by wrappers that time each call while the
tracer is active.  Nothing in the package changes; uninstall restores
the originals.  A metric takes the median of the spans recorded during
the workload's own requests, or, for a layer that workload never calls,
of those recorded while one round of each other workload runs (the
"probe" phase).  Counts are taken from the workload's own requests only,
over a fixed set of rounds, so they repeat exactly for a seed.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from collections import Counter
from functools import wraps
from time import perf_counter

# (metric, unit) for every per-layer time; the handler table below fills them
TIME_METRICS = (
    ("cli.parse_vector_us", "us"),
    ("scalar.format_us", "us"),
    ("metric.causal_type_us", "us"),
    ("quotients.classify_us.null", "us"),
    ("quotients.classify_us.nonnull", "us"),
    ("quotients.classify_us.pi", "us"),
    ("quotients.classify_us.line", "us"),
    ("quotients.verify_ms", "ms"),
    ("quotients.project_us_per_sample", "us"),
    ("geodesics.exp_map_us", "us"),
    ("geodesics.closed_form_us", "us"),
    ("geodesics.rk4_us_per_step", "us"),
    ("geodesics.csv_us_per_row", "us"),
    ("groups.lattice_contains_us", "us"),
    ("groups.coset_normal_form_us", "us"),
    ("groups.coset_normal_form_f_us", "us"),
)
SUITES = ("scalar", "groups", "normalizer", "metric", "curvature", "isometries", "quotients")
SUITE_METRICS = tuple((f"verify.{s}_s", "s") for s in SUITES)
COUNT_METRICS = tuple(
    (name, "count")
    for name in (
        "quotients.classify_calls",
        "geodesics.exp_map_calls",
        "groups.lattice_contains_calls",
        "geodesics.closed_form_calls",
        "groups.coset_normal_form_f_calls",
        "geodesics.csv_bytes",
        "scalar.sign_calls",
    )
)
IMPORT_MODULES = (
    "oscigeo",
    "oscigeo.scalar",
    "oscigeo.groups",
    "oscigeo.metric",
    "oscigeo.geodesics",
    "oscigeo.isometries",
    "oscigeo.quotients",
    "oscigeo.verify",
    "oscigeo.cli",
    "numpy",
)
IMPORT_METRICS = tuple(
    (f"{'oscigeo' if m == 'oscigeo' else m.rsplit('.', 1)[-1]}.import_ms", "ms")
    for m in IMPORT_MODULES
)
OVERHEAD_METRIC = ("tracing_overhead_pct", "%")
PER_LAYER = (
    TIME_METRICS + SUITE_METRICS + COUNT_METRICS + IMPORT_METRICS + (OVERHEAD_METRIC,)
)


def _per_call(metric, count=None):
    def handler(tracer, dt, args, result):
        tracer.sample(metric, dt * 1e6)
        if count:
            tracer.count(count)

    return handler


def _per_unit(metric, units):
    def handler(tracer, dt, args, result):
        n = units(args, result)
        if n > 0:
            tracer.sample(metric, dt * 1e6 / n)

    return handler


def _classify(tracer, dt, args, result):
    tracer.count("quotients.classify_calls")
    if tracer.tag in ("null", "nonnull", "pi", "line"):
        tracer.sample(f"quotients.classify_us.{tracer.tag}", dt * 1e6)


def _minimal_period(tracer, dt, args, result):
    tracer.last_minimal_period_s = dt


def _csv(tracer, dt, args, result):
    samples, stream = args[0], args[1]
    if len(samples):
        tracer.sample("geodesics.csv_us_per_row", dt * 1e6 / len(samples))
    tracer.count("geodesics.csv_bytes", stream.tell())


def _sign(tracer, dt, args, result):
    tracer.count("scalar.sign_calls")


# (module, function, handler); every oscigeo namespace holding the function is patched
FUNCTIONS = (
    ("cli", "parse_vector", _per_call("cli.parse_vector_us")),
    ("metric", "causal_type", _per_call("metric.causal_type_us")),
    ("quotients", "classify_geodesic", _classify),
    ("quotients", "minimal_period", _minimal_period),
    (
        "quotients",
        "project_geodesic",
        _per_unit("quotients.project_us_per_sample", lambda args, rows: len(rows)),
    ),
    ("geodesics", "exp_map", _per_call("geodesics.exp_map_us", "geodesics.exp_map_calls")),
    (
        "geodesics",
        "closed_form_batch",
        _per_call("geodesics.closed_form_us", "geodesics.closed_form_calls"),
    ),
    (
        "geodesics",
        "integrate_geodesic",
        _per_unit("geodesics.rk4_us_per_step", lambda args, rows: len(rows) - 1),
    ),
    ("geodesics", "path_to_csv", _csv),
    (
        "groups",
        "lattice_contains",
        _per_call("groups.lattice_contains_us", "groups.lattice_contains_calls"),
    ),
    ("groups", "coset_normal_form", _per_call("groups.coset_normal_form_us")),
    (
        "groups",
        "coset_normal_form_f",
        _per_call("groups.coset_normal_form_f_us", "groups.coset_normal_form_f_calls"),
    ),
)
# (module, class, method, handler)
METHODS = (
    ("scalar", "Scalar", "__str__", _per_call("scalar.format_us")),
    ("scalar", "Scalar", "sign", _sign),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.phase = "stream"
        self.tag = ""
        self.samples: dict[str, dict[str, list[float]]] = {}
        self.pending: list[tuple[str, float]] = []
        self.counts: Counter = Counter()
        self.handler_errors = 0
        self.missing: list[str] = []
        self.last_minimal_period_s = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def sample(self, metric: str, value: float) -> None:
        """Hold a span time until its request ends and its scale is known."""
        self.pending.append((metric, value))

    def commit(self, scale: float) -> None:
        """Keep the request's spans, scaled like the request's own latency."""
        for metric, value in self.pending:
            self.samples.setdefault(metric, {"stream": [], "probe": []})[self.phase].append(
                value * scale
            )
        self.pending.clear()

    def count(self, metric: str, n: int = 1) -> None:
        if self.phase == "stream":
            self.counts[metric] += n

    def _wrap(self, fn, handler):
        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            try:
                handler(self, dt, args, result)
            except Exception:  # a changed signature must not fail the request
                self.handler_errors += 1
            return result

        return traced

    def _set(self, owner, name, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        self.missing = []
        modules = [
            m for n, m in list(sys.modules.items()) if n == "oscigeo" or n.startswith("oscigeo.")
        ]
        for module_name, func_name, handler in FUNCTIONS:
            original = getattr(sys.modules.get(f"oscigeo.{module_name}"), func_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            traced = self._wrap(original, handler)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, traced)
        for module_name, class_name, method, handler in METHODS:
            cls = getattr(sys.modules.get(f"oscigeo.{module_name}"), class_name, None)
            if cls is None or not hasattr(cls, method):
                self.missing.append(f"{module_name}.{class_name}.{method}")
                continue
            self._set(cls, method, self._wrap(getattr(cls, method), handler))
        suites = getattr(sys.modules.get("oscigeo.verify"), "SUITES", {})
        for name in SUITES:
            if name not in suites:
                self.missing.append(f"verify.SUITES[{name}]")
                continue
            metric = f"verify.{name}_s"
            original = suites[name]
            self._restore.append((suites, name, original))
            suites[name] = self._wrap(
                original, lambda tracer, dt, args, result, m=metric: tracer.sample(m, dt)
            )

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._restore.clear()

    def layer_metrics(self) -> tuple[dict[str, float], list[str]]:
        """Median per time metric (own requests first, probe otherwise) and exact counts."""
        values, notes = {}, []
        for metric, _ in TIME_METRICS + SUITE_METRICS:
            recorded = self.samples.get(metric, {"stream": [], "probe": []})
            source = "stream" if recorded["stream"] else "probe"
            if recorded[source]:
                values[metric] = statistics.median(recorded[source])
                if source == "probe":
                    notes.append(metric)
            else:
                values[metric] = 0.0
                notes.append(f"{metric} (never called)")
        for metric, _ in COUNT_METRICS:
            values[metric] = self.counts[metric]
        return values, notes


def import_times(src: str, repeats: int = 3) -> dict[str, float]:
    """Cumulative import time per module, median over fresh interpreters (-X importtime)."""
    code = f"import sys; sys.path.insert(0, {src!r}); import oscigeo.cli"
    runs: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seen = set()
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name in runs and name not in seen:
                seen.add(name)
                runs[name].append(int(cumulative) / 1e3)
    return {
        metric: statistics.median(runs[m]) if runs[m] else 0.0
        for (metric, _), m in zip(IMPORT_METRICS, IMPORT_MODULES)
    }
