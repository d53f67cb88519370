"""Outside-in span tracing of the intdist package, and the arithmetic on spans.

The package binds functions across modules with ``from .x import y``, so
patching only the defining module would miss most callers.  ``Tracer.install``
therefore replaces the function object in every ``intdist`` namespace that
holds it.  Spans are kept in memory as plain dicts with name, layer, thread,
parent, start and end.  Hot leaf functions (``subset_sums``) get no span of
their own: their call count and busy time are added to the innermost open
span of the calling thread.  Per-element helpers such as ``hopping_element``
are not wrapped at all.

The span arithmetic (``self_times``, ``union_length``, ``layer_metrics``) is
pure so that the self-tests can check it on synthetic span sets.
"""

import itertools
import statistics
import sys
import threading
import time

#: Public functions wrapped with a span, by layer (= package module).
SPANNED = {
    "fock": ("build_basis", "build_quadratic", "build_density_density"),
    "models": ("hubbard_dimer", "spinless_chain"),
    "spectra": ("exact_diagonalize", "thermal_probabilities", "reduced_density_spectrum"),
    "free_fermion": ("greedy_single_particle_gaps",),
    "distance": ("interaction_distance",),
    "perturbation": ("infer_free_labeling", "perturbative_free_decomposition",
                     "perturbative_dth"),
    "cli": ("run_sweep", "run_compare", "render_csv", "render_jsonl"),
}

#: Hot leaf functions, aggregated onto the calling span instead of spanned.
LEAVES = {"free_fermion": ("subset_sums",)}

LAYERS = tuple(SPANNED)


def _annotate(name, args, result):
    """Facts about one call that the per-layer metrics need."""
    if name == "build_quadratic":
        return {"dim": result.dim}
    if name == "exact_diagonalize":
        return {"dim": args[0].dim}
    if name == "interaction_distance":
        info = result.optimizer_info
        return {"iterations": int(info["total_iterations"]),
                "converged": bool(info["converged"])}
    return {}


class Tracer:
    """In-memory span recorder for one process; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main_stack = self._stack()
        self._ids = itertools.count()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        # A pool worker's first span hangs under whatever the main thread has
        # open, which is the cli run span that submitted the work.
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def _spanned(self, layer, name, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span = {"id": next(self._ids), "name": f"{layer}.{name}", "layer": layer,
                    "thread": threading.get_ident(),
                    "parent": parent["id"] if parent else None,
                    "start": time.perf_counter(), "end": None,
                    "leaf_calls": {}, "leaf_busy": {}}
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            span.update(_annotate(name, args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, layer, name, fn):
        key = f"{layer}.{name}"
        clock = time.perf_counter
        local = self._local

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = clock() - start
                stack = getattr(local, "stack", None)
                owner = stack[-1] if stack else self._parent(self._stack())
                if owner is not None:
                    calls, busy_s = owner["leaf_calls"], owner["leaf_busy"]
                    calls[key] = calls.get(key, 0) + 1
                    busy_s[key] = busy_s.get(key, 0.0) + busy

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every traced function in every loaded ``intdist`` namespace.

        Raises if a listed function does not exist, so a rename cannot
        silently drop a layer from the trace.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "intdist" or key.startswith("intdist."))]
        for table, make in ((SPANNED, self._spanned), (LEAVES, self._leaf)):
            for layer, names in table.items():
                home = sys.modules[f"intdist.{layer}"]
                for name in names:
                    original = getattr(home, name, None)
                    if original is None:
                        raise RuntimeError(f"intdist.{layer}.{name} no longer exists")
                    wrapped = make(layer, name, original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapped)


# ------------------------------------------------------------ span arithmetic

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans) -> dict:
    kids = {}
    for span in spans:
        kids.setdefault(span["parent"], []).append(span)
    return kids


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover.

    Children running on pool threads may overlap each other; the covered
    part is their union, clipped to the parent's interval.
    """
    kids = children_of(spans)
    out = {}
    for span in spans:
        covered = [(max(k["start"], span["start"]), min(k["end"], span["end"]))
                   for k in kids.get(span["id"], ())]
        covered = [(a, b) for a, b in covered if b > a]
        out[span["id"]] = (span["end"] - span["start"]) - union_length(covered)
    return out


def span_table(spans) -> dict:
    """Per span name: calls, inclusive total and self total, in seconds."""
    selfs = self_times(spans)
    table = {}
    for span in spans:
        row = table.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += selfs[span["id"]]
    leaf_rows = {}
    for span in spans:
        for key, calls in span["leaf_calls"].items():
            row = leaf_rows.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += calls
            row["total_s"] += span["leaf_busy"][key]
            row["self_s"] += span["leaf_busy"][key]
    table.update(leaf_rows)
    return table


def layer_metrics(spans) -> dict:
    """The named per-layer metrics of one traced CLI invocation.

    Times are totals over the invocation (inclusive of child spans) unless
    the name says otherwise.  ``distance.eval_us`` is the fit self time
    (fit minus its child spans; objective evaluations are not spans, so
    their time stays in it) divided by the number of evaluations.
    """
    table = span_table(spans)
    selfs = self_times(spans)
    kids = children_of(spans)

    def total_ms(name):
        return 1e3 * table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    fits = by_name.get("distance.interaction_distance", [])
    fit_ms = [1e3 * (s["end"] - s["start"]) for s in fits]
    nfev = [s["leaf_calls"].get("free_fermion.subset_sums", 0) for s in fits]
    fit_self = sum(selfs[s["id"]] for s in fits)
    sums = table.get("free_fermion.subset_sums", {"calls": 0, "total_s": 0.0})
    runs = by_name.get("cli.run_sweep", []) + by_name.get("cli.run_compare", [])
    run_wall = sum(s["end"] - s["start"] for s in runs)
    direct = [k for s in runs for k in kids.get(s["id"], ())]
    covered = union_length([(k["start"], k["end"]) for k in direct])
    child_sum = sum(k["end"] - k["start"] for k in direct)
    builds = by_name.get("fock.build_quadratic", [])
    diags = by_name.get("spectra.exact_diagonalize", [])
    n_fits = len(fits)

    return {
        "fock.build_quadratic_ms": total_ms("fock.build_quadratic"),
        "fock.build_density_density_ms": total_ms("fock.build_density_density"),
        "fock.build_basis_ms": total_ms("fock.build_basis"),
        "fock.basis_dim": max((s["dim"] for s in builds), default=0),
        "models.hamiltonian_ms": total_ms("models.hubbard_dimer") + total_ms("models.spinless_chain"),
        "spectra.diagonalize_ms": total_ms("spectra.exact_diagonalize"),
        "spectra.diagonalize_dim": max((s["dim"] for s in diags), default=0),
        "spectra.rdm_ms": total_ms("spectra.reduced_density_spectrum"),
        "spectra.thermal_ms": total_ms("spectra.thermal_probabilities"),
        "distance.fit_ms.p50": statistics.median(fit_ms) if fit_ms else 0.0,
        "distance.fit_ms.max": max(fit_ms, default=0.0),
        "distance.fits": n_fits,
        "distance.nfev_per_fit": sum(nfev) / n_fits if n_fits else 0.0,
        "distance.iterations_per_fit": (sum(s["iterations"] for s in fits) / n_fits
                                        if n_fits else 0.0),
        "distance.eval_us": 1e6 * fit_self / sum(nfev) if sum(nfev) else 0.0,
        "distance.converged_frac": (sum(s["converged"] for s in fits) / n_fits
                                    if n_fits else 0.0),
        "free_fermion.subset_sums_us": (1e6 * sums["total_s"] / sums["calls"]
                                        if sums["calls"] else 0.0),
        "free_fermion.subset_sums_calls": sums["calls"],
        "free_fermion.greedy_ms": total_ms("free_fermion.greedy_single_particle_gaps"),
        "perturbation.labeling_ms": total_ms("perturbation.infer_free_labeling"),
        "perturbation.decompose_ms": total_ms("perturbation.perturbative_free_decomposition"),
        "perturbation.dth_us": (1e3 * total_ms("perturbation.perturbative_dth")
                                / calls("perturbation.perturbative_dth")
                                if calls("perturbation.perturbative_dth") else 0.0),
        "cli.run_ms": 1e3 * run_wall,
        "cli.render_ms": total_ms("cli.render_jsonl") + total_ms("cli.render_csv"),
        "cli.unattributed_ms": 1e3 * (run_wall - covered),
        "cli.span_sum_over_wall": child_sum / run_wall if run_wall else 0.0,
        # operator build + ED as a share of all per-point work under the run
        "cli.build_ed_share": ((total_ms("models.hubbard_dimer") + total_ms("models.spinless_chain")
                                + total_ms("spectra.exact_diagonalize")) / (1e3 * child_sum)
                               if child_sum else 0.0),
    }


def layer_calls(spans) -> dict:
    """Layer -> number of spanned or aggregated calls recorded in it."""
    counts = {layer: 0 for layer in LAYERS}
    for name, row in span_table(spans).items():
        counts[name.split(".", 1)[0]] += row["calls"]
    return counts
