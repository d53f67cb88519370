"""The benchmark's workloads: one ``intdist`` CLI invocation each, as data.

Each workload is a closed loop of one client: the next invocation starts
when the previous process has exited.  The same spec builds the CLI
arguments, the expected grid points, and the reference spectra the rows are
checked against, so the three cannot drift apart.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # "sweep" or "compare"
    model: str                    # "dimer" or "chain"
    quantity: str                 # "thermal" or "entanglement"
    couplings: tuple              # (min, max, steps)
    n_sites: Optional[int] = None
    temperatures: Optional[tuple] = None   # (min, max, steps); else beta = 1
    why: str = ""
    #: Layers the workload must exercise; zero calls in one fails the trace.
    layers: tuple = ("fock", "models", "spectra", "free_fermion", "distance", "cli")

    def argv(self, seed: int) -> list:
        lo, hi, steps = self.couplings
        args = [self.command, "--model", self.model, "--quantity", self.quantity,
                "--v-min", repr(lo), "--v-max", repr(hi), "--v-steps", str(steps)]
        if self.n_sites is not None:
            args += ["--n-sites", str(self.n_sites)]
        if self.temperatures is not None:
            t_lo, t_hi, t_steps = self.temperatures
            args += ["--t-min", repr(t_lo), "--t-max", repr(t_hi), "--t-steps", str(t_steps)]
        elif self.quantity == "thermal":
            args += ["--beta", "1.0"]
        return args + ["--seed", str(seed), "--format", "jsonl"]

    def points(self) -> list:
        """(v, beta, temperature) per grid point, coupling outer, as the CLI orders them."""
        vs = _linspace(*self.couplings)
        if self.temperatures is None:
            return [(v, 1.0, 1.0) for v in vs]
        return [(v, 1.0 / t, t) for v in vs for t in _linspace(*self.temperatures)]

    @property
    def value_key(self) -> str:
        return "exact" if self.command == "compare" else "d_f"


def _linspace(lo, hi, steps):
    if steps == 1:
        return [float(lo)]
    return [float(x) for x in np.linspace(lo, hi, steps)]


#: Which per-layer metrics should move which end-to-end metric on which
#: workload, written down before any optimisation so a change can cite a row
#: by name.  On workloads not listed, the prediction is no visible change.
PREDICTIONS = {
    "fock-build": {
        "layer_metrics": ["fock.build_quadratic_ms", "fock.build_density_density_ms",
                          "fock.build_basis_ms", "fock.basis_dim", "models.hamiltonian_ms"],
        "end_to_end": ["sweep_s", "point_s.p50"], "workloads": ["chain12-entanglement"]},
    "spectra-ed": {
        "layer_metrics": ["spectra.diagonalize_ms", "spectra.diagonalize_dim",
                          "spectra.rdm_ms", "spectra.thermal_ms"],
        "end_to_end": ["sweep_s", "peak_rss_mb"], "workloads": ["chain12-entanglement"]},
    "distance-fit": {
        "layer_metrics": ["distance.fit_ms.p50", "distance.fit_ms.max", "distance.nfev_per_fit",
                          "distance.iterations_per_fit", "distance.eval_us",
                          "distance.converged_frac"],
        "end_to_end": ["sweep_s", "point_s.p50"],
        "workloads": ["dimer-thermal", "chain8-thermal-compare"],
        "also": "df_sum on chain8-thermal-compare"},
    "free-fermion-objective": {
        "layer_metrics": ["free_fermion.subset_sums_us", "free_fermion.subset_sums_calls",
                          "free_fermion.greedy_ms"],
        "end_to_end": ["sweep_s"], "workloads": ["chain8-thermal-compare", "dimer-thermal"],
        "also": "moves chain8-thermal-compare more than dimer-thermal"},
    "perturbation": {
        "layer_metrics": ["perturbation.labeling_ms", "perturbation.decompose_ms",
                          "perturbation.dth_us"],
        "end_to_end": ["sweep_s"], "workloads": ["chain8-thermal-compare"],
        "also": "predicted under 1% of sweep_s"},
    "cli-overhead": {
        "layer_metrics": ["cli.run_ms", "cli.render_ms", "cli.unattributed_ms",
                          "cli.span_sum_over_wall"],
        "end_to_end": ["sweep_s"], "workloads": ["dimer-thermal"],
        "also": "span_sum_over_wall above 1 is contention between pool workers"},
}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="dimer-thermal", command="sweep", model="dimer", quantity="thermal",
        couplings=(0.0, 6.0, 21),
        why="README dimer sweep: the 2-mode fit is >95% of each point, so per-call "
            "Python/SciPy overhead and the thread pool show; fock/spectra changes should not",
    ),
    Workload(
        name="chain8-thermal-compare", command="compare", model="chain", quantity="thermal",
        couplings=(1.0, 1.0, 1), n_sites=8, temperatures=(1.0, 1.0, 1),
        why="8-mode fit over 256 levels at the seed-sensitive n=8 V=1 T=1 point; a single "
            "point, so no pool contention; the only workload that runs perturbation",
        layers=("fock", "models", "spectra", "free_fermion", "distance", "perturbation", "cli"),
    ),
    Workload(
        name="chain12-entanglement", command="sweep", model="chain", quantity="entanglement",
        couplings=(1.0, 1.0, 1), n_sites=12,
        why="Fock dim 4096: operator build and dense eigh are most of the time and "
            "memory, the 6-mode fit is minor; where many-body layer work shows",
    ),
)}
