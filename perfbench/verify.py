"""Independent checks of every row the CLI reports.

The reference spectrum of each grid point is recomputed through the public
``intdist`` models/spectra API, once per benchmark invocation and outside
any timed region.  A reported D_F is accepted only when the free spectrum
built from the reported mode energies certifies it: their sorted trace
distance must reproduce the value.  A row fails when

- the invocation raised or the row is missing;
- the value is not finite;
- D_F lies outside [0, 3 - 2*sqrt(2)];
- the certificate differs from D_F by more than ``CERT_TOL``;
- D_F exceeds ``FREE_TOL`` at V = 0, where the system is free.

Compare rows are checked on their ``exact`` column; the ``perturbative``
column is a first-order estimate with no bound and is not checked.
"""

import json
import math

CERT_TOL = 1e-9
FREE_TOL = 1e-8
POINT_TOL = 1e-12

#: Row fields that vary from run to run and are excluded from determinism.
TIMING_FIELDS = ("wall_time_s",)


def reference_spectra(workload) -> list:
    """Probability spectrum of every grid point, in grid order."""
    import intdist as api
    from intdist.models import DIMER_SITE1_MODES

    out = []
    energies = {}  # one diagonalization per coupling, reused across temperatures
    for v, beta, _ in workload.points():
        if workload.model == "dimer":
            hamiltonian, _ = api.hubbard_dimer(api.DimerParams(v=v))
            region = DIMER_SITE1_MODES
        else:
            hamiltonian = api.spinless_chain(api.ChainParams(n_sites=workload.n_sites,
                                                             interaction=v))
            region = tuple(range(max(1, workload.n_sites // 2)))
        if workload.quantity == "thermal":
            if v not in energies:
                energies[v] = api.exact_diagonalize(hamiltonian, keep_vectors=False).energies
            out.append(api.thermal_probabilities(energies[v], beta))
        else:
            eig = api.exact_diagonalize(hamiltonian)
            out.append(api.reduced_density_spectrum(eig.vectors[:, 0], hamiltonian.basis, region))
    return out


def row_failure(row, point, rho, value_key: str):
    """Why one row fails, or None when it passes every check."""
    import intdist as api

    if not isinstance(row, dict):
        return "missing row"
    v, beta, temperature = point
    for key, want in (("v", v), ("beta", beta), ("temperature", temperature)):
        got = row.get(key)
        if not isinstance(got, (int, float)) or abs(got - want) > POINT_TOL * max(1.0, abs(want)):
            return f"row is for {key}={got}, expected {want}"
    value = row.get(value_key)
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return f"{value_key}={value} is not finite"
    if not 0.0 <= value <= api.df_upper_bound():
        return f"{value_key}={value} outside [0, 3-2*sqrt(2)]"
    eps = row.get("epsilons")
    if not isinstance(eps, list) or not all(isinstance(e, (int, float)) and math.isfinite(e)
                                            for e in eps):
        return f"epsilons={eps} are not finite numbers"
    beta_fit = 1.0 if row.get("quantity") == "entanglement" else beta
    try:
        free = api.free_probabilities(api.FreeSpectrumParams(0.0, eps), beta_fit)
        cert = api.trace_distance_sorted(rho, free)
    except ValueError as exc:
        return f"certificate could not be computed: {exc}"
    if abs(cert - value) > CERT_TOL:
        return f"certificate {cert!r} differs from {value_key}={value!r} by {abs(cert - value):.3g}"
    if v == 0.0 and value > FREE_TOL:
        return f"{value_key}={value} exceeds {FREE_TOL} at the free point V=0"
    return None


def check_rows(rows, points, spectra, value_key: str) -> list:
    """One failure reason (or None) per grid point; extra rows fail the last point."""
    rows = list(rows or [])
    reasons = []
    for k, (point, rho) in enumerate(zip(points, spectra)):
        row = rows[k] if k < len(rows) else None
        reasons.append(row_failure(row, point, rho, value_key))
    if len(rows) > len(points) and reasons:
        reasons[-1] = reasons[-1] or f"{len(rows) - len(points)} unexpected extra rows"
    return reasons


def fingerprint(rows) -> str:
    """Canonical text of every non-timing field, for the determinism check."""
    return json.dumps([{k: v for k, v in row.items() if k not in TIMING_FIELDS}
                       for row in rows], sort_keys=True)
