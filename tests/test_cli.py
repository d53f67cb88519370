import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import intdist.cli
from intdist.cli import (_FLAGS, _configured_model, _ground_state, _perturbative_context,
                         _sector_bounds, _spectrum_at, main, render_csv, run_compare, run_sweep,
                         validate_config)
from intdist.fock import density_density_diagonal, popcount
from intdist.models import (DIMER_SITE1_MODES, ChainParams, DimerParams, dimer_sector_basis,
                            hubbard_dimer, spinless_chain)
from intdist.perturbation import (DEGENERACY_TOL, first_order_reduced_density,
                                  infer_free_labeling, perturbative_dent, resolve_degeneracies)
from intdist.spectra import exact_diagonalize, reduced_density_spectrum, thermal_probabilities

FAST_OPT = {"seed": 7, "restarts": 4, "max_iter": 2000}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_loads_no_scipy():
    code = ("import sys, intdist.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    paths = [str(Path(intdist.cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_bound_subcommand(capsys):
    code, out, _ = _run(capsys, ["bound"])
    assert code == 0
    assert out.strip() == "0.171572875254"


def test_version_subcommand(capsys):
    code, out, _ = _run(capsys, ["version"])
    assert code == 0
    from intdist import __version__
    assert out.strip() == __version__


def test_sweep_csv_schema(capsys):
    code, out, _ = _run(capsys, ["sweep", "--v-min", "0", "--v-max", "1", "--v-steps", "2",
                                 "--restarts", "4", "--seed", "7"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config: ")
    echoed = json.loads(lines[0][len("# config: "):])
    assert echoed["coupling_grid"]["steps"] == 2
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    assert len(rows) == 2
    assert set(rows[0]) == {"model", "params", "quantity", "v", "beta", "temperature",
                            "d_f", "epsilons", "converged"}
    assert float(rows[0]["d_f"]) <= 1e-8  # free point
    assert rows[0]["converged"] == "true"
    assert len(rows[0]["epsilons"].split(";")) == 2
    # params field carries commas and quotes, so it exercises RFC-4180 quoting
    assert json.loads(rows[0]["params"]) == {"t": 1.0, "delta1": 1.0, "delta2": -1.0}


_POINT_KEYS = ["model", "params", "quantity", "v", "beta", "temperature"]
_TAIL_KEYS = ["epsilons", "converged"]


@pytest.mark.parametrize("command, runner, values", [
    ("sweep", run_sweep, ["d_f"]),
    ("compare", run_compare, ["exact", "perturbative", "abs_diff"]),
])
@pytest.mark.parametrize("quantity", ["thermal", "entanglement"])
def test_csv_layout_is_the_row_less_wall_time(command, runner, values, quantity, capsys):
    argv = [command, "--quantity", quantity, "--v-min", "0", "--v-max", "0.5", "--v-steps", "2",
            "--restarts", "4", "--seed", "7"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    header = out.splitlines()[1]
    assert header == ",".join(_POINT_KEYS + values + _TAIL_KEYS)
    # the columns are each row's keys in order, less the jsonl-only wall time
    cfg = json.loads(out.splitlines()[0][len("# config: "):])
    rows = runner(cfg)
    for row in rows:
        assert list(row) == _POINT_KEYS + values + _TAIL_KEYS + ["wall_time_s"]
    assert render_csv(cfg, rows).splitlines()[1] == header
    code, out, _ = _run(capsys, argv + ["--format", "jsonl"])
    assert code == 0
    for line in out.splitlines()[1:]:
        assert set(json.loads(line)) == set(_POINT_KEYS + values + _TAIL_KEYS) | {"wall_time_s"}


def test_sweep_is_byte_identical_across_runs(tmp_path):
    cfg = {"coupling_grid": {"min": 0.0, "max": 2.0, "steps": 3},
           "optimizer": FAST_OPT}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    first = out.read_bytes()
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_sweep_jsonl_format(capsys):
    code, out, _ = _run(capsys, ["sweep", "--v-min", "0", "--v-max", "1", "--v-steps", "2",
                                 "--restarts", "4", "--format", "jsonl"])
    assert code == 0
    lines = out.strip().splitlines()
    assert "config" in json.loads(lines[0])
    row = json.loads(lines[1])
    assert {"model", "quantity", "v", "beta", "d_f", "epsilons", "converged",
            "wall_time_s"} <= set(row)


def test_sweep_temperature_grid_ordering(capsys):
    code, out, _ = _run(capsys, ["sweep", "--v-min", "0", "--v-max", "1", "--v-steps", "2",
                                 "--t-min", "0.5", "--t-max", "2.0", "--t-steps", "2",
                                 "--restarts", "4"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))
    grid = [(float(r["v"]), float(r["temperature"])) for r in rows]
    assert grid == [(0.0, 0.5), (0.0, 2.0), (1.0, 0.5), (1.0, 2.0)]
    for r in rows:
        assert float(r["beta"]) == pytest.approx(1.0 / float(r["temperature"]))


def test_entanglement_sweep(capsys):
    code, out, _ = _run(capsys, ["sweep", "--quantity", "entanglement",
                                 "--v-min", "0", "--v-max", "0", "--v-steps", "1",
                                 "--restarts", "4"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))
    assert float(rows[0]["d_f"]) <= 1e-8


def _entanglement_chain_sweep(n_sites):
    return run_sweep(validate_config({
        "model": {"type": "chain", "n_sites": n_sites}, "quantity": "entanglement",
        "coupling_grid": {"min": 0.0, "max": 0.0, "steps": 1}, "optimizer": FAST_OPT}))


def test_degenerate_ground_state_warns():
    # free odd chains have a two-fold ground state (N and N + 1 particles)
    with pytest.warns(UserWarning, match="degenerate ground state at v=0"):
        _entanglement_chain_sweep(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _entanglement_chain_sweep(6)


def _chain_cfg(n_sites, v, quantity):
    return validate_config({"model": {"type": "chain", "n_sites": n_sites}, "quantity": quantity,
                            "coupling_grid": {"min": v, "max": v, "steps": 1}})


def _chain_point(n_sites, v, quantity):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # free odd chains warn about their degenerate ground state
        shared = _spectrum_at(_chain_cfg(n_sites, v, quantity), v)
    return thermal_probabilities(shared, 1.0) if quantity == "thermal" else shared


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("v", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_sector_path_matches_full_space_bitwise(n, v):
    op = spinless_chain(ChainParams(n_sites=n, interaction=v))
    energies = exact_diagonalize(op, keep_vectors=False).energies
    np.testing.assert_array_equal(_chain_point(n, v, "thermal").probs,
                                  thermal_probabilities(energies, 1.0).probs)
    ground = exact_diagonalize(op).vectors[:, 0]
    reference = reduced_density_spectrum(ground, op.basis, tuple(range(n // 2)))
    np.testing.assert_array_equal(_chain_point(n, v, "entanglement").probs, reference.probs)


def test_degenerate_ground_state_takes_the_lowest_particle_number(monkeypatch):
    # n=5, V=0: the N=2 and N=3 ground levels agree within DEGENERACY_TOL
    with_vectors = []

    def recording(op, keep_vectors=True):
        if keep_vectors:
            with_vectors.append(int(popcount(op.basis.state_array[0])))
        return exact_diagonalize(op, keep_vectors)

    monkeypatch.setattr(intdist.cli, "exact_diagonalize", recording)
    with pytest.warns(UserWarning, match="degenerate ground state at v=0"):
        _spectrum_at(_chain_cfg(5, 0.0, "entanglement"), 0.0)
    assert with_vectors == [2]


def _exhaustive_ground_state(chain: ChainParams):
    """The reference search: every sector solved, then the lowest particle number
    whose lowest level lies within DEGENERACY_TOL of E0 rebuilt with vectors."""
    levels = [exact_diagonalize(spinless_chain(chain, n), keep_vectors=False).energies
              for n in range(chain.n_sites + 1)]
    e0, e1 = np.sort(np.concatenate(levels))[:2]
    n = next(n for n, e in enumerate(levels) if e[0] - e0 <= DEGENERACY_TOL)
    ground = spinless_chain(chain, n)
    return ground, exact_diagonalize(ground), e0, e1, levels


# values drawn from a small set give exact degeneracies (uniform hopping, V = 0)
_COUPLING = st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-3.0, 3.0)


@st.composite
def _chains(draw):
    n = draw(st.integers(2, 8))
    return (n, draw(st.lists(_COUPLING, min_size=n - 1, max_size=n - 1)),
            draw(st.lists(_COUPLING, min_size=n, max_size=n)), draw(_COUPLING))


@settings(max_examples=60, deadline=None)
@given(_chains())
@example((5, [1.0] * 4, [0.0] * 5, 0.0))  # free odd chain: N = 2 and 3 share the ground level
@example((6, [1.0] * 5, [0.0] * 6, -2.0))  # attraction: the ground state fills the chain
# N = 2 is solved first and lies 1e-9 below N = 1, which is still the ground sector
@example((2, [0.0], [-1.0, 1e-9], -1e-9))
def test_pruned_ground_search_matches_the_exhaustive_search(chain):
    n, bonds, potential, v = chain
    hopping = np.diag(bonds, 1) + np.diag(bonds, -1)
    cfg = validate_config({"model": {"type": "chain", "n_sites": n, "hopping": hopping.tolist(),
                                     "potential": potential},
                           "quantity": "entanglement"})
    spec, params = _configured_model(cfg)
    ref_ground, ref_eig, ref_e0, ref_e1, levels = _exhaustive_ground_state(
        ChainParams(**params, interaction=v))

    # Weyl's bound holds up to the rounding margin (at V = 0 it is the exact level)
    bounds, margin = _sector_bounds(spec, params, v)
    assert all(b <= e[0] + margin for b, e in zip(bounds, levels))

    ground, eig, e0, e1 = _ground_state(spec, params, v)
    assert popcount(ground.basis.state_array[0]) == popcount(ref_ground.basis.state_array[0])
    assert (e0, e1) == (ref_e0, ref_e1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        probs = _spectrum_at(cfg, v).probs
    assert len(caught) == (ref_e1 - ref_e0 <= DEGENERACY_TOL)
    assert all(f"E1 - E0 = {ref_e1 - ref_e0:.3g})" in str(w.message) for w in caught)
    region = tuple(range(n // 2))
    np.testing.assert_array_equal(
        probs, reduced_density_spectrum(ref_eig.vectors[:, 0], ref_ground.basis, region).probs)


def test_ground_search_solve_order(monkeypatch):
    # n=12, V=1: N = 6, 5 and 4 hold the two lowest levels or cannot be ruled out;
    # every other sector's bound clears them, and N = 5 is rebuilt with vectors
    calls = []
    solve = intdist.cli._solve_sector

    def recording(spec, params, v, n, keep_vectors=False):
        calls.append((n, keep_vectors))
        return solve(spec, params, v, n, keep_vectors)

    monkeypatch.setattr(intdist.cli, "_solve_sector", recording)
    _spectrum_at(_chain_cfg(12, 1.0, "entanglement"), 1.0)
    assert calls == [(6, False), (5, False), (4, False), (5, True)]


@pytest.mark.parametrize("v", [-3.0, 0.0, 2.0, 1e6])
def test_dimer_sector_bound_holds(v):
    # the dimer's one block, S_z = 0, holds some of the N = 2 levels, so the N = 2 bound holds
    spec, params = _configured_model(validate_config({"model": {"type": "dimer"},
                                                      "quantity": "entanglement"}))
    bounds, margin = _sector_bounds(spec, params, v)
    lowest = exact_diagonalize(hubbard_dimer(DimerParams(v=v))[0], keep_vectors=False).energies[0]
    assert bounds.shape == (1,) and np.isfinite(bounds[0]) and bounds[0] <= lowest + margin


def test_entanglement_point_allocates_no_full_space_matrix():
    cfg = _chain_cfg(12, 1.0, "entanglement")
    tracemalloc.start()
    try:
        _spectrum_at(cfg, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # one dense 4096 x 4096 float64 matrix alone is 128 MiB


def test_perturbative_context_holds_one_sector_at_a_time():
    # the n=12 sectors' operators and eigenvectors held together peak near 50 MiB;
    # the largest sector, C(12, 6) = 924 states, needs about 7 MiB per dense matrix
    cfg = _chain_cfg(12, 0.0, "thermal")
    tracemalloc.start()
    try:
        _perturbative_context(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_chain_sweep_free_column(capsys):
    code, out, _ = _run(capsys, ["sweep", "--model", "chain", "--n-sites", "3",
                                 "--v-min", "0", "--v-max", "0", "--v-steps", "1",
                                 "--restarts", "4"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))
    assert all(float(r["d_f"]) <= 1e-6 for r in rows)


def test_compare_dimer_thermal(capsys):
    code, out, _ = _run(capsys, ["compare", "--v-min", "0", "--v-max", "0.25",
                                 "--v-steps", "2", "--restarts", "6"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))
    assert set(rows[0]) >= {"exact", "perturbative", "abs_diff"}
    assert float(rows[0]["exact"]) <= 1e-10
    assert float(rows[0]["perturbative"]) <= 1e-10
    assert float(rows[1]["abs_diff"]) <= 0.005


def test_compare_resolves_degeneracies_once_per_run(monkeypatch):
    # the degenerate first-order split does not depend on the coupling or temperature;
    # it runs once per particle-number sector, whose sizes are C(4, N)
    calls = []

    def counting(h0_eigen, v_diag):
        calls.append(h0_eigen.energies.size)
        return resolve_degeneracies(h0_eigen, v_diag)

    monkeypatch.setattr(intdist.cli, "resolve_degeneracies", counting)
    cfg = validate_config({"model": {"type": "chain", "n_sites": 4}, "quantity": "thermal",
                           "coupling_grid": {"min": 0.0, "max": 0.5, "steps": 3},
                           "temperature_grid": {"min": 0.5, "max": 2.0, "steps": 2},
                           "optimizer": FAST_OPT})
    assert len(run_compare(cfg)) == 6
    assert calls == [1, 4, 6, 4, 1]


@pytest.mark.parametrize("runner, quantity, solves", [
    (run_sweep, "thermal", 3 * 5),
    (run_compare, "thermal", 3 * 5 + 5),  # plus the first-order context's sectors at v = 0
    # N = 2 and 1 solved, then the ground sector N = 2 again with vectors; the bounds
    # of N = 0, 3 and 4 clear the two lowest levels, so those sectors are skipped
    (run_sweep, "entanglement", 3 * 3),
])
def test_each_coupling_diagonalizes_its_sectors_once(monkeypatch, runner, quantity, solves):
    # an n=4 chain, whose sectors hold N = 0..4 particles, at 3 couplings (times
    # 3 temperatures for the thermal quantity, which share their coupling's levels)
    calls = []
    solve = intdist.cli._solve_sector

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(intdist.cli, "_solve_sector", counting)
    temperatures = {"temperature_grid": {"min": 0.5, "max": 2.0, "steps": 3}}
    cfg = validate_config({"model": {"type": "chain", "n_sites": 4}, "quantity": quantity,
                           "coupling_grid": {"min": 0.5, "max": 1.5, "steps": 3},
                           **(temperatures if quantity == "thermal" else {}),
                           "optimizer": FAST_OPT})
    assert len(runner(cfg)) == (9 if quantity == "thermal" else 3)
    assert len(calls) == solves


@pytest.mark.parametrize("n, potential", [(n, 0.0) for n in range(2, 11)]
                         + [(6, [0.3, -0.2, 0.0, 0.5, -0.4, 0.1])])
def test_sector_context_matches_full_space_split(n, potential):
    cfg = validate_config({"model": {"type": "chain", "n_sites": n, "potential": potential},
                           "quantity": "thermal"})
    energies, slope, pattern = _perturbative_context(cfg)
    h0 = spinless_chain(ChainParams(n_sites=n, potential=potential))
    eig = exact_diagonalize(h0)
    coupling = ChainParams(n, interaction=1.0).interaction_matrix()
    unit_v = density_density_diagonal(h0.basis, coupling)
    np.testing.assert_array_equal(energies, eig.energies)
    np.testing.assert_array_equal(pattern, infer_free_labeling(eig.energies)[1])
    np.testing.assert_allclose(slope, resolve_degeneracies(eig, unit_v)[0], rtol=0, atol=1e-13)


def test_compare_dimer_entanglement(capsys):
    code, out, _ = _run(capsys, ["compare", "--quantity", "entanglement",
                                 "--v-min", "0.5", "--v-max", "0.5", "--v-steps", "1",
                                 "--restarts", "6"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))
    assert float(rows[0]["abs_diff"]) <= 0.01


def _compare_entanglement_rows(capsys, tmp_path, model):
    """Rows of an entanglement compare at couplings 0 and 0.5."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": model, "quantity": "entanglement",
                                    "coupling_grid": {"min": 0.0, "max": 0.5, "steps": 2},
                                    "optimizer": FAST_OPT}))
    code, out, err = _run(capsys, ["compare", "--config", str(cfg_path)])
    assert code == 0, err
    return list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))


def test_compare_entanglement_uses_configured_couplings(capsys, tmp_path):
    rows = _compare_entanglement_rows(capsys, tmp_path, {"type": "dimer", "t": 2.0})
    h0, _ = hubbard_dimer(DimerParams(t=2.0))
    unit_v = hubbard_dimer(DimerParams(t=2.0, v=1.0))[1]
    rdm = first_order_reduced_density(exact_diagonalize(h0), unit_v, dimer_sector_basis(),
                                      DIMER_SITE1_MODES)
    assert rows[1]["v"] == "0.5"
    assert rows[1]["perturbative"] == f"{perturbative_dent(*rdm, 0.5):.12g}"
    assert rows[1]["perturbative"] != "0.00937294406076"  # the default-coupling value


def test_compare_entanglement_product_state_gives_nan(capsys, tmp_path):
    # t = 0 decouples the sites: the ground state is a product state
    rows = _compare_entanglement_rows(capsys, tmp_path, {"type": "dimer", "t": 0.0})
    assert [r["perturbative"] for r in rows] == ["nan", "nan"]


def test_compare_chain_entanglement_rejected(capsys):
    code, _, err = _run(capsys, ["compare", "--model", "chain", "--n-sites", "3",
                                 "--quantity", "entanglement"])
    assert code == 2
    assert "dimer" in err


def test_config_error_names_field(capsys):
    code, _, err = _run(capsys, ["sweep", "--v-steps", "0"])
    assert code == 2
    assert "coupling_grid.steps" in err


def test_config_rejects_unknown_top_level_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mystery": 1}))
    code, _, err = _run(capsys, ["sweep", "--config", str(cfg_path)])
    assert code == 2
    assert "mystery" in err


def test_config_rejects_beta_with_temperature_grid(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"beta": 2.0,
                                    "temperature_grid": {"min": 0.5, "max": 1.0, "steps": 2}}))
    code, _, err = _run(capsys, ["sweep", "--config", str(cfg_path)])
    assert code == 2
    assert "mutually exclusive" in err


def test_config_rejects_temperature_grid_for_entanglement(capsys):
    code, _, err = _run(capsys, ["sweep", "--quantity", "entanglement",
                                 "--t-min", "0.5", "--t-max", "1.0", "--t-steps", "2"])
    assert code == 2
    assert "entanglement" in err


def test_config_rejects_chain_without_sites(capsys):
    code, _, err = _run(capsys, ["sweep", "--model", "chain"])
    assert code == 2
    assert "n_sites" in err


def test_config_rejects_chain_beyond_site_cap(capsys):
    # the cap is the largest chain whose Fock space fits spectra.MAX_DIM
    code, _, err = _run(capsys, ["sweep", "--model", "chain", "--n-sites", "15"])
    assert code == 2
    assert "n_sites" in err and "14" in err


# config file -> the field its error message must name
_CONFIG_FILE_ERRORS = [
    ({"model": {"type": "chain", "n_sites": 4, "hopping": "x"}}, "model.hopping"),
    ({"model": {"type": "chain", "n_sites": 4, "potential": [1, 2]}}, "model.potential"),
    ({"model": {"type": "chain", "n_sites": 4, "hopping": [[0, 1], [1, 0]]}}, "model.hopping"),
    ({"model": {"type": "chain", "n_sites": 3, "hopping": True}}, "model.hopping"),
    ({"model": {"type": "chain", "n_sites": 3, "potential": [0, 0, float("nan")]}},
     "model.potential"),
    ({"model": {"type": "chain", "n_sites": True}}, "model.n_sites"),
    ({"model": {"type": "chain", "n_sites": 1}, "quantity": "entanglement"}, "model.n_sites"),
    ({"model": {"type": "dimer", "t": True}}, "model.t"),
    ({"model": 3}, "model"),
    ({"model": "chain"}, "model must be an object"),
    ({"optimizer": {"seed": -1}}, "optimizer.seed"),
    ({"optimizer": {"restarts": True}}, "optimizer.restarts"),
    ({"coupling_grid": {"min": 0, "max": "inf", "steps": 2}}, "coupling_grid.max"),
    ({"coupling_grid": {"min": 0, "max": 1, "steps": True}}, "coupling_grid"),
    ({"temperature_grid": {"min": 0.5, "max": "inf", "steps": 2}}, "temperature_grid.max"),
    # numeric strings, booleans and integers beyond the float range are not numbers
    ({"coupling_grid": {"min": "0", "max": "1e0", "steps": 2}}, "coupling_grid.min"),
    ({"coupling_grid": {"min": 0, "max": "1e0", "steps": 2}},
     "coupling_grid.max must be a finite number"),
    ({"temperature_grid": {"min": "0.5", "max": 1, "steps": 2}}, "temperature_grid.min"),
    ({"coupling_grid": {"min": 0, "max": 10**400, "steps": 2}},
     "config error: coupling_grid.max"),
    ({"model": {"type": "dimer", "t": 10**400}}, "model.t must be a number"),
    ({"model": {"type": "chain", "n_sites": 3, "potential": 10**400}}, "model.potential is invalid"),
    ({"quantity": "entanglement", "beta": True}, "beta"),
    # fractional steps: the whole message, since the field alone repeats an id above
    ({"coupling_grid": {"min": 0, "max": 1, "steps": 2.7}},
     "coupling_grid requires numeric min/max and integer steps"),
    ({"temperature_grid": {"min": 0.5, "max": 1, "steps": 2.7}},
     "temperature_grid requires numeric min/max and integer steps"),
    # values whose difference or reciprocal overflows the float range
    ({"coupling_grid": {"min": -1e308, "max": 1e308, "steps": 3}},
     "coupling_grid.min and coupling_grid.max must differ by a finite number"),
    ({"temperature_grid": {"min": 1e-320, "max": 1, "steps": 2}},
     "temperature_grid.min must be positive with a finite reciprocal"),
    ({"beta": 1e-320, "output": {"format": "jsonl"}},
     "beta must be a positive finite number with a finite reciprocal"),
    ({"output": 3}, "output"),
    ({"output": {"path": 5}}, "output.path"),
]


@pytest.mark.parametrize("cfg, field", _CONFIG_FILE_ERRORS,
                         ids=[field for _, field in _CONFIG_FILE_ERRORS])
def test_config_file_errors_exit_2_and_name_the_field(cfg, field, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, ["sweep", "--config", str(cfg_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ") and field in err


# flag -> (value the config file sets, value the flag sets)
_PRECEDENCE_CASES = {
    "--model": ("chain", "dimer"),
    "--n-sites": (2, 3),
    "--quantity": ("entanglement", "thermal"),
    "--v-min": (0.5, 0.25),
    "--v-max": (1.0, 2.0),
    "--v-steps": (1, 2),
    "--beta": (2.0, 0.5),
    "--t-min": (1.0, 0.5),
    "--t-max": (2.0, 3.0),
    "--t-steps": (1, 2),
    "--seed": (1, 2),
    "--restarts": (1, 2),
    "--max-iter": (20, 30),
    "--out": ("file.csv", "flag.csv"),
    "--format": ("csv", "jsonl"),
}


# the echoed model after a chain file with hopping 0.5 and a model flag
_MODEL_AFTER_FLAG = {
    "--model": {"type": "dimer", "t": 1.0, "delta1": 1.0, "delta2": -1.0},
    "--n-sites": {"type": "chain", "n_sites": 3, "hopping": 0.5, "potential": 0.0},
}


# finite configs whose Hamiltonian overflows the float range
_OVERFLOW_CASES = {
    "dimer-thermal": (["sweep"], {"model": {"type": "dimer", "t": 1e308}}),
    "dimer-entanglement": (["sweep", "--quantity", "entanglement"],
                           {"model": {"type": "dimer", "t": 1e308}}),
    "chain-sweep": (["sweep", "--model", "chain", "--n-sites", "4", "--v-min", "1e308",
                     "--v-max", "1e308"], {}),
    "chain-compare": (["compare", "--model", "chain", "--n-sites", "4", "--v-min", "1e308",
                       "--v-max", "1e308"], {}),
    # the overflowing sectors' bounds would clear the two lowest levels: none may be skipped
    "chain-entanglement": (["sweep", "--model", "chain", "--n-sites", "4", "--quantity",
                            "entanglement", "--v-min", "1e308", "--v-max", "1e308"], {}),
    "chain-entanglement-attractive": (["sweep", "--model", "chain", "--n-sites", "4",
                                       "--quantity", "entanglement", "--v-min=-1e308",
                                       "--v-max=-1e308"], {}),
    # a kernel beyond the float range: no sector bound can be formed, so none is skipped
    "chain-kernel-entanglement": (["sweep", "--quantity", "entanglement"], {"model": {
        "type": "chain", "n_sites": 3, "potential": 1e308,
        "hopping": [[-1e308, 1, 0], [1, 0, 1], [0, 1, 0]]}}),
}


@pytest.mark.parametrize("argv, cfg", _OVERFLOW_CASES.values(), ids=list(_OVERFLOW_CASES))
def test_overflowing_hamiltonian_is_a_config_error(argv, cfg, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, argv + ["--config", str(cfg_path), "--v-steps", "1",
                                          "--restarts", "1"])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("config error: model fields {")
    assert "e+308" in err and "float range" in err


def _no_nan(token):
    raise ValueError(f"{token} is not JSON")


def test_jsonl_writes_null_for_non_finite_values(capsys):
    # the first-order entanglement spectrum fails at large coupling: perturbative is nan
    argv = ["compare", "--quantity", "entanglement", "--v-min", "0", "--v-max", "40",
            "--v-steps", "3", "--restarts", "4"]
    code, out, _ = _run(capsys, argv + ["--format", "jsonl"])
    assert code == 0
    rows = [json.loads(line, parse_constant=_no_nan) for line in out.splitlines()][1:]
    assert [r["perturbative"] is None for r in rows] == [False, True, True]
    assert rows[1]["abs_diff"] is None and rows[1]["exact"] > 0
    _, out, _ = _run(capsys, argv)
    rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))
    assert [r["perturbative"] == "nan" for r in rows] == [False, True, True]


@pytest.mark.parametrize("flag", list(_FLAGS))
def test_flag_overrides_config_file(flag, tmp_path, capsys):
    path, _ = _FLAGS[flag]
    file_value, flag_value = _PRECEDENCE_CASES[flag]
    if flag == "--out":
        file_value, flag_value = str(tmp_path / file_value), str(tmp_path / flag_value)
    cfg = {"coupling_grid": {"min": 0.0, "max": 1.0, "steps": 1},
           "optimizer": {"seed": 1, "restarts": 1, "max_iter": 20}}
    if path[0] == "model":
        cfg["model"] = {"type": "chain", "n_sites": 2, "hopping": 0.5}
    if path[0] == "temperature_grid":
        cfg["temperature_grid"] = {"min": 1.0, "max": 2.0, "steps": 1}
    (cfg if len(path) == 1 else cfg.setdefault(path[0], {}))[path[-1]] = file_value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = _run(capsys, ["sweep", "--config", str(cfg_path), flag, str(flag_value)])
    assert code == 0
    first = ((tmp_path / "flag.csv").read_text() if flag == "--out" else out).splitlines()[0]
    if first.startswith("# config: "):
        echoed = json.loads(first[len("# config: "):])
    else:
        echoed = json.loads(first)["config"]
    assert (echoed if len(path) == 1 else echoed[path[0]])[path[-1]] == flag_value
    if path[0] == "model":  # a new model type replaces the file's model, the same type merges
        assert echoed["model"] == _MODEL_AFTER_FLAG[flag]


def test_n_sites_flag_replaces_a_dimer_file_model(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"type": "dimer", "t": 2.0}}))
    code, out, _ = _run(capsys, ["sweep", "--config", str(cfg_path), "--n-sites", "6",
                                 "--v-steps", "1", "--restarts", "1", "--max-iter", "20"])
    assert code == 0
    echoed = json.loads(out.splitlines()[0][len("# config: "):])
    assert echoed["model"] == {"type": "chain", "n_sites": 6, "hopping": 1.0, "potential": 0.0}


def test_unwritable_output_path(capsys):
    code, _, err = _run(capsys, ["sweep", "--v-min", "0", "--v-max", "0", "--v-steps", "1",
                                 "--restarts", "4", "--out", "/nonexistent-dir/x.csv"])
    assert code == 2
    assert "output.path" in err


def test_strict_flag_reports_nonconvergence(capsys):
    # one simplex step on an interacting point cannot converge
    code, out, err = _run(capsys, ["sweep", "--v-min", "2", "--v-max", "2", "--v-steps", "1",
                                   "--restarts", "1", "--max-iter", "1", "--strict"])
    assert code == 3
    assert "did not converge" in err
    rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))
    assert rows[0]["converged"] == "false"


def test_validate_config_defaults_roundtrip():
    cfg = validate_config({"model": {"type": "dimer"}, "quantity": "thermal",
                           "coupling_grid": {"min": 0.0, "max": 1.0, "steps": 2}})
    assert cfg["beta"] == 1.0
    assert cfg["optimizer"]["restarts"] == 16
    assert cfg["output"]["format"] == "csv"


def test_run_sweep_python_api():
    cfg = validate_config({"model": {"type": "dimer"}, "quantity": "thermal",
                           "coupling_grid": {"min": 0.0, "max": 0.0, "steps": 1},
                           "optimizer": FAST_OPT})
    rows = run_sweep(cfg)
    assert len(rows) == 1
    assert rows[0]["d_f"] <= 1e-8
    text = render_csv(cfg, rows)
    assert text.startswith("# config: ")


@pytest.mark.parametrize("steps", [1, 2])
def test_grid_starting_at_negative_zero_prints_zero(steps, capsys):
    code, out, _ = _run(capsys, ["sweep", "--v-min=-0.0", "--v-max", "1", "--v-steps", str(steps),
                                 "--restarts", "1", "--max-iter", "20"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))
    assert rows[0]["v"] == "0"


# grid flag -> the other flags of a sweep that gives it a negative value in exponent form
_NEGATIVE_GRID_VALUES = {
    "--v-min": ["--v-max", "0", "--v-steps", "1"],
    "--v-max": ["--v-min=-2e-3", "--v-steps", "2"],
    "--t-min": ["--t-max", "1", "--t-steps", "1"],  # a config error, as with '='
    "--t-max": ["--t-min=-2e-3", "--t-steps", "1"],
}


@pytest.mark.parametrize("flag", list(_NEGATIVE_GRID_VALUES))
def test_negative_exponent_value_parses_as_with_equals(flag, capsys):
    rest = _NEGATIVE_GRID_VALUES[flag] + ["--restarts", "1", "--max-iter", "20"]
    separate = _run(capsys, ["sweep", flag, "-1e-3"] + rest)
    assert separate == _run(capsys, ["sweep", f"{flag}=-1e-3"] + rest)
    assert separate[0] == (0 if flag.startswith("--v") else 2)


def test_floats_use_twelve_significant_digits(capsys):
    code, out, _ = _run(capsys, ["sweep", "--v-min", "2", "--v-max", "2", "--v-steps", "1",
                                 "--restarts", "4"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))
    mantissa = rows[0]["d_f"].lstrip("-0.").replace(".", "").rstrip("0")
    assert len(mantissa) <= 12
    assert float(rows[0]["d_f"]) == pytest.approx(0.0072677095, abs=1e-6)
