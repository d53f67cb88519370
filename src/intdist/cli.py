"""Command-line front end: coupling/temperature sweeps and exact-vs-perturbative
comparisons, emitted as CSV or JSON lines.

Configuration is a single JSON document (``--config``) with flag overrides;
precedence is flags > file > defaults.  The effective configuration is echoed
into the output header so every emitted table is self-describing, and results
are byte-identical across runs for a fixed seed.  Grid points run one after
another in grid-major order (coupling outer, temperature inner); each
coupling's sectors are diagonalized once for all its temperatures.
"""

import argparse
import csv
import io
import json
import math
import re
import sys
import time
import warnings
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import __version__
from .distance import OptimizerOptions, df_upper_bound, interaction_distance
from .fock import build_basis, density_density_diagonal
from .free_fermion import diagonalize_kernel
from .models import (DIMER_SITE1_MODES, ChainParams, DimerParams, dimer_interaction_matrix,
                     dimer_kernel, hubbard_dimer, spinless_chain)
from .perturbation import (DEGENERACY_TOL, degenerate_groups, first_order_reduced_density,
                           infer_free_labeling, perturbative_dent, perturbative_dth,
                           perturbative_free_decomposition, resolve_degeneracies)
from .spectra import exact_diagonalize, reduced_density_spectrum, thermal_probabilities

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

#: Rounding margin, relative to max(1, mode count x a norm bound of the sector Hamiltonians),
#: by which a sector's lower bound must clear the two lowest levels for it to be skipped.
SECTOR_BOUND_TOL = 1e-9


class ConfigError(ValueError):
    """Invalid sweep configuration; the message names the offending field."""


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or float that converts to a finite float."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


# ------------------------------------------------------------------- models

def _check_dimer(params: dict):
    for key, value in params.items():
        _require(_is_number(value), f"model.{key} must be a number")


def _check_chain(params: dict):
    try:
        chain = ChainParams(**params)
    except ValueError as exc:  # the one field ChainParams checks: n_sites
        raise ConfigError(f"model.{exc}") from exc
    for key, build in (("hopping", chain.hopping_matrix), ("potential", chain.potential_vector)):
        try:
            finite = not isinstance(params[key], bool) and bool(np.isfinite(build()).all())
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"model.{key} is invalid: {exc}") from exc
        _require(finite, f"model.{key} must be a finite number or array")


@dataclass(frozen=True)
class _Model:
    """What the CLI needs to know about one ``model.type``.

    The callables take the model's parameters: its config section without ``type``.
    """

    fields: dict                # config fields with their defaults (None: required)
    check: Callable             # params -> None; raises ConfigError
    numbers: Callable            # params -> particle numbers of the model's sectors, ascending
    sector: Callable             # (params, v, n) -> Hamiltonian over the n-particle sector
    interaction: Callable        # params -> density-density coupling matrix at v = 1
    region: Callable             # params -> modes on one side of the entanglement cut
    kernel: Callable             # params -> one-body kernel


# The builders look the model functions up at call time, so wrappers installed
# on this module's names (as the perfbench tracer does) see every call.
_MODELS = {
    "dimer": _Model(
        fields={"t": 1.0, "delta1": 1.0, "delta2": -1.0},
        check=_check_dimer,
        numbers=lambda params: (2,),
        sector=lambda params, v, n: hubbard_dimer(DimerParams(**params, v=v))[0],
        interaction=lambda params: dimer_interaction_matrix(1.0),
        region=lambda params: DIMER_SITE1_MODES,
        kernel=lambda params: dimer_kernel(DimerParams(**params)),
    ),
    "chain": _Model(
        fields={"n_sites": None, "hopping": 1.0, "potential": 0.0},
        check=_check_chain,
        numbers=lambda params: range(params["n_sites"] + 1),
        sector=lambda params, v, n: spinless_chain(ChainParams(**params, interaction=v), n),
        interaction=lambda params: ChainParams(**params, interaction=1.0).interaction_matrix(),
        region=lambda params: tuple(range(max(1, params["n_sites"] // 2))),
        kernel=lambda params: ChainParams(**params).kernel(),
    ),
}


def _configured_model(cfg: dict):
    """The table entry of the configured model, and the model's parameters."""
    params = dict(cfg["model"])
    return _MODELS[params.pop("type")], params


# ------------------------------------------------------------------- config

_DEFAULT_CONFIG = {
    "model": {"type": "dimer", **_MODELS["dimer"].fields},
    "quantity": "thermal",
    "coupling_grid": {"min": 0.0, "max": 6.0, "steps": 61},
    "optimizer": asdict(OptimizerOptions()),
    "output": {"path": None, "format": "csv"},
}

_KNOWN_TOP = set(_DEFAULT_CONFIG) | {"beta", "temperature_grid"}


def _merge(base: dict, override: dict) -> dict:
    """override merged into base, object by object; an object whose ``type`` changes
    replaces the base one, since merging would leave stale fields of the other type."""
    out = dict(base)
    for key, value in override.items():
        old = out.get(key)
        merge = isinstance(value, dict) and isinstance(old, dict) and (
            value.get("type", old.get("type")) == old.get("type"))
        out[key] = _merge(old, value) if merge else value
    return out


def _grid_values(spec, name: str) -> np.ndarray:
    _require(isinstance(spec, dict), f"{name} must be an object with min/max/steps")
    unknown = set(spec) - {"min", "max", "steps"}
    _require(not unknown, f"{name} has unknown fields {sorted(unknown)}")
    _require(set(spec) == {"min", "max", "steps"} and _is_int(spec["steps"]),
             f"{name} requires numeric min/max and integer steps")
    for key in ("min", "max"):
        _require(_is_number(spec[key]), f"{name}.{key} must be a finite number")
    lo, hi, steps = float(spec["min"]), float(spec["max"]), spec["steps"]
    _require(steps >= 1, f"{name}.steps must be >= 1")
    _require(lo <= hi, f"{name}.min must not exceed {name}.max")
    _require(_is_number(hi - lo), f"{name}.min and {name}.max must differ by a finite number")
    return np.linspace(lo, hi, steps)


def _section(value, name: str, defaults: dict) -> dict:
    """A config object merged over defaults; it may hold no field that defaults lacks."""
    _require(isinstance(value, dict), f"{name} must be an object")
    unknown = set(value) - set(defaults)
    _require(not unknown, f"{name} has unknown fields {sorted(unknown)}")
    return {**defaults, **value}


def validate_config(raw: dict) -> dict:
    """Normalize and validate a merged configuration dictionary."""
    unknown = set(raw) - _KNOWN_TOP
    _require(not unknown, f"unknown config fields {sorted(unknown)}")
    cfg = json.loads(json.dumps(raw))  # deep copy, JSON-typed

    model = cfg.get("model", {})
    _require(isinstance(model, dict), "model must be an object")
    _require(model.get("type") in tuple(_MODELS), "model.type must be 'dimer' or 'chain'")
    spec = _MODELS[model["type"]]
    model = cfg["model"] = _section(model, "model", {"type": None, **spec.fields})
    spec.check({key: model[key] for key in spec.fields})

    quantity = cfg.get("quantity")
    _require(quantity in ("thermal", "entanglement"),
             "quantity must be 'thermal' or 'entanglement'")

    _grid_values(cfg.get("coupling_grid", _DEFAULT_CONFIG["coupling_grid"]), "coupling_grid")
    cfg.setdefault("coupling_grid", dict(_DEFAULT_CONFIG["coupling_grid"]))

    has_tgrid = "temperature_grid" in cfg
    if quantity == "entanglement":
        _require(not has_tgrid, "temperature_grid is not applicable to quantity=entanglement")
        beta = cfg.get("beta", 1.0)
        _require(_is_number(beta) and beta == 1.0,
                 "beta must be 1 (or omitted) for quantity=entanglement")
        cfg["beta"] = 1.0
        # a one-site chain has no bipartition
        _require(model.get("n_sites", 2) >= 2,
                 "model.n_sites must be >= 2 for quantity=entanglement")
    elif has_tgrid:
        grid = _grid_values(cfg["temperature_grid"], "temperature_grid")
        _require(grid.min() > 0 and _is_number(1.0 / float(grid.min())),
                 "temperature_grid.min must be positive with a finite reciprocal")
        _require("beta" not in cfg or cfg["beta"] is None,
                 "beta and temperature_grid are mutually exclusive")
        cfg.pop("beta", None)
    else:
        beta = cfg.get("beta", 1.0)
        _require(_is_number(beta) and beta > 0 and _is_number(1.0 / beta),
                 "beta must be a positive finite number with a finite reciprocal")
        cfg["beta"] = float(beta)

    opt = cfg["optimizer"] = _section(cfg.get("optimizer", {}), "optimizer",
                                      _DEFAULT_CONFIG["optimizer"])
    try:
        OptimizerOptions(**opt)
    except ValueError as exc:
        raise ConfigError(f"optimizer.{exc}") from exc

    out = cfg["output"] = _section(cfg.get("output", {}), "output", _DEFAULT_CONFIG["output"])
    _require(out["path"] is None or isinstance(out["path"], str),
             "output.path must be a string or null")
    _require(out["format"] in ("csv", "jsonl"), "output.format must be 'csv' or 'jsonl'")
    return cfg


# ----------------------------------------------------------------- grid rows

def _solve_sector(spec: _Model, params: dict, v: float, n: int, keep_vectors: bool = False):
    """The n-particle sector's Hamiltonian at coupling v and its eigensystem.

    A validated config fails here only by overflow: an inf or nan entry fails
    the Hermiticity check, or a finite matrix has levels beyond the float range.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            op = spec.sector(params, v, n)
            eig = exact_diagonalize(op, keep_vectors)
    except ValueError:
        eig = None
    if eig is None or not np.isfinite(eig.energies).all():
        raise ConfigError(f"model fields {json.dumps(params, sort_keys=True)} at coupling "
                          f"v={v:.12g} give a Hamiltonian beyond the float range")
    return op, eig


def _sector_bounds(spec: _Model, params: dict, v: float):
    """Lower bounds on each sector's lowest level at coupling v, and their rounding margin.

    By Weyl's inequality the lowest level of the n-particle sector, or of the dimer's
    S_z = 0 block within it, is at least the sum of the n lowest single-particle
    energies plus the least entry of the sector's interaction diagonal.  Where the kernel,
    a diagonal or the mode count times a norm bound of the sector Hamiltonians is not
    finite, every bound is -inf: every sector is solved, so an overflowing one raises.
    """
    numbers = spec.numbers(params)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            eps = diagonalize_kernel(spec.kernel(params))
            coupling = v * spec.interaction(params)
            diags = [density_density_diagonal(build_basis(eps.size, n), coupling) for n in numbers]
            scale = eps.size * (np.abs(eps).sum() + np.max([np.abs(d).max() for d in diags]))
        except ValueError:  # symmetric_matrix rejects a kernel that is not finite
            scale = np.inf
    if not np.isfinite(scale):
        return np.full(len(numbers), -np.inf), 0.0
    bounds = np.array([eps[:n].sum() + d.min() for n, d in zip(numbers, diags)])
    return bounds, SECTOR_BOUND_TOL * max(1.0, scale)


def _ground_state(spec: _Model, params: dict, v: float):
    """The ground sector with vectors, and the two lowest levels E0 <= E1, at coupling v.

    Sectors are solved without vectors in ascending order of their
    ``_sector_bounds``, up to the first whose bound exceeds max(E1, E0 +
    DEGENERACY_TOL) of the levels found so far by more than the rounding margin;
    no later sector can hold either level.  The ground sector is the lowest
    particle number whose lowest level lies within DEGENERACY_TOL of E0.
    """
    numbers = spec.numbers(params)
    bounds, margin = _sector_bounds(spec, params, v)
    lowest, e0, e1 = {}, np.inf, np.inf
    for k in np.argsort(bounds, kind="stable"):
        if bounds[k] > max(e1, e0 + DEGENERACY_TOL) + margin:
            break
        energies = _solve_sector(spec, params, v, numbers[k])[1].energies
        lowest[numbers[k]] = energies[0]
        e0, e1 = sorted([e0, e1, *energies[:2]])[:2]
    n = min(n for n, e in lowest.items() if e - e0 <= DEGENERACY_TOL)
    return (*_solve_sector(spec, params, v, n, keep_vectors=True), e0, e1)


def _spectrum_at(cfg: dict, v: float):
    """What all temperatures at coupling v share: thermal levels or entanglement spectrum.

    Thermal: every particle-number sector is built and diagonalized on its own,
    without vectors.  Entanglement: the spectrum of the ground state of
    ``_ground_state``, which skips the sectors that cannot hold the two lowest levels.
    """
    spec, params = _configured_model(cfg)
    if cfg["quantity"] == "thermal":
        return np.sort(np.concatenate([_solve_sector(spec, params, v, n)[1].energies
                                       for n in spec.numbers(params)]))
    ground, eig, e0, e1 = _ground_state(spec, params, v)
    if e1 - e0 <= DEGENERACY_TOL:
        warnings.warn(f"degenerate ground state at v={v:g} (E1 - E0 = {e1 - e0:.3g}): the "
                      "entanglement spectrum is that of one of the ground states", stacklevel=2)
    return reduced_density_spectrum(eig.vectors[:, 0], ground.basis, spec.region(params))


def _rows(cfg: dict, context=None):
    """The grid's rows in grid-major order, each row's keys in CSV order.

    Without a context these are sweep rows with ``d_f``; with the context of
    ``_perturbative_context`` they are compare rows, whose ``exact``,
    ``perturbative`` and ``abs_diff`` stand where ``d_f`` would.  ``wall_time_s``
    runs from the previous row's end: a coupling's first row carries its sectors' EDs.
    """
    options = OptimizerOptions(**cfg["optimizer"])
    params = _configured_model(cfg)[1]
    if "temperature_grid" in cfg:
        temps = _grid_values(cfg["temperature_grid"], "temperature_grid")
        inner = [(1.0 / float(t), float(t)) for t in temps]
    else:  # validate_config fixes beta = 1 for entanglement
        inner = [(float(cfg["beta"]), 1.0 / float(cfg["beta"]))]
    start = time.perf_counter()
    for v in map(float, _grid_values(cfg["coupling_grid"], "coupling_grid")):
        shared = _spectrum_at(cfg, v)
        for beta, temperature in inner:
            rho = thermal_probabilities(shared, beta) if cfg["quantity"] == "thermal" else shared
            res = interaction_distance(rho, None, beta, options)
            row = {"model": cfg["model"]["type"], "params": params, "quantity": cfg["quantity"],
                   "v": v, "beta": beta, "temperature": temperature}
            if context is None:
                row["d_f"] = res.value
            else:
                pert = _first_order(cfg, context, v, beta)
                row.update(exact=res.value, perturbative=pert, abs_diff=abs(res.value - pert))
            end = time.perf_counter()
            row.update(epsilons=list(res.optimal_epsilons),
                       converged=bool(res.optimizer_info["converged"]), wall_time_s=end - start)
            start = end
            yield row


def _perturbative_context(cfg: dict):
    """The first-order data of a compare run that does not depend on the coupling.

    Thermal: (unperturbed energies, first-order energy per unit coupling,
    occupation pattern of each level).  Entanglement: (r0, slope) of the
    ground state's reduced density spectrum.  Computed once per run, one sector
    at a time; each grid point only evaluates the closed form at its coupling.
    """
    spec, params = _configured_model(cfg)
    coupling = spec.interaction(params)
    if cfg["quantity"] == "entanglement":
        ground, eig = _ground_state(spec, params, 0.0)[:2]
        return first_order_reduced_density(eig, density_density_diagonal(ground.basis, coupling),
                                           ground.basis, spec.region(params))
    splits = [_sector_split(spec, params, coupling, n) for n in spec.numbers(params)]
    energies = np.concatenate([e for e, _ in splits])
    order = np.argsort(energies, kind="stable")
    energies, slope = energies[order], np.concatenate([s for _, s in splits])[order]
    # the interaction conserves particle number, so a degenerate level splits into
    # the union of its sectors' splits, ascending as resolve_degeneracies orders it
    for group in degenerate_groups(energies):
        slope[group].sort()
    return energies, slope, infer_free_labeling(energies)[1]


def _sector_split(spec: _Model, params: dict, coupling, n: int):
    """One sector's unperturbed energies and first-order slopes per unit coupling."""
    op, eig = _solve_sector(spec, params, 0.0, n, keep_vectors=True)
    return eig.energies, resolve_degeneracies(eig, density_density_diagonal(op.basis, coupling))[0]


def _first_order(cfg: dict, context, v: float, beta: float) -> float:
    """The first-order distance at coupling v; nan where the entanglement form fails."""
    if cfg["quantity"] == "entanglement":
        try:
            return perturbative_dent(*context, v)
        except ValueError:
            return float("nan")
    energies, slope, pattern = context
    return perturbative_dth(perturbative_free_decomposition(energies + v * slope, pattern), beta)


def run_sweep(cfg: dict) -> list:
    """One interaction-distance row per grid point, in grid-major order."""
    return list(_rows(cfg))


def run_compare(cfg: dict) -> list:
    """Exact and first-order perturbative distances per grid point."""
    if cfg["quantity"] == "entanglement" and cfg["model"]["type"] != "dimer":
        raise ConfigError("compare with quantity=entanglement supports model.type=dimer only")
    context = _perturbative_context(cfg)
    return list(_rows(cfg, context))


def _worker_count() -> int:
    """Grid points run serially; ``perfbench/run.py`` records this as ``pool_workers``."""
    return 1


# -------------------------------------------------------------------- output

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, list):
        return ";".join(_fmt(e) for e in value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def render_csv(cfg: dict, rows: list) -> str:
    """CSV with the effective config echoed as a leading comment line.

    The columns are the first row's keys in order, less ``wall_time_s``: per-row
    wall time is reported only in the jsonl format, as its jitter would break
    the byte-identical reproducibility of CSV output.
    """
    buf = io.StringIO()
    buf.write(f"# config: {json.dumps(cfg, sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    columns = [key for key in rows[0] if key != "wall_time_s"]
    writer.writerow(columns)
    writer.writerows([_fmt(row[col]) for col in columns] for row in rows)
    return buf.getvalue()


def render_jsonl(cfg: dict, rows: list) -> str:
    # RFC 8259 has no NaN: a non-finite cell (a failed first-order column) is written as null
    lines = ({k: None if isinstance(x, float) and not math.isfinite(x) else x
              for k, x in line.items()} for line in [{"config": cfg}] + rows)
    return "".join(json.dumps(line, sort_keys=True, allow_nan=False) + "\n" for line in lines)


def _emit(cfg: dict, rows: list):
    if cfg["output"]["format"] == "csv":
        text = render_csv(cfg, rows)
    else:
        text = render_jsonl(cfg, rows)
    path = cfg["output"]["path"]
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"output.path is not writable: {exc}") from exc


# ----------------------------------------------------------------- argparse

#: Grid-command flags: the config field each one overrides, and its argparse settings.
_FLAGS = {
    "--model": (("model", "type"), {"choices": list(_MODELS)}),
    "--n-sites": (("model", "n_sites"), {"type": int, "help": "chain length (model=chain)"}),
    "--quantity": (("quantity",), {"choices": ["thermal", "entanglement"]}),
    "--v-min": (("coupling_grid", "min"), {"type": float}),
    "--v-max": (("coupling_grid", "max"), {"type": float}),
    "--v-steps": (("coupling_grid", "steps"), {"type": int}),
    "--beta": (("beta",), {"type": float}),
    "--t-min": (("temperature_grid", "min"), {"type": float}),
    "--t-max": (("temperature_grid", "max"), {"type": float}),
    "--t-steps": (("temperature_grid", "steps"), {"type": int}),
    "--seed": (("optimizer", "seed"), {"type": int}),
    "--restarts": (("optimizer", "restarts"), {"type": int}),
    "--max-iter": (("optimizer", "max_iter"), {"type": int}),
    "--out": (("output", "path"), {"help": "output path (default: stdout)"}),
    "--format": (("output", "format"), {"choices": ["csv", "jsonl"]}),
}


def _add_common_flags(sub):
    sub.add_argument("--config", help="path to a JSON configuration file")
    for flag, (_, settings) in _FLAGS.items():
        sub.add_argument(flag, **settings)
    sub.add_argument("--strict", action="store_true",
                     help="exit 3 if any grid point fails to converge")


def _overrides_from_args(args) -> dict:
    over: dict = {}
    for flag, (path, _) in _FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            section = over if len(path) == 1 else over.setdefault(path[0], {})
            section[path[-1]] = value
    if args.n_sites is not None:
        over["model"].setdefault("type", "chain")
    return over


def _load_config(args) -> dict:
    cfg = dict(_DEFAULT_CONFIG)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must contain a JSON object")
        cfg = _merge(cfg, file_cfg)
    return validate_config(_merge(cfg, _overrides_from_args(args)))


def _grid_command(args, runner) -> int:
    cfg = _load_config(args)
    rows = runner(cfg)
    _emit(cfg, rows)
    bad = sum(1 for row in rows if not row["converged"])
    if args.strict and bad:
        print(f"error: {bad} grid point(s) did not converge", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="intdist",
        description="Interaction distance sweeps over coupling and temperature.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common_flags(sub.add_parser("sweep", help="interaction distance over a parameter grid"))
    _add_common_flags(sub.add_parser("compare", help="exact vs first-order perturbative distance"))
    sub.add_parser("bound", help="print the universal upper bound 3 - 2*sqrt(2)")
    sub.add_parser("version", help="print the package version")

    # argparse (Python 3.10 to 3.12) takes a flag's separate value such as -1e-3 for an
    # option and reports the value missing; it reads --v-min=-1e-3 as meant
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] in _FLAGS and re.match(r"-\.?\d", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    if args.command == "bound":
        print(f"{df_upper_bound():.12g}")
        return EXIT_OK
    if args.command == "version":
        print(__version__)
        return EXIT_OK
    try:
        runner = run_sweep if args.command == "sweep" else run_compare
        return _grid_command(args, runner)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
