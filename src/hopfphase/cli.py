"""Batch command-line front end.

Verbs: derive (coefficient report), simulate (one model run), compare
(full-model vs phase-model deviation report), cluster-scan (two-cluster root
and stability tables). All output is JSON or columnar text ready for external
plotting; every file records the seed, so a fixed config gives byte-identical
results. Exit codes: 0 success, 2 configuration problem (including
trajectories or scan grids too large for physical memory, output files that
cannot be made, and writes that fail part way, such as on a full disk, which
may leave partial text in the file), 3 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import asdict, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .cluster import (_coefficients_at, alpha_polynomials, root_scans,
                      sync_frequency, sync_stability)
from .config import (ConfigError, RunConfig, _on_cycle, initial_full_state,
                     initial_phases, parse_config)
from .integrator import (_TEXT_ELEMENTS, AmplitudeCollapseError,
                         IntegrationError, TrajectoryTooLargeError,
                         _budget_steps, _require_memory, _row_blocks,
                         _value_texts, compare, integrate, trajectory_text)
from .normal_form import full_rhs_array
from .phase_model import phase_rhs_fast
from .reduction import (build_coupling, canonical_xi_chi, coupling_to_text,
                        reduction_constants, xi_chi_lambda_split)


# a lower bound on what a cluster scan holds per point of alpha_grid +
# psi_grid: its tracemalloc peak was 321-666 B per point with grids of
# 4,096 to 65,536 on the configs/ files, one of them (the other 64) or both,
# and 600-608 B with both grids 64; most of it is the root kernel's working
# set, both scans' cubics at once
_SCAN_POINT_BYTES = 320
_LINE_BLOCK = 2 ** 12  # cluster-scan writes its tables this many lines at a time
# a table line's flag by code: see _table_texts
_ALPHA_FLAGS = np.array(["0", "1", "none", "identically-zero"])
_PSI_FLAGS = np.array(["root", "root", "none", "identically-zero"])


def _unwritable(path: Path, reason: str) -> ConfigError:
    return ConfigError(f"cannot write output file '{path}': {reason}")


def _write(path: Path, texts):
    """Write the texts to path in turn, making its directory; an OSError from
    the open, any write or the close is a ConfigError, and what was written stays."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
    except OSError as exc:
        raise _unwritable(path, exc.strerror or exc) from exc


def _out_path(cfg: RunConfig, args, default: str) -> Path:
    """The verb's output file, checked before any work is done: it must not
    be a directory, and its nearest existing ancestor must be one."""
    if args.out is not None:
        path = Path(args.out)
    elif cfg.output is not None:
        path = Path(cfg.output)
    else:
        path = Path(default)
    try:
        # "", "." and "/" are directories with no parents
        if path.is_dir():
            reason = "it is a directory"
        elif not (ancestor := next(p for p in path.parents if p.exists())).is_dir():
            reason = f"'{ancestor}' is not a directory"
        else:
            return path
    except OSError as exc:
        reason = exc.strerror
    raise _unwritable(path, reason)


def _load_config(args) -> RunConfig:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    cfg = parse_config(text)
    # replace re-runs RunConfig's checks on the overridden fields
    overrides = _given(args, "seed", "dt", "t_end")
    return replace(cfg, **overrides) if overrides else cfg


def _given(args, *names) -> dict:
    """The named options that were passed on the command line."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _step(cfg: RunConfig, t_end: float, subject: str, bytes_per_osc: int,
          coupling=None) -> float:
    """cfg's step, refused before any work, in order, if it passes t_end, if
    subject (bytes_per_osc bytes a step and oscillator) overflows its step
    count or memory, or if, given the phase coupling, it can turn a phase past pi."""
    dt = cfg.resolved_dt()
    if dt > t_end:
        raise ConfigError(f"step 'dt' = {dt!r} exceeds the horizon "
                          f"'t_end' = {t_end!r}; shorten dt or extend t_end")
    _budget_steps(subject, dt, t_end, cfg.n_osc, bytes_per_osc)
    if coupling is not None and dt * (speed := coupling.speed_bound()) > math.pi:
        raise ConfigError(
            f"step 'dt' = {dt!r} can advance a phase by dt*B = {dt * speed:.6g}, "
            f"more than half a turn, where B = {speed:.6g} bounds the phase "
            f"speed; shorten dt to at most {math.pi / speed:.6g}")
    return dt


def cmd_derive(cfg: RunConfig, args) -> int:
    out = _out_path(cfg, args, "derive.json")
    params = cfg.system_params()
    consts = reduction_constants(params, cfg.delta)
    coupling = build_coupling(params, cfg.delta)
    doc = {
        "seed": cfg.seed,
        "constants": asdict(consts),
        "coupling": json.loads(coupling_to_text(coupling)),
        "canonical_terms": [
            {"component": tag, "order": term.order,
             "xi": term.amplitude, "chi": term.phase_offset}
            for tag, term in canonical_xi_chi(coupling)
        ],
        "lambda_split": [
            {"component": tag, "lambda_power": power, "order": term.order,
             "xi": term.amplitude, "chi": term.phase_offset}
            for tag, power, term in xi_chi_lambda_split(coupling)
        ],
        "sync_frequency": sync_frequency(coupling),
    }
    _write(out, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])
    return 0


def cmd_simulate(cfg: RunConfig, args) -> int:
    if cfg.t_end is None:
        raise ConfigError("field 't_end' is required here; set it in the "
                          "config or pass --t-end")
    out = _out_path(cfg, args, f"trajectory_{args.model}.txt")
    params = cfg.system_params()
    coupling = build_coupling(params, cfg.delta) if args.model == "phase" else None
    # 16 B a complex value, 8 a real; refused before the initial state is built
    dt = _step(cfg, cfg.t_end, "a trajectory", 8 if coupling else 16, coupling)
    text_args = {"seed": cfg.seed, "extra_header": {"dt": f"{dt:.17g}"}}
    if coupling is None:
        z0 = initial_full_state(cfg)
        traj = integrate(lambda v: full_rhs_array(v, params), z0, dt, cfg.t_end)
    else:
        phi0 = initial_phases(cfg)
        traj = integrate(lambda p: phase_rhs_fast(p, coupling), phi0, dt, cfg.t_end)
        text_args["r_star"] = math.sqrt(coupling.r_star_sq)
    # a block of rows at a time: the text in memory is O(N), not the run's
    blocks = _row_blocks(traj.times.size, traj.n_osc, _TEXT_ELEMENTS)
    _write(out, (trajectory_text(traj, rows=rows, **text_args) for rows in blocks))
    return 0


def cmd_compare(cfg: RunConfig, args) -> int:
    t_end = cfg.t_end
    if t_end is None:
        # the phase reduction is expected to track over times of order
        # 1/(|epsilon|*lambda), whichever way the coupling acts
        rate = abs(cfg.epsilon) * cfg.lam
        t_end = 1.0 / rate if rate > 0 else math.inf
        if t_end == math.inf:
            raise ConfigError(
                f"field 't_end' is required when 'epsilon' = {cfg.epsilon!r}: "
                f"the default horizon 1/(|epsilon|*lambda) is not finite")
    out = _out_path(cfg, args, "compare.json")
    params = cfg.system_params()
    coupling = build_coupling(params, cfg.delta)
    # both dense trajectories, complex full and real phase, are held at once
    dt = _step(cfg, t_end, "the full and phase trajectories", 24, coupling)
    phi0 = initial_phases(cfg)
    z0 = _on_cycle(math.sqrt(coupling.r_star_sq), phi0)
    full_traj = integrate(lambda v: full_rhs_array(v, params), z0, dt, t_end)
    del z0  # each initial state is freed once its model has run
    phase_traj = integrate(lambda p: phase_rhs_fast(p, coupling), phi0, dt, t_end)
    del phi0
    report = compare(full_traj, phase_traj)
    doc = {"seed": cfg.seed, "dt": dt, **asdict(report)}
    _write(out, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])
    return 0


def _table_texts(head, points, scan, words):
    """head, then the table of a root_scans scan over its points,
    _LINE_BLOCK lines a text: "point, root, words" for each root of a point,
    or "point, nan, words" for a point with none, the numbers from the %.17g
    text kernel. words(owner, code) gives the lines' words by point and
    code: 0 or 1 a root (1 tangential), 2 none, 3 vanishing."""
    yield head
    lists, values, tangential, vanishing = scan
    bare = np.flatnonzero(np.bincount(lists, minlength=vanishing.size) == 0)
    order = np.argsort(np.concatenate([lists, bare]), kind="stable")
    owner = np.concatenate([lists, bare])[order]
    value = np.concatenate([values, np.full(bare.size, np.nan)])[order]
    code = np.concatenate([tangential, 2 + vanishing[bare]])[order]
    for start in range(0, owner.size, _LINE_BLOCK):
        own, kind, root = (a[start:start + _LINE_BLOCK] for a in (owner, code, value))
        numbers = "".join(_value_texts(np.stack([points[own], root], axis=1).ravel(), 2))
        yield "".join(map("{}, {}\n".format, numbers.split("\n")[:-1],
                          words(own, kind).tolist()))


def cmd_cluster_scan(cfg: RunConfig, args) -> int:
    if grids := _given(args, "alpha_grid", "psi_grid"):
        cfg = replace(cfg, cluster=replace(cfg.cluster, **grids))
    points = cfg.cluster.alpha_grid + cfg.cluster.psi_grid
    _require_memory(f"a cluster scan of {points} alpha and psi grid points",
                    points * _SCAN_POINT_BYTES, "shrink alpha_grid or psi_grid")
    out = _out_path(cfg, args, "cluster_scan.txt")
    params = cfg.system_params()
    coupling = build_coupling(params, cfg.delta)
    polys = alpha_polynomials(coupling)
    # both scans run, in one root-kernel pass, before the file is opened,
    # so a failed one leaves none
    alphas = np.linspace(-1.0, 1.0, cfg.cluster.alpha_grid + 1)[1:-1]
    psis = np.linspace(0.0, 2.0 * np.pi, cfg.cluster.psi_grid, endpoint=False)[1:]
    rows = _coefficients_at(alphas, polys)
    labels = sync_stability(rows)
    alpha_scan, psi_scan = root_scans(rows, psis, cfg.cluster.synthetic_ab or polys)
    del rows
    _write(out, chain(
        [f"# seed={cfg.seed}\n# model=cluster-scan\n"],
        _table_texts("# section=alpha-scan\n# columns: alpha, psi_root, "
                     "stability_of_sync, tangential_flag\n", alphas, alpha_scan,
                     lambda own, code: labels[own] + ", " + _ALPHA_FLAGS[code]),
        _table_texts("# section=psi-scan\n# columns: psi, alpha_root, flag\n",
                     psis, psi_scan, lambda own, code: _PSI_FLAGS[code])))
    return 0


@functools.lru_cache(maxsize=None)  # built once per process, about 0.7 ms
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfphase",
        description="Coupled-oscillator normal form and phase reduction runs")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", help="output file (default from config or verb)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--dt", type=float, help="override the integration step")
        p.add_argument("--t-end", type=float, dest="t_end",
                       help="override the integration horizon")

    p = sub.add_parser("derive", help="write the reduced-model coefficient report")
    common(p)
    p.set_defaults(handler=cmd_derive)

    p = sub.add_parser("simulate", help="integrate one model and write the trajectory")
    common(p)
    p.add_argument("--model", choices=("full", "phase"), required=True)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("compare", help="run both models and write the deviation report")
    common(p)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("cluster-scan", help="tabulate two-cluster roots and stability")
    common(p)
    p.add_argument("--alpha-grid", type=int, dest="alpha_grid",
                   help="number of alpha grid intervals (at least 64)")
    p.add_argument("--psi-grid", type=int, dest="psi_grid",
                   help="number of psi grid intervals (at least 64)")
    p.set_defaults(handler=cmd_cluster_scan)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # each distinct warning the filters let through is one stderr line,
        # printed before any error line
        with warnings.catch_warnings(record=True) as caught:
            try:
                cfg = _load_config(args)
                return args.handler(cfg, args)
            finally:
                for message in dict.fromkeys(str(w.message) for w in caught):
                    print(f"warning: {message}", file=sys.stderr)
    except (ConfigError, TrajectoryTooLargeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, AmplitudeCollapseError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def run():
    raise SystemExit(main())
