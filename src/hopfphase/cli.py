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
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .cluster import (_coefficients_at, _sync_labels, alpha_polynomials,
                      find_roots_batch, polynomial_alpha_roots_batch,
                      sync_frequency)
from .config import (ConfigError, RunConfig, _on_cycle, initial_full_state,
                     initial_phases, parse_config)
from .integrator import (_TEXT_ELEMENTS, AmplitudeCollapseError,
                         IntegrationError, TrajectoryTooLargeError,
                         _budget_steps, _require_memory, _row_blocks, compare,
                         integrate, trajectory_text)
from .normal_form import full_rhs_array
from .phase_model import phase_rhs_fast
from .reduction import (build_coupling, canonical_xi_chi, coupling_to_text,
                        reduction_constants, xi_chi_lambda_split)


# a lower bound on what a cluster scan holds per point of alpha_grid +
# psi_grid: its tracemalloc peak was 230-651 B per point with grids of
# 4,096 to 65,536 on the configs/ files, one of them (the other 64) or both,
# and 341-431 B with both grids 64; find_roots_batch's own working set is
# most of it where the alpha grid is the larger
_SCAN_POINT_BYTES = 225
_LINE_BLOCK = 2 ** 12  # cluster-scan writes its tables this many lines at a time


def _fmt(x: float) -> str:
    return f"{x:.17g}"


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
        ancestor = next(p for p in path.parents if p.exists())
        if path.is_dir():
            reason = "it is a directory"
        elif not ancestor.is_dir():
            reason = f"'{ancestor}' is not a directory"
        else:
            return path
    except OSError as exc:
        reason = exc.strerror
    raise _unwritable(path, reason)


def _load_config(args) -> RunConfig:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    cfg = parse_config(text)
    # replace re-runs RunConfig's checks on the overridden fields
    overrides = _given(args, "seed", "dt", "t_end")
    return replace(cfg, **overrides) if overrides else cfg


def _given(args, *names) -> dict:
    """The named options that were passed on the command line."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _require_t_end(cfg: RunConfig) -> float:
    if cfg.t_end is None:
        raise ConfigError("field 't_end' is required here; set it in the "
                          "config or pass --t-end")
    return cfg.t_end


def _check_step(dt: float, t_end: float):
    if dt > t_end:
        raise ConfigError(f"step 'dt' = {dt!r} exceeds the horizon "
                          f"'t_end' = {t_end!r}; shorten dt or extend t_end")


def _phase_coupling(params, delta: float, dt: float):
    """The phase model's coupling set; a step past half a turn is refused."""
    coupling = build_coupling(params, delta)
    speed = coupling.speed_bound()
    if dt * speed > math.pi:
        raise ConfigError(
            f"step 'dt' = {dt!r} can advance a phase by dt*B = {dt * speed:.6g}, "
            f"more than half a turn, where B = {speed:.6g} bounds the phase "
            f"speed; shorten dt to at most {math.pi / speed:.6g}")
    return coupling


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
    params = cfg.system_params()
    dt = cfg.resolved_dt()
    t_end = _require_t_end(cfg)
    _check_step(dt, t_end)
    out = _out_path(cfg, args, f"trajectory_{args.model}.txt")
    # the dense trajectory, complex full or real phase, is refused before
    # its initial state is built
    _budget_steps("a trajectory", dt, t_end, cfg.n_osc,
                  16 if args.model == "full" else 8)
    text_args = {"seed": cfg.seed, "extra_header": {"dt": _fmt(dt)}}
    if args.model == "full":
        z0 = initial_full_state(cfg)
        traj = integrate(lambda v: full_rhs_array(v, params), z0, dt, t_end)
    else:
        coupling = _phase_coupling(params, cfg.delta, dt)
        phi0 = initial_phases(cfg)
        traj = integrate(lambda p: phase_rhs_fast(p, coupling), phi0, dt, t_end)
        text_args["r_star"] = math.sqrt(coupling.r_star_sq)
    # a block of rows at a time: the text in memory is O(N), not the run's
    blocks = _row_blocks(traj.times.size, traj.n_osc, _TEXT_ELEMENTS)
    _write(out, (trajectory_text(traj, rows=rows, **text_args) for rows in blocks))
    return 0


def cmd_compare(cfg: RunConfig, args) -> int:
    params = cfg.system_params()
    dt = cfg.resolved_dt()
    if cfg.t_end is not None:
        t_end = cfg.t_end
    else:
        # the phase reduction is expected to track over times of order
        # 1/(|epsilon|*lambda), whichever way the coupling acts
        rate = abs(cfg.epsilon) * cfg.lam
        t_end = 1.0 / rate if rate > 0 else math.inf
        if t_end == math.inf:
            raise ConfigError(
                f"field 't_end' is required when 'epsilon' = {cfg.epsilon!r}: "
                f"the default horizon 1/(|epsilon|*lambda) is not finite")
    _check_step(dt, t_end)
    out = _out_path(cfg, args, "compare.json")
    # both dense trajectories, complex full and real phase, are held at once
    _budget_steps("the full and phase trajectories", dt, t_end, cfg.n_osc, 24)
    coupling = _phase_coupling(params, cfg.delta, dt)
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


def _text_blocks(lines):
    """The lines, _LINE_BLOCK to a text, each ended by a newline."""
    while block := list(islice(lines, _LINE_BLOCK)):
        yield "\n".join(block) + "\n"


def _alpha_scan_lines(alphas, labels, scans):
    """The alpha-scan table, a line at a time."""
    yield "# section=alpha-scan"
    yield "# columns: alpha, psi_root, stability_of_sync, tangential_flag"
    for alpha, stability, scan in zip(alphas.tolist(), labels, scans):
        if scan.identically_zero:
            yield f"{_fmt(alpha)}, nan, {stability}, identically-zero"
        elif not scan.roots:
            yield f"{_fmt(alpha)}, nan, {stability}, none"
        else:
            for root in scan.roots:
                flag = 1 if root.tangential else 0
                yield f"{_fmt(alpha)}, {_fmt(root.psi)}, {stability}, {flag}"


def _psi_scan_lines(psis, results):
    """The psi-scan table, a line at a time."""
    yield "# section=psi-scan"
    yield "# columns: psi, alpha_root, flag"
    for psi, result in zip(psis.tolist(), results):
        if result.identically_zero:
            yield f"{_fmt(psi)}, nan, identically-zero"
        elif not result.roots:
            yield f"{_fmt(psi)}, nan, none"
        else:
            for root in result.roots:
                yield f"{_fmt(psi)}, {_fmt(root)}, root"


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
    # both scans run before the file is opened, so a failed one leaves none;
    # the alpha table is text before the psi scan starts, about 60 B a line
    # against the 210 B that find_roots_batch's results hold per alpha
    alphas = np.linspace(-1.0, 1.0, cfg.cluster.alpha_grid + 1)[1:-1]
    rows = _coefficients_at(alphas, polys)
    labels = _sync_labels(rows[:, 0] + rows[:, 2]).tolist()
    alpha_text = list(_text_blocks(
        _alpha_scan_lines(alphas, labels, find_roots_batch(rows))))
    del rows
    psis = np.linspace(0.0, 2.0 * np.pi, cfg.cluster.psi_grid, endpoint=False)[1:]
    psi_scans = polynomial_alpha_roots_batch(psis, *(cfg.cluster.synthetic_ab or polys))
    _write(out, chain([f"# seed={cfg.seed}\n# model=cluster-scan\n"], alpha_text,
                      _text_blocks(_psi_scan_lines(psis, psi_scans))))
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
