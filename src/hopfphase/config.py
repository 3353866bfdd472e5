"""Run configuration: JSON parsing, validation, initial states.

A run file is a single JSON object. Complex coefficients accept two spellings,
a two-element array [re, im] or an object {"modulus": m, "phase": p}. The
parser checks types; each range rule lives in the __post_init__ of the
dataclass that holds the field, so dataclasses.replace checks it too.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .angles import _in_slices
from .integrator import default_dt
from .normal_form import NormalFormCoefficients, SystemParams
from .reduction import limit_cycle

# each initial-condition kind and the keys it takes besides "kind"
_INITIAL_KEYS = {"random-phases": (), "explicit": ("phases", "z"), "splay": (),
                 "two-cluster": ("q_size", "p_size", "psi"),
                 "perturbed-sync": ("amplitude",)}

_COEFF_KEYS = tuple(f.name for f in fields(NormalFormCoefficients))


class ConfigError(ValueError):
    """Invalid or missing configuration data; message names the field."""


@dataclass(frozen=True)
class InitialSpec:
    kind: str = "random-phases"
    phases: tuple = ()
    z: tuple = ()
    q_size: int = 0
    p_size: int = 0
    psi: float = 0.0
    amplitude: float = 0.0

    def __post_init__(self):
        if self.kind == "two-cluster" and min(self.q_size, self.p_size) < 1:
            raise ConfigError("fields 'initial.q_size' and 'initial.p_size' must "
                              "be positive")
        if self.amplitude < 0:
            raise ConfigError("field 'initial.amplitude' must be nonnegative")
        if not math.isfinite(2 * self.amplitude):  # the width of the draw
            raise ConfigError("field 'initial.amplitude' must be at most half the "
                              "largest float, so that 2 * amplitude is finite")


@dataclass(frozen=True)
class ClusterScanSpec:
    alpha_grid: int = 64
    psi_grid: int = 64
    # hand-specified ascending coefficients of the alpha polynomials
    # (a1, b1, a2, b2), in polynomial_alpha_roots_batch's argument order
    synthetic_ab: tuple | None = None

    def __post_init__(self):
        for name in ("alpha_grid", "psi_grid"):
            if (size := getattr(self, name)) < 64:
                raise ConfigError(f"cluster-scan grids must be at least 64, got "
                                  f"field 'cluster.{name}' = {size}")


@dataclass(frozen=True)
class RunConfig:
    lam: float
    omega: float
    epsilon: float
    n_osc: int
    coeffs: NormalFormCoefficients
    delta: float = 0.0
    dt: float | None = None
    t_end: float | None = None
    seed: int = 0
    initial: InitialSpec = field(default_factory=InitialSpec)
    cluster: ClusterScanSpec = field(default_factory=ClusterScanSpec)
    output: str | None = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ConfigError("field 'lambda' must be positive")
        for key in ("dt", "t_end"):
            value = getattr(self, key)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"field '{key}' must be positive and finite")
        if self.seed < 0:
            raise ConfigError("field 'seed' must be nonnegative")
        try:
            params = SystemParams(lam=self.lam, omega=self.omega,
                                  epsilon=self.epsilon, n_osc=self.n_osc,
                                  coeffs=self.coeffs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # not a field, so dataclasses.replace builds and checks a new one
        object.__setattr__(self, "_params", params)
        init = self.initial
        length = len(init.phases or init.z)
        if init.kind == "explicit" and length != self.n_osc:
            raise ConfigError(f"field 'initial' lists {length} oscillators but "
                              f"n_osc is {self.n_osc}")
        if init.kind == "two-cluster" and init.q_size + init.p_size != self.n_osc:
            raise ConfigError(
                f"fields 'initial.q_size' + 'initial.p_size' must sum to n_osc "
                f"({self.n_osc}), got {init.q_size + init.p_size}")

    def system_params(self) -> SystemParams:
        return self._params

    def resolved_dt(self) -> float:
        if self.dt is not None:
            return self.dt
        _, omega_cap = limit_cycle(self.system_params())
        return default_dt(self.lam, omega_cap)


def _object(raw, key: str, allowed) -> dict:
    """raw, if it is a JSON object whose keys all lie in allowed."""
    if not isinstance(raw, dict):
        raise ConfigError(f"field '{key}' must be an object")
    extra = set(raw) - set(allowed)
    if extra:
        raise ConfigError(f"field '{key}' has unknown keys {sorted(extra)}")
    return raw


def _require(raw: dict, key: str, label: str | None = None):
    if key not in raw:
        raise ConfigError(f"missing required field '{label or key}'")
    return raw[key]


def _as_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{key}' must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"field '{key}' must be finite")
    return value


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field '{key}' must be an integer")
    return value


def _parse_complex(value, key: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value), 0.0)
    if isinstance(value, list):
        if len(value) != 2:
            raise ConfigError(f"field '{key}' must be a [re, im] pair")
        return complex(_as_float(value[0], key), _as_float(value[1], key))
    if isinstance(value, dict):
        _object(value, key, ("modulus", "phase"))
        mod = _as_float(value.get("modulus", 0.0), f"{key}.modulus")
        if mod < 0:
            raise ConfigError(f"field '{key}.modulus' must be nonnegative")
        ph = _as_float(value.get("phase", 0.0), f"{key}.phase")
        return mod * cmath.exp(1j * ph)
    raise ConfigError(f"field '{key}' must be [re, im] or {{modulus, phase}}")


def _parse_coefficients(raw, parent="coefficients") -> NormalFormCoefficients:
    _object(raw, parent, _COEFF_KEYS)
    if "a1" not in raw:
        raise ConfigError(f"missing required field '{parent}.a1'")
    values = {key: _parse_complex(raw[key], f"{parent}.{key}") for key in raw}
    try:
        return NormalFormCoefficients(**values)
    except ValueError as exc:
        raise ConfigError(f"field '{parent}': {exc}") from exc


def _parse_initial(raw) -> InitialSpec:
    if not isinstance(raw, dict):
        raise ConfigError("field 'initial' must be an object")
    kind = raw.get("kind", "random-phases")
    if kind not in _INITIAL_KEYS:
        raise ConfigError(
            f"field 'initial.kind' must be one of {list(_INITIAL_KEYS)}, got {kind!r}")
    extra = set(raw) - {"kind", *_INITIAL_KEYS[kind]}
    if extra:
        raise ConfigError(f"field 'initial' has keys {sorted(extra)} not valid "
                          f"for kind {kind!r}")
    spec = {"kind": kind}
    if kind == "explicit":
        if ("phases" in raw) == ("z" in raw):
            raise ConfigError("field 'initial' with kind 'explicit' needs exactly "
                              "one of 'phases' or 'z'")
        name = "phases" if "phases" in raw else "z"
        parse = _as_float if name == "phases" else _parse_complex
        values = raw[name]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"field 'initial.{name}' must be a nonempty list")
        spec[name] = tuple(parse(x, f"initial.{name}") for x in values)
    elif kind == "two-cluster":
        for key in ("q_size", "p_size"):
            spec[key] = _as_int(_require(raw, key, f"initial.{key}"), f"initial.{key}")
        spec["psi"] = _as_float(raw.get("psi", math.pi), "initial.psi")
    elif kind == "perturbed-sync":
        spec["amplitude"] = _as_float(raw.get("amplitude", 0.1), "initial.amplitude")
    return InitialSpec(**spec)


def _parse_poly(value, key: str) -> tuple:
    if not isinstance(value, list) or not value or len(value) > 4:
        raise ConfigError(f"field '{key}' must be a list of 1 to 4 numbers "
                          "(ascending polynomial coefficients)")
    return tuple(_as_float(x, key) for x in value)


def _parse_cluster(raw) -> ClusterScanSpec:
    _object(raw, "cluster", ("alpha_grid", "psi_grid", "synthetic_ab"))
    grids = {key: _as_int(raw.get(key, 64), f"cluster.{key}")
             for key in ("alpha_grid", "psi_grid")}
    synth = None
    if raw.get("synthetic_ab") is not None:
        labels = {name: f"cluster.synthetic_ab.{name}"
                  for name in ("a1", "b1", "a2", "b2")}
        sub = _object(raw["synthetic_ab"], "cluster.synthetic_ab", labels)
        synth = tuple(_parse_poly(_require(sub, name, label), label)
                      for name, label in labels.items())
    return ClusterScanSpec(**grids, synthetic_ab=synth)


_TOP_KEYS = {"lambda", "omega", "epsilon", "n_osc", "coefficients", "delta",
             "dt", "t_end", "seed", "initial", "cluster", "output"}


def parse_config(text: str) -> RunConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level fields {sorted(unknown)}")

    lam = _as_float(_require(raw, "lambda"), "lambda")
    omega = _as_float(_require(raw, "omega"), "omega")
    epsilon = _as_float(_require(raw, "epsilon"), "epsilon")
    n_osc = _as_int(_require(raw, "n_osc"), "n_osc")
    coeffs = _parse_coefficients(_require(raw, "coefficients"))

    delta = _as_float(raw.get("delta", 0.0), "delta")
    dt, t_end = (None if raw.get(key) is None else _as_float(raw[key], key)
                 for key in ("dt", "t_end"))
    seed = _as_int(raw.get("seed", 0), "seed")
    initial = _parse_initial(raw.get("initial", {}))
    cluster = _parse_cluster(raw.get("cluster", {}))
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("field 'output' must be a string path")

    return RunConfig(lam=lam, omega=omega, epsilon=epsilon, n_osc=n_osc,
                     coeffs=coeffs, delta=delta, dt=dt, t_end=t_end, seed=seed,
                     initial=initial, cluster=cluster, output=output)


# ---------------------------------------------------------------------------
# initial states


def initial_phases(cfg: RunConfig) -> np.ndarray:
    """Initial phase vector per the configured initial-condition kind.

    Random draws use the counter-based Philox generator under the configured
    seed, so equal seeds give bit-equal states.
    """
    n = cfg.n_osc
    init = cfg.initial
    if init.kind == "explicit":
        if init.z:
            return np.angle(np.asarray(init.z, dtype=complex))
        return np.asarray(init.phases, dtype=float)
    if init.kind == "splay":
        return 2.0 * np.pi * np.arange(n) / n
    if init.kind == "two-cluster":
        phi = np.zeros(n)
        phi[:init.q_size] = init.psi
        return phi
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    if init.kind == "perturbed-sync":
        return rng.uniform(-init.amplitude, init.amplitude, size=n)
    return rng.uniform(0.0, 2.0 * np.pi, size=n)


def initial_full_state(cfg: RunConfig) -> np.ndarray:
    """Initial complex state; explicit z is used as given, any phase-based
    kind is placed on the circle of limit-cycle radius."""
    if cfg.initial.kind == "explicit" and cfg.initial.z:
        return np.asarray(cfg.initial.z, dtype=complex)
    r_star_sq, _ = limit_cycle(cfg.system_params())
    return _on_cycle(math.sqrt(r_star_sq), initial_phases(cfg))


def _on_cycle(r_star: float, phi: np.ndarray) -> np.ndarray:
    """r_star e^{i phi}: the phases phi placed on the circle of radius r_star."""
    return r_star * _in_slices(np.exp, 1j * phi)
