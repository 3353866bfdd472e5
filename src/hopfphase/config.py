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
from .normal_form import NormalFormCoefficients, SystemParams
from .reduction import limit_cycle, with_delta

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
    psi: float = math.pi
    amplitude: float = 0.1

    def __post_init__(self):
        if self.kind == "two-cluster" and min(self.q_size, self.p_size) < 1:
            raise ConfigError("fields 'initial.q_size' and 'initial.p_size' must "
                              "be positive")
        # an offset past a turn is no new state; near 1e16 phi + dt*drift is phi
        if self.amplitude < 0:
            raise ConfigError("field 'initial.amplitude' must be nonnegative")
        if not self.amplitude <= math.pi:
            raise ConfigError("field 'initial.amplitude' must be at most pi")
        if not abs(self.psi) <= 2 * math.pi:
            raise ConfigError("field 'initial.psi' must lie in [-2 pi, 2 pi]")
        # up to 2**25 rad doubles lie at most 7.5e-9 rad apart
        if any(not abs(phi) <= 2 ** 25 for phi in self.phases):
            raise ConfigError("field 'initial.phases' must lie in [-2**25, 2**25]")


@dataclass(frozen=True)
class ClusterScanSpec:
    alpha_grid: int = 64
    psi_grid: int = 64

    def __post_init__(self):
        for name in ("alpha_grid", "psi_grid"):
            if (size := getattr(self, name)) < 64:
                raise ConfigError(f"cluster-scan grids must be at least 64, got "
                                  f"field 'cluster.{name}' = {size}")


def default_dt(lam: float, omega_cap: float) -> float:
    """Step size resolving both the rotation and the slow attraction scale."""
    candidates = [0.01 / lam]
    if omega_cap != 0.0:
        candidates.append(2.0 * np.pi / (50.0 * abs(omega_cap)))
    return min(candidates)


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
            with_delta(params, self.delta)  # refused here if it overflows a3
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
    kind = raw.get("kind", InitialSpec.kind)
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
        spec["psi"] = _as_float(raw.get("psi", InitialSpec.psi), "initial.psi")
    elif kind == "perturbed-sync":
        spec["amplitude"] = _as_float(raw.get("amplitude", InitialSpec.amplitude),
                                      "initial.amplitude")
    return InitialSpec(**spec)


_TOP_KEYS = {"lambda", "omega", "epsilon", "n_osc", "coefficients", "delta",
             "dt", "t_end", "seed", "initial", "cluster", "output"}


def parse_config(text: str) -> RunConfig:
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
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
    grids = _object(raw.get("cluster", {}), "cluster", ("alpha_grid", "psi_grid"))
    cluster = ClusterScanSpec(**{key: _as_int(size, f"cluster.{key}")
                                 for key, size in grids.items()})
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

    Random kinds draw Philox4x64-10 keyed by SeedSequence(seed), counters
    from 1, as low + (high - low) * (u >> 11) * 2**-53 (_philox_uniform):
    numpy's Generator(Philox(seed)).uniform today, without relying on it.
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
    if init.kind == "perturbed-sync":
        return _philox_uniform(cfg.seed, -init.amplitude, init.amplitude, n)
    return _philox_uniform(cfg.seed, 0.0, 2.0 * np.pi, n)


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC'11) keyed as numpy's Philox(seed) keys it, through SeedSequence(seed).
# Key words are Python ints; every numpy operand is an array or an np.uint64,
# so numpy 1.x and 2.x promote alike and no 0-d arithmetic warns on a wrap.
_MASK32 = 2 ** 32 - 1
_MASK64 = 2 ** 64 - 1
_PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_KEY_BUMPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _hasher(const: int, factor: int):
    """SeedSequence's 32-bit hash, whose constant is multiplied by factor
    at each call."""
    def hash32(value):
        nonlocal const
        value ^= const
        const = const * factor & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hash32


def _seed_key(seed: int) -> tuple:
    """The two 64-bit key words of numpy's Philox(seed): the 32-bit words of
    seed hashed and mixed into SeedSequence(seed)'s pool of four, then
    generate_state(2, np.uint64) of that pool, low word first."""
    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool))
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _mulhilo(m: int, x):
    """The high and low 64-bit words of m * x, for a 64-bit constant m and a
    uint64 array x, from products of 32-bit limbs."""
    mask, shift = np.uint64(_MASK32), np.uint64(32)
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    x_lo, x_hi = x & mask, x >> shift
    low = m_lo * x_lo
    cross_hi = m_hi * x_lo
    cross_lo = m_lo * x_hi
    mid = (low >> shift) + (cross_hi & mask) + (cross_lo & mask)
    high = m_hi * x_hi + (cross_hi >> shift) + (cross_lo >> shift) + (mid >> shift)
    return high, np.uint64(m) * x


def _philox_uniform(seed: int, low: float, high: float, n: int) -> np.ndarray:
    """n doubles low + (high - low) * (u >> 11) * 2**-53 from the 64-bit words
    u of Philox4x64-10 under _seed_key(seed), at counters 1, 2, ... in turn:
    bit for bit numpy's Generator(Philox(seed)).uniform(low, high, n)."""
    keys = _seed_key(seed)
    v0 = np.arange(1, -(-n // 4) + 1, dtype=np.uint64)
    v1 = v2 = v3 = np.zeros_like(v0)
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_MULTIPLIERS[0], v0)
        hi1, lo1 = _mulhilo(_PHILOX_MULTIPLIERS[1], v2)
        v0, v1, v2, v3 = (hi1 ^ v1 ^ np.uint64(keys[0]), lo1,
                          hi0 ^ v3 ^ np.uint64(keys[1]), lo0)
        keys = [(k + bump) & _MASK64 for k, bump in zip(keys, _PHILOX_KEY_BUMPS)]
    words = np.stack([v0, v1, v2, v3], axis=1).reshape(-1)[:n]
    return low + (high - low) * ((words >> np.uint64(11)) * 2.0 ** -53)


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
