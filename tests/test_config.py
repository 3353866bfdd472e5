"""Run-file parsing, validation errors, initial states."""
import dataclasses
import json
import math

import numpy as np
import pytest

import hopfphase
from hopfphase.config import (ConfigError, InitialSpec, _philox_uniform,
                              initial_full_state, initial_phases, parse_config)


def doc_text(**over):
    doc = {"lambda": 0.1, "omega": 1.0, "epsilon": 0.5, "n_osc": 3,
           "coefficients": {"a1": [-1.0, 0.0], "a2": [0.3, 0.0]}}
    doc.update(over)
    return json.dumps(doc)


def test_minimal_config_defaults():
    cfg = parse_config(doc_text())
    assert cfg.lam == 0.1 and cfg.omega == 1.0 and cfg.epsilon == 0.5
    assert cfg.n_osc == 3
    assert cfg.coeffs.a1 == -1.0 and cfg.coeffs.a2 == 0.3
    assert cfg.delta == 0.0 and cfg.dt is None and cfg.t_end is None
    assert cfg.seed == 0 and cfg.output is None
    assert cfg.initial.kind == "random-phases"
    assert cfg.cluster.alpha_grid == 64 and cfg.cluster.psi_grid == 64
    assert cfg.cluster.synthetic_ab is None


def test_complex_spellings_agree():
    as_pair = parse_config(doc_text(
        coefficients={"a1": [-1.0, 0.0],
                      "a2": [0.5 * math.cos(0.3), 0.5 * math.sin(0.3)]}))
    as_polar = parse_config(doc_text(
        coefficients={"a1": [-1.0, 0.0],
                      "a2": {"modulus": 0.5, "phase": 0.3}}))
    assert as_pair.coeffs.a2 == pytest.approx(as_polar.coeffs.a2, abs=1e-15)
    as_scalar = parse_config(doc_text(
        coefficients={"a1": -1.0, "a2": 0.3}))
    assert as_scalar.coeffs.a1 == -1.0 + 0.0j
    assert as_scalar.coeffs.a2 == 0.3 + 0.0j


def test_error_messages_name_the_field():
    cases = [
        ('{"omega": 1.0}', "lambda"),
        (doc_text(**{"lambda": -0.1}), "'lambda' must be positive"),
        (doc_text(unknown_key=1), "unknown top-level"),
        (doc_text(coefficients={"a1": [-1, 0], "a12": [0, 0]}), "a12"),
        (doc_text(coefficients={"a1": [1.0, 0.0]}), "a1"),
        (doc_text(coefficients={"a2": [0.3, 0.0]}), "coefficients.a1"),
        (doc_text(dt=0), "'dt' must be positive"),
        (doc_text(t_end=-3), "'t_end' must be positive"),
        (doc_text(seed=-1), "'seed' must be nonnegative"),
        (doc_text(initial={"kind": "lattice"}), "initial.kind"),
        (doc_text(initial={"kind": "explicit", "phases": [0.0, 1.0]}),
         "n_osc is 3"),
        (doc_text(initial={"kind": "explicit", "phases": [0.0],
                           "z": [[1.0, 0.0]]}), "exactly one"),
        (doc_text(initial={"kind": "two-cluster", "q_size": 2, "p_size": 2}),
         "sum to n_osc"),
        (doc_text(cluster={"synthetic_ab": {"a1": [1, 0, 0, 0, 0],
                                            "b1": [0.0], "a2": [0.0],
                                            "b2": [0.0]}}),
         "synthetic_ab.a1"),
        (doc_text(cluster={"synthetic_ab": {"a1": [1.0]}}), "synthetic_ab.b1"),
        (doc_text(initial={"kind": "perturbed-sync", "amplitude": 1e308}),
         "initial.amplitude"),
        (doc_text(initial={"kind": "two-cluster", "q_size": 2, "p_size": 1,
                           "psi": 1e300}), "'initial.psi' must lie in"),
        ("{not json", "not valid JSON"),
        ("[1, 2]", "must be a JSON object"),
        (doc_text(**{"lambda": "0.1"}), "'lambda' must be a number"),
        (doc_text(n_osc=4.0), "'n_osc' must be an integer"),
        (doc_text(n_osc=1), "n_osc must be at least 2"),
        (doc_text(coefficients={"a1": [-1.0, 0.0], "a2": [1, 2, 3]}),
         "'coefficients.a2' must be a [re, im] pair"),
        (doc_text(coefficients={"a1": [-1.0, 0.0], "a2": "x"}),
         "'coefficients.a2' must be [re, im] or {modulus, phase}"),
        (doc_text(coefficients=[1]), "'coefficients' must be an object"),
        (doc_text(cluster=3), "'cluster' must be an object"),
        (doc_text(initial=[]), "'initial' must be an object"),
        (doc_text(initial={"kind": "splay", "q_size": 2}),
         "keys ['q_size'] not valid for kind 'splay'"),
        (doc_text(initial={"kind": "explicit", "phases": []}),
         "'initial.phases' must be a nonempty list"),
        (doc_text(output=3), "'output' must be a string path"),
    ]
    for text, needle in cases:
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        assert needle in str(exc_info.value), (needle, str(exc_info.value))


def test_negative_modulus_exits_as_config_error():
    # a negative modulus would flip the phase by pi; for a1 it would even
    # pass as a supercritical coefficient
    cases = [
        (doc_text(coefficients={"a1": [-1.0, 0.0],
                                "a2": {"modulus": -0.3, "phase": 0.0}}),
         "coefficients.a2.modulus"),
        (doc_text(coefficients={"a1": {"modulus": -1}}), "coefficients.a1.modulus"),
        (doc_text(n_osc=2, initial={"kind": "explicit",
                                    "z": [{"modulus": -0.3, "phase": 1.0},
                                          [0.3, 0.0]]}),
         "initial.z.modulus"),
    ]
    for text, key in cases:
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        assert str(exc_info.value) == f"field '{key}' must be nonnegative"


def test_initial_phases_explicit_and_splay():
    cfg = parse_config(doc_text(
        initial={"kind": "explicit", "phases": [0.1, 2.0, -0.4]}))
    assert np.array_equal(initial_phases(cfg), [0.1, 2.0, -0.4])

    cfg = parse_config(doc_text(
        n_osc=2, initial={"kind": "explicit", "z": [[0.0, 1.0], [1.0, 0.0]]}))
    assert initial_phases(cfg) == pytest.approx([math.pi / 2, 0.0])

    cfg = parse_config(doc_text(n_osc=4, initial={"kind": "splay"}))
    assert initial_phases(cfg) == pytest.approx(
        [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])


def test_initial_phases_two_cluster():
    cfg = parse_config(doc_text(
        initial={"kind": "two-cluster", "q_size": 2, "p_size": 1, "psi": 1.5}))
    assert np.array_equal(initial_phases(cfg), [1.5, 1.5, 0.0])


# (initial spec, low, high) of each random kind; amplitude 0 draws -0.0 + 0.0
RANDOM_KINDS = [({"kind": "random-phases"}, 0.0, 2 * np.pi),
                ({"kind": "perturbed-sync", "amplitude": 0.0}, -0.0, 0.0),
                ({"kind": "perturbed-sync", "amplitude": math.pi}, -math.pi, math.pi)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64,
                                  2 ** 128 + 5])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 10 ** 5])
def test_initial_phases_random_kinds_are_seed_deterministic(seed, n):
    # numpy's Philox stream is the oracle; a config has at least 2 oscillators
    for initial, low, high in RANDOM_KINDS:
        oracle = np.random.Generator(np.random.Philox(seed)).uniform(low, high, n)
        assert _philox_uniform(seed, low, high, n).tobytes() == oracle.tobytes()
        if n < 2:
            continue
        cfg = parse_config(doc_text(seed=seed, n_osc=n, initial=initial))
        phases = initial_phases(cfg)
        assert phases.tobytes() == oracle.tobytes()
        assert np.all((low <= phases) & (phases <= high))
    if n >= 2:
        draws = [initial_phases(parse_config(doc_text(seed=s, n_osc=n)))
                 for s in (seed, seed + 1)]
        assert not np.array_equal(*draws)


def test_initial_full_state_radius_and_explicit_z():
    cfg = parse_config(doc_text(
        initial={"kind": "explicit", "phases": [0.1, 2.0, -0.4]}))
    z0 = initial_full_state(cfg)
    assert np.abs(z0) == pytest.approx(np.full(3, math.sqrt(0.1)), abs=1e-15)
    assert np.angle(z0) == pytest.approx([0.1, 2.0, -0.4])

    cfg = parse_config(doc_text(
        n_osc=2, initial={"kind": "explicit", "z": [[0.3, 0.4], [-0.1, 0.0]]}))
    assert np.array_equal(initial_full_state(cfg), [0.3 + 0.4j, -0.1 + 0.0j])


def test_resolved_dt():
    assert parse_config(doc_text(dt=0.02)).resolved_dt() == 0.02
    cfg = parse_config(doc_text())
    # lambda=0.1, a1 real: cycle frequency stays at omega=1, amplitude rate
    # bound 0.01/lambda is the tighter of the two
    assert cfg.resolved_dt() == pytest.approx(0.1)


def test_amplitude_range_must_be_finite():
    # perturbed-sync draws from [-amplitude, amplitude], at most a turn wide
    # each side: a phase of 1e16 or more no longer moves by a step
    largest = math.pi
    assert InitialSpec(kind="perturbed-sync", amplitude=largest).amplitude == largest
    for amplitude in (math.nextafter(largest, math.inf), math.inf, math.nan):
        with pytest.raises(ConfigError, match="'initial.amplitude' must be at most"):
            InitialSpec(kind="perturbed-sync", amplitude=amplitude)


def test_two_cluster_psi_is_at_most_a_turn_either_way():
    for psi in (2 * math.pi, -2 * math.pi, 0.0):
        assert InitialSpec(kind="two-cluster", q_size=1, p_size=1, psi=psi).psi == psi
    for psi in (math.nextafter(2 * math.pi, math.inf), -7.0, 1e300, math.nan):
        with pytest.raises(ConfigError, match=r"'initial.psi' must lie in \[-2 pi"):
            InitialSpec(kind="two-cluster", q_size=1, p_size=1, psi=psi)


def test_explicit_phases_are_at_most_2_to_the_25_either_way():
    # at 2**25 rad the spacing of doubles is 7.5e-9 rad; unwrapped phases of
    # runs up to t of about 3e7/|omega| still pass
    bound = 2.0 ** 25
    for phi in (bound, -bound, 3e7, 0.0):
        assert InitialSpec(kind="explicit", phases=(phi, 0.0)).phases[0] == phi
    for phi in (math.nextafter(bound, math.inf), 1e300, -1e300, math.inf, math.nan):
        with pytest.raises(ConfigError, match=r"'initial.phases' must lie in \[-2\*\*25"):
            InitialSpec(kind="explicit", phases=(0.0, phi))
    text = doc_text(initial={"kind": "explicit", "phases": [1e300, 0.0, 1.0]})
    with pytest.raises(ConfigError, match="initial.phases"):
        parse_config(text)


@pytest.mark.parametrize("raw, spec", [
    ({"kind": "two-cluster", "q_size": 2, "p_size": 1},
     InitialSpec(kind="two-cluster", q_size=2, p_size=1)),
    ({"kind": "perturbed-sync"}, InitialSpec(kind="perturbed-sync")),
], ids=["two-cluster", "perturbed-sync"])
def test_initial_defaults_are_the_same_in_code_and_file(raw, spec):
    # psi defaults to pi and amplitude to 0.1 either way: a two-cluster
    # start is no synchronous state, a perturbed one is perturbed
    from_file = parse_config(doc_text(seed=3, initial=raw))
    from_code = dataclasses.replace(from_file, initial=spec)
    assert from_file.initial == spec
    phases = initial_phases(from_code)
    assert np.array_equal(phases, initial_phases(from_file))
    assert np.ptp(phases) > 0.0


def test_config_warnings_name_the_calling_file():
    # n_osc < 4 is warned from the SystemParams a RunConfig builds, through
    # parse_config or dataclasses.replace; neither hopfphase frame is named
    with pytest.warns(UserWarning, match="n_osc < 4") as rec:
        cfg = parse_config(doc_text(n_osc=3))
    assert rec and all(w.filename == __file__ for w in rec)
    with pytest.warns(UserWarning, match="n_osc < 4") as rec:
        dataclasses.replace(dataclasses.replace(cfg, n_osc=4), n_osc=3)
    assert rec and all(w.filename == __file__ for w in rec)


def test_system_params_are_built_once_per_config():
    cfg = parse_config(doc_text(n_osc=4))
    params = cfg.system_params()
    assert params is cfg.system_params()
    assert (params.lam, params.omega, params.epsilon, params.n_osc, params.coeffs) == (
        cfg.lam, cfg.omega, cfg.epsilon, cfg.n_osc, cfg.coeffs)
    # not a field: replace builds a new RunConfig, and with it new params
    assert dataclasses.replace(cfg, n_osc=5).system_params().n_osc == 5
    assert cfg.system_params() is params and params.n_osc == 4


def test_synthetic_ab_is_the_four_coefficient_tuples():
    cfg = parse_config(doc_text(cluster={"synthetic_ab": {
        "a1": [0.125, 0.0, 1.0], "b1": [0.0, -0.75], "a2": [0], "b2": [1, 2, 3, 4]}}))
    assert cfg.cluster.synthetic_ab == ((0.125, 0.0, 1.0), (0.0, -0.75), (0.0,),
                                        (1.0, 2.0, 3.0, 4.0))
    assert not hasattr(hopfphase, "SyntheticAB")
