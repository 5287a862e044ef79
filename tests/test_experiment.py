"""Path generation, output rendering, persistence round trips, determinism."""

import copy
import dataclasses
import hashlib
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstop import experiment, lsm, snell
from optstop.consumer import exit_payoff, purchase_payoff, step_valuation
from optstop.experiment import (
    DOMAIN_TEST,
    DOMAIN_TRAIN,
    PATHS_COLUMNS,
    ExperimentConfig,
    generate_paths,
    load_config,
    load_paths_csv,
    paths_csv_echo,
    render_paths_csv,
    run_experiment,
    write_output_dir,
)
from optstop.model import ModelParams, PathBatch
from optstop.policy_io import (
    FORMAT_LINE,
    PolicyFormatError,
    load_policy,
    policy_from_text,
    policy_to_text,
)
from optstop.regression import RegressionBackend
from optstop.rng import RngStream
from optstop.seller import kalman_correct, kalman_predict, myopic_price


def small_config(**overrides) -> ExperimentConfig:
    kwargs = dict(
        params=ModelParams(horizon=6, seed=11),
        n_train=40,
        n_test=30,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def replay_path(params: ModelParams, i: int, domain: int) -> dict:
    """Path i stepped epoch by epoch through the scalar API, fed its own
    stream's row of normals one at a time in the order v0, eps_1, xi_1, eps_2, ..."""
    stream = RngStream(params.seed, path_index=i, domain=domain)
    z = iter(stream.standard_normal(1 + 2 * params.horizon).tolist())
    v = params.mu_prior + params.sigma_v * next(z)
    mean, var = params.mu_prior, params.sigma_v**2
    out = {name: [] for name in ("v", "y", "p", "pi", "h", "seller_mean", "seller_var")}
    for t in range(params.horizon + 1):
        if t > 0:
            v = step_valuation(v, next(z), params)
            obs = v + params.sigma_xi * next(z)
            mean, var = kalman_correct(mean, kalman_predict(var, params), obs, params)
            out["y"].append(obs)
        price = myopic_price(mean, var)
        pi = purchase_payoff(v, price, t, params)
        for name, value in (
            ("v", v), ("p", price), ("pi", pi), ("h", exit_payoff(pi)),
            ("seller_mean", mean), ("seller_var", var),
        ):
            out[name].append(value)
    return {name: np.array(values, dtype=float) for name, values in out.items()}


class TestGeneratePaths:
    # None keeps the prior mean; -800 clamps the CARA exponent.
    @pytest.mark.parametrize("mu_prior", [None, 0.4, -800.0])
    @pytest.mark.parametrize(
        "params, domain, n",
        [
            (ModelParams(seed=1), DOMAIN_TRAIN, 4),
            (ModelParams(seed=29), DOMAIN_TEST, 3),
            # Any stream domain, not only the two the experiment draws from.
            (ModelParams(horizon=7, gamma=2.5, sigma_eps=0.3, sigma_xi=0.5, seed=2**63 + 5),
             2, 3),
        ],
    )
    def test_rows_equal_scalar_replay_bitwise(self, params, domain, n, mu_prior):
        if mu_prior is not None:
            params = dataclasses.replace(params, mu_prior=mu_prior)
        batch = generate_paths(params, n, domain)
        for i in range(n):
            replay = replay_path(params, i, domain)
            for name, want in replay.items():
                got = batch.seller_var if name == "seller_var" else getattr(batch, name)[i]
                assert got.tobytes() == want.tobytes(), (name, i)

    def test_first_price_identical_across_paths(self, ref_run):
        _, _, test_batch, _, _ = ref_run
        assert (test_batch.p[:, 0] == test_batch.p[0, 0]).all()

    def test_deterministic_regeneration(self):
        params = ModelParams(horizon=6, seed=23)
        a = generate_paths(params, 25, DOMAIN_TRAIN)
        b = generate_paths(params, 25, DOMAIN_TRAIN)
        for name in ("v", "y", "p", "pi", "h", "seller_mean"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_degenerate_noise_freezes_valuations(self):
        # No valuation noise freezes each path's walk at its start;
        # observation noise must stay positive (a noiseless seller cannot
        # price), so the y and price columns still vary per path.
        params = ModelParams(horizon=5, sigma_eps=0.0, sigma_xi=1.0, seed=3)
        batch = generate_paths(params, 10, DOMAIN_TRAIN)
        assert (batch.v == batch.v[:, :1]).all()
        assert not np.array_equal(batch.y[0], batch.y[1])

    @pytest.mark.parametrize(
        "run",
        [
            lambda params: generate_paths(params, 3),
            lambda params: run_experiment(ExperimentConfig(params=params, n_train=3, n_test=3)),
            lambda params: snell.discretize_consumer_problem(params, levels=2),
        ],
        ids=["generate_paths", "run_experiment", "discretize"],
    )
    def test_noiseless_observation_named(self, run):
        # Valid for the Kalman filter, but its posterior variance 0 has no price.
        with pytest.raises(ValueError, match="^sigma_xi must be > 0 to simulate, got 0.0"):
            run(ModelParams(horizon=2, sigma_xi=0.0))

    @pytest.mark.parametrize(
        "run",
        [
            lambda params: generate_paths(params, 2),
            lambda params: snell.discretize_consumer_problem(params, levels=2),
        ],
        ids=["generate_paths", "discretize"],
    )
    def test_posterior_variance_rounding_to_zero_named(self, run):
        # 1.01 + 1e-16 rounds to 1.01: the Kalman gain is exactly 1 and the
        # posterior variance 0, though sigma_xi is positive.
        with pytest.raises(
            ValueError,
            match=r"^seller posterior variance rounds to 0 at epoch 1, so it has no price "
            r"\(sigma_v=1.0, sigma_eps=0.1, sigma_xi=1e-08\)$",
        ):
            run(ModelParams(horizon=2, sigma_xi=1e-8))
        # The prior variance 1e-200**2 rounds to 0 before any epoch steps.
        with pytest.raises(
            ValueError,
            match=r"^seller posterior variance rounds to 0 at epoch 0, so it has no price "
            r"\(sigma_v=1e-200, sigma_eps=0.1, sigma_xi=1.0\)$",
        ):
            run(ModelParams(horizon=2, sigma_v=1e-200))

    def test_tiny_positive_posterior_variance_runs(self):
        batch = generate_paths(ModelParams(horizon=2, sigma_xi=1e-7), 2)
        assert (batch.seller_var[1:] > 0).all()

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_fewer_than_one_path(self, n):
        # A config's n_train is checked when it is built; this is the Python call.
        with pytest.raises(ValueError, match=f"^number of paths must be >= 1, got {n}$"):
            generate_paths(ModelParams(horizon=2), n)

    def test_rejects_more_paths_than_32_bit_indices(self):
        # The size budget refuses any n beyond the 32-bit path indices, before
        # range(n), whose len() overflows at 2**64. A config's n_train is
        # named by its key; this is the Python call.
        for n in (2**32 + 1, 2**64):
            with pytest.raises(ValueError, match=(
                rf"^number of paths {n} at horizon 2 needs a {n} x 5 draw matrix of {5 * n} "
                r"cells, over the size budget of 2\*\*30"
            )):
                generate_paths(ModelParams(horizon=2), n)

    def test_rejects_a_draw_matrix_over_the_size_budget(self):
        # The budget counts the rows drawn: a trace draws only its indices.
        params = ModelParams(horizon=2**40)
        with pytest.raises(ValueError, match=(
            r"^number of paths 20 at horizon 1099511627776 needs a 20 x 2199023255553 draw "
            r"matrix of 43980465111060 cells, over the size budget of 2\*\*30 = 1073741824 cells$"
        )):
            generate_paths(params, 20)
        with pytest.raises(ValueError, match="^number of paths 1 at horizon"):
            generate_paths(params, 2**32, DOMAIN_TEST, [0])

    def test_simulate_checks_draw_count(self):
        params = ModelParams(horizon=3)
        with pytest.raises(ValueError, match="^z must have 7 columns"):
            experiment.simulate(params, np.zeros((2, 6)))

    def test_simulate_names_a_non_finite_draw(self):
        params = ModelParams(horizon=3)
        z = np.ones((3, 7))
        z[1, 0] = math.inf  # path 1's initial valuation
        z[2, 4] = math.nan
        with pytest.raises(ValueError, match=r"^z must be finite, got inf at \(row=1, column=0\)$"):
            experiment.simulate(params, z)

    def test_prices_and_payoffs_in_one_pass(self, monkeypatch):
        # The price never feeds back into the dynamics, so one simulate call
        # prices the whole (n, T+1) posterior at once: no per-epoch loop.
        # A process's first price builds the table of roots with erfcx
        # calls of its own; this one does, so that they are not counted.
        experiment.seller.myopic_price(0.0, 1.0)
        calls = []

        def counting(name, original):
            def wrapper(*args):
                calls.append((name, np.shape(args[0])))
                return original(*args)

            return wrapper

        for owner, name in (
            (experiment.seller, "myopic_price"),
            (experiment.seller, "erfcx"),
            (experiment.consumer, "purchase_payoff"),
        ):
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        params = ModelParams(horizon=5, seed=3)
        z = np.random.default_rng(3).standard_normal((7, 1 + 2 * params.horizon))
        experiment.simulate(params, z)
        shape = (7, params.horizon + 1)
        # Each distinct scaled mean is priced once: the paths share their
        # t = 0 belief, so 7 * 5 + 1 of them.
        distinct = (7 * params.horizon + 1,)
        assert calls == (
            [("myopic_price", shape)] + [("erfcx", distinct)] * 4 + [("purchase_payoff", shape)]
        )

    def test_path_index_not_order_dependent(self):
        params = ModelParams(horizon=4, seed=5)
        wide = generate_paths(params, 8, DOMAIN_TRAIN)
        narrow = generate_paths(params, 3, DOMAIN_TRAIN)
        assert np.array_equal(wide.v[:3], narrow.v)

    def test_indices_draw_the_matching_rows_bitwise(self):
        params = ModelParams(horizon=5, seed=7)
        full = generate_paths(params, 12, DOMAIN_TEST)
        indices = [11, 0, 3, 4]
        part = generate_paths(params, 12, DOMAIN_TEST, indices)
        for f in dataclasses.fields(PathBatch):
            want = getattr(full, f.name)
            want = want if f.name == "seller_var" else want[indices]
            assert getattr(part, f.name).tobytes() == want.tobytes(), f.name

    @pytest.mark.parametrize("index", [-1, 12, 1.0, True])
    def test_index_outside_the_path_set_named(self, index):
        with pytest.raises(ValueError, match=rf"^path index {index!r} is not an integer in 0\.\.11$"):
            generate_paths(ModelParams(horizon=2), 12, DOMAIN_TEST, [0, index])

    def test_domains_disjoint(self):
        params = ModelParams(horizon=4, seed=5)
        train = generate_paths(params, 5, DOMAIN_TRAIN)
        test = generate_paths(params, 5, DOMAIN_TEST)
        assert not np.array_equal(train.v, test.v)

    # sha256 prefixes of the seed-1 draw matrices, computed with one new
    # RngStream per path; the reference run draws them for its path sets.
    @pytest.mark.parametrize(
        "domain, n, digest",
        [
            (DOMAIN_TRAIN, 500, "6c8a839478f16e5e"),
            (DOMAIN_TEST, 1000, "57710cb1bede6a12"),
        ],
    )
    def test_seed1_draw_stream_pinned(self, domain, n, digest):
        params = ModelParams(seed=1)
        stream = RngStream(1, 0, domain)
        z = np.array([stream.rekey(i).standard_normal(51) for i in range(n)])
        assert hashlib.sha256(z.tobytes()).hexdigest()[:16] == digest
        got, want = generate_paths(params, n, domain), experiment.simulate(params, z)
        for f in dataclasses.fields(PathBatch):
            assert getattr(got, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name

    def test_terminal_valuation_mean_matches_prior(self):
        params = ModelParams(seed=29)
        batch = generate_paths(params, 4000, DOMAIN_TRAIN)
        v_term = batch.v[:, -1]
        bound = 4 * v_term.std(ddof=1) / math.sqrt(len(v_term))
        assert abs(v_term.mean() - params.mu_prior) < bound


# A valid policy payload with one regressor of each kind, epochs 0..3.
POLICY_PAYLOAD = {
    "format_version": 2,
    "horizon": 4,
    "metadata": {"seed": 1},
    "regressors": [
        {"kind": "zero"},
        # Ten Taylor terms span [0.1, 0.2] at bandwidth 1.
        {"kind": "kernel", "xs": [0.1, 0.2], "weights": [1.0, -1.0] * 5, "bandwidth": 1.0, "ridge": 1e-6},
        {"kind": "poly", "coeffs": [0.1, 0.2]},
        {"kind": "tabular", "xs": [0.0, 1.0], "means": [0.5, 0.25], "default": 0.3},
    ],
}


# A degree-2 policy of the retired polynomial backend, written by
# lsm.train(H, RegressionBackend(kind="poly", degree=2), metadata={"seed": 3})
# on the first six rows of LEGACY_POLICY_H before that backend was removed.
POLY_POLICY_TEXT = (
    "optstop-policy v2\n"
    "sha256 27ed2ea96d52c4f86148dfbcff773182835d5eb18d22cc8144b8657f66413b9c\n"
    '{"format_version":2,"horizon":2,"metadata":{"backend":{"bandwidth":1.0,"degree":2,'
    '"kind":"poly","ridge":1e-06},"feature":"exit_payoff","horizon":2,"n_train":6,'
    '"numerics":{"epochs":[{"in_the_money":5,"stopped":0,"support":null,"tail_bound":null,'
    '"terms":null},{"in_the_money":5,"stopped":3,"support":null,"tail_bound":null,'
    '"terms":null}],"nonpositive_exit_action":"reject"},"seed":3},"regressors":['
    '{"coeffs":[0.7818181818181826,-0.6785714285714368,0.7467532467532572],"kind":"poly"},'
    '{"coeffs":[0.9563579277864859,-2.4610151753008767,1.7687074829932106],"kind":"poly"}]}\n'
)
LEGACY_POLICY_H = np.array([
    [0.2, 0.5, 0.1], [0.4, 0.0, 0.9], [0.0, 0.3, 0.6], [0.6, 0.7, 0.0],
    [0.1, 0.8, 0.2], [0.5, 0.2, 0.4], [0.9, 0.1, 0.2],
])

# A kernel policy written by lsm.train(H, RegressionBackend(), metadata={"seed": 3})
# on the first six rows of LEGACY_POLICY_H while the metadata still repeated
# the horizon and held numerics.nonpositive_exit_action.
KERNEL_POLICY_TEXT = (
    "optstop-policy v2\n"
    "sha256 48d36a3ea5866fd76109005cbafbacefbd5e340d19e248bfc303640af7b4c296\n"
    '{"format_version":2,"horizon":2,"metadata":{"backend":{"bandwidth":1.0,"kind":"kernel",'
    '"ridge":1e-06},"feature":"exit_payoff","horizon":2,"n_train":6,'
    '"numerics":{"epochs":[{"in_the_money":5,"stopped":2,"support":5,'
    '"tail_bound":2.590959853559838e-33,"terms":16},{"in_the_money":5,"stopped":4,"support":5,'
    '"tail_bound":4.6887183471566e-33,"terms":17}],"nonpositive_exit_action":"reject"},'
    '"seed":3},"regressors":[{"bandwidth":1.0,"kind":"kernel","ridge":1e-06,'
    '"weights":[0.1171923822665982,-0.6764613759955648,16.01659332577556,18.977459555761687,'
    '-27.123507520401265,-0.2545037797002734,-0.4346710266431737,-0.004496159765135118,'
    '-0.0040108713003483894,-3.8601244145521215e-05,-2.7327561712988024e-05,'
    '-2.418114926502034e-07,-1.5042981096891062e-07,-1.2312616204379623e-09,'
    '-6.998568391480831e-10,-5.343219356551687e-12],"xs":[0.1,0.6]},{"bandwidth":1.0,'
    '"kind":"kernel","ridge":1e-06,"weights":[0.1559540857028099,-2.398340600615499,'
    '3.929156647329312,55.3038751149648,-40.97034982401153,1.6084100894393847,'
    '-0.9731621791818695,0.025394404526031488,-0.013307287553986143,0.0002837635487243791,'
    '-0.00013300413593783132,2.4899988204131452e-06,-1.0654228931386567e-06,'
    '1.811842342824832e-08,-7.1774808318991745e-09,1.1301181344902658e-10,'
    '-4.1877525752687106e-11],"xs":[0.2,0.8]}]}\n'
)


def signed_policy_text(payload: dict) -> str:
    """A policy file around payload, with a checksum that matches it."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f"{FORMAT_LINE}\nsha256 {hashlib.sha256(body.encode()).hexdigest()}\n{body}\n"


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(payload):
        node = payload
        for step in path:
            node = node[step]
        node[key] = value

    return mutate


def _delete(epoch, key):
    def mutate(payload):
        del payload["regressors"][epoch][key]

    return mutate


class TestPolicyPersistence:
    def test_round_trip_identical_decisions(self, ref_run, tmp_path):
        policy, _, test_batch, report, _ = ref_run
        file = tmp_path / "policy.txt"
        file.write_text(policy_to_text(policy))
        loaded = load_policy(file)
        t0, p0 = lsm.apply_policy(policy, test_batch.h)
        t1, p1 = lsm.apply_policy(loaded, test_batch.h)
        assert np.array_equal(t0, t1)
        assert np.array_equal(p0, p1)
        again = lsm.evaluate(loaded, test_batch)
        assert again.mean_algorithmic == report.mean_algorithmic
        assert again.mean_difference == report.mean_difference

    def test_truncated_file_rejected(self, ref_run, tmp_path):
        policy, _, _, _, _ = ref_run
        file = tmp_path / "policy.txt"
        file.write_text(policy_to_text(policy))
        text = file.read_text()
        file.write_text(text[: len(text) // 2])
        with pytest.raises(PolicyFormatError):
            load_policy(file)

    def test_corrupted_payload_rejected(self, ref_run, tmp_path):
        policy, _, _, _, _ = ref_run
        file = tmp_path / "policy.txt"
        file.write_text(policy_to_text(policy))
        file.write_text(file.read_text().replace("exit_payoff", "exit_pay0ff", 1))
        with pytest.raises(PolicyFormatError, match="checksum"):
            load_policy(file)

    def test_version_line_checked(self, tmp_path):
        file = tmp_path / "policy.txt"
        file.write_text("some-other-format v9\nsha256 00\n{}\n")
        with pytest.raises(PolicyFormatError, match="format"):
            load_policy(file)

    def test_version_1_file_asks_for_retraining(self, tmp_path):
        # v1 stored one kernel weight per training point; v2 stores the
        # Taylor-feature coefficients, so a v1 file cannot be read.
        file = tmp_path / "policy.txt"
        file.write_text(signed_policy_text(POLICY_PAYLOAD).replace(FORMAT_LINE, "optstop-policy v1"))
        with pytest.raises(PolicyFormatError, match="format v1, but this version reads only v2; retrain"):
            load_policy(file)

    def test_payload_with_every_kind_round_trips(self):
        text = signed_policy_text(POLICY_PAYLOAD)
        assert policy_to_text(policy_from_text(text)) == text

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (_set("regressors", 3, "xs", [1.0, 0.0]), "epoch 3: table xs must be strictly increasing"),
            (_set("regressors", 3, "means", [math.nan, 0.25]), "epoch 3: means must be .*finite"),
            (_set("regressors", 2, "coeffs", [math.nan, 0.2]), "epoch 2: coeffs must be .*finite"),
            (_set("regressors", 1, "xs", [math.nan, 0.2]), "epoch 1: xs must be .*finite"),
            (_set("regressors", 1, "bandwith", 1.0), "epoch 1: unknown kernel regressor key.*'bandwith'"),
            (_set("regressors", 0, "xs", []), "epoch 0: unknown zero regressor key.*'xs'"),
            (_set("horizn", 4), "unknown policy payload key.*'horizn'"),
            (_set("horizon", 4.0), "'horizon' must be a JSON integer"),
            (_set("metadata", [1]), "'metadata' must be a JSON object"),
            (_set("regressors", 2, "coeffs", []), "epoch 2: coeffs must be a non-empty"),
            (_set("regressors", 3, "xs", []), "epoch 3: xs must be a non-empty"),
            (_set("horizon", "4"), "'horizon' must be a JSON integer"),
            (_set("regressors", 0, ["kind", "zero"]), "epoch 0: regressor must be a JSON object"),
            (_delete(1, "weights"), "epoch 1: kernel regressor is missing required key 'weights'"),
            (_set("regressors", 3, "means", [0.5]), "epoch 3: 2 table entries but 1 means"),
            (_set("regressors", 1, "weights", [1.0, -1.0]), r"epoch 1: 10 terms on \[0.1, 0.2\] but 2 weights"),
            (_set("regressors", 1, "xs", [0.1, 0.2, 0.3]), "epoch 1: xs must be the training interval"),
            (_set("regressors", 1, "xs", [0.0, 100.0]), "epoch 1: bandwidth 1.0 is too small for the input span"),
            (_set("format_version", 3), "^unsupported payload version 3$"),
            (_set("horizon", 5), "^malformed policy payload: need exactly 5 regressors, got 4$"),
            (_set("regressors", 2, "kind", []),
             "^regressor of epoch 2: regressor key 'kind' must be a JSON string, got a JSON array$"),
            (_set("regressors", 0, "kind", {}),
             "^regressor of epoch 0: regressor key 'kind' must be a JSON string, got a JSON object$"),
        ],
        ids=[
            "tabular-unsorted-xs", "tabular-nan-mean", "poly-nan-coeff", "kernel-nan-x",
            "kernel-unknown-key", "zero-unknown-key", "unknown-top-key", "float-horizon",
            "list-metadata", "poly-empty", "tabular-empty", "string-horizon",
            "regressor-not-object", "kernel-missing-key", "tabular-length-mismatch",
            "kernel-term-count", "kernel-not-interval", "kernel-span-too-wide",
            "payload-version", "regressor-count", "array-kind", "object-kind",
        ],
    )
    def test_malformed_payload_named(self, mutate, message):
        payload = copy.deepcopy(POLICY_PAYLOAD)
        mutate(payload)
        with pytest.raises(PolicyFormatError, match=message):
            policy_from_text(signed_policy_text(payload))

    @pytest.mark.parametrize(
        "text, message",
        [
            (f"{FORMAT_LINE}\nsha256 00", "^truncated policy file$"),
            (f"{FORMAT_LINE}\nmd5 00\n{{}}\n", "^missing checksum line$"),
            (f"{FORMAT_LINE}\nsha256 {hashlib.sha256(b'{not json').hexdigest()}\n{{not json\n",
             "^malformed policy payload$"),
        ],
        ids=["truncated", "no-checksum-line", "not-json"],
    )
    def test_malformed_file_named(self, text, message):
        with pytest.raises(PolicyFormatError, match=message):
            policy_from_text(text)

    def test_tabular_backend_metadata_preserved(self, tmp_path):
        config = small_config(backend=RegressionBackend(kind="tabular"))
        policy, _ = experiment.train_policy(config)
        file = tmp_path / "p.txt"
        file.write_text(policy_to_text(policy))
        loaded = load_policy(file)
        assert loaded.metadata["backend"] == RegressionBackend(kind="tabular").to_dict()
        assert loaded.metadata == policy.metadata

    def test_polynomial_policy_still_loads_and_applies(self):
        # No backend trains a polynomial policy now; one written before still
        # evaluates, its degree recorded only in its metadata.
        policy = policy_from_text(POLY_POLICY_TEXT)
        assert policy.metadata["backend"]["degree"] == 2
        assert [r.kind for r in policy.regressors] == ["poly", "poly"]
        times, payoffs = lsm.apply_policy(policy, LEGACY_POLICY_H)
        assert times.tolist() == [1, 2, 2, 1, 1, 2, 0]
        assert payoffs.tolist() == [0.5, 0.9, 0.6, 0.7, 0.8, 0.4, 0.9]
        assert policy_to_text(policy) == POLY_POLICY_TEXT
        with pytest.raises(ValueError, match="unknown backend key.*'degree'"):
            RegressionBackend.from_dict(policy.metadata["backend"])

    def test_kernel_policy_with_retired_metadata_keys_still_loads_and_applies(self):
        # Metadata is free-form: the keys training no longer writes load as
        # they were, and the regressors are the ones training writes now.
        policy = policy_from_text(KERNEL_POLICY_TEXT)
        assert policy.metadata["horizon"] == 2
        assert policy.metadata["numerics"]["nonpositive_exit_action"] == "reject"
        times, payoffs = lsm.apply_policy(policy, LEGACY_POLICY_H)
        assert times.tolist() == [1, 0, 2, 1, 1, 0, 1]
        assert payoffs.tolist() == [0.5, 0.4, 0.6, 0.7, 0.8, 0.5, 0.1]
        assert policy_to_text(policy) == KERNEL_POLICY_TEXT
        retrained = lsm.train(LEGACY_POLICY_H[:6], RegressionBackend(), metadata={"seed": 3})
        assert [r.to_dict() for r in retrained.regressors] == [
            r.to_dict() for r in policy.regressors
        ]
        del policy.metadata["horizon"], policy.metadata["numerics"]["nonpositive_exit_action"]
        assert retrained.metadata == policy.metadata


class TestOutputs:
    def test_run_writes_expected_files(self, tmp_path):
        config = small_config()
        out = tmp_path / "run"
        run_experiment(config, outdir=out)
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "config.json",
            "exit_summary.csv",
            "payoff_diff.csv",
            "payoff_hist.csv",
            "policy.txt",
            "price_hist.csv",
            "summary.csv",
        ]

    def test_every_table_echoes_the_config(self, tmp_path):
        config = small_config()
        out = tmp_path / "run"
        run_experiment(config, outdir=out)
        for file in out.glob("*.csv"):
            first = file.read_text().splitlines()[0]
            assert first.startswith("# config ")
            echoed = json.loads(first[len("# config "):])
            assert echoed == config.to_dict()

    def test_trace_has_one_row_per_epoch(self):
        config = small_config(n_test=1)
        batch = generate_paths(config.params, config.n_test, DOMAIN_TEST)
        lines = experiment.render_trace(batch, 0, config).splitlines()
        header = lines[1].split(",")
        assert header[0] == "t"
        assert len(lines) == 2 + config.params.horizon + 1  # echo + header + epochs
        assert len(lines[2].split(",")) == len(header)

    def test_difference_table_mean_matches_summary(self, tmp_path):
        config = small_config()
        out = tmp_path / "run"
        report = run_experiment(config, outdir=out)
        diff_lines = (out / "payoff_diff.csv").read_text().splitlines()[2:]
        diffs = [float(ln.split(",")[3]) for ln in diff_lines]
        assert len(diffs) == config.n_test
        assert abs(np.mean(diffs) - report.mean_difference) <= 1e-12
        summary = dict(
            ln.split(",", 1) for ln in (out / "summary.csv").read_text().splitlines()[2:]
        )
        assert float(summary["mean_difference"]) == report.mean_difference
        assert int(summary["equal_payoff_trials"]) == report.n_ties

    def test_zero_purchase_run_has_empty_histogram(self, tmp_path):
        # Start the valuations far below any price: payoffs never go positive.
        config = small_config(params=ModelParams(horizon=6, mu_prior=-50.0, seed=11),
                              n_train=10, n_test=10)
        out = tmp_path / "run"
        report = run_experiment(config, outdir=out)
        assert report.algorithmic.n_purchases == 0
        assert report.myopic.n_purchases == 0
        rows = (out / "price_hist.csv").read_text().splitlines()[2:]
        counts = np.array([[int(c) for c in ln.split(",")[2:]] for ln in rows])
        assert counts.sum() == 0

    def test_paired_checksums_equal(self, ref_run):
        # One checksum, of the one test batch both strategies exit on.
        _, _, test_batch, report, _ = ref_run
        assert report.paths_sha256 == hashlib.sha256(test_batch.h.tobytes()).hexdigest()
        rows = np.arange(report.n_trials)
        for outcome in (report.algorithmic, report.myopic):
            assert np.array_equal(outcome.prices_at_exit, test_batch.p[rows, outcome.times])

    def test_nonempty_outdir_fails_before_any_work(self, tmp_path, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("run_experiment trained before it checked outdir")

        monkeypatch.setattr(lsm, "train", work)
        out = tmp_path / "taken"
        out.mkdir()
        (out / "keep.txt").write_text("kept")
        with pytest.raises(FileExistsError, match="exists and is not empty"):
            run_experiment(small_config(), outdir=out)
        assert [p.name for p in out.iterdir()] == ["keep.txt"]

    def test_byte_identical_reruns(self, tmp_path):
        config = small_config()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(config, outdir=out_a)
        run_experiment(config, outdir=out_b)
        files_a = sorted(p.name for p in out_a.iterdir())
        assert files_a == sorted(p.name for p in out_b.iterdir())
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_existing_nonempty_outdir_rejected(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "keep.txt").write_text("do not clobber")
        with pytest.raises(FileExistsError):
            write_output_dir(out, {"x.csv": "data"})
        assert (out / "keep.txt").read_text() == "do not clobber"

    def test_existing_empty_outdir_filled(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        write_output_dir(out, {"x.csv": "data"})
        assert [p.name for p in out.iterdir()] == ["x.csv"]
        assert (out / "x.csv").read_text() == "data"
        assert [p.name for p in tmp_path.iterdir()] == ["run"]  # staging renamed into place

    def test_failed_write_leaves_no_output_dir(self, tmp_path):
        out = tmp_path / "run"
        with pytest.raises((OSError, ValueError)):
            write_output_dir(out, {"ok.csv": "fine", "bad\0name.csv": "boom"})
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []  # staging cleaned up


# 16- and 17-digit decimals across the exponent range; most keep all their
# digits as the shortest repr of the double they round to.
LONG_DECIMALS = st.builds(
    lambda m, e: float(f"{m}e{e}"), st.integers(10**15, 10**17 - 1), st.integers(-340, 291)
)
EDGE_DOUBLES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
     1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, 0.30000000000000004]
)
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), LONG_DECIMALS, EDGE_DOUBLES)


@st.composite
def path_batches(draw) -> PathBatch:
    n, tp1 = draw(st.integers(1, 3)), draw(st.integers(2, 4))

    def grid(*shape):
        size = math.prod(shape)
        return np.reshape(draw(st.lists(FINITE, min_size=size, max_size=size)), shape)

    pi = grid(n, tp1)
    return PathBatch(
        v=grid(n, tp1), y=grid(n, tp1 - 1), p=grid(n, tp1), pi=pi, h=np.maximum(pi, 0.0),
        seller_mean=grid(n, tp1), seller_var=grid(tp1),
    )


def edit_seller_var(edit):
    """A paths CSV edit (of its lines) that applies edit to the values of its
    `# seller_var` line, the fields after the name."""
    def edit_lines(lines):
        name, *values = lines[1].rstrip("\n").split(",")
        return [lines[0], ",".join([name, *edit(values)]) + "\n", *lines[2:]]
    return edit_lines


class TestPathsCsv:
    @given(path_batches())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_bitwise_for_any_finite_doubles(self, batch):
        text = render_paths_csv(batch, small_config())
        with tempfile.TemporaryDirectory() as tmp:
            file = Path(tmp) / "paths.csv"
            for variant in (text, text.replace("\n", "\r\n"), text.rstrip("\n")):
                file.write_bytes(variant.encode("utf-8"))
                loaded = load_paths_csv(file)
                for field in ("v", "y", "p", "pi", "h", "seller_mean", "seller_var"):
                    want, got = getattr(batch, field), getattr(loaded, field)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), field

    def test_round_trip_bitwise(self, tmp_path):
        params = ModelParams(horizon=5, seed=31)
        batch = generate_paths(params, 12, DOMAIN_TRAIN)
        file = tmp_path / "paths.csv"
        file.write_text(render_paths_csv(batch, small_config()))
        loaded = load_paths_csv(file)
        for field in ("v", "y", "p", "pi", "h", "seller_mean", "seller_var"):
            assert np.array_equal(getattr(batch, field), getattr(loaded, field))

    @pytest.mark.parametrize("horizon", [25, 1])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_simulated_paths_round_trip_bitwise(self, tmp_path, seed, horizon):
        # A block and a third of paths, so the last block ends partway. h is
        # not in the file: the loader derives it with simulate's bits.
        per_block = experiment._BLOCK_ROWS // (horizon + 1)
        n = per_block + per_block // 3
        config = experiment.reference_config(seed)
        params = dataclasses.replace(config.params, horizon=horizon)
        batch = generate_paths(params, n, DOMAIN_TRAIN)
        file = tmp_path / "paths.csv"
        file.write_text(render_paths_csv(batch, config))
        loaded = load_paths_csv(file)
        for f in dataclasses.fields(PathBatch):
            assert getattr(loaded, f.name).tobytes() == getattr(batch, f.name).tobytes(), f.name

    def test_blocks_render_as_rows_one_at_a_time(self, tmp_path):
        # Two full blocks of paths and a partial one, of hand-set values.
        tp1 = 4
        n = 2 * (experiment._BLOCK_ROWS // tp1) + 5
        values = np.array([
            0.0, -0.0, 1e-20, -1e-20, 0.1 + 0.2, 1 / 3, -2.718281828459045,
            123456789.12345679, 5e-324, 1.7976931348623157e308,
        ])

        def grid(*shape, shift):
            return np.resize(np.roll(values, shift), shape)

        pi = grid(n, tp1, shift=4)
        batch = PathBatch(
            v=grid(n, tp1, shift=0), y=grid(n, tp1 - 1, shift=1), p=grid(n, tp1, shift=2),
            pi=pi, h=np.maximum(pi, 0.0), seller_mean=grid(n, tp1, shift=3),
            seller_var=grid(tp1, shift=5),
        )
        config = small_config()
        lines = [
            f"# config {config.echo()}",
            ",".join(["# seller_var", *(repr(float(x)) for x in batch.seller_var)]),
            ",".join(PATHS_COLUMNS),
        ]
        for i in range(n):
            for t in range(tp1):
                lines.append(",".join([
                    str(i), str(t), repr(float(batch.v[i, t])),
                    repr(float(batch.y[i, t - 1])) if t else "nan", repr(float(batch.p[i, t])),
                    repr(float(batch.pi[i, t])), repr(float(batch.seller_mean[i, t])),
                ]))
        text = render_paths_csv(batch, config)
        assert text == "\n".join(lines) + "\n"
        file = tmp_path / "paths.csv"
        file.write_text(text)
        loaded = load_paths_csv(file)
        for f in dataclasses.fields(PathBatch):
            assert getattr(loaded, f.name).tobytes() == getattr(batch, f.name).tobytes(), f.name

    def test_render_peak_memory_near_the_text_size(self):
        # 600 reference paths, several blocks: the cell strings of one block
        # are held at a time, not those of the whole file.
        config = experiment.reference_config(1)
        batch = generate_paths(config.params, 600, DOMAIN_TRAIN)
        tracemalloc.start()
        try:
            text = render_paths_csv(batch, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text), peak / len(text)

    @staticmethod
    def csv_lines() -> list[str]:
        """4 paths of T=3: config echo, `# seller_var` line, header, then rows
        in (path, t) order."""
        params = ModelParams(horizon=3, seed=31)
        text = render_paths_csv(generate_paths(params, 4, DOMAIN_TRAIN), small_config())
        return text.splitlines(keepends=True)

    @pytest.mark.parametrize(
        "edit, message",
        [
            # Rows start at line 3; row 3 + 4 * i + t holds (path=i, t), data row 1 + 4 * i + t.
            (lambda rows: rows[:9] + rows[10:],
             r"data row 7 holds \(path=1, t=3\); \(path=1, t=2\) belongs there"),
            (lambda rows: rows + [rows[3 + 4 * 2 + 3]],
             r"data row 17 holds \(path=2, t=3\); \(path=4, t=0\) belongs there"),
            (lambda rows: rows[:9] + ["1,-2," + rows[9][len("1,2,"):]] + rows[10:],
             r"data row 7 holds \(path=1, t=-2\); \(path=1, t=2\) belongs there"),
            (lambda rows: rows[:9] + [rows[9].rstrip("\n") + ",0.5\n"] + rows[10:],
             "rows of 7 fields"),
            (lambda rows: rows[:-1],
             r"^paths CSV data row 16 is missing; \(path=3, t=3\) belongs there "
             r"in simulate's \(path, t\) order$"),
            # Rows must come in simulate's order; two swapped rows are named.
            (lambda rows: rows[:6] + [rows[7], rows[6]] + rows[8:],
             r"^paths CSV data row 4 holds \(path=1, t=0\); \(path=0, t=3\) belongs there"),
            # A huge path or t index is named without an array sized by it.
            (lambda rows: rows[:9] + ["99999999999," + rows[9][len("1,"):]] + rows[10:],
             r"^paths CSV data row 7 holds \(path=99999999999, t=2\); \(path=1, t=2\)"),
            (lambda rows: rows[:4] + ["0,9223372036854775807," + rows[4][len("0,1,"):]] + rows[5:],
             r"^paths CSV data row 2 holds \(path=0, t=9223372036854775807\); "
             r"\(path=0, t=1\) belongs there"),
            (lambda rows: rows[:9] + ["1" + "0" * 30 + rows[9][len("1"):]] + rows[10:],
             "^paths CSV data row 7: path field '1000000000000000000000000000000' is not a 64-bit integer$"),
            (lambda rows: rows[:9] + [rows[9].replace(rows[9].split(",")[2], "abc", 1)] + rows[10:],
             "^paths CSV data row 7: v field 'abc' is not a number$"),
            (lambda rows: [], "no header row"),
            (lambda rows: rows[:1], "no header row"),  # only the config echo
            (lambda rows: rows[:3], "^paths CSV has no data rows; it needs rows of 7 fields$"),
            # Whitespace-only and `#` lines are skipped only before the header.
            (lambda rows: rows[:9] + [" \t\n"] + rows[9:],
             "^paths CSV data row 7 has 1 fields; the file needs rows of 7 fields$"),
            (lambda rows: rows[:9] + ["# a note\n"] + rows[9:],
             "^paths CSV data row 7 has 1 fields; the file needs rows of 7 fields$"),
            # float() and int() take digit separators and non-ASCII digits; the reader does not.
            (lambda rows: rows[:9] + [rows[9].replace(rows[9].split(",")[2], "1_0.5", 1)] + rows[10:],
             "^paths CSV data row 7: v field '1_0.5' is not a number$"),
            (lambda rows: rows[:9] + ["1_0" + rows[9][len("1"):]] + rows[10:],
             "^paths CSV data row 7: path field '1_0' is not a 64-bit integer$"),
            (lambda rows: rows[:9] + ["1,\u0662," + rows[9][len("1,2,"):]] + rows[10:],
             "^paths CSV data row 7: t field '\u0662' is not a 64-bit integer$"),
            (lambda rows: rows[:9] + ["1,2,2, ," + rows[9].split(",", 4)[4]] + rows[10:],
             "^paths CSV data row 7: y field ' ' is not a number$"),
            # An empty y at t = 0 is an empty field like any other. The older
            # versions that wrote it so are named by their header.
            (lambda rows: rows[:7] + [rows[7].replace(",nan,", ",,", 1)] + rows[8:],
             "^paths CSV data row 5: y field '' is not a number$"),
        ],
    )
    def test_faulty_rows_named(self, tmp_path, edit, message):
        params = ModelParams(horizon=3, seed=31)
        text = render_paths_csv(generate_paths(params, 4, DOMAIN_TRAIN), small_config())
        lines = text.splitlines(keepends=True)
        assert lines[9].startswith("1,2,")
        file = tmp_path / "paths.csv"
        file.write_text("".join(edit(lines)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a fault is raised, never warned about
            with pytest.raises(ValueError, match=message):
                load_paths_csv(file)

    @pytest.mark.parametrize(
        "column, text, accepted",
        [
            ("t", " 2", True), ("t", "+2", True), ("t", "2_0", False), ("t", "\u0662", False),
            # Older numpy reads these into an int through a float, with a warning.
            ("t", "2.0", False), ("t", "2e0", False),
            ("v", "2.0", True), ("v", " .5 ", True), ("v", "1e400", True), ("v", "2_0", False),
            ("v", "0x1p3", False), ("v", " ", False), ("y", "2_0", False),
            # The reader takes any nan; a nan y after t = 0 is then PathBatch's to name.
            ("y", "nan", True), ("y", " -NaN ", True), ("v", "nan", True),
            # The reader takes a trailing \x1c that Python's float() rejects; it
            # decides for every float column alike.
            ("v", "2\x1c", True), ("y", "2\x1c", True),
        ],
    )
    def test_named_exactly_when_the_reader_rejects(self, tmp_path, column, text, accepted):
        # A later row holds a second fault, which is named only if the field
        # under test is accepted.
        lines = self.csv_lines()
        for row, k, field in ((9, PATHS_COLUMNS.index(column), text), (12, 2, "abc")):
            fields = lines[row].rstrip("\n").split(",")
            fields[k] = field
            lines[row] = ",".join(fields) + "\n"
        file = tmp_path / "paths.csv"
        file.write_text("".join(lines))
        if accepted:
            named = "data row 10: v field 'abc' is not a number"
        else:
            named = f"data row 7: {column} field {re.escape(repr(text))} is not a"
        with pytest.raises(ValueError, match=f"^paths CSV {named}"):
            load_paths_csv(file)

    def test_fault_past_the_first_block_named_in_few_reader_calls(self, tmp_path, monkeypatch):
        # 600 paths of T=3 make 2400 data rows; data row r is line r + 2.
        # The first of two faults is named, after one reader call for the
        # `# seller_var` line, one for the rows, about log2(2400) to find the
        # faulty row and one per field tried.
        params = ModelParams(horizon=3, seed=31)
        text = render_paths_csv(generate_paths(params, 600, DOMAIN_TRAIN), small_config())
        lines = text.splitlines(keepends=True)
        for row, field in ((1500, "abc"), (1700, "xyz")):
            fields = lines[row + 2].split(",")
            fields[2] = field
            lines[row + 2] = ",".join(fields)
        file = tmp_path / "paths.csv"
        file.write_text("".join(lines))
        calls = []
        read_rows = experiment._read_rows
        monkeypatch.setattr(
            experiment, "_read_rows", lambda *args: calls.append(1) or read_rows(*args)
        )
        with pytest.raises(ValueError, match="^paths CSV data row 1500: v field 'abc' is not a number$"):
            load_paths_csv(file)
        assert len(calls) <= 2 + math.ceil(math.log2(2400)) + len(PATHS_COLUMNS)

    def test_int_read_through_a_float_is_named(self, tmp_path, monkeypatch):
        # Older numpy reads an int field such as '2.0' through a float and
        # warns; a warning raised as an error there surfaces as ValueError.
        # This stands in for that reader on a numpy that rejects the field.
        real_loadtxt = np.loadtxt

        def older_loadtxt(lines, **kwargs):
            lines = list(lines)
            if any(line.split(",")[1] == "2.0" for line in lines):
                try:
                    warnings.warn(
                        "loadtxt(): Parsing an integer via a float is deprecated.",
                        DeprecationWarning,
                    )
                except DeprecationWarning as exc:
                    raise ValueError("could not convert string '2.0' to int64") from exc
                lines = [line.replace(",2.0,", ",2,", 1) for line in lines]
            return real_loadtxt(lines, **kwargs)

        monkeypatch.setattr(np, "loadtxt", older_loadtxt)
        lines = self.csv_lines()
        lines[9] = "1,2.0," + lines[9][len("1,2,"):]
        file = tmp_path / "paths.csv"
        file.write_text("".join(lines))
        with pytest.raises(ValueError, match="^paths CSV data row 7: t field '2.0' is not a 64-bit"):
            load_paths_csv(file)

    @pytest.mark.parametrize(
        "row, column, text, fault",
        [
            # Rows start at line 3; row 3 + 4 * i + t holds (path=i, t), data row 1 + 4 * i + t.
            # An empty field is the reader's to name, by data row, like any other.
            (9, "y", "", "data row 7: y field '' is not a number$"),
            (9, "y", "inf", r"row \(path=1, t=2\) has a non-finite y$"),
            (7, "y", "0.5", r"row \(path=1, t=0\) has a y, but y is nan at t = 0"),
            (9, "v", "inf", r"row \(path=1, t=2\) has a non-finite v$"),
            (4, "p", "1e400", r"row \(path=0, t=1\) has a non-finite p$"),
            (5, "pi", "-inf", r"row \(path=0, t=2\) has a non-finite pi$"),
            (9, "pi", "nan", r"row \(path=1, t=2\) has a non-finite pi$"),
            (6, "seller_mean", "nan", r"row \(path=0, t=3\) has a non-finite seller_mean$"),
            # Row 1 is the `# seller_var` line; its field 1 holds t = 0's value.
            (1, "seller_var", "inf", "# seller_var value at t = 0 is inf, not a finite number$"),
            (9, "y", "nan", r"row \(path=1, t=2\) has a non-finite y$"),
        ],
        ids=[
            "empty-y-after-t0", "infinite-y", "y-at-t0", "infinite-v", "overflowing-p",
            "infinite-pi", "nan-pi", "nan-seller-mean", "infinite-seller-var", "nan-y-after-t0",
        ],
    )
    def test_cell_fault_named(self, tmp_path, row, column, text, fault):
        # PathBatch names the cell; the loader rejects a y other than nan at
        # t = 0, which PathBatch never sees, and names a non-finite value of
        # the `# seller_var` line by its t.
        lines = self.csv_lines()
        fields = lines[row].rstrip("\n").split(",")
        fields[1 if row == 1 else PATHS_COLUMNS.index(column)] = text
        lines[row] = ",".join(fields) + "\n"
        file = tmp_path / "paths.csv"
        file.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"^paths CSV {fault}"):
            load_paths_csv(file)

    def test_h_is_the_exit_payoff_of_pi(self, tmp_path):
        # The file holds no h: each is consumer.exit_payoff of its row's pi,
        # as simulate makes it, so an edited pi carries its h along.
        lines = self.csv_lines()
        for row, pi in ((5, "-0.5"), (9, "0.25"), (10, "-0.0")):
            fields = lines[row].rstrip("\n").split(",")
            fields[PATHS_COLUMNS.index("pi")] = pi
            lines[row] = ",".join(fields) + "\n"
        file = tmp_path / "paths.csv"
        file.write_text("".join(lines))
        batch = load_paths_csv(file)
        assert batch.h.tobytes() == exit_payoff(batch.pi).tobytes()
        assert (batch.pi[0, 2], batch.h[0, 2]) == (-0.5, 0.0)
        assert (batch.pi[1, 2], batch.h[1, 2]) == (0.25, 0.25)

    @pytest.mark.parametrize(
        "edit, message",
        [
            # The header of older versions, whose rows held h and seller_var,
            # is named with the way out; its files had no `# seller_var` line.
            (lambda rows: rows[:1] + ["path,t,v,y,p,pi,h,seller_mean,seller_var\n"] + rows[3:],
             r"^paths CSV header \['path', 't', 'v', 'y', 'p', 'pi', 'h', 'seller_mean', "
             r"'seller_var'\] is that of older versions; h is now max\(pi, 0\), derived on "
             r"load, and seller_var is the # seller_var line above the header, so re-run "
             r"optstop simulate under the file's config$"),
            (lambda rows: rows[:1] + rows[2:],
             "^paths CSV has no # seller_var line above its header row$"),
            (lambda rows: rows[:2] + rows[1:],
             "^paths CSV has a second # seller_var line; it holds one$"),
            (lambda rows: rows[:2] + rows[:1] + rows[2:],
             "^paths CSV has a second # config line; it holds one$"),
            (lambda rows: rows[:1] + rows[2:3] + rows[1:2] + rows[3:],
             "^paths CSV has no # seller_var line above its header row$"),
            (lambda rows: rows[:2], "^paths CSV has no header row$"),
            # T + 1 = 4 values, one per epoch of the rows' horizon 3.
            (edit_seller_var(lambda values: values[:3]),
             r"^paths CSV # seller_var line holds 3 values, but its rows hold paths of "
             r"horizon 3, which take 4, one per t = 0\.\.3$"),
            (edit_seller_var(lambda values: values + ["0.5"]),
             "^paths CSV # seller_var line holds 5 values, but its rows hold paths of horizon 3"),
            (edit_seller_var(lambda values: [""]),  # the line `# seller_var,`
             "^paths CSV # seller_var line holds 0 values, but its rows hold paths of horizon 3"),
            # A value the reader rejects is named by its position in the line.
            (edit_seller_var(lambda values: values[:1] + ["abc"] + values[2:]),
             "^paths CSV # seller_var value 2 of 4, 'abc', is not a number$"),
            (edit_seller_var(lambda values: values[:3] + [""]),
             "^paths CSV # seller_var value 4 of 4, '', is not a number$"),
            (edit_seller_var(lambda values: values + [""]),
             "^paths CSV # seller_var value 5 of 5, '', is not a number$"),
            (edit_seller_var(lambda values: values[:2] + ["1_0"] + values[3:]),
             "^paths CSV # seller_var value 3 of 4, '1_0', is not a number$"),
            # A non-finite value is named by its t.
            (edit_seller_var(lambda values: values[:2] + [" NaN"] + values[3:]),
             "^paths CSV # seller_var value at t = 2 is nan, not a finite number$"),
            (edit_seller_var(lambda values: values[:3] + ["-1e400"]),
             "^paths CSV # seller_var value at t = 3 is -inf, not a finite number$"),
        ],
        ids=[
            "older-header", "no-seller-var-line", "second-seller-var-line",
            "second-config-line", "seller-var-line-after-the-header", "no-header-row",
            "too-few-values", "too-many-values", "no-values", "rejected-value",
            "empty-last-value", "trailing-comma", "digit-separator", "nan-value",
            "overflowing-value",
        ],
    )
    def test_header_fault_named(self, tmp_path, edit, message):
        file = tmp_path / "paths.csv"
        file.write_text("".join(edit(self.csv_lines())))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a fault is raised, never warned about
            with pytest.raises(ValueError, match=message):
                load_paths_csv(file)

    def test_seller_var_values_read_by_the_rows_reader(self, tmp_path):
        # A trailing \x1c, which Python's float() rejects, is taken by the
        # reader in the `# seller_var` line as in a row; leading spaces too.
        lines = self.csv_lines()
        name, *values = lines[1].rstrip("\n").split(",")
        want = np.array([float(x) for x in values])
        values[1] = values[1] + "\x1c"
        values[2] = " " + values[2]
        lines[1] = ",".join([name, *values]) + "\n"
        file = tmp_path / "paths.csv"
        file.write_text("".join(lines))
        assert load_paths_csv(file).seller_var.tobytes() == want.tobytes()

    def test_seed_read_from_the_config_echo(self, tmp_path):
        lines = self.csv_lines()
        file = tmp_path / "paths.csv"
        file.write_text("".join(lines))
        params = small_config().params
        assert paths_csv_echo(file) == (params.seed, params.horizon)
        file.write_text("".join(lines[1:]))
        assert paths_csv_echo(file) == (None, None)
        # Only the seed and horizon are read: an echo with keys since retired still serves.
        file.write_text('# config {"backend": {"degree": 3}, "bins": 40, "fixed_v0": null, '
                        '"model": {"seed": 7, "support_cap": 9}, "paired": true, '
                        '"trace_trials": [0]}\n'
                        + "".join(lines[1:]))
        assert paths_csv_echo(file) == (7, None)
        for echo, message in [
            ('{"model": {"seed": -1}}', "seed must be an integer .* got -1$"),
            ('{"model": {"seed": 7.0}}', "seed must be an integer .* got 7.0$"),
            ('{"model": {"seed": true}}', "seed must be an integer .* got True$"),
            ('{"model": {"horizon": 0}}', "horizon must be an integer >= 1, got 0$"),
            ('{"model": {"horizon": 3.0}}', "horizon must be an integer >= 1, got 3.0$"),
            ('{"model": 7}', "not a JSON object with a model object$"),
            ('{"model": {"seed": 7}', "not a JSON object with a model object$"),
        ]:
            file.write_text(f"# config {echo}\n" + "".join(lines[1:]))
            with pytest.raises(ValueError, match=f"^paths CSV config echo: {message}"):
                paths_csv_echo(file)

    def test_header_checked(self, tmp_path):
        bad = tmp_path / "p.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_paths_csv(bad)


def pin_config() -> ExperimentConfig:
    return ExperimentConfig(
        params=ModelParams(horizon=1, sigma_eps=0.5, seed=3),
        n_train=2,
        n_test=2,
    )


def pin_batch() -> PathBatch:
    """Two hand-built paths of T=1."""
    pi = np.array([[-0.25, 0.5], [0.0, -1.5]])
    return PathBatch(
        v=np.array([[1.0, 1.5], [0.25, 1e-20]]),
        y=np.array([[0.1], [-2.0]]),
        p=np.array([[0.5, 0.75], [0.5, 0.125]]),
        pi=pi,
        h=np.maximum(pi, 0.0),
        seller_mean=np.array([[1.0, 1 / 3], [1.0, 0.5]]),
        seller_var=np.array([1.0, 0.5]),
    )


def pin_report() -> lsm.EvaluationReport:
    # The outcomes of exiting pin_batch() at these times.
    alg = lsm.StrategyOutcome(
        times=np.array([1, 0]), payoffs=np.array([0.5, 0.0]),
        prices_at_exit=np.array([0.75, 0.5]), valuations_at_exit=np.array([1.5, 0.25]),
    )
    myo = lsm.StrategyOutcome(
        times=np.array([0, 1]), payoffs=np.array([0.0, 0.0]),
        prices_at_exit=np.array([0.5, 0.125]), valuations_at_exit=np.array([1.0, 1e-20]),
    )
    return lsm.EvaluationReport(algorithmic=alg, myopic=myo, paths_sha256="aa")


class TestTableFormat:
    """Exact bytes of each table for small hand-built inputs."""

    def expect(self, text: str, body: str):
        assert text == f"# config {pin_config().echo()}\n" + body

    def test_paths_csv(self):
        self.expect(
            render_paths_csv(pin_batch(), pin_config()),
            "# seller_var,1.0,0.5\n"
            "path,t,v,y,p,pi,seller_mean\n"
            "0,0,1.0,nan,0.5,-0.25,1.0\n"
            "0,1,1.5,0.1,0.75,0.5,0.3333333333333333\n"
            "1,0,0.25,nan,0.5,0.0,1.0\n"
            "1,1,1e-20,-2.0,0.125,-1.5,0.5\n",
        )

    def test_trace(self):
        self.expect(
            experiment.render_trace(pin_batch(), 1, pin_config()),
            "t,valuation_mean,valuation_std,observation,price,purchase_payoff,"
            "exit_payoff,seller_mean,seller_std\n"
            "0,0.25,0.5,nan,0.5,0.0,0.0,1.0,1.0\n"
            "1,1e-20,0.0,-2.0,0.125,-1.5,0.0,0.5,0.7071067811865476\n",
        )
        assert experiment.render_trace(pin_batch(), np.int64(1), pin_config()) == \
            experiment.render_trace(pin_batch(), 1, pin_config())

    @pytest.mark.parametrize("trial", [-1, 2, 1.0, True])
    def test_trace_trial_outside_the_batch_named(self, trial):
        # pin_batch() has 2 paths.
        with pytest.raises(ValueError, match=rf"^trace trial {trial!r} is not an integer in 0\.\.1$"):
            experiment.render_trace(pin_batch(), trial, pin_config())

    def test_summary(self):
        self.expect(
            experiment.render_summary(pin_report(), pin_config()),
            "key,value\n"
            "n_trials,2\n"
            "mean_algorithmic,0.25\n"
            "mean_algorithmic_se,0.25\n"
            "mean_myopic,0.0\n"
            "mean_myopic_se,0.0\n"
            "mean_difference,0.25\n"
            "mean_difference_se,0.25\n"
            "mean_difference_ci95_low,-0.2399909961350134\n"
            "mean_difference_ci95_high,0.7399909961350134\n"
            "algorithmic_purchases,1\n"
            "myopic_purchases,0\n"
            "equal_payoff_trials,1\n"
            "test_paths_checksum,aa\n",
        )

    def test_figure_tables(self):
        files = experiment.render_figures_data(pin_report(), pin_config())
        self.expect(
            files["exit_summary.csv"],
            "trial,alg_exit_time,alg_valuation_mean,alg_valuation_std,alg_price,"
            "alg_purchased,alg_payoff,myo_exit_time,myo_valuation_mean,"
            "myo_valuation_std,myo_price,myo_purchased,myo_payoff\n"
            "0,1,1.5,0.0,0.75,1,0.5,0,1.0,0.5,0.5,0,0.0\n"
            "1,0,0.25,0.5,0.5,0,0.0,1,1e-20,0.0,0.125,0,0.0\n",
        )
        self.expect(
            files["payoff_diff.csv"],
            "trial,algorithmic,myopic,difference\n"
            "0,0.5,0.0,0.5\n"
            "1,0.0,0.0,0.0\n",
        )
        for name, lo, hi, rows in (("payoff_hist.csv", -0.5, 1.0, 30),
                                   ("price_hist.csv", 0.0, 3.0, 60)):
            lines = files[name].splitlines()
            assert lines[1] == "bin_left,bin_right,algorithmic,myopic"
            assert len(lines) == 2 + rows
            assert lines[2].split(",")[0] == repr(lo) and lines[-1].split(",")[1] == repr(hi)

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, -0.0, 0.0, -0.0],
            [0.5, 1e-20, 0.5, -2.0, 1e-20, 0.5, 0.1 + 0.2, 0.3],
            [5e-324, -5e-324, 1.7976931348623157e308, -math.inf, math.inf, 5e-324],
            [0.75],
        ],
        ids=["zeros", "repeats", "extremes", "one"],
    )
    def test_distinct_column_formats_as_column(self, values):
        values = np.array(values)
        assert experiment._distinct_column(values) == experiment._column(values)

    def test_figure_tables_format_each_distinct_value_once(self, monkeypatch):
        # _column formats floats with repr, looked up in experiment's globals.
        formatted = []

        def counting_repr(x):
            formatted.append(x)
            return repr(x)

        expected = experiment.render_figures_data(pin_report(), pin_config())
        monkeypatch.setattr(experiment, "repr", counting_repr, raising=False)
        assert experiment.render_figures_data(pin_report(), pin_config()) == expected
        # The histograms' 180 bin edges, then the distinct values of each
        # pair of algorithmic and myopic columns: valuation means, stds,
        # prices and payoffs (4 2 3 2), then the 2 distinct differences.
        # The payoffs are not formatted again for payoff_diff.csv.
        assert len(formatted) == 180 + 4 + 2 + 3 + 2 + 2

    def test_paths_csv_formats_every_cell_through_column(self, monkeypatch):
        def fail(values):
            raise AssertionError("render_paths_csv called _distinct_column")

        monkeypatch.setattr(experiment, "_distinct_column", fail)
        assert render_paths_csv(pin_batch(), pin_config()).count("\n") == 7

    def test_histogram(self):
        report = pin_report()
        alg, myo = report.algorithmic, report.myopic
        payoffs = experiment._histogram(np.array([-0.5, 0.0, 0.5, 1.0]), alg.payoffs, myo.payoffs)
        assert experiment._table(None, payoffs) == (
            "bin_left,bin_right,algorithmic,myopic\n"
            "-0.5,0.0,0,0\n"
            "0.0,0.5,1,2\n"
            "0.5,1.0,1,0\n"
        )
        prices = experiment._histogram(np.array([0.0, 0.5, 1.0]), alg.prices_paid, myo.prices_paid)
        assert experiment._table(None, prices) == (
            "bin_left,bin_right,algorithmic,myopic\n"
            "0.0,0.5,0,0\n"
            "0.5,1.0,1,0\n"
        )


class TestConfig:
    def test_dict_round_trip(self):
        config = small_config(backend=RegressionBackend(kind="tabular"))
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_missing_keys_take_defaults(self):
        assert ExperimentConfig.from_dict({}) == ExperimentConfig()
        partial = ExperimentConfig.from_dict({"n_test": 7, "backend": {"kind": "tabular"}})
        assert partial == ExperimentConfig(n_test=7, backend=RegressionBackend(kind="tabular"))

    @pytest.mark.parametrize(
        "d, what, key",
        [
            ({"n_tets": 5}, "config", "n_tets"),
            ({"bins": {"payoff_lo": -1.0}}, "config", "bins"),
            ({"model": {"horizn": 3}}, "model", "horizn"),
            ({"backend": {"kernl": 1}}, "backend", "kernl"),
            ({"backend": {"support_cap": 2000}}, "backend", "support_cap"),
            ({"backend": {"kind": "kernel", "subsample_seed": 0}}, "backend", "subsample_seed"),
            ({"backend": {"degree": 3}}, "backend", "degree"),
            ({"paired": True}, "config", "paired"),
            ({"fixed_v0": 0.5}, "config", "fixed_v0"),
            ({"trace_trials": [0]}, "config", "trace_trials"),
        ],
    )
    def test_unknown_key_named(self, d, what, key):
        with pytest.raises(ValueError, match=f"unknown {what} key.*'{key}'"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "d, what, key",
        [
            ({"model": {"horizon": 2.5}}, "model", "horizon"),
            ({"backend": {"ridge": "0"}}, "backend", "ridge"),
            ({"n_train": True}, "config", "n_train"),
            ({"model": {"seed": "1"}}, "model", "seed"),
            ({"n_test": "5"}, "config", "n_test"),
        ],
    )
    def test_wrong_value_type_named(self, d, what, key):
        with pytest.raises(ValueError, match=f"{what} key '{key}' must be a JSON"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "text, what, key",
        [
            ('{"model": {"mu_prior": NaN}}', "model", "mu_prior"),
            ('{"backend": {"bandwidth": Infinity}}', "backend", "bandwidth"),
            ('{"model": {"sigma_eps": NaN}}', "model", "sigma_eps"),
            ('{"model": {"gamma": Infinity}}', "model", "gamma"),
        ],
    )
    def test_non_finite_number_named(self, text, what, key):
        # Python's json parses NaN and Infinity; the loader must not.
        with pytest.raises(ValueError, match=f"{what} key '{key}' must be a finite number"):
            ExperimentConfig.from_dict(json.loads(text))

    @pytest.mark.parametrize(
        "d, got", [([1], "array"), (7, "integer"), ("x", "string"), (None, "null")]
    )
    def test_config_not_an_object_named(self, d, got):
        with pytest.raises(ValueError, match=f"^config must be a JSON object, got a JSON {got}$"):
            ExperimentConfig.from_dict(d)

    def test_int_passes_for_float_but_null_does_not(self):
        config = ExperimentConfig.from_dict({"model": {"gamma": 2}})
        assert config.params.gamma == 2 and type(config.params.gamma) is float
        with pytest.raises(ValueError, match="'mu_prior' must be a JSON number, got None"):
            ExperimentConfig.from_dict({"model": {"mu_prior": None}})

    @pytest.mark.parametrize(
        "build, key",
        [
            (lambda: ExperimentConfig(n_train=2.5), "n_train"),
            (lambda: ExperimentConfig(n_test=True), "n_test"),
            (lambda: ModelParams(horizon=2.5), "horizon"),
            (lambda: ModelParams(horizon=True), "horizon"),
            (lambda: ModelParams(seed=1.0), "seed"),
            (lambda: ModelParams(gamma="1"), "gamma"),
            (lambda: ModelParams(sigma_eps=None), "sigma_eps"),
            (lambda: ModelParams(mu_prior=True), "mu_prior"),
        ],
    )
    def test_python_built_fault_named(self, build, key):
        # The JSON loader checks types; a config built in Python must fail as early.
        with pytest.raises(ValueError, match=f"^{key} must be"):
            build()

    def test_numpy_integers_pass(self):
        config = ExperimentConfig(
            params=ModelParams(horizon=np.int64(3), seed=np.uint64(7)), n_train=np.int32(5)
        )
        assert config.n_train == 5 and config.params.horizon == 3
        assert ExperimentConfig.from_dict(json.loads(config.echo())) == config

    def test_int_beyond_float_range_named(self):
        with pytest.raises(ValueError, match="^gamma must be a finite number"):
            ModelParams(gamma=10**400)
        with pytest.raises(ValueError, match="^mu_prior must be a finite number"):
            ModelParams(mu_prior=-(10**400))

    def test_numpy_scalars_round_trip(self):
        config = small_config(
            params=ModelParams(horizon=3, gamma=np.float32(1.5), sigma_xi=np.float64(0.5)),
            backend=RegressionBackend(bandwidth=np.float32(0.7)),
        )
        assert ExperimentConfig.from_dict(json.loads(config.echo())) == config
        assert type(config.params.gamma) is float and type(config.backend.bandwidth) is float

    def test_one_default_seed(self):
        assert ModelParams().seed == experiment.DEFAULT_SEED
        config = ExperimentConfig.from_dict({"model": {"horizon": 25}})
        assert config.params.seed == experiment.DEFAULT_SEED

    def test_load_from_file(self, tmp_path):
        config = small_config()
        file = tmp_path / "config.json"
        file.write_text(json.dumps(config.to_dict()))
        assert load_config(file) == config

    def test_defaults_are_the_reference_setup(self):
        config = ExperimentConfig()
        assert config.params == ModelParams(
            horizon=25, gamma=1.0, sigma_eps=0.1, sigma_xi=1.0,
            mu_prior=1.0, sigma_v=1.0, seed=experiment.DEFAULT_SEED,
        )
        assert config.n_train == 500
        assert config.n_test == 1000
        assert config.backend.kind == "kernel"
        assert config.backend.bandwidth == 1.0
        assert config.backend.ridge == 1e-6

    def test_validation(self):
        with pytest.raises(ValueError, match="^n_train must be >= 1, got 0$"):
            small_config(n_train=0)
        with pytest.raises(ValueError, match="^n_test must be >= 1, got -1$"):
            small_config(n_test=-1)
        # The draw matrix (13 cells a path at horizon 6) has a fixed size
        # budget, checked before any array; it also keeps a path count within
        # the 32-bit path indices.
        cells = experiment.MAX_DRAW_CELLS
        small_config(n_test=cells // 13)
        with pytest.raises(ValueError, match=(
            f"^n_test {cells // 13 + 1} at horizon 6 needs a {cells // 13 + 1} x 13 draw matrix "
            rf"of {(cells // 13 + 1) * 13} cells, over the size budget of 2\*\*30 = {cells} cells$"
        )):
            small_config(n_test=cells // 13 + 1)
        with pytest.raises(ValueError, match=r"^n_test 4294967297 at horizon 6 needs a 4294967297 x 13 "):
            small_config(n_test=2**32 + 1)
