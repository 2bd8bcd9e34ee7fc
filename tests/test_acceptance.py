"""Acceptance suite: every release criterion on the frozen config.

Each criterion is one test that emits a single ``criterion NN PASS/FAIL``
line (replayed in an "acceptance criteria" section at the end of the run;
also printed live under ``pytest -s``) and asserts the stated tolerance.
Heavy multi-seed runs are shared through session-scoped fixtures; every
number is deterministic given configs/acceptance.cfg.
"""

import dataclasses
import math
import time
from pathlib import Path

import conftest
import numpy as np
import pytest
from scipy import stats

from admix import gradcheck as gk
from admix import harness as hz
from admix import mixup as mx

CONFIG_PATH = Path(__file__).resolve().parents[1] / "configs" / "acceptance.cfg"


def _announce(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    conftest.record_criterion(line)


def _errors(reports) -> np.ndarray:
    return np.array([r.test_error for r in reports])


@pytest.fixture(scope="session")
def frozen() -> hz.ExperimentConfig:
    return hz.load_config(CONFIG_PATH)


@pytest.fixture(scope="session")
def ratio_results(frozen):
    """Full three-policy, ten-seed comparison at each subsample ratio."""
    out = {}
    for ratio in (0.25, 0.5, 1.0):
        cfg = dataclasses.replace(frozen, subsample_ratio=ratio)
        out[ratio] = hz.run_seeds(cfg)
    return out


@pytest.fixture(scope="session")
def seed0_models(frozen):
    models = {}
    for policy in ("amp", "mixup"):
        cfg = dataclasses.replace(frozen, policy=policy)
        models[policy], _ = hz.train(cfg, frozen.seeds[0])
    return models


@pytest.fixture(scope="session")
def amp_bundles_500(frozen):
    cfg = dataclasses.replace(frozen, policy="amp", max_steps=500)
    bundles = []
    hz.train(cfg, frozen.seeds[0], step_hook=lambda step, b: bundles.append(b))
    assert len(bundles) == 500
    return bundles


def test_criterion_01_coefficient_gradient_oracle():
    start = time.perf_counter()
    report = gk.gradcheck(instances=100, seed=0)
    elapsed = time.perf_counter() - start
    by_name = {name: (err, tol) for name, err, tol in report.rows}
    fd_err, fd_tol = by_name["grad_lambda_fd"]
    an_err, an_tol = by_name["grad_lambda_analytic"]
    ok = fd_err <= 1e-4 and an_err <= 1e-6 and elapsed < 60.0 and report.passed
    _announce(
        1,
        ok,
        f"coefficient gradient: fd rel err {fd_err:.2e} <= 1e-4, "
        f"analytic rel err {an_err:.2e} <= 1e-6, "
        f"{len(report.rows)} rows all pass, {elapsed:.1f}s < 60s",
    )
    assert fd_tol == 1e-4 and an_tol == 1e-6
    assert fd_err <= 1e-4
    assert an_err <= 1e-6
    assert report.passed, report.format()
    assert elapsed < 60.0


def test_criterion_02_zero_step_size_degeneracy(frozen):
    start = time.perf_counter()
    seed = frozen.seeds[0]
    model_amp, rep_amp = hz.train(
        dataclasses.replace(frozen, policy="amp", epsilon=0.0), seed
    )
    model_mix, rep_mix = hz.train(dataclasses.replace(frozen, policy="mixup"), seed)
    elapsed = time.perf_counter() - start

    losses_equal = np.array_equal(rep_amp.step_loss, rep_mix.step_loss)
    params_equal = all(
        np.array_equal(model_amp.params[k].data, model_mix.params[k].data)
        for k in model_amp.params
    )
    error_equal = rep_amp.test_error == rep_mix.test_error
    ok = losses_equal and params_equal and error_equal and elapsed < 120.0
    _announce(
        2,
        ok,
        f"zero step size: loss trace bitwise={losses_equal}, "
        f"params bitwise={params_equal}, test error equal={error_equal}, "
        f"{elapsed:.1f}s < 120s",
    )
    assert model_amp.params.keys() == model_mix.params.keys()
    assert losses_equal
    assert params_equal
    assert error_equal
    assert elapsed < 120.0


def test_criterion_03_selective_loss_exactness(amp_bundles_500):
    max_ok = all(
        np.array_equal(b.loss_final, np.maximum(b.loss, b.loss_prime))
        for b in amp_bundles_500
    )
    mask_ok = all(
        np.array_equal(b.mask, (b.delta > 0).astype(float)) for b in amp_bundles_500
    )
    ok = max_ok and mask_ok
    _announce(
        3,
        ok,
        f"selective loss over {len(amp_bundles_500)} steps: "
        f"elementwise max exact={max_ok}, mask indicator exact={mask_ok}",
    )
    assert max_ok
    assert mask_ok


def test_criterion_04_perturbation_bounds(frozen, amp_bundles_500):
    eps = frozen.epsilon
    worst_step = 0.0
    worst_grad = 0.0
    in_range = True
    consistent = True
    for b in amp_bundles_500:
        # the applied pre-clamp step is eps * clipped-gradient; measuring the
        # product directly avoids re-rounding through the (lam + step) sum
        worst_step = max(worst_step, float(np.max(np.abs(eps * b.grad_lambda))))
        worst_grad = max(worst_grad, float(np.max(np.abs(b.grad_lambda))))
        in_range = in_range and bool(
            np.all(b.lambda_prime >= 0.0) and np.all(b.lambda_prime <= 1.0)
        )
        consistent = consistent and np.array_equal(
            b.lambda_prime, np.clip(b.lam + eps * b.grad_lambda, 0.0, 1.0)
        )
    ok = worst_step <= eps and worst_grad <= 1.0 and in_range and consistent
    _announce(
        4,
        ok,
        f"perturbation bounds: max pre-clamp step {worst_step:.4f} <= eps={eps}, "
        f"max clipped grad {worst_grad:.4f} <= 1, perturbed coefficient in [0,1]={in_range}",
    )
    assert worst_step <= eps
    assert worst_grad <= 1.0
    assert in_range
    assert consistent


def test_criterion_05_ascent_property(frozen):
    kept_l, kept_lp = [], []

    def hook(step, bundle):
        keep = (bundle.lam >= 0.05) & (bundle.lam <= 0.95)
        if np.any(keep):
            kept_l.append(bundle.loss[keep])
            kept_lp.append(bundle.loss_prime[keep])

    hz.train(dataclasses.replace(frozen, policy="amp"), frozen.seeds[0], step_hook=hook)
    diffs = np.concatenate(kept_lp) - np.concatenate(kept_l)
    mean_diff = float(diffs.mean())
    ok = len(kept_l) >= 1000 and mean_diff > 0.0
    _announce(
        5,
        ok,
        f"ascent: mean(L' - L) = {mean_diff:.4e} > 0 over {len(kept_l)} steps "
        f"({diffs.size} samples with coefficient in [0.05, 0.95])",
    )
    assert len(kept_l) >= 1000
    assert mean_diff > 0.0


def test_criterion_06_directional_regularization(ratio_results):
    full = ratio_results[1.0]
    none_e = _errors(full["none"])
    mix_e = _errors(full["mixup"])
    amp_e = _errors(full["amp"])
    diffs = mix_e - amp_e
    assert np.any(diffs != 0.0), "all paired seeds tied; no test possible"
    p_value = float(stats.wilcoxon(diffs, alternative="greater").pvalue)
    ordered = amp_e.mean() <= mix_e.mean() <= none_e.mean()
    wall_max = max(
        r.wall_time for reports in full.values() for r in reports
    )
    ok = ordered and p_value < 0.1 and none_e.mean() < 0.15 and wall_max < 900.0
    _announce(
        6,
        ok,
        f"mean test error amp={amp_e.mean():.4f} <= mixup={mix_e.mean():.4f} "
        f"<= baseline={none_e.mean():.4f}, one-sided sign-rank p={p_value:.4f} < 0.1, "
        f"slowest run {wall_max:.1f}s < 900s",
    )
    assert ordered
    assert p_value < 0.1
    assert none_e.mean() < 0.15  # plain baseline must solve the frozen task
    assert wall_max < 900.0


def test_criterion_07_low_resource_amplification(ratio_results):
    rp = {}
    for ratio, results in sorted(ratio_results.items()):
        mix_mean = _errors(results["mixup"]).mean()
        amp_mean = _errors(results["amp"]).mean()
        rp[ratio] = hz.rp_percent(mix_mean, amp_mean)
    ok = rp[0.25] >= rp[1.0]
    _announce(
        7,
        ok,
        "relative improvement over random mixing by train fraction: "
        + ", ".join(f"{r}: {rp[r]:+.2f}%" for r in sorted(rp))
        + f"; {rp[0.25]:.2f} >= {rp[1.0]:.2f}",
    )
    assert ok


def test_criterion_08_interpolation_sweep(frozen, seed0_models):
    _, _, test_ds, vocab = hz.prepare_task(frozen, frozen.seeds[0])
    rows = hz.lambda_sweep(
        seed0_models["amp"],
        seed0_models["mixup"],
        test_ds,
        vocab,
        frozen.max_len,
        grid_points=101,
        layer="sent",
    )
    col_a = np.array([r[1] for r in rows])
    col_b = np.array([r[2] for r in rows])
    plain_a = hz.plain_mean_loss(seed0_models["amp"], test_ds, vocab, frozen.max_len)
    plain_b = hz.plain_mean_loss(seed0_models["mixup"], test_ds, vocab, frozen.max_len)

    amp_lower = col_a.mean() < col_b.mean()
    symmetry = max(
        float(np.max(np.abs(col_a - col_a[::-1]))),
        float(np.max(np.abs(col_b - col_b[::-1]))),
    )
    # The identity endpoint reproduces the plain forward pass bitwise; the
    # swapped endpoint averages the same per-example losses in partner order,
    # so it matches to summation rounding, far inside the symmetry tolerance.
    end_identity = col_a[-1] == plain_a and col_b[-1] == plain_b
    end_swapped = (
        abs(col_a[0] - plain_a) <= 1e-9 and abs(col_b[0] - plain_b) <= 1e-9
    )
    ok = amp_lower and symmetry <= 1e-9 and end_identity and end_swapped
    _announce(
        8,
        ok,
        f"101-point sweep mean {col_a.mean():.5f} (amp-trained) < "
        f"{col_b.mean():.5f} (mixup-trained), symmetry {symmetry:.1e} <= 1e-9, "
        f"endpoints match plain test loss",
    )
    assert len(rows) == 101
    assert amp_lower
    assert symmetry <= 1e-9
    assert end_identity
    assert end_swapped


def test_criterion_09_coefficient_sampler():
    rng = np.random.default_rng(0)
    draws = mx.sample_lambda(1.0, 10_000, rng)
    mean = float(draws.mean())
    ks_p = float(stats.kstest(draws, "uniform").pvalue)
    var_wide = float(np.var(mx.sample_lambda(0.2, 10_000, np.random.default_rng(1))))
    var_narrow = float(np.var(mx.sample_lambda(1.5, 10_000, np.random.default_rng(2))))
    ok = 0.48 <= mean <= 0.52 and ks_p > 0.01 and var_wide > var_narrow
    _announce(
        9,
        ok,
        f"sampler: mean {mean:.4f} in [0.48, 0.52], KS-vs-uniform p={ks_p:.3f} > 0.01, "
        f"var(0.2)={var_wide:.4f} > var(1.5)={var_narrow:.4f}",
    )
    assert 0.48 <= mean <= 0.52
    assert ks_p > 0.01
    assert var_wide > var_narrow


def test_criterion_10_relative_improvement_arithmetic():
    direct = hz.rp_percent(51.0, 42.1)
    rows = hz.summarize({"base": [51.0, 51.0], "ours": [42.1, 42.1]})
    via_summary = rows[1][3]
    ok = f"{direct:.1f}" == "17.5" and f"{via_summary:.1f}" == "17.5"
    _announce(
        10,
        ok,
        f"relative improvement of 42.1 over 51.0 reports as {direct:.1f} "
        f"(summary row {via_summary:.1f})",
    )
    assert f"{direct:.1f}" == "17.5"
    assert f"{via_summary:.1f}" == "17.5"


def test_supplementary_step_size_robustness(frozen):
    """Final-epoch training loss barely moves across step sizes.

    The spread over a 20x step-size range must sit below the natural
    across-seed spread at the middle setting.
    """
    n_train = len(hz.prepare_task(frozen, frozen.seeds[0])[0].examples)
    steps_per_epoch = max(1, n_train // frozen.batch_size)

    def final_epoch_loss(eps: float, seed: int) -> float:
        cfg = dataclasses.replace(frozen, policy="amp", epsilon=eps)
        _, report = hz.train(cfg, seed)
        return float(np.mean(report.step_loss[-steps_per_epoch:]))

    losses = {eps: final_epoch_loss(eps, frozen.seeds[0]) for eps in (0.0005, 0.002, 0.01)}
    across_seed = [final_epoch_loss(0.002, s) for s in frozen.seeds[:4]]
    spread = max(losses.values()) - min(losses.values())
    seed_std = float(np.std(across_seed, ddof=1))
    print(
        f"supplementary PASS  step-size robustness: spread {spread:.2e} "
        f"< across-seed std {seed_std:.2e}"
    )
    assert spread < seed_std
