"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np

import infobounds as ib
from infobounds.bounds import sqrt_lambda_nodes
from conftest import basis_povm, born_probability, diagonal_family, sld_residual, three_level_family

SLACK_TOL = 1e-6
CHAIN_TOL = 1e-6


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# independent mutual-information oracle (10x resolution, own quadrature)
# ---------------------------------------------------------------------------


def _trapz_weights(nodes: np.ndarray) -> np.ndarray:
    h = nodes[1] - nodes[0]
    w = np.full(nodes.size, h)
    w[0] = w[-1] = h / 2
    return w


def langevin_mi_oracle(n_theta: int = 20001, n_x: int = 40001) -> float:
    """Direct double quadrature of the joint PMI average, exploiting the
    x -> -x symmetry of the conditional density."""
    thetas = np.linspace(0.5, 1.5, n_theta)
    wt = _trapz_weights(thetas)
    log_norm = 0.5 * np.log(thetas / (2 * np.pi))
    x_max = 8.0 * math.sqrt(2.0)
    xs = np.linspace(-x_max, x_max, n_x)
    half = xs[n_x // 2 :]
    chunk = 512
    logp = np.empty((chunk, n_theta))
    pdf = np.empty_like(logp)
    tmp = np.empty_like(logp)
    g_half = np.empty(half.size)
    for start in range(0, half.size, chunk):
        xb = half[start : start + chunk]
        n = xb.size
        lp, pb, tb = logp[:n], pdf[:n], tmp[:n]
        np.multiply.outer(xb * xb / 2.0, thetas, out=lp)
        np.subtract(log_norm[None, :], lp, out=lp)
        np.exp(lp, out=pb)
        px = (pb * wt).sum(axis=1)  # uniform prior density is 1
        np.subtract(lp, np.log(px)[:, None], out=tb)
        np.multiply(tb, pb, out=tb)
        g_half[start : start + n] = (tb * wt).sum(axis=1)
    hx = xs[1] - xs[0]
    # even integrand, half grid starts at x = 0: full trapezoid = 2 * half
    return float(2.0 * hx * (0.5 * g_half[0] + g_half[1:-1].sum() + 0.5 * g_half[-1]))


def qubit_mi_oracle(n_theta: int = 20001) -> float:
    thetas = np.linspace(0.0, math.pi / 2, n_theta)
    wt = _trapz_weights(thetas)
    dens = np.full(n_theta, 2.0 / math.pi)
    total = 0.0
    for p in (np.cos(thetas / 2) ** 2, np.sin(thetas / 2) ** 2):
        px = float((p * dens * wt).sum())
        term = np.where(p > 0, dens * p * (np.log(np.where(p > 0, p, 1.0)) - np.log(px)), 0.0)
        total += float((term * wt).sum())
    return total


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_theorem1_langevin(langevin_uniform):
    model, prior = langevin_uniform
    start = time.perf_counter()
    reports, skipped = ib.bound_sweep(
        model, prior, "theorem1", np.linspace(-4, 4, 50), np.linspace(0.5, 1.5, 50),
    )
    summary = ib.summarize_sweep(reports, SLACK_TOL, len(skipped))
    elapsed = time.perf_counter() - start
    ok = summary.violations == 0 and summary.n_evaluations == 2500 and elapsed < 10.0
    _verdict(
        "theorem1 finite-support sweep (Langevin 50x50)",
        ok,
        f"violations={summary.violations} min_slack={summary.min_slack:.3e} t={elapsed:.1f}s",
    )


def test_criterion_theorem2_langevin_gaussian(langevin_gaussian):
    model, prior = langevin_gaussian
    reports, skipped = ib.bound_sweep(
        model, prior, "theorem2", np.linspace(-4, 4, 50), np.linspace(0.4, 1.6, 50),
    )
    summary = ib.summarize_sweep(reports, SLACK_TOL, len(skipped))
    weight = ib.prior_weight(prior)
    worst = 0.0
    for x in np.linspace(-4, 4, 50):
        produced = sqrt_lambda_nodes(model, weight, float(x))
        scores = np.asarray(model.score(float(x), prior.grid.nodes))
        factored = np.abs(scores * prior.density + prior.derivative)
        scale = np.maximum(1.0, np.abs(scores * prior.density) + np.abs(prior.derivative))
        worst = max(worst, float(np.max(np.abs(produced - factored) / scale)))
    ok = summary.violations == 0 and worst <= 1e-10
    _verdict(
        "theorem2 prior-matched sweep (truncated Gaussian 50x50)",
        ok,
        f"violations={summary.violations} min_slack={summary.min_slack:.3e} "
        f"kernel_dev={worst:.1e}",
    )


def test_criterion_theorem3_qubit(qubit):
    model, sensitivity, prior = qubit
    thetas = np.linspace(0.0, math.pi / 2, 41)
    reports, skipped = ib.bound_sweep(model, prior, "theorem1", ["+", "-"], thetas, sensitivity=sensitivity)
    summary = ib.summarize_sweep(reports, SLACK_TOL, len(skipped))
    cqfi_dev = 0.0
    for x in ("+", "-"):
        sens = np.asarray(sensitivity(x, thetas))
        valid = ~np.isnan(sens)
        cqfi_dev = max(cqfi_dev, float(np.max(np.abs(sens[valid] - 1.0))))
    plus_scores = np.asarray(model.score("+", thetas))
    iota = plus_scores**2
    iota_dev = float(np.max(np.abs(iota - np.tan(thetas / 2) ** 2)))
    iota_bounded = bool(np.all(iota <= 1.0 + 1e-8))
    ok = (
        summary.violations == 0
        and summary.n_evaluations == 81
        and cqfi_dev <= 1e-8
        and iota_dev <= 1e-8
        and iota_bounded
    )
    _verdict(
        "theorem3 quantum sweep (qubit sigma-x, 41 x 2)",
        ok,
        f"violations={summary.violations} cqfi_dev={cqfi_dev:.1e} "
        f"iota_dev={iota_dev:.1e} iota<=1: {iota_bounded}",
    )


def test_criterion_averaging_recovery(langevin_uniform, qubit):
    start = time.perf_counter()
    model_l, prior_l = langevin_uniform
    mi_l = langevin_mi_oracle()
    weight_l = ib.boxcar_weight(prior_l.grid)
    avg_l = ib.average_pointwise_bound(model_l, prior_l, weight_l)
    top_l = ib.mi_bound_average(model_l, prior_l, weight_l)
    lang_ok = mi_l <= avg_l + CHAIN_TOL and avg_l <= top_l + CHAIN_TOL

    model_q, sens_q, prior_q = qubit
    mi_q = qubit_mi_oracle()
    weight_q = ib.boxcar_weight(prior_q.grid)
    avg_q = ib.average_pointwise_bound(model_q, prior_q, weight_q, sens_q)
    top_q = ib.mi_bound_average(model_q, prior_q, weight_q)
    qubit_ok = mi_q <= avg_q + CHAIN_TOL and avg_q <= top_q + CHAIN_TOL

    # the production MI must sit on the oracle to quadrature accuracy
    prod_ok = (
        abs(ib.mutual_information(model_l, prior_l) - mi_l) <= 1e-6
        and abs(ib.mutual_information(model_q, prior_q) - mi_q) <= 1e-6
    )
    elapsed = time.perf_counter() - start
    ok = lang_ok and qubit_ok and prod_ok and elapsed < 30.0
    _verdict(
        "averaging recovery (MI <= <bound> <= ensemble bound)",
        ok,
        f"langevin {mi_l:.6f} <= {avg_l:.6f} <= {top_l:.6f}; "
        f"qubit {mi_q:.6f} <= {avg_q:.6f} <= {top_q:.6f}; t={elapsed:.1f}s",
    )


def test_criterion_cross_term_cancellation(softmax3):
    thetas = np.linspace(0.0, 1.0, 100)
    worst_mean = 0.0
    worst_fisher = 0.0
    for theta in thetas:
        p = np.array([float(np.exp(softmax3.log_pdf(k, theta))) for k in range(3)])
        s = np.array([float(softmax3.score(k, theta)) for k in range(3)])
        worst_mean = max(worst_mean, abs(float((p * s).sum())))
        manual = float((p * s * s).sum())
        worst_fisher = max(
            worst_fisher, abs(manual - ib.fisher_information(softmax3, float(theta)))
        )
    ok = worst_mean <= 1e-8 and worst_fisher <= 1e-10
    _verdict(
        "cross-term cancellation (3-outcome model, 100 nodes)",
        ok,
        f"max|E[score]|={worst_mean:.1e} max|E[sfi]-F|={worst_fisher:.1e}",
    )


def test_criterion_quantum_identities():
    cases = [
        ("qubit phase", ib.qubit_phase_family(), ib.sigma_x_povm(), (0.2, 0.5, 0.8, 1.2)),
        ("diagonal mixed", diagonal_family(), basis_povm(2), (0.2, 0.5, 0.8)),
        ("3-level finite-difference", three_level_family(), basis_povm(3), (0.2, 0.5, 0.8, 1.2)),
    ]
    worst_avg = 0.0
    worst_res = 0.0
    for _, family, povm, thetas in cases:
        for theta in thetas:
            rho, drho = family.rho(theta), family.drho(theta)
            l_matrix = ib.sld(rho, drho)
            worst_res = max(worst_res, sld_residual(rho, drho, l_matrix))
            total = 0.0
            for i in range(len(povm)):
                p = born_probability(rho, povm.elements[i])
                if p > 1e-12:
                    total += p * ib.cqfi(family, povm, i, theta)
            worst_avg = max(worst_avg, abs(total - ib.qfi(family, theta)))
    ok = worst_avg <= 1e-8 and worst_res <= 1e-8
    _verdict(
        "quantum identities (sensitivity average, SLD residual)",
        ok,
        f"max|sum p*cqfi - qfi|={worst_avg:.1e} max residual={worst_res:.1e}",
    )


def test_criterion_demon_chain(qubit):
    model, sensitivity, prior = qubit
    rng = np.random.default_rng(2024)
    chained = 0
    n = 1000
    for _ in range(n):
        theta = rng.uniform(0.05, math.pi / 2 - 0.05)
        x = "+" if rng.random() < 0.5 else "-"
        info = ib.pmi(model, prior, x, theta)
        lhs = info - abs(rng.normal(0.0, 0.5))
        beta = rng.uniform(0.5, 2.0)
        delta_f = rng.normal(0.0, 1.0)
        record = ib.DemonRecord(beta, delta_f + lhs / beta, delta_f, x, theta)
        check = ib.demon_work_check(record, model, prior, sensitivity)
        if check.chained_ok:
            chained += 1
    flagged = 0
    n_bad = 100
    for _ in range(n_bad):
        theta = rng.uniform(0.05, math.pi / 2 - 0.05)
        x = "+" if rng.random() < 0.5 else "-"
        probe = ib.demon_work_check(
            ib.DemonRecord(1.0, 0.0, 0.0, x, theta), model, prior, sensitivity
        )
        record = ib.DemonRecord(1.0, probe.bound + 0.1, 0.0, x, theta)
        check = ib.demon_work_check(record, model, prior, sensitivity)
        if not check.sagawa_ueda_ok and not check.chained_ok:
            flagged += 1
    ok = chained == n and flagged == n_bad
    _verdict(
        "demon work-budget chain (1000 random + 100 violations)",
        ok,
        f"chained_ok {chained}/{n}, violations flagged {flagged}/{n_bad}",
    )


def test_criterion_quadrature_convergence(langevin_uniform, langevin_gaussian, qubit):
    model_l, prior_l = langevin_uniform
    model_g, prior_g = langevin_gaussian
    model_q, sens_q, prior_q = qubit

    fine_l = ib.uniform_prior(0.5, 1.5, 2 * prior_l.grid.n_points - 1)
    fine_g = ib.gaussian_prior(1.0, 0.2, 2 * prior_g.grid.n_points - 1, lower=1e-3)
    fine_q = ib.uniform_prior(0.0, math.pi / 2, 2 * prior_q.grid.n_points - 1)

    worst = 0.0

    def track(coarse, fine):
        nonlocal worst
        worst = max(worst, abs(fine - coarse) / max(1.0, abs(coarse)))

    for x, theta in ((0.0, 1.0), (2.0, 0.8), (-3.5, 1.45)):
        track(
            ib.bound_theorem1(model_l, prior_l, x, theta).bound,
            ib.bound_theorem1(model_l, fine_l, x, theta).bound,
        )
        track(
            ib.bound_theorem2(model_g, prior_g, x, theta).bound,
            ib.bound_theorem2(model_g, fine_g, x, theta).bound,
        )
    for x in ("+", "-"):
        for theta in (0.3, 1.2):
            track(
                ib.bound_theorem1(model_q, prior_q, x, theta, sens_q).bound,
                ib.bound_theorem1(model_q, fine_q, x, theta, sens_q).bound,
            )
    track(
        ib.mi_bound_average(model_l, prior_l, ib.boxcar_weight(prior_l.grid)),
        ib.mi_bound_average(model_l, fine_l, ib.boxcar_weight(fine_l.grid)),
    )
    track(
        ib.mi_bound_average(model_q, prior_q, ib.boxcar_weight(prior_q.grid)),
        ib.mi_bound_average(model_q, fine_q, ib.boxcar_weight(fine_q.grid)),
    )
    ok = worst < 1e-4
    _verdict(
        "quadrature convergence (grid doubling)",
        ok,
        f"max relative change={worst:.2e}",
    )
