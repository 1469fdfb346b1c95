"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import math
import time

import numpy as np
import pytest

from gjmslab.cli import main as cli_main
from gjmslab.conformal import bubble_on_sphere
from gjmslab.kernels import funk_hecke_spectrum, green_constant, hls_dual_ratio
from gjmslab.lane_emden import (
    Nonlinearity,
    constant_solution,
    probe_start,
    solve_newton,
    uniqueness_probe,
    verify_super_polyharmonic,
    verify_symmetry_monotonicity,
)
from gjmslab.conformal import radius_from_angle
from gjmslab.rayleigh import OptimizerConfig, minimize, sharp_constant
from gjmslab.spectral import (
    SphereParams,
    Workspace,
    ZonalFunction,
    gjms_eigenvalues,
    gjms_lambda0,
    sphere_area,
)

MINIMIZE_CONFIGS = [(1, 3, 4.0), (1, 4, 3.0), (2, 5, 2.5), (3, 7, 2.25)]
PROBE_CONFIGS = [
    (1, 3, [(1.0, 3.0)]),
    (2, 5, [(1.0, 2.0)]),
    (2, 5, [(1.0, 1.0), (1.0, 2.0)]),
]
PROBE_SEED = 2024
PROBE_TRIALS = 50
PROBE_K = 24


def emit(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


def test_criterion_1_sharp_constant_reproduction():
    started = time.time()
    worst_rel, worst_dist = 0.0, 0.0
    for m, n, p in MINIMIZE_CONFIGS:
        cfg = OptimizerConfig(params=SphereParams(n=n, m=m), p=p, K=32, starts=20, seed=0)
        res = minimize(cfg)
        S = sharp_constant(m, n, p)
        worst_rel = max(worst_rel, abs(res.value / S - 1.0))
        worst_dist = max(worst_dist, res.distance_to_constant)
    elapsed = time.time() - started
    emit(
        1,
        "sharp-constant reproduction",
        worst_rel <= 1e-6 and worst_dist <= 1e-5 and elapsed <= 60.0,
        f"max rel err {worst_rel:.2e} (tol 1e-6), max distance {worst_dist:.2e} "
        f"(tol 1e-5), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_order_two_reduction():
    worst = 0.0
    for n in range(3, 9):
        p_crit = 2.0 * n / (n - 2)
        for i in range(1, 11):
            p = 2.0 + (p_crit - 2.0) * i / 11.0
            lhs = sharp_constant(1, n, p)
            rhs = (n * (n - 2) / 4.0) * sphere_area(n) ** (1.0 - 2.0 / p)
            worst = max(worst, abs(lhs - rhs) / rhs)
    emit(
        2,
        "order-two reduction formula",
        worst <= 1e-14,
        f"max rel deviation {worst:.2e} (tol 1e-14) over n in 3..8, 10-point p grids",
    )


def test_criterion_3_inverse_kernel_identity():
    started = time.time()
    worst = 0.0
    for m, n in [(1, 3), (1, 5), (2, 5), (3, 7)]:
        params = SphereParams(n=n, m=m)
        kernel = funk_hecke_spectrum(params, 32)
        spec = gjms_eigenvalues(params, 32)
        gc = green_constant(params, kernel=kernel, gjms=spec)
        worst = max(worst, float(np.max(np.abs(gc.g_mn * kernel.mu * spec.lam - 1.0))))
    elapsed = time.time() - started
    emit(
        3,
        "inverse-kernel spectral identity",
        worst <= 1e-8 and elapsed <= 10.0,
        f"max |g mu lambda - 1| {worst:.2e} (tol 1e-8) for k <= 32, {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_4_gradient_correctness():
    h = 1e-5
    worst = 0.0
    for m, n, p in MINIMIZE_CONFIGS:
        params = SphereParams(n=n, m=m)
        K = 16
        ws = Workspace(params, K)
        rng = np.random.default_rng(1000 + 10 * m + n)
        kk = np.arange(K + 1, dtype=float)
        for _ in range(100):
            c = rng.standard_normal(K + 1) * 0.3 / (1.0 + kk * kk)
            c[0] = 1.0
            c = ws.normalize(c, p)
            grad = ws.quotient_and_gradient(c, p)[1]
            fd = np.zeros_like(grad)
            for k in range(K + 1):
                e = np.zeros(K + 1)
                e[k] = h
                fd[k] = (ws.quotient(c + e, p) - ws.quotient(c - e, p)) / (2 * h)
            scale = max(float(np.max(np.abs(grad))), float(np.max(np.abs(fd))))
            worst = max(worst, float(np.max(np.abs(grad - fd))) / scale)
    emit(
        4,
        "analytic gradient vs central differences",
        worst <= 1e-6,
        f"max rel deviation {worst:.2e} (tol 1e-6) over 100 points x 4 configurations",
    )


def test_criterion_5_uniqueness_probes():
    started = time.time()
    worst_rel = 0.0
    archived = 0
    all_constant = True
    for m, n, terms in PROBE_CONFIGS:
        params = SphereParams(n=n, m=m)
        f = Nonlinearity.from_terms(terms, params)
        rep = uniqueness_probe(m, n, f, trials=PROBE_TRIALS, seed=PROBE_SEED, K=PROBE_K)
        pool = rep.zero + rep.constant + rep.nonconstant
        all_constant = all_constant and (pool == rep.constant) and rep.constant > 0
        worst_rel = max(worst_rel, rep.max_constant_rel_err)
        archived += len(rep.counterexamples)
    elapsed = time.time() - started
    emit(
        5,
        "uniqueness probes (3 configs x 50 starts)",
        all_constant and worst_rel <= 1e-8 and archived == 0 and elapsed <= 120.0,
        f"every converged nonnegative outcome constant: {all_constant}, "
        f"max |c - c*|/c* {worst_rel:.2e} (tol 1e-8), {archived} archived "
        f"counterexamples, {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_6_critical_contrast():
    params = SphereParams(n=3, m=1)
    p_eq = params.critical_equation_exponent  # equation power 5
    p_norm = params.critical_norm_exponent  # norm exponent 6

    # nonconstant exact solution at the critical power from the lam = 2 bubble
    f = Nonlinearity.single_power(1.0, p_eq, params)
    ws64 = Workspace(params, 64)
    vb = bubble_on_sphere(2.0, ws64)
    scale = (gjms_lambda0(1, 3) * 2.0 ** 2) ** (1.0 / (p_eq - 1.0))
    res = solve_newton(
        1, 3, f, ZonalFunction(params, scale * vb.coeffs), tol=1e-8, workspace=ws64
    )
    newton_ok = res.converged and res.residual <= 1e-8 and res.classification == "nonconstant"

    # conformal invariance of the critical quotient across dilations at K = 256
    K = 256
    ws = Workspace(params, K)
    quotients = []
    for lam in (0.5, 1.0, 2.0):
        u = bubble_on_sphere(lam, ws)
        quotients.append(ws.quotient(u.coeffs, p_norm))
    quotients = np.asarray(quotients)
    spread = float(np.max(np.abs(quotients / quotients[1] - 1.0)))

    # strictly subcritical: the dilated bubble must sit above the constant
    margin = ws64.quotient(vb.coeffs, 4.0) - sharp_constant(1, 3, 4.0)

    emit(
        6,
        "critical-case contrast",
        newton_ok and spread <= 1e-4 and margin > 0,
        f"bubble solve residual {res.residual:.2e} (tol 1e-8, {res.classification}), "
        f"critical quotient spread {spread:.2e} (tol 1e-4) at K=256, "
        f"subcritical margin +{margin:.4f}",
    )


def test_criterion_7_verifiers_on_probe_solutions():
    all_pass = True
    checked = 0
    for m, n, terms in PROBE_CONFIGS:
        params = SphereParams(n=n, m=m)
        f = Nonlinearity.from_terms(terms, params)
        ws = Workspace(params, PROBE_K)
        base = constant_solution(m, n, f)
        for trial in range(PROBE_TRIALS):
            rng = np.random.default_rng([PROBE_SEED, trial])
            init = probe_start(ws, base, rng)
            sol = solve_newton(m, n, f, init, workspace=ws)
            if not sol.converged:
                continue
            checked += 1
            mono = verify_symmetry_monotonicity(sol.solution)
            all_pass = all_pass and mono.passed
            sp = verify_super_polyharmonic(sol.solution)
            all_pass = all_pass and sp.passed

    # negative controls must fail
    params = SphereParams(n=5, m=2)
    # v = Y_0 - 3 Y_1 falls towards t = 1, so its pullback rises from r = 0
    mono_control = verify_symmetry_monotonicity(ZonalFunction(params, [1.0, -3.0]))
    # the pullback of v = (1+t)^(m-n/2) exp(-r^2) is the Gaussian, whose -Delta dips below 0
    ws = Workspace(params, 64)
    t = ws.nodes
    gauss = (1.0 + t) ** (params.m - params.n / 2) * np.exp(-radius_from_angle(t) ** 2)
    gauss_v = ZonalFunction(params, ws.basis.T @ (ws.weights * gauss))
    sp_control = verify_super_polyharmonic(gauss_v)
    controls_fail = (not mono_control.passed) and (not sp_control.passed)

    emit(
        7,
        "monotonicity / iterated-Laplacian verifiers",
        all_pass and controls_fail and checked == 3 * PROBE_TRIALS,
        f"verified {checked} converged solutions, negative controls rejected: {controls_fail}",
    )


def test_criterion_8_duality():
    best = hls_dual_ratio(SphereParams(n=3, m=1), 4.0, trials=6, seed=0, K=32)
    product = best * sharp_constant(1, 3, 4.0)
    emit(
        8,
        "kernel-quotient duality",
        abs(product - 1.0) <= 1e-4,
        f"max ratio x sharp constant = {product:.10f} (tol 1e-4 around 1)",
    )


def test_criterion_9_determinism(capsys, tmp_path):
    args = [
        "minimize", "--m", "1", "--n", "3", "--p", "4", "--K", "12",
        "--starts", "5", "--seed", "42", "--format", "json",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    code1 = cli_main(args + ["--out", str(out1)])
    code2 = cli_main(args + ["--out", str(out2)])
    r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    r1["provenance"].pop("wall_time_s")
    r2["provenance"].pop("wall_time_s")
    same = json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    emit(
        9,
        "seeded determinism of reports",
        code1 == 0 and code2 == 0 and same,
        "two seeded runs byte-identical after dropping wall time" if same else "reports differ",
    )
