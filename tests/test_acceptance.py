"""Acceptance gate: one test (and one printed pass/fail line) per criterion."""

import math
import subprocess
import sys
import time

import numpy as np

import blurshift as bs
from blurshift.cluster import standardize
from blurshift.diagnostics import RateClass, estimate_rate, residual_floor
from blurshift.engine import StopRule, bms_step, gradient, objective, run_bms

from conftest import allowance
from synth_data import DATASETS, make_dataset


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_1_finite_time_convergence():
    kernel = bs.builtin("epanechnikov")
    start = time.monotonic()
    results = {}
    for name in DATASETS:
        pts, h = make_dataset(name, n=500)
        std, _ = standardize(pts)
        run = run_bms(std, kernel, h, stop=StopRule(max_iter=200, move_tol=0.0),
                      sink=[].append)
        results[name] = (run.stop_reason, run.T, run.records[-1].n_components)
    elapsed = time.monotonic() - start

    all_exact = all(r[0] == "exact_fixed_point" for r in results.values())
    all_within = all(r[1] <= 200 for r in results.values())
    some_fast = any(r[1] <= 60 for r in results.values())
    fast_enough = elapsed < 30.0
    detail = (f"T={{{', '.join(f'{k}:{v[1]}' for k, v in results.items())}}} "
              f"runtime={elapsed:.1f}s")
    _report(1, "finite-time convergence on 6 datasets",
            all_exact and all_within and some_fast and fast_enough, detail)


def test_criterion_2_ascent_with_quadratic_bound(corpus):
    steps, _ = corpus
    violations = 0
    worst = math.inf
    for s in steps:
        coeff = 2.0 * bs.builtin(s.kernel_id).g0 / (s.h * s.h)
        margin = (s.L_next - s.L) - coeff * s.move_sq + 1e-10 * (1.0 + abs(s.L))
        worst = min(worst, margin)
        violations += int(margin < 0)
    _report(2, "objective ascent with quadratic lower bound",
            violations == 0,
            f"steps={len(steps)} violations={violations} worst_margin={worst:.2e}")


def test_criterion_3_hull_and_diameter_contraction(corpus):
    steps, _ = corpus
    nest_bad = sum(s.nest_violation > 1e-12 for s in steps)
    rate_bad = 0
    for s in steps:
        if s.d_t <= 0:
            continue
        kernel = bs.builtin(s.kernel_id)
        factor = 1.0 - float(kernel.g((s.d_t / s.h) ** 2 / 2.0)) / (4.0 * kernel.g0)
        if s.d_t1 > factor * s.d_t + 1e-10 * s.d_t + allowance(s):
            rate_bad += 1
    _report(3, "interval nesting and diameter rate bound",
            nest_bad == 0 and rate_bad == 0,
            f"steps={len(steps)} nesting_violations={nest_bad} rate_violations={rate_bad}")


def test_criterion_4_simplex_oracle_agreement():
    worst = 0.0
    for kid in bs.ASSUMPTION1_IDS:
        kernel = bs.builtin(kid)
        for n in (2, 3, 4):
            for d in (n - 1, n + 2):
                err = bs.compare_sim_to_oracle(kernel, n, d, 1.0, 0.99, 8).max_rel_err
                worst = max(worst, err)
    _report(4, "engine matches simplex radius recurrence",
            worst <= 1e-10, f"max_rel_err={worst:.2e}")


def test_criterion_5_cubic_rate():
    comparison = bs.compare_sim_to_oracle(bs.builtin("gaussian"), 2, 1, 1.0, 0.99, 8)
    in_window = [(r_sim, ratio) for _, _, r_sim, ratio in comparison.rows
                 if 1e-4 < r_sim < 0.1]
    ratios_ok = len(in_window) >= 1 and all(
        abs(ratio - 0.5) <= 0.05 * 0.5 for _, ratio in in_window)

    radii = bs.simplex_radius_sequence(bs.builtin("gaussian"), 2, 1.0, 0.99, 8)
    est = estimate_rate(radii, residual_floor(math.sqrt(2.0) * 0.99))
    class_ok = est.classification is RateClass.SUPERLINEAR_CUBIC
    _report(5, "cubic convergence rate (gaussian pair)",
            ratios_ok and class_ok,
            f"window_ratios={[round(r, 5) for _, r in in_window]} "
            f"fitted_order={est.order and round(est.order, 3)}")


def test_criterion_6_population_recurrence():
    seq = bs.population_sequence(1.0, 1.0, 8)
    positive = seq[seq > 0]
    decreasing = bool(np.all(np.diff(positive) < 0))
    ratios = []
    for t in range(len(seq) - 1):
        if 0.0 < seq[t] < 1e-2 and seq[t + 1] > 0.0:
            ratios.append(seq[t + 1] / seq[t] ** 3)
    in_band = all(1 - 1e-6 <= r <= 1.0 for r in ratios) and len(ratios) >= 3
    _report(6, "population variance recurrence",
            decreasing and in_band,
            f"checked_ratios={len(ratios)} min={min(ratios):.9f}")


def test_criterion_7_fixed_point_characterization(fuzz_corpus, corpus):
    mismatches = sum(int(singular != fixed)
                     for _, singular, fixed, _, _ in fuzz_corpus)
    _, runs = corpus
    terminal_bad = 0
    terminal_seen = 0
    for run in runs:
        if run.stop_reason != "exact_fixed_point":
            continue
        terminal_seen += 1
        kernel = bs.builtin(run.kernel_id)
        cfg = bs.as_configuration(run.terminal_points)
        graph = bs.build_graph(cfg, kernel, run.h)
        if not bs.classify(graph, cfg, kernel, run.h).singular:
            terminal_bad += 1
    _report(7, "fixed point iff singular graph",
            mismatches == 0 and terminal_bad == 0,
            f"fuzz_cases={len(fuzz_corpus)} mismatches={mismatches} "
            f"terminal_states={terminal_seen} nonsingular_terminals={terminal_bad}")


def test_criterion_8_gradient_correctness():
    rng = np.random.default_rng(88)
    smooth = [kid for kid in bs.ASSUMPTION1_IDS
              if bs.builtin(kid).truncation is not bs.TruncationClass.NON_SMOOTHLY_TRUNCATED]
    worst_fd = 0.0
    worst_identity = 0.0
    for trial in range(50):
        kernel = bs.builtin(smooth[trial % len(smooth)])
        n = int(rng.integers(3, 13))
        d = int(rng.integers(1, 5))
        pts = rng.uniform(-1, 1, size=(n, d))
        h = float(rng.uniform(0.5, 1.5))
        analytic = gradient(pts, kernel, h).grad

        step = 1e-6 * max(1.0, bs.diameter(pts))
        numeric = np.zeros_like(analytic)
        for i in range(n):
            for j in range(d):
                p1, p2 = pts.copy(), pts.copy()
                p1[i, j] += step
                p2[i, j] -= step
                numeric[i, j] = (objective(p1, kernel, h) - objective(p2, kernel, h)) / (2 * step)
        worst_fd = max(worst_fd, float(np.max(np.abs(analytic - numeric))
                                       / max(1.0, np.max(np.abs(analytic)))))

        diff = pts[:, None, :] - pts[None, :, :]
        w = kernel.g(np.einsum("ijk,ijk->ij", diff, diff) / (2 * h * h))
        identity = pts + (h * h / 2.0) * analytic / w.sum(axis=1)[:, None]
        stepped = bms_step(pts, kernel, h).points
        worst_identity = max(worst_identity, float(np.max(np.abs(identity - stepped))))
    _report(8, "analytic gradient and step identity",
            worst_fd < 1e-6 and worst_identity < 1e-12,
            f"fd_rel_err={worst_fd:.2e} identity_err={worst_identity:.2e}")


def test_criterion_9_component_count_bound(fuzz_corpus):
    over = sum(int(m > bound) for _, _, _, m, bound in fuzz_corpus)
    _report(9, "component count packing bound",
            over == 0, f"cases={len(fuzz_corpus)} violations={over}")


def test_criterion_10_cli_determinism(tmp_path, cli_env):
    pts, _ = make_dataset("two_blobs", n=60)
    data = tmp_path / "pts.csv"
    np.savetxt(data, pts, delimiter=",", fmt="%.17g")

    def run_all(tag):
        res = tmp_path / f"r{tag}.json"
        tr = tmp_path / f"t{tag}.jsonl"
        sw = tmp_path / f"s{tag}.csv"
        rep = tmp_path / f"v{tag}.json"
        cmds = [
            ["cluster", "--input", str(data), "--kernel", "epanechnikov",
             "--h", "0.8", "--standardize", "--out", str(res), "--trace", str(tr)],
            ["sweep", "--input", str(data), "--kernel", "epanechnikov",
             "--h-min", "0.4", "--h-max", "1.2", "--h-step", "0.4",
             "--standardize", "--out", str(sw)],
            ["verify", "--input", str(data), "--kernel", "epanechnikov",
             "--h", "0.6", "--fuzz", "40", "--report", str(rep)],
        ]
        stdouts = []
        for cmd in cmds:
            proc = subprocess.run([sys.executable, "-m", "blurshift", *cmd],
                                  env=cli_env, capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr
            stdouts.append(proc.stdout)
        return (res.read_bytes(), tr.read_bytes(), sw.read_bytes(),
                rep.read_bytes(), tuple(stdouts))

    first = run_all("a")
    second = run_all("b")
    _report(10, "CLI outputs are byte-identical across runs", first == second)
