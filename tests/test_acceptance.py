"""Acceptance gate: one test per criterion, at its stated tolerance.

Every Monte Carlo criterion runs 1000 trials per point with fixed seeds
(all seeds appear literally below), so the whole module is deterministic.
Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import math

import numpy as np
import pytest

from arcnc import metrics
from arcnc.engine import Engine, decode_streams, run
from arcnc.gf import GF
from arcnc.netgraph import multicast_rate
from oracles import (
    PolyMatrix,
    RankCache,
    check_words,
    checking_words,
    det_nonzero_oracle,
    exact_dist_oracle,
    mul_arrays,
    pinned_draws,
    validate_cycle_delay,
    words_from_blocks,
)
from oracles import decodability_test_ref as decodability_test  # the words-fed test at time t
from arcnc.rlnc import rlnc_min_q_for_target
from arcnc.simulate import run_trials, summarize, write_csv
from arcnc.topologies import (
    SHUTTLE_EXAMPLE_KERNELS as SHUTTLE_GOLDEN,
    TopologySpec,
    gen_combination,
    gen_rgg,
    gen_shuttle,
    gen_sparsified,
    gen_umbrella,
)

TRIALS = 1000


def report(num, name, ok, detail):
    print(f"[acceptance] C{num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def batch_stats(spec, q, seed, trials=TRIALS, t_max=64):
    rows = run_trials(spec, q, trials, master_seed=seed, t_max=t_max, validate=False)
    (summary,) = summarize(rows)
    return summary


def test_c01_closed_form_anchor():
    val = metrics.et_ub(2, 2)
    ok = abs(val - 5 / 3) < 1e-12
    report(1, "et_ub(2,2) = 5/3", ok, f"value={val!r}")


def test_c02_combination_delay_and_memory():
    s = batch_stats(TopologySpec("combination", {"n": 16, "m": 2}), 2, seed=1602)
    lo, hi = metrics.et_lb(2, 2), metrics.et_ub(2, 2)
    ok = (
        s.successes == TRIALS
        and 1.1 <= s.t_avg_mean <= 1.5
        and lo <= s.t_avg_mean <= hi
        and 5.3 <= s.w_avg_mean <= 7.3
    )
    report(2, "combination(16,2) q=2", ok,
           f"t_avg={s.t_avg_mean:.3f} in [1.1,1.5] and [{lo:.2f},{hi:.3f}], "
           f"w_avg={s.w_avg_mean:.3f} in [5.3,7.3]")


def test_c03_distribution_oracle():
    net = gen_combination(2, 2)
    (sink,) = net.sinks
    table = exact_dist_oracle(net, 2, horizon=1)
    closed = metrics.combination_decode_dist(2, 2, 1)
    exact_ok = table[sink][1] == closed == 5 / 8

    trials = 2000
    undecoded = 0
    for i in range(trials):
        tr = run(net, 2, t_max=0, rng=np.random.default_rng((322, i)), m=2,
                 validate_decoding=False)
        undecoded += not tr.success
    p_hat = undecoded / trials
    sigma = math.sqrt(5 / 8 * 3 / 8 / trials)
    mc_ok = abs(p_hat - 5 / 8) <= 3 * sigma
    report(3, "exact P(T>=1)=5/8 + Monte Carlo", exact_ok and mc_ok,
           f"oracle={table[sink][1]}, closed={closed}, mc={p_hat:.4f}+-{3 * sigma:.4f}")


def test_c04_theorem_bound_on_combination():
    net = gen_combination(3, 2)
    d, eta = 3, metrics.count_random_links(net)
    results = []
    ok = True
    for q in (2, 4):
        for t in (0, 1, 2):
            if q ** (t + 1) <= d:
                continue
            wins = 0
            for i in range(TRIALS):
                tr = run(net, q, t_max=t, rng=np.random.default_rng((432, q, t, i)),
                         m=2, validate_decoding=False)
                wins += tr.success
            bound = (1 - d / q ** (t + 1)) ** eta
            sigma = math.sqrt(bound * (1 - bound) / TRIALS)
            good = wins / TRIALS >= bound - 3 * sigma
            ok = ok and good
            results.append(f"q={q},t={t}:{wins / TRIALS:.3f}>={bound - 3 * sigma:.3f}")
    report(4, "success floor (1-d/q^(t+1))^eta", ok, "; ".join(results))


def test_c05_shuttle_golden_trace():
    net = gen_shuttle()
    eng = Engine(net, 2, rng=np.random.default_rng(5), source_mode="identity")
    for t in range(2):
        eng.step(t, draws=pinned_draws(eng, t, SHUTTLE_GOLDEN))
    check_words(eng)  # the symbol identity and propagation, from outside
    f_ok = (
        eng.f[0] == [(1, 0), (0, 0)]
        and eng.f[6] == [(1, 0), (0, 1)]
        and eng.f[1] == [(0, 1), (0, 0)]
        and eng.f[9] == [(0, 1), (1, 1)]
    )
    t_ok = eng.t_r == {1: 1, 2: 1} and eng.done_t == 1
    stream = Engine(net, 2, rng=np.random.default_rng(55), source_mode="identity")
    for t in range(40):
        stream.step(t, draws=pinned_draws(stream, t, SHUTTLE_GOLDEN))
    decoded = decode_streams(stream)  # raises on a stream that is not exact
    decode_ok = all(len(decoded[r]) == 39 for r in (1, 2))
    report(5, "shuttle golden trace", f_ok and t_ok and decode_ok,
           f"F matrices ok={f_ok}, T_r={eng.t_r}, delay-1 stream recovery={decode_ok}")


def test_c06_shuttle_monte_carlo():
    s2 = batch_stats(TopologySpec("shuttle"), 2, seed=602)
    s256 = batch_stats(TopologySpec("shuttle"), 256, seed=603)
    ok = (
        4.1 <= s2.t_avg_mean <= 6.1
        and 1.0 <= s256.t_avg_mean <= 1.3
        and 15.0 <= s256.w_avg_mean <= 17.0
    )
    report(6, "shuttle q=2 and q=256", ok,
           f"t_avg(2)={s2.t_avg_mean:.3f} in [4.1,6.1]; "
           f"t_avg(256)={s256.t_avg_mean:.3f} in [1.0,1.3]; "
           f"w_avg(256)={s256.w_avg_mean:.3f} in [15,17]")


@pytest.fixture(scope="module")
def umbrella_sweeps():
    beta_stats = [
        batch_stats(TopologySpec("umbrella", {"alpha": 5, "beta": b}), 4, seed=700 + b)
        for b in range(3, 11)
    ]
    alpha_stats = [
        batch_stats(TopologySpec("umbrella", {"alpha": a, "beta": 3}), 4, seed=800 + a)
        for a in range(5, 30, 4)
    ]
    return beta_stats, alpha_stats


def count_trend_breaks(means, errs, direction):
    breaks = 0
    for (m0, e0), (m1, e1) in zip(zip(means, errs), zip(means[1:], errs[1:])):
        drift = (m1 - m0) * direction
        if drift < -(e0 + e1):
            breaks += 1
    return breaks


def test_c07_umbrella_trends(umbrella_sweeps):
    beta_stats, alpha_stats = umbrella_sweeps
    t_means = [s.t_avg_mean for s in beta_stats]
    t_errs = [s.t_avg_stderr for s in beta_stats]
    w_means = [s.w_avg_mean for s in beta_stats]
    w_errs = [s.w_avg_stderr for s in beta_stats]
    beta_ok = (
        count_trend_breaks(t_means, t_errs, +1) <= 1
        and count_trend_breaks(w_means, w_errs, +1) <= 1
        and 1.6 <= t_means[-1] <= 2.4
        and 10.4 <= w_means[-1] <= 13.4
    )
    ta_means = [s.t_avg_mean for s in alpha_stats]
    ta_errs = [s.t_avg_stderr for s in alpha_stats]
    wa_means = [s.w_avg_mean for s in alpha_stats]
    wa_errs = [s.w_avg_stderr for s in alpha_stats]
    alpha_ok = (
        count_trend_breaks(ta_means, ta_errs, -1) <= 1
        and count_trend_breaks(wa_means, wa_errs, -1) <= 1
        and 3.2 <= wa_means[-1] <= 4.8
    )
    report(7, "umbrella beta/alpha sweeps", beta_ok and alpha_ok,
           f"beta=10: t_avg={t_means[-1]:.3f}, w_avg={w_means[-1]:.3f}; "
           f"alpha=29: w_avg={wa_means[-1]:.3f}; trends ok={beta_ok and alpha_ok}")


def test_c08_umbrella_gain(umbrella_sweeps):
    _, alpha_stats = umbrella_sweeps
    q_min = rlnc_min_q_for_target(25, 10, 0.99, "per_node")
    bits = math.log2(q_min)
    w_arcnc = alpha_stats[-1].w_avg_mean
    ok = bits >= 15 and w_arcnc <= bits / 2
    report(8, "memory gain vs one-shot code", ok,
           f"ceil(log2 q)={bits:.0f}>=15, w_avg_arcnc={w_arcnc:.3f}<={bits / 2:.1f}")


def test_c09_sparsified_memory_flatness():
    w_means = []
    interior_ok = True
    details = []
    bound = metrics.et_ub(4, 2)
    for n in (6, 12, 24, 48):
        net = gen_sparsified(n, 2)
        w_vals, l_vals = [], []
        for i in range(TRIALS):
            tr = run(net, 2, rng=np.random.default_rng((900 + n, i)), m=2,
                     validate_decoding=False)
            if not tr.success:
                continue
            w_vals.append(metrics.w_avg(tr, 2))
            for r in tr.sink_order[1:-1]:
                l_vals.append(tr.l_v[r])
        w_means.append(np.mean(w_vals))
        interior_mean = float(np.mean(l_vals))
        interior_ok = interior_ok and interior_mean <= bound
        details.append(f"n={n}: w={w_means[-1]:.3f}, L_r={interior_mean:.3f}")
    spread = (max(w_means) - min(w_means)) / np.mean(w_means)
    ok = spread < 0.15 and interior_ok
    report(9, "sparsified memory flat in n", ok,
           f"spread={100 * spread:.1f}%<15%, L_r<= {bound:.3f}: {'; '.join(details)}")


def test_c10_random_geometric_graphs():
    acyclic_w = {}
    ok = True
    details = []
    for family in ("rgg_acyclic", "rgg_cyclic"):
        for sinks in range(2, 13):
            spec = TopologySpec(
                family, {"nodes": 25, "sinks": sinks, "radius": 0.4}
            )
            s = batch_stats(spec, 4, seed=1000 + sinks)
            if s.t_avg_mean >= 1.0:
                ok = False
                details.append(f"{family} sinks={sinks}: t_avg={s.t_avg_mean:.3f}")
            if family == "rgg_acyclic":
                acyclic_w[sinks] = s.w_avg_mean
            elif s.w_avg_mean < acyclic_w[sinks]:
                ok = False
                details.append(f"cyclic w_avg dips below acyclic at sinks={sinks}")
    report(10, "random geometric graphs q=4", ok,
           "; ".join(details) if details else "t_avg<1 everywhere, cyclic memory >= acyclic")


def test_c11_property_suite(tmp_path):
    notes = []

    # field axioms, exhaustive through q=256
    axioms_ok = True
    for k in range(1, 9):
        field = GF(k)
        elems = np.arange(field.q, dtype=np.int64)
        a, b, c = elems[:, None, None], elems[None, :, None], elems[None, None, :]
        axioms_ok &= bool(np.array_equal((a ^ b) ^ c, a ^ (b ^ c)))
        axioms_ok &= bool(
            np.array_equal(
                mul_arrays(field, a, b ^ c),
                mul_arrays(field, a, b) ^ mul_arrays(field, a, c),
            )
        )
        axioms_ok &= bool(np.all((elems ^ elems) == 0))
    notes.append(f"field axioms q<=256: {axioms_ok}")

    # decodability test vs determinant oracle on 1000 small instances:
    # det != 0 iff the two-condition test fires by the m*deg horizon
    f2 = GF.for_q(2)
    rng = np.random.default_rng(1101)
    oracle_ok = True
    for _ in range(1000):
        entries = [
            [[int(v) for v in rng.integers(0, 2, size=3)] for _ in range(2)]
            for _ in range(2)
        ]
        pm = PolyMatrix.from_entries(f2, entries)
        blocks = [pm.coeff(i) for i in range(2 * 2 + 1)]
        cache = RankCache(f2, 2, words_from_blocks(f2, blocks))
        fired = any(decodability_test(cache, t) for t in range(2 * 2 + 1))
        oracle_ok &= fired == det_nonzero_oracle(pm)
    notes.append(f"decodability ~ determinant oracle: {oracle_ok}")

    # symbol identity and propagation on every trace (each run's engine
    # checked against the reference convolution), plus the termination
    # bookkeeping; the degree equalities are generic-position facts,
    # asserted exactly on the q=16 batch
    trace_ok = True
    trace_nets = [
        (gen_shuttle(), None),
        (gen_combination(5, 2), None),
        (gen_sparsified(7, 2), None),
        (gen_umbrella(5, 3), None),
    ]
    for net, _ in trace_nets:
        m = multicast_rate(net)
        for q in (2, 16):
            for i in range(40):
                with checking_words():
                    tr = run(net, q, rng=np.random.default_rng((1102, q, i)), m=m)
                if not tr.success:
                    continue
                trace_ok &= tr.t_n == max(tr.t_r.values())
                trace_ok &= max(tr.l_v.values()) <= tr.t_n
                if q == 16:
                    trace_ok &= max(tr.l_v.values()) == tr.t_n
                    trace_ok &= all(tr.l_v[r] >= tr.t_r[r] for r in tr.sink_order)
    notes.append(f"trace identities: {trace_ok}")

    # zero mask covers every cycle: the worked example plus 500 random
    # cyclic geometric graphs
    mask_ok = validate_cycle_delay(gen_shuttle(), gen_shuttle().zero_mask)
    for seed in range(500):
        net = gen_rgg(12, 2, 0.5, cyclic=True, rng=np.random.default_rng(seed))
        mask_ok &= validate_cycle_delay(net, net.zero_mask)
    notes.append(f"cycle mask coverage (shuttle + 500 rgg): {mask_ok}")

    # byte-identical CSV under a repeated seeded run
    spec = TopologySpec("combination", {"n": 5, "m": 2})
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_trials(spec, 2, 25, master_seed=7), p1)
    write_csv(run_trials(spec, 2, 25, master_seed=7), p2)
    csv_ok = p1.read_bytes() == p2.read_bytes()
    notes.append(f"seeded CSV byte-identical: {csv_ok}")

    ok = axioms_ok and oracle_ok and trace_ok and mask_ok and csv_ok
    report(11, "property suite", bool(ok), "; ".join(notes))
