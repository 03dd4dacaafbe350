"""Closed-form bounds against anchors, the exact oracle, and Monte Carlo."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcnc import cli
from arcnc.engine import TraceResult, run
from arcnc.metrics import (
    combination_decode_dist,
    et_lb,
    et_n_ub,
    et_ub,
    sparsified_Lr_cdf,
    sparsified_bounds,
    t_avg,
    umbrella_bounds,
    var_t_avg_ub,
    w_avg,
)
from arcnc.netgraph import Network, has_cycle
from arcnc.topologies import gen_combination, gen_shuttle
from oracles import et_lb_ref, et_n_ub_ref, et_ub_ref, exact_dist_oracle, var_t_avg_ub_ref


def make_trace(t_r, l_v, q=2, t_n=None):
    sinks = tuple(sorted(t_r))
    return TraceResult(
        True, q, 2, len(l_v), sinks, t_r, l_v,
        t_n if t_n is not None else max(t_r.values()), [],
    )


def test_et_bounds_anchors():
    assert abs(et_ub(2, 2) - 5 / 3) < 1e-12
    assert et_lb(2, 2) == pytest.approx(3 / 5, abs=1e-12)
    assert et_ub(1, 5) == pytest.approx(1 / 4)
    assert et_lb(1, 7) == et_ub(1, 7)
    assert et_ub(3, 2) == pytest.approx(15 / 7, abs=1e-12)
    for m in range(1, 7):
        for q in (2, 4, 16, 256):
            assert et_lb(m, q) <= et_ub(m, q)
    with pytest.raises(ValueError):
        et_ub(0, 2)


def test_et_n_ub():
    assert et_n_ub(2, 2, 1) == pytest.approx(2.0)
    assert et_n_ub(2, 2**16, 4) < 0.05
    assert et_n_ub(1, 2, 1) >= 0.0  # d = 1 is et_ub(eta, q)
    assert et_n_ub(1, 2, 3) == et_ub(3, 2)
    assert et_n_ub(1, 2**10, 3) == pytest.approx(0.0, abs=0.01)
    with pytest.raises(ValueError):
        et_n_ub(0, 2, 1)


def _rel_err(value: float, exact: Fraction) -> float:
    if exact == 0:
        return abs(value)
    return float(abs(Fraction(value) - exact) / abs(exact))


def test_series_bounds_match_exact_sums():
    # the float positive series against the exact alternating sums
    worst = 0.0
    for q in (2, 3, 4, 16, 256):
        for m in range(1, 41):
            worst = max(worst, _rel_err(et_ub(m, q), et_ub_ref(m, q)),
                        _rel_err(et_lb(m, q), et_lb_ref(m, q)))
        for d in (1, 2, 5, 924):
            for eta in range(1, 31):
                worst = max(worst, _rel_err(et_n_ub(d, q, eta), et_n_ub_ref(d, q, eta)))
        for n in range(1, 17):
            for m in range(1, min(n, 8) + 1):
                rep, ref = var_t_avg_ub(n, m, q), var_t_avg_ub_ref(n, m, q)
                worst = max(worst, _rel_err(rep.value, ref["value"]),
                            *(_rel_err(rep.params[k], ref[k])
                              for k in ("et2_ub", "rho_ub", "delta_over_d")))
    assert worst <= 4e-15


def _bound_rows_ref(points) -> list[str]:
    # cli._bound_rows_for with every series bound read from its exact sum
    rows = ["topology,q,bound,value"]
    for spec, q in points:
        label = spec.label()
        if spec.family == "combination":
            n, m = spec.params["n"], spec.params["m"]
            rows.append(f"{label},{q},et_ub,{float(et_ub_ref(m, q)):.10g}")
            rows.append(f"{label},{q},et_lb,{float(et_lb_ref(m, q)):.10g}")
            rows.append(f"{label},{q},var_t_avg_ub,"
                        f"{float(var_t_avg_ub_ref(n, m, q)['value']):.10g}")
        elif spec.family == "sparsified":
            m = spec.params["m"]
            rows.append(f"{label},{q},sink_l_ub,{float(et_ub_ref(3 * m - 2, q)):.10g}")
            rows.append(f"{label},{q},intermediate_l_ub,{float(et_ub_ref(2 * m, q)):.10g}")
        elif spec.family == "umbrella":
            out = umbrella_bounds(spec.params["alpha"], spec.params["beta"], q, epsilon=0.01)
            rows.extend(f"{label},{q},{rep.name},{rep.value:.10g}" for rep in out.values())
    return rows


def test_preset_bound_rows_match_exact_sums():
    for name, points in cli._figure_presets().items():
        assert cli._bound_rows_for(name, points) == _bound_rows_ref(points), name


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**5), st.sampled_from([2, 4, 256]))
def test_et_bounds_at_large_m(m, q):
    # sizes the exact sums could not reach
    assert 0.0 <= et_lb(m, q) <= et_ub(m, q) <= et_ub(m + 1, q)
    assert et_ub(m, 2 * q) <= et_ub(m, q)
    assert abs(et_ub(m, q) - math.log(m, q)) < 2


def test_var_bound_assembly():
    rep = var_t_avg_ub(6, 2, 2)
    assert rep.params["d"] == 15 and rep.params["delta"] == 8
    assert rep.params["case"] == "n>2m"
    assert rep.params["rho_ub"] == pytest.approx(5 / 3)
    assert rep.params["et2_ub"] == pytest.approx(127 / 9)
    expect = (127 / 9) / 15 + (8 / 15) * (5 / 3) - (9 / 15) * (3 / 5) ** 2
    assert rep.value == pytest.approx(expect)

    # delta/d falls toward zero as n grows at fixed m
    ratios = [var_t_avg_ub(n, 2, 2).params["delta_over_d"] for n in (6, 10, 16, 24)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))

    # n = 2m pins C(n-m, m) = 1, so delta/d = 1 - 2/d
    rep = var_t_avg_ub(8, 4, 2)
    d = rep.params["d"]
    assert rep.params["case"] == "n=2m"
    assert rep.params["delta_over_d"] == pytest.approx(1 - 2 / d)
    assert var_t_avg_ub(5, 3, 2).params["case"] == "n<2m"


def test_var_bound_dominates_monte_carlo():
    net = gen_combination(6, 2)
    vals = []
    for i in range(800):
        tr = run(net, 2, rng=np.random.default_rng((3, i)), m=2, validate_decoding=False)
        vals.append(t_avg(tr))
    assert np.var(vals, ddof=1) <= var_t_avg_ub(6, 2, 2).value


def test_combination_decode_dist():
    assert combination_decode_dist(1, 2, 1) == pytest.approx(0.5)
    assert combination_decode_dist(2, 2, 1) == 5 / 8
    assert combination_decode_dist(2, 2, 50) < 1e-12
    assert combination_decode_dist(2, 2, 0) == 1.0
    # q^(t l) past the float range underflows to 0 instead of raising
    assert 0.0 <= combination_decode_dist(100, 256, 10) < 1e-20
    assert sparsified_Lr_cdf(100, 256, 10) == 1.0


@pytest.mark.parametrize("m, q, t", [(1, 2, 3), (2, 2, 5), (3, 4, 2), (6, 2, 30), (100, 256, 10),
                                     (5, 16, 60), (2000, 2, 900), (10**6, 2, 1), (4, 2, 0)])
def test_combination_decode_dist_keeps_its_relative_accuracy(m, q, t):
    # 1 - prod(1 - x_l) cancels to 0.0 once the product lies within rounding
    # of 1; the positive series matches the exact value to a few ulps down
    # to 1e-300 (q = 2, t = 900: about 1.2e-271)
    keep = Fraction(1)
    for l in range(1, m + 1):
        if t * (l - 1) * (q.bit_length() - 1) > 64:
            break  # the factors left move the result by under 2^-64 of it
        keep *= 1 - Fraction(1, q ** (t * l))
    exact = 1 - keep
    assert exact > Fraction(1, 10**300)
    assert combination_decode_dist(m, q, t) == pytest.approx(float(exact), rel=1e-14, abs=0)


def test_oracle_matches_closed_form_at_first_step():
    net = gen_combination(2, 2)
    table = exact_dist_oracle(net, 2, horizon=1)
    (sink,) = net.sinks
    assert table[sink][0] == 1.0
    assert table[sink][1] == combination_decode_dist(2, 2, 1) == 5 / 8


def test_oracle_diverges_from_closed_form_at_later_steps():
    """The closed form treats the growing kernel as one uniform matrix over
    the extension field; exact enumeration of the protocol gives
    P(T_r >= 2) = 41/128 against the formula's 19/64. The formula is a
    per-step approximation beyond t=1.
    """
    net = gen_combination(2, 2)
    table = exact_dist_oracle(net, 2, horizon=2)
    (sink,) = net.sinks
    assert table[sink][2] == 41 / 128
    assert combination_decode_dist(2, 2, 2) == 19 / 64
    assert table[sink][2] != combination_decode_dist(2, 2, 2)


def test_oracle_rejects_a_negative_horizon():
    with pytest.raises(ValueError, match="horizon must be >= 0, got -1"):
        exact_dist_oracle(gen_combination(2, 2), 2, horizon=-1)


def test_oracle_single_sink_of_wider_network():
    # a sink watching 2 of 3 source streams behaves like the (2,2) sink
    net = Network.build(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4)], 0, (4,))
    table = exact_dist_oracle(net, 2, horizon=1)
    assert table[4][1] == 5 / 8


def test_oracle_relay_chain():
    chain = Network.build(3, [(0, 1), (1, 2)], 0, (2,))
    for q in (2, 4):
        table = exact_dist_oracle(chain, q, horizon=1)
        assert table[2][1] == pytest.approx(1 / q)


def check_oracle_against_monte_carlo(net, seed, trials=3000, horizon=1):
    """Every tail P(T_r >= t), t = 1..horizon+1, of the exact oracle lies
    within 3 sigma of the share of identity-source trials still undecoded."""
    table = exact_dist_oracle(net, 2, horizon=horizon, source_mode="identity")
    t_r = [
        run(net, 2, t_max=horizon, rng=np.random.default_rng((seed, i)),
            source_mode="identity", m=2, validate_decoding=False).t_r
        for i in range(trials)
    ]
    for r in net.sinks:
        for t in range(1, horizon + 2):
            undecoded = sum(r not in got or got[r] >= t for got in t_r)
            p = table[r][t]
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(undecoded / trials - p) <= 3 * sigma
    return table


def test_oracle_matches_monte_carlo_on_shuttle():
    table = check_oracle_against_monte_carlo(gen_shuttle(), seed=13)
    for r in (1, 2):
        assert table[r][1] == 1.0  # no draw decodes the masked shuttle at t=0


def test_oracle_matches_monte_carlo_on_twin_cycle():
    # two coding nodes feeding each other in a 2-cycle, both feeding the one sink;
    # every branch of the oracle's enumeration replays its draws on a fresh engine,
    # so the sink's rank cache is rebuilt along each path
    net = Network.build(4, [(0, 1), (0, 2), (1, 2), (2, 1), (1, 3), (2, 3)], 0, (3,))
    assert has_cycle(net)
    table = check_oracle_against_monte_carlo(net, seed=14)
    assert table[3] == [1.0, 0.75, 55 / 128]


def test_oracle_mass_is_conserved_and_guarded():
    net = gen_combination(2, 2)
    table = exact_dist_oracle(net, 2, horizon=2)
    (sink,) = net.sinks
    tail = table[sink]
    assert all(1.0 >= a >= b >= 0.0 for a, b in zip(tail, tail[1:]))
    with pytest.raises(ValueError):
        exact_dist_oracle(gen_combination(5, 2), 2, horizon=1, max_slots=8)


def test_sparsified_forms():
    assert sparsified_Lr_cdf(1, 2, 1) == pytest.approx(0.5)  # reduces to Q
    assert sparsified_Lr_cdf(2, 2, 0) == 0.0
    assert sparsified_Lr_cdf(2, 2, 20) == pytest.approx(1.0, abs=1e-4)
    rep = sparsified_bounds(2, 2)
    assert rep.value == pytest.approx(et_ub(4, 2))
    assert rep.params["intermediate_l_ub"] == pytest.approx(et_ub(4, 2))
    rep3 = sparsified_bounds(3, 2)
    assert rep3.value == pytest.approx(et_ub(7, 2))
    assert rep3.params["intermediate_l_ub"] == pytest.approx(et_ub(6, 2))


def test_umbrella_bounds():
    out = umbrella_bounds(9, 3, 2, q_r=2**15)
    assert out["layer1_l_ub"].value == pytest.approx(5 / 3)
    assert out["rlnc_bits_lb"].value == pytest.approx(15.0)
    # alpha >> beta asymptote: (q^2-1)/(q^2+2q) * log2(q_r)/log2(q)
    assert out["gain_wide_asymptote"].value == pytest.approx((3 / 8) * 15)
    assert out["gain_wide_asymptote"].params["narrow_asymptote"] == 1.0

    # asymptotic regime check: widening the umbrella pushes the gain bound
    # toward the wide asymptote
    gains = [
        umbrella_bounds(a, 3, 2, q_r=2**15)["gain_lb"].value for a in (9, 29, 299, 2999)
    ]
    assert all(x < y for x, y in zip(gains, gains[1:]))
    assert gains[-1] == pytest.approx((3 / 8) * 15, rel=0.05)

    with pytest.raises(ValueError):
        umbrella_bounds(4, 3, 2, q_r=16)
    with pytest.raises(ValueError):
        umbrella_bounds(5, 3, 2)
    for q_r in (1, 0):  # a gain of 0, or a math domain error, before the check
        with pytest.raises(ValueError, match="need q_r >= 2"):
            umbrella_bounds(9, 3, 2, q_r=q_r)


def test_t_avg_and_w_avg():
    tr = make_trace({1: 3}, {0: 3, 1: 3})
    assert t_avg(tr) == 3.0
    multi = make_trace({1: 1, 2: 3}, {0: 3, 1: 1, 2: 3})
    assert t_avg(multi) == 2.0
    assert t_avg([tr, multi]) == 2.5
    with pytest.raises(ValueError):
        t_avg([])

    rlnc_like = make_trace({1: 0, 2: 0}, {0: 0, 1: 0, 2: 0}, q=16, t_n=0)
    assert w_avg(rlnc_like, 16) == 4.0  # degenerate all-constant case
    assert w_avg(make_trace({1: 1}, {0: 1, 1: 1}), 2) == 2.0
    failed = TraceResult(False, 2, 2, 2, (1,), {}, {0: -1, 1: -1}, None, [])
    with pytest.raises(ValueError):
        w_avg(failed, 2)
    short = TraceResult(True, 2, 2, 3, (1,), {1: 0}, {0: 0}, 0, [])
    with pytest.raises(ValueError):
        w_avg(short, 2)


def test_monte_carlo_delay_sits_between_bounds():
    # pooled per-sink mean decoding time lands in [et_lb, et_ub] with
    # 3 sigma slack (for m=1 the bounds coincide at the exact value)
    for n, m, q, seed in ((4, 1, 2, 1), (4, 2, 2, 2), (6, 3, 2, 3), (4, 2, 4, 4)):
        net = gen_combination(n, m)
        vals = []
        for i in range(4000):
            tr = run(net, q, rng=np.random.default_rng((seed, i)), m=m,
                     validate_decoding=False)
            if tr.success:
                vals.extend(tr.t_r[r] for r in tr.sink_order)
        mean = float(np.mean(vals))
        sigma = float(np.std(vals) / math.sqrt(len(vals)))
        assert et_lb(m, q) - 3 * sigma <= mean <= et_ub(m, q) + 3 * sigma


def test_bounds_are_pure():
    assert et_ub(4, 4) == et_ub(4, 4)
    assert var_t_avg_ub(10, 3, 4).value == var_t_avg_ub(10, 3, 4).value
    assert umbrella_bounds(5, 3, 4, epsilon=0.01)["gain_lb"].value == umbrella_bounds(
        5, 3, 4, epsilon=0.01
    )["gain_lb"].value
