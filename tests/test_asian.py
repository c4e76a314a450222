"""Asian pricers: brute force, cross approximation, Monte Carlo."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mpspricer import (
    AsianSpec,
    CrossConfig,
    SchemeParams,
    asian,
    asian_integrand,
    crr_params,
    path_prices,
    path_probability,
    price_asian_bruteforce,
    price_asian_montecarlo,
    price_asian_ttcross,
    price_asian_variational,
    ttcross_approximate,
)
from mpspricer.ttcross import grid_blocks
from mpspricer.asian import (
    _CODE_MOVES, _MC_BLOCK_WORDS, _alias_codes, _alias_table, _path_sum_kernel
)

from conftest import (
    ASIAN_N32_CALL, enumerate_asian_price, geometric_asian_price, geometric_integrand,
    loop_path_sum, mp_asian_price, walked_asian_price
)

# mpmath: e^{-r} * (p_u * (S0*u - K) + (1-p_u) * 0) at S0=K=100, r=0.1,
# vol=0.5, T=1, N=1 (down path average 60.65 is out of the money).
ASIAN_N1_CALL = 28.084640724297127


def path_payoffs(spec: AsianSpec, bits: np.ndarray) -> np.ndarray:
    """Each path's undiscounted payoff from its own row of prices, no head/tail split."""
    means = path_prices(spec.spot, spec.params(), bits).mean(axis=-1)
    excess = means - spec.strike if spec.right == "call" else spec.strike - means
    return np.maximum(excess, 0.0)


def code_table(params: SchemeParams):
    """Monte Carlo's alias table of the 256 codes of 8 moves under ``params``."""
    return _alias_table(path_probability(params, _CODE_MOVES))


def alias_decode(words: np.ndarray, table) -> np.ndarray:
    """Each word's code from an alias table's integers, by its definition."""
    bounds, pick = table
    cols = (words >> np.uint64(56)).astype(np.intp)
    return np.where(words < bounds[cols], pick[2 * cols + 1], pick[2 * cols])


def drawn_moves(spec: AsianSpec, n: int, seed: int) -> np.ndarray:
    """The (n, steps) up moves that Monte Carlo draws at ``seed``, decoded here.

    Path i takes words i * ceil(steps / 8) onward of the generator's raw
    64-bit stream; each word is the code of 8 moves (bit j is move j) from
    one table, and the last code's moves past ``steps`` are dropped.
    """
    n_codes = -(-spec.steps // 8)
    words = np.random.default_rng(seed).integers(
        0, 2**64 - 1, size=(n, n_codes), dtype=np.uint64, endpoint=True
    )
    codes = alias_decode(words, code_table(spec.params())).astype(np.uint8)
    return np.unpackbits(codes, axis=1, bitorder="little")[:, : spec.steps]


def test_spec_validation():
    good = dict(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=4)
    AsianSpec(**good)
    for bad in (
        dict(good, spot=0),
        dict(good, strike=-5),
        dict(good, steps=0),
        dict(good, expiry=0),
        dict(good, scheme="x"),
        dict(good, right="x"),
    ):
        with pytest.raises(ValueError):
            AsianSpec(**bad)


def test_spec_fields_are_the_pinned_keys():
    # Benchmark pins compare dataclasses.asdict(spec); a new field breaks them.
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=4)
    assert dataclasses.asdict(spec) == dict(
        spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=4,
        scheme="crr", right="call",
    )


def test_path_payoff_by_hand():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=2.0, steps=2)
    p = crr_params(0.1, 0.5, 1.0)
    avg_up_down = (100 * p.up + 100 * p.up * p.down) / 2
    want = p.p_up * (1.0 - p.p_up) * max(avg_up_down - 100, 0.0)
    got = asian_integrand(spec).evaluate(np.array([[1, 0]]))
    assert got[0] == pytest.approx(want, rel=1e-14)


def test_bruteforce_single_step_frozen():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=1)
    assert price_asian_bruteforce(spec).price == pytest.approx(
        ASIAN_N1_CALL, rel=1e-13
    )


def test_bruteforce_matches_itertools_oracle():
    # Every split of N into head and tail up to 12 steps; at N=1 the head
    # is empty and the single move is the tail.
    for steps in range(1, 13):
        for scheme in ("crr", "rb"):
            for right in ("call", "put"):
                spec = AsianSpec(
                    spot=100, strike=95, rate=0.07, vol=0.4, expiry=1.0,
                    steps=steps, scheme=scheme, right=right,
                )
                got = price_asian_bruteforce(spec)
                assert got.price == pytest.approx(
                    enumerate_asian_price(spec), rel=1e-12
                )
                assert got.diagnostics["n_paths"] == 2**steps


def per_path_price(spec: AsianSpec) -> float:
    """Every path priced as its own row, 2^16 rows at a time.

    This is the enumeration the head-by-tail brute force replaced; it
    stays here as the reference for sizes the itertools oracle is too slow
    for.
    """
    params = spec.params()
    n = spec.steps
    shifts = np.arange(n, dtype=np.uint64)
    acc = 0.0
    for start in range(0, 1 << n, 1 << 16):
        ids = np.arange(start, min(start + (1 << 16), 1 << n), dtype=np.uint64)
        bits = ((ids[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
        acc += float(
            np.dot(path_probability(params, bits), path_payoffs(spec, bits))
        )
    return math.exp(-spec.rate * spec.expiry) * acc


def test_bruteforce_chunking_crosses_boundary():
    # 2^18 paths are 2^10 heads by 2^8 tails; at most 2^16 values per block
    # puts 2^8 heads in a block, so the sum runs over four head blocks.
    for right in ("call", "put"):
        spec = AsianSpec(
            spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=18,
            right=right,
        )
        r = price_asian_bruteforce(spec)
        assert r.diagnostics["n_paths"] == 2**18
        assert r.price == pytest.approx(per_path_price(spec), rel=1e-13)


@pytest.mark.parametrize("right", ["call", "put"])
@pytest.mark.parametrize("scheme", ["crr", "rb"])
def test_bruteforce_matches_the_block_walk(scheme, right):
    """The sorted-tail join against the fsum of the cross integrand's blocks."""
    for steps in [*range(1, 23), 25]:
        spec = AsianSpec(
            spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=steps,
            scheme=scheme, right=right,
        )
        got = price_asian_bruteforce(spec).price
        assert got == pytest.approx(walked_asian_price(spec), rel=1e-13), steps


@pytest.mark.parametrize("right", ["call", "put"])
@pytest.mark.parametrize("vol", [0.5, 1e-3, 1e-9])
def test_bruteforce_low_vol_error_stays_near_the_block_walk(vol, right):
    """Both against a 50-digit enumeration: at most 1e-13 or 10x the walk's error.

    At low volatility each payoff is a small difference of prices near the
    strike, so both oracles lose digits to the rounding of the head and
    tail sums they share; the gap form must add no cancellation of its own.
    """
    for steps in range(1, 13):
        for scheme in ("crr", "rb"):
            spec = AsianSpec(
                spot=100, strike=100, rate=0.0, vol=vol, expiry=1.0, steps=steps,
                scheme=scheme, right=right,
            )
            exact = mp_asian_price(spec)
            err = abs(price_asian_bruteforce(spec).price - exact) / exact
            walk_err = abs(walked_asian_price(spec) - exact) / exact
            assert err <= max(1e-13, 10 * walk_err), (steps, scheme, err, walk_err)


def test_bruteforce_n36_is_priced_in_chunks(monkeypatch):
    """Whole (2^18, 18) label and price arrays peaked at 188.5 MiB here."""
    monkeypatch.setattr(asian, "BRUTEFORCE_MAX_STEPS", 36)
    tracemalloc.start()
    try:
        got = price_asian_bruteforce(AsianSpec(steps=36)).price
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == float.fromhex("0x1.b167a6bfbc86dp+3")
    assert peak < 64 * 2**20


def test_bruteforce_refuses_beyond_cap():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=26)
    with pytest.raises(ValueError, match="cap"):
        price_asian_bruteforce(spec)


def test_ttcross_close_to_bruteforce():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=14)
    bf = price_asian_bruteforce(spec).price
    # bond 32 truncates the integrand (numerical rank ~45), so only a
    # small residual error is promised; bond 128 covers the full rank
    # and the price must match enumeration to rounding.
    truncated = price_asian_ttcross(spec, bond_dim=32, seed=0)
    assert truncated.price == pytest.approx(bf, rel=1e-3)
    exact = price_asian_ttcross(spec, bond_dim=128, seed=0)
    assert exact.price == pytest.approx(bf, rel=1e-10)
    assert exact.method == "ttcross"
    assert exact.diagnostics["n_evals"] > 0
    assert exact.mps is not None


def test_ttcross_deterministic():
    spec = AsianSpec(spot=100, strike=110, rate=0.05, vol=0.3, expiry=1.0, steps=10)
    a = price_asian_ttcross(spec, bond_dim=8, seed=4)
    b = price_asian_ttcross(spec, bond_dim=8, seed=4)
    assert a.price == b.price


def test_ttcross_price_and_warnings_pinned_bitwise():
    """Exact bits of a truncated cross price, which stops on a plateau."""
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=16)
    report = price_asian_ttcross(spec, bond_dim=16, seed=1)
    assert report.price.hex() == "0x1.bf7c7c6678868p+3"
    assert report.warnings == ["probe change plateaued at 2.526e-03"]
    assert report.price == pytest.approx(price_asian_bruteforce(spec).price, rel=2e-3)


def test_ttcross_reports_how_it_stopped():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=16)
    report = price_asian_ttcross(spec, bond_dim=16, seed=1)
    diag = report.diagnostics
    assert (diag["stop_reason"], diag["converged"]) == ("plateau", False)
    changes = diag["probe_changes"]
    assert len(changes) == report.n_sweeps - 1
    assert changes[-1] > 0.5 * changes[-2]
    assert all(type(c) is float for c in changes)
    assert 0.0 < diag["heldout_residual"] < 0.05


# Sizes and seeds at which cores solved against raw cross matrices once
# priced -8.4e20 (N=22, seed 0), 2.3e39 (N=22, seed 3) and -9.8e24 (N=24).
@pytest.mark.parametrize(
    "steps,bond,seed", [(22, 32, 0), (22, 32, 3), (24, 16, 0)]
)
def test_ttcross_stable_where_raw_cross_solves_blew_up(steps, bond, seed):
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=steps)
    report = price_asian_ttcross(spec, bond_dim=bond, seed=seed)
    assert report.price == pytest.approx(price_asian_bruteforce(spec).price, rel=1e-2)


@pytest.mark.parametrize("seed", range(4))
def test_ttcross_beyond_bruteforce_cap(seed):
    """N=32 at bond 32, once off by 1e19-1e33; the reference is 10^8-path MC."""
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=32)
    price = price_asian_ttcross(spec, bond_dim=32, seed=seed).price
    assert 0.0 <= price <= spec.spot
    assert price == pytest.approx(13.587, rel=1e-2)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14")
@pytest.mark.parametrize("seed", range(3))
def test_ttcross_n32_bond_32_matches_the_exact_price(seed):
    """The known failing cross case: 1.37e-3 to 1.41e-3 high at seeds 0-2."""
    price = price_asian_ttcross(AsianSpec(steps=32), bond_dim=32, seed=seed).price
    assert price == pytest.approx(ASIAN_N32_CALL, rel=1e-5)


def loop_geometric_price(spec: AsianSpec) -> float:
    """Geometric-average Asian price by plain per-path loops; only sane for small N."""
    p = spec.params()
    total = 0.0
    for moves in itertools.product((0, 1), repeat=spec.steps):
        price, log_sum, prob = spec.spot, 0.0, 1.0
        for b in moves:
            price *= p.up if b else p.down
            log_sum += math.log(price)
            prob *= p.p_up if b else 1.0 - p.p_up
        mean = math.exp(log_sum / spec.steps)
        total += prob * max(mean - spec.strike if spec.right == "call" else spec.strike - mean, 0.0)
    return math.exp(-spec.rate * spec.expiry) * total


@pytest.mark.parametrize("right", ["call", "put"])
@pytest.mark.parametrize("scheme", ["crr", "rb"])
def test_geometric_twin_is_its_enumeration(scheme, right):
    """The exact twin against every path: its own blocks to N=20, plain loops to N=10."""
    for steps in [*range(1, 11), 13, 16, 20]:
        spec = AsianSpec(
            spot=100, strike=95, rate=0.07, vol=0.4, expiry=1.0, steps=steps,
            scheme=scheme, right=right,
        )
        exact = geometric_asian_price(spec)
        blocks = grid_blocks(geometric_integrand(spec))
        walked = math.exp(-spec.rate * spec.expiry) * math.fsum(b.sum() for b in blocks)
        assert exact == pytest.approx(walked, rel=1e-12), steps
        if steps <= 10:
            assert exact == pytest.approx(loop_geometric_price(spec), rel=1e-12), steps


def test_geometric_twin_prices_past_any_enumeration():
    assert geometric_asian_price(AsianSpec(steps=64)) == pytest.approx(12.1203637850, abs=1e-10)
    assert geometric_asian_price(AsianSpec(steps=128)) == pytest.approx(12.0253059129, abs=1e-10)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 14")
@pytest.mark.parametrize("steps", [64, 128])
def test_ttcross_bond_32_matches_the_geometric_twin(steps):
    """The cross on the exact twin at seed 0: 3.9e-3 high at N=64 and 8.5e-3 at N=128."""
    spec = AsianSpec(steps=steps)
    result = ttcross_approximate(geometric_integrand(spec), CrossConfig(max_bond=32, seed=0))
    price = math.exp(-spec.rate * spec.expiry) * result.mps.sum_all()
    assert price == pytest.approx(geometric_asian_price(spec), rel=1e-5)


def test_ttcross_n64_beyond_bruteforce_cap():
    """2^64 paths; the reference is 10^8-path Monte Carlo, 13.3960 +- 0.0022.

    Bond 16 reads 1.4-1.5% high at seeds 0-2; bond 32 is within 0.4%.
    """
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=64)
    price = price_asian_ttcross(spec, bond_dim=32, seed=0).price
    assert price == pytest.approx(13.3962, rel=1e-2)


def test_ttcross_put():
    spec = AsianSpec(
        spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=12, right="put"
    )
    bf = price_asian_bruteforce(spec).price
    tt = price_asian_ttcross(spec, bond_dim=32, seed=0)
    assert tt.price == pytest.approx(bf, rel=1e-7)


def test_rb_scheme_prices_too():
    spec = AsianSpec(
        spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=10, scheme="rb"
    )
    bf = price_asian_bruteforce(spec).price
    # bond 32 exceeds the integrand's numerical rank (about 20) at ten
    # steps, so the cross result is exact up to rounding.
    tt = price_asian_ttcross(spec, bond_dim=32, seed=1)
    assert bf == pytest.approx(enumerate_asian_price(spec), rel=1e-12)
    assert tt.price == pytest.approx(bf, rel=1e-10)


def test_montecarlo_reproducible_and_calibrated():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=10)
    bf = price_asian_bruteforce(spec).price
    a = price_asian_montecarlo(spec, 50_000, seed=9)
    b = price_asian_montecarlo(spec, 50_000, seed=9)
    assert a.price == b.price
    assert a.std_error == b.std_error
    assert a.std_error > 0
    # 4 standard errors: a false alarm here is a ~6e-5 event.
    assert abs(a.price - bf) < 4 * a.std_error


def test_montecarlo_sample_counts_above_chunk_size():
    # 200k samples spans many internal blocks; the estimate must still be
    # one coherent mean with a smaller standard error than a short run.
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=5)
    small = price_asian_montecarlo(spec, 1000, seed=3)
    big = price_asian_montecarlo(spec, 200_000, seed=3)
    assert small.n_samples == 1000
    assert big.n_samples == 200_000
    assert big.std_error < small.std_error


def test_montecarlo_blocks_draw_one_stream():
    """Blocks of draws price like one draw of every sample at once."""
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=7)
    n = 3 * _MC_BLOCK_WORDS + 123
    got = price_asian_montecarlo(spec, n, seed=5)
    vals = math.exp(-spec.rate * spec.expiry) * path_payoffs(spec, drawn_moves(spec, n, 5))
    assert got.price == pytest.approx(vals.mean(), rel=1e-12)
    assert got.std_error == pytest.approx(vals.std(ddof=1) / math.sqrt(n), rel=1e-9)


@pytest.mark.parametrize("steps", [7, 64])
def test_montecarlo_reused_buffers_draw_the_same_stream(steps):
    """Drawing and decoding each block afresh prices bit for bit as the engine."""
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=steps)
    params = spec.params()
    n_codes = -(-steps // 8)
    rows = _MC_BLOCK_WORDS // n_codes
    n = 3 * rows + 123
    rng = np.random.default_rng(4)
    path_sums = _path_sum_kernel(spec.spot, params, steps)
    table = code_table(params)
    disc = math.exp(-spec.rate * spec.expiry)
    total = sq_dev = 0.0
    for done in range(0, n, rows):
        count = min(rows, n - done)
        words = rng.integers(0, 2**64 - 1, size=(count, n_codes), dtype=np.uint64, endpoint=True)
        vals = disc * np.maximum(path_sums(alias_decode(words, table)) / steps - spec.strike, 0.0)
        block_sum = float(vals.sum())
        vals -= block_sum / count
        sq_dev += float(np.dot(vals, vals))
        if done:
            delta = block_sum / count - total / done
            sq_dev += delta * delta * done * count / (done + count)
        total += block_sum
    std_error = math.sqrt(sq_dev / (n - 1) / n)
    got = price_asian_montecarlo(spec, n, seed=4)
    assert (got.price, got.std_error) == (total / n, std_error)


def test_montecarlo_prices_without_path_price_arrays(monkeypatch):
    """Monte Carlo sums its paths by lookup tables, not by the integrand."""
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=64)
    n = 20_000
    bits = drawn_moves(spec, n, 11)
    want = math.exp(-spec.rate * spec.expiry) * path_payoffs(spec, bits).mean()

    def refuse(*args):
        raise AssertionError("Monte Carlo built a path-price array")

    monkeypatch.setattr(asian, "path_prices", refuse)
    monkeypatch.setattr(asian, "asian_integrand", refuse)
    assert price_asian_montecarlo(spec, n, seed=11).price == pytest.approx(want, rel=1e-12)


def test_montecarlo_draws_no_uniforms(monkeypatch):
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=20)
    want = price_asian_montecarlo(spec, 5000, seed=2)
    make_rng = np.random.default_rng

    class NoUniforms:
        def __init__(self, seed):
            self.rng = make_rng(seed)

        def __getattr__(self, name):
            if name == "random":
                raise AssertionError("Monte Carlo drew uniforms")
            return getattr(self.rng, name)

    monkeypatch.setattr(np.random, "default_rng", NoUniforms)
    got = price_asian_montecarlo(spec, 5000, seed=2)
    assert (got.price, got.std_error) == (want.price, want.std_error)


@pytest.mark.parametrize("vol", [1e-8, 1e-9, 1e-10])
def test_montecarlo_std_error_survives_nearly_equal_payoffs(vol):
    # A one-pass sum of squares minus n * mean^2 cancelled here: at vol
    # 1e-10 it reported 0.0 against a two-pass 1.99e-11.
    spec = AsianSpec(spot=150, strike=100, rate=0.05, vol=vol, expiry=1.0, steps=16, scheme="rb")
    n = 200_000
    vals = math.exp(-spec.rate * spec.expiry) * path_payoffs(spec, drawn_moves(spec, n, 1))
    got = price_asian_montecarlo(spec, n, seed=1)
    assert got.std_error == pytest.approx(vals.std(ddof=1) / math.sqrt(n), rel=1e-6)


PATTERN_PROBS = [0.0, 1e-4, 0.5, AsianSpec(steps=32).params().p_up, 0.9999, 1.0]


@pytest.mark.parametrize("moves", range(1, 9))
@pytest.mark.parametrize("p_up", PATTERN_PROBS)
def test_alias_table_draws_each_pattern_with_its_probability(p_up, moves):
    """The first ``moves`` moves of a code, all a last code may count, draw exactly."""
    bounds, pick = code_table(dataclasses.replace(AsianSpec().params(), p_up=p_up))
    width = 1 << 56
    words = [0] * 256
    for col, bound in enumerate(bounds.tolist()):
        own = bound - col * width
        words[int(pick[2 * col + 1])] += own
        words[int(pick[2 * col])] += width - own
    assert sum(words) == 1 << 64
    for pattern in range(1 << moves):
        # The codes whose first ``moves`` moves are ``pattern``.
        count = sum(words[pattern :: 1 << moves])
        ups = bin(pattern).count("1")
        want = p_up**ups * (1.0 - p_up) ** (moves - ups)
        assert abs(count / 2**64 - want) <= 1e-14
        if want == 0.0:
            assert count == 0
    # Words at every column's edges and bound decode by the definition.
    starts = np.arange(256, dtype=np.uint64) << np.uint64(56)
    edges = np.concatenate([starts, starts - np.uint64(1), bounds, bounds - np.uint64(1)])
    np.testing.assert_array_equal(_alias_codes(edges, (bounds, pick)), alias_decode(edges, (bounds, pick)))


@pytest.mark.parametrize("p_up, moves", [(AsianSpec(steps=32).params().p_up, 8), (0.9, 8)])
def test_alias_codes_pass_a_chi_square_test(p_up, moves):
    """The first ``moves`` moves of the drawn codes follow their binomial law."""
    n = 1 << 20
    words = np.random.default_rng(8).integers(0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True)
    table = code_table(dataclasses.replace(AsianSpec().params(), p_up=p_up))
    patterns = _alias_codes(words, table) & ((1 << moves) - 1)
    counts = np.bincount(patterns, minlength=1 << moves)
    ups = np.array([bin(c).count("1") for c in range(1 << moves)])
    expected = n * p_up**ups * (1.0 - p_up) ** (moves - ups)
    stat, dof = float(((counts - expected) ** 2 / expected).sum()), (1 << moves) - 1
    # Wilson-Hilferty: the statistic's cube root is nearly normal.
    z = ((stat / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))
    assert z < 5.0


def test_montecarlo_block_memory_does_not_grow_with_steps():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=2000)
    tracemalloc.start()
    try:
        price_asian_montecarlo(spec, 8192, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A block is 256 KiB of words and their decode temporaries; 140 MiB
    # when a block was a fixed 4096 paths whatever the steps.
    assert peak < 8 * 2**20


@pytest.mark.parametrize("steps", [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100])
@pytest.mark.parametrize("scheme, vol", [("crr", 0.5), ("rb", 0.5), ("rb", 0.0)])
def test_path_sum_kernel_matches_path_prices(steps, scheme, vol):
    spec = AsianSpec(
        spot=100, strike=100, rate=0.1, vol=vol, expiry=1.0, steps=steps, scheme=scheme
    )
    params = spec.params()
    path_sums = _path_sum_kernel(spec.spot, params, steps)
    rng = np.random.default_rng(steps)
    bits = rng.random((300, steps)) < params.p_up
    bits[0], bits[1] = True, False
    codes = np.packbits(bits, axis=-1, bitorder="little")
    want = path_prices(spec.spot, params, bits).sum(axis=-1)
    loop = [loop_path_sum(spec.spot, params, row) for row in bits[:30]]
    got = path_sums(codes)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    np.testing.assert_allclose(got[:30], loop, rtol=1e-14, atol=0)
    # The last code's moves past ``steps`` are ignored, whatever they are.
    surplus = np.uint8(0xFF << ((steps - 1) % 8 + 1) & 0xFF)
    noisy = codes.copy()
    noisy[:, -1] |= surplus & rng.integers(0, 256, len(codes), dtype=np.uint8)
    np.testing.assert_array_equal(path_sums(noisy), got)
    np.testing.assert_array_equal(path_sums(codes[:1]), got[:1])
    assert path_sums(codes[:0]).shape == (0,)


def test_montecarlo_rejects_tiny_sample_counts():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=5)
    with pytest.raises(ValueError, match="n_samples"):
        price_asian_montecarlo(spec, 1, seed=0)


def test_montecarlo_rejects_non_integer_sample_counts():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=5)
    with pytest.raises(TypeError, match="n_samples must be an integer, got float"):
        price_asian_montecarlo(spec, 1000.0, seed=0)
    assert price_asian_montecarlo(spec, np.int64(1000), seed=0).n_samples == 1000


@pytest.mark.parametrize("price", [price_asian_montecarlo, price_asian_variational])
def test_negative_seed_rejected_up_front(price):
    # Both once failed in numpy with "expected non-negative integer".
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        price(AsianSpec(steps=8), seed=-1)


def test_call_put_difference_is_discounted_forward():
    # call(x) - put(x) = mean(x) - K pathwise, so the price gap equals the
    # discounted expected average minus strike: (S0/N) sum e^{r i dt} - K.
    kw = dict(spot=100, strike=95, rate=0.08, vol=0.45, expiry=1.0, steps=10)
    call = price_asian_bruteforce(AsianSpec(right="call", **kw)).price
    put = price_asian_bruteforce(AsianSpec(right="put", **kw)).price
    dt = kw["expiry"] / kw["steps"]
    fwd = (kw["spot"] / kw["steps"]) * sum(
        math.exp(kw["rate"] * dt * i) for i in range(1, kw["steps"] + 1)
    ) - kw["strike"]
    assert call - put == pytest.approx(
        math.exp(-kw["rate"] * kw["expiry"]) * fwd, rel=1e-12
    )
