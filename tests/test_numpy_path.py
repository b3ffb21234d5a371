"""The size-switched numpy path of the decision kernel against the pure-Python
path: validation, boundary building, both decision methods and gap_set.

Each case runs the whole chain twice, once with every vector forced onto the
pure-Python path and once with every vector forced onto the numpy path, and
requires bit-identical renormalised entries and elbows, the same verdicts and
the same first failed check. The numpy path's renormalising total
(`core._exact_sum`) must be `math.fsum`'s or defer to it, also at rounding
midpoints.
"""

import itertools
import math
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from athermal import (
    alpha_at,
    compute_elbows,
    convertible_via_monotones,
    gap_set,
    gibbs_vector,
    relatively_majorizes,
    validate_state,
)
from athermal import core, majorization, monotones
from athermal.core import _NUMPY_MIN_DIM
from athermal.errors import (
    DimensionMismatch,
    NegativeEntry,
    NonFiniteEntry,
    NormalizationOutOfTolerance,
    RankDeficientGibbs,
)
from athermal.majorization import COLLINEARITY_TOL

PURE_PYTHON = sys.maxsize
NUMPY = 1
SIZES = (_NUMPY_MIN_DIM - 1, _NUMPY_MIN_DIM, 257, 2048, 20_000)


def _force(monkeypatch, threshold):
    for module in (core, majorization):
        monkeypatch.setattr(module, "_NUMPY_MIN_DIM", threshold)


def test_threshold_bound_only_where_forced():
    holders = sorted(
        name for name, module in sys.modules.items()
        if name.startswith("athermal") and hasattr(module, "_NUMPY_MIN_DIM")
    )
    assert holders == ["athermal.core", "athermal.majorization"]


# ------------------------------------------------------------------ inputs


def _gibbs(rng, n):
    w = np.exp(-rng.uniform(0.5, 2.0) * rng.uniform(0.0, 4.0, n))
    return w / w.sum()


def _plain(rng, n):
    g = _gibbs(rng, n)
    return rng.dirichlet(np.ones(n)), g


def _degenerate(rng, n, k=4):
    """n // k distinct levels, each used at least once, with tied r/g."""
    levels = max(2, n // k)
    which = np.concatenate([np.arange(levels), rng.integers(0, levels, n - levels)])
    g = _gibbs(rng, levels)[which]
    g /= g.sum()
    block = rng.dirichlet(np.ones(levels))
    return block[which] * g / np.bincount(which, weights=g)[which], g


def _gibbs_tail(rng, n):
    """Two top levels below an ulp of 1, with the two smallest ratios. The
    other Gibbs weights are dyadic and sum to exactly 1, so the prefix sum
    reaches 1 before the tail and the tail folds into (1, 1)."""
    scale = 2.0**40
    w = rng.integers(1, 2**20, n - 3).astype(float)
    w = np.append(w, scale - w.sum())
    g = np.append(w / scale, [2.0**-60, 2.0**-61])
    body = 0.5 * rng.dirichlet(np.ones(n - 2)) + 0.5 * g[:-2]
    return np.append(body, [1e-22, 0.0]), g


def _small_mass(rng, n):
    """Every level but the dominant one carries a mass down to 1e-15."""
    s = 10.0 ** rng.uniform(-15.0, -12.0)
    g_small = rng.dirichlet(np.ones(n - 1)) * s * 10.0 ** rng.uniform(-0.5, 0.5)
    r_small = rng.dirichlet(np.ones(n - 1)) * s
    return np.append(r_small, 1.0 - r_small.sum()), np.append(g_small, 1.0 - g_small.sum())


def _drift(rng, n):
    """A chain of ten near-tied ratios, each 0.3 COLLINEARITY_TOL below the
    last: every step is a tie, the whole chain is not."""
    r, g = _plain(rng, n)
    chain = np.arange(10)
    r[chain] = g[chain] * (r[0] / g[0]) * (1.0 - 0.3 * COLLINEARITY_TOL * chain)
    return r / r.sum(), g


def _exact_ties(rng, n):
    """Three blocks with r/g exactly 2, 1/2 and 1 and unequal weights within
    each, so prefix sums depend on the order of tied levels. Both vectors
    sum to exactly 1: no renormalisation breaks the ties."""
    a = n // 3
    w = rng.uniform(0.5, 1.5, n - a)
    g = np.concatenate((w[:a], 2.0 * w[:a], w[a:]))
    g /= g.sum()
    g[-1] = 1.0 - math.fsum(g[:-1])
    r = np.concatenate((2.0 * g[:a], g[:a], g[2 * a :]))
    assert math.fsum(g) == math.fsum(r) == 1.0
    return r, g


def _half(rng, n):
    """Two ratio blocks of Gibbs weight 1/2 each: the elbow between them sits
    at ordinate 1/2, which has no critical gap and is checked itself."""
    h = n // 2
    g = np.append(np.full(h, 0.5 / h), np.full(n - h, 0.5 / (n - h)))
    return np.append(np.full(h, 0.75 / h), np.full(n - h, 0.25 / (n - h))), g


def _infinite_ratios(rng, n):
    """An eighth of the Gibbs entries subnormal under normal populations, so
    their ratios r/g overflow to +inf, and a quarter of the populations zero:
    both ends of the ratio order are runs of exact ties."""
    r, g = _plain(rng, n)
    k, z = n // 8, n // 4
    g[:k] = rng.integers(1, 2**20, k) * 2.0**-1074
    r[k : k + z] = 0.0
    return r / r.sum(), g / g.sum()


CASES = {
    "plain": _plain,
    "degenerate": _degenerate,
    "gibbs_tail": _gibbs_tail,
    "small_mass": _small_mass,
    "drift": _drift,
    "exact_ties": _exact_ties,
    "half": _half,
    "infinite_ratios": _infinite_ratios,
}


def _pairs(case, n):
    """Forward and reversed partial thermalisations of one seeded input, with
    the raw vectors given as a list (r), a tuple (t) and a numpy array (g)."""
    rng = np.random.default_rng([n, list(CASES).index(case)])
    r, g = CASES[case](rng, n)
    lam = rng.uniform(0.2, 0.8)
    t = lam * r + (1.0 - lam) * g
    beta = float(rng.uniform(0.5, 2.0))
    r, t = r.tolist(), tuple(t.tolist())
    return [((r, g), (t, g), beta), ((t, g), (r, g), beta)]


def _chain(src, tgt, beta):
    s, t = validate_state(*src), validate_state(*tgt)
    vectors = [np.array(v.entries) for v in (s.r, s.g, t.r, t.g)]
    elbows = [np.array(compute_elbows(x).elbows) for x in (s, t)]
    verdicts = (relatively_majorizes(s, t), convertible_via_monotones(s, t, beta))
    return vectors, elbows, verdicts, monotones._failed_check(s, t, beta)


# ------------------------------------------------------------- equivalence


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", list(CASES))
def test_kernels_bit_identical(monkeypatch, case, n):
    for src, tgt, beta in _pairs(case, n):
        _force(monkeypatch, PURE_PYTHON)
        vectors, elbows, verdicts, witness = _chain(src, tgt, beta)
        _force(monkeypatch, NUMPY)
        vectors_np, elbows_np, verdicts_np, witness_np = _chain(src, tgt, beta)
        for a, b in zip(vectors + elbows, vectors_np + elbows_np):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert verdicts_np == verdicts
        assert all(type(v) is bool for v in verdicts_np)
        assert witness_np == witness
        assert (witness is None) is verdicts[1]


@pytest.mark.parametrize("n", (_NUMPY_MIN_DIM - 1, _NUMPY_MIN_DIM, 2048))
def test_gap_sets_identical(monkeypatch, n):
    """gap_set walks every piece of a tuple boundary and prunes the pieces of
    an array boundary in numpy first; both solve the rest with the same
    scalar steps, and find cooling, heating and inverted gap sets alike."""
    ratios = (-2.0, -0.5, 0.3, 1.5, 3.0)
    changes = 0
    for case in ("plain", "degenerate", "drift"):
        src, _, beta = _pairs(case, n)[0]
        results = []
        for threshold in (PURE_PYTHON, NUMPY):
            _force(monkeypatch, threshold)
            state = validate_state(*src)
            results.append([gap_set(state, beta, beta * a) for a in ratios])
        assert results[0] == results[1]
        e_max = -math.log(1e-10) / beta
        for out in results[1]:
            ends = [e for iv in out.intervals for e in (iv.lo, iv.hi)]
            assert all(type(e) is float for e in ends)
            changes += sum(0.0 < e < e_max for e in ends)
    assert changes >= 10


def test_gap_sets_identical_at_a_subnormal_w_min(monkeypatch):
    """exp(-beta*e_max) is subnormal at e_max = 740: the curve slope
    overflows at w_min for |a| < 1, silently in floats and in numpy alike."""
    src, _, _ = _pairs("plain", 150)[0]
    results = []
    for threshold in (PURE_PYTHON, NUMPY):
        _force(monkeypatch, threshold)
        state = validate_state(*src)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results.append([gap_set(state, 1.0, a, e_max=740.0) for a in (0.01, -0.01)])
    assert results[0] == results[1]


def test_gap_sets_identical_with_elbows_sharing_an_ordinate(monkeypatch):
    """Levels 0 and 1 of energies (0, 1, 50) swapped: the third level's Gibbs
    mass is below an ulp of the prefix sum, so its elbow would repeat the
    ordinate before it. Both builders keep one elbow there, and its single
    critical gap; gap sets come without a warning."""
    g = np.exp(-np.array([0.0, 1.0, 50.0]))
    g /= g.sum()
    results = []
    for threshold in (PURE_PYTHON, NUMPY):
        _force(monkeypatch, threshold)
        state = validate_state((g[1], g[0], g[2]), g)
        ys = compute_elbows(state).ys
        assert isinstance(ys, np.ndarray) is (threshold == NUMPY) and len(ys) == 3
        assert monotones.critical_energies(state, 1.0).entries == ((1, 1.0, "heating"),)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results.append([gap_set(state, 1.0, a) for a in (0.5, -0.5, -2.0, 1.5, 3.0)])
    assert results[0] == results[1]
    assert all(len(out.intervals) == 1 for out in results[0])


@pytest.mark.parametrize("n", (_NUMPY_MIN_DIM, 2048))
def test_subnormal_first_segment(monkeypatch, n):
    """The source's first segment is 1e-310 high and a third wide, so its
    slope overflows: np.interp gives inf on it, and `alphas_at` takes
    `alpha_at`'s quotient form there. Both paths find the target's first
    elbow, ordinate 2.5e-311, out of reach, with the same finite gap."""
    e = math.log(n - 1)
    src = ([2.0 / 3.0 / (n - 1)] * (n - 1) + [1.0 / 3.0],
           gibbs_vector([e] * (n - 1) + [713.8013788281542], 1.0).entries)
    tgt = ([0.25] + [0.75 / (n - 1)] * (n - 1),
           gibbs_vector([715.187673189274] + [e] * (n - 1), 1.0).entries)
    runs = []
    for threshold in (PURE_PYTHON, NUMPY):
        _force(monkeypatch, threshold)
        runs.append(_chain(src, tgt, 1.0))
    (vectors, elbows, verdicts, witness), (vectors_np, elbows_np, *rest) = runs
    for a, b in zip(vectors + elbows, vectors_np + elbows_np):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert rest == [verdicts, witness] and verdicts == (False, False)
    k, E, kind = witness
    assert (k, kind) == (1, "heating") and 715.18 < E < 715.19

    b = compute_elbows(validate_state(*src))
    y1 = float(b.ys[1])
    assert isinstance(b.ys, np.ndarray) and float(b.xs[1]) / y1 == math.inf
    ys = np.array([0.0, y1 / 4, y1 / 2, np.nextafter(y1, 0.0), y1, 0.5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alphas = majorization.alphas_at(b, ys)
        one = majorization.alphas_at(b, y1 / 4)
    assert alphas.tolist() == [alpha_at(b, y) for y in ys.tolist()]
    assert float(one) == alpha_at(b, y1 / 4) == pytest.approx(1 / 12, rel=1e-12)


@pytest.mark.parametrize("case", ["plain", "half"])
def test_forward_and_reverse_verdicts(case):
    (fwd, rev) = _pairs(case, 2048)
    for (src, tgt, beta), expected in ((fwd, True), (rev, False)):
        s, t = validate_state(*src), validate_state(*tgt)
        assert relatively_majorizes(s, t) is expected
        assert convertible_via_monotones(s, t, beta) is expected


def test_gibbs_tail_folds_into_endpoint():
    n = 2048
    (src, _, _), _ = _pairs("gibbs_tail", n)
    # n - 2 distinct body ratios: n - 3 interior elbows, none at y = 1.
    assert len(compute_elbows(validate_state(*src)).elbows) == n - 1


def test_drifting_chain_takes_the_sequential_pass(monkeypatch):
    _force(monkeypatch, NUMPY)
    (src, _, _), _ = _pairs("drift", 2048)
    state = validate_state(*src)
    assert majorization._elbows_by_numpy(state) is None
    assert majorization._elbows_by_numpy(validate_state(*_pairs("plain", 2048)[0][0])) is not None


def _near_ties(rng, n):
    """Runs of eight levels whose ratios r/g step down by 2e-15: each run is
    one segment of unequal ratios that does not drift."""
    r, g = _plain(rng, n)
    for start in range(0, n - 8, max(16, n // 8)):
        run = np.arange(start, start + 8)
        r[run] = g[run] * (r[start] / g[start]) * (1.0 - 2e-15 * np.arange(8))
    return r / r.sum(), g


def _sub_ulp_runs(rng, n):
    """Runs of eight levels with exactly tied ratios and Gibbs masses near
    2**-100, below an ulp of the prefix sum: each run's elbow repeats the
    ordinate of the elbow before it. The masses are powers of two, so the
    products and every renormalization keep the ties exact."""
    r, g = _plain(rng, n)
    for start in range(0, n - 8, max(16, n // 8)):
        run = np.arange(start, start + 8)
        g[run] = 2.0 ** -rng.integers(100, 110, 8).astype(float)
        r[run] = g[run] * rng.uniform(0.5, 2.0)
    return r / r.sum(), g / g.sum()


CENSUS = {
    "plain": _plain,
    "degenerate": _degenerate,
    "exact_ties": _exact_ties,
    "near_ties": _near_ties,
    "sub_ulp_runs": _sub_ulp_runs,
    "gibbs_tail": _gibbs_tail,
}


def _sorted_ratio_census(r, g):
    """(exact ties, unequal ratios merged, segments) of the sorted ratios."""
    sr = np.sort(np.asarray(r) / np.asarray(g))[::-1]
    start = sr[1:] < sr[:-1] * (1.0 - COLLINEARITY_TOL)
    tied = sr[1:] == sr[:-1]
    return int(tied.sum()), int((~start & ~tied).sum()), int(start.sum()) + 1


@pytest.mark.parametrize("n", (_NUMPY_MIN_DIM, 150, 2048, 20_000))
@pytest.mark.parametrize("family", list(CENSUS))
def test_boundary_census(monkeypatch, family, n):
    """`_elbows_by_numpy` against the scalar pass, bit for bit, on three
    seeded inputs of each family and their partial thermalisations: exact
    tied runs (the tie order), near ties that merge without drifting (the
    full drift check), and sub-ulp runs and Gibbs tails (elbows that share an
    ordinate or reach 1)."""
    for seed in range(3):
        rng = np.random.default_rng([n, seed, list(CENSUS).index(family)])
        r, g = CENSUS[family](rng, n)
        ties, near, segments = _sorted_ratio_census(r, g)
        lam = rng.uniform(0.2, 0.8)
        elbows = []
        for raw in ((r, g), (lam * r + (1.0 - lam) * g, g)):
            _force(monkeypatch, NUMPY)
            state = validate_state(*(v.tolist() for v in raw))
            fast = majorization._elbows_by_numpy(state)
            _force(monkeypatch, PURE_PYTHON)
            scalar = majorization._build_elbows(state)
            assert fast is not None and isinstance(fast.xs, np.ndarray)
            for a, b in ((fast.xs, scalar.xs), (fast.ys, scalar.ys)):
                assert a.tobytes() == np.array(b).tobytes()
            elbows.append(len(scalar.xs))
        if family in ("degenerate", "exact_ties", "sub_ulp_runs"):
            assert ties > 0
        if family == "near_ties":
            assert near > 0
        if family in ("sub_ulp_runs", "gibbs_tail"):
            assert elbows[0] < segments + 1


def test_switch_at_threshold():
    for n, on_numpy in ((_NUMPY_MIN_DIM - 1, False), (_NUMPY_MIN_DIM, True)):
        state = validate_state(*_pairs("plain", n)[0][0])
        assert isinstance(state.r._stored, tuple) is not on_numpy
        boundary = compute_elbows(state)
        assert isinstance(boundary.xs, tuple) is not on_numpy
        assert isinstance(boundary.ys, tuple) is not on_numpy


def test_array_boundary_builds_no_views(monkeypatch):
    """A boundary built in numpy is compared in numpy: the checks and both
    decisions leave its pairs and tuples unbuilt."""
    built = []

    def recording(state):
        built.append(compute_elbows(state))
        return built[-1]

    for module in (majorization, monotones):
        monkeypatch.setattr(module, "compute_elbows", recording)
    vectors = []
    for case in ("plain", "half"):
        for src, tgt, beta in _pairs(case, 2048):
            s, t = validate_state(*src), validate_state(*tgt)
            monotones._checks(recording(t))
            relatively_majorizes(s, t)
            convertible_via_monotones(s, t, beta)
            monotones.critical_energies(t, beta)
            vectors += [s.r, s.g, t.r, t.g]
    assert len(built) == 2 * 2 * 6  # cases * pairs * boundaries per pair
    for boundary in built:
        assert not isinstance(boundary.xs, tuple)
        assert not {"elbows", "_tuples"} & vars(boundary).keys()
    for vector in vectors:  # nor the vectors their tuples
        assert "entries" not in vars(vector)


# -------------------------------------------------------- validation parity


def _with(values, changes):
    out = list(values)
    for i, x in changes.items():
        out[i] = x
    return out


class _Float(float):
    pass


def _spread(values, kinds):
    """values with about 16 entries, evenly spaced from index 1 on and so in
    every pack block, turned into the kinds in turn, each made from the float
    it replaces."""
    out = list(values)
    for k, i in enumerate(range(1, len(out), max(1, len(out) // 16))):
        out[i] = kinds[k % len(kinds)](out[i])
    return out


def _bad_inputs(n):
    """(r, g) pairs, each with one defect (two where the first must be named:
    NaN before a negative entry, a negative entry before NaN, +inf before
    -inf), and valid pairs with entries of other kinds than float: a string,
    and the kinds `struct` packs as `float` reads them (`_packed_inputs`)."""
    flat = [1.0 / n] * n
    nan, inf = float("nan"), float("inf")
    mid = n // 2
    return {
        "nan": (_with(flat, {1: nan, n - 1: -1.0}), flat),
        "+inf": (_with(flat, {1: inf}), flat),
        "-inf": (_with(flat, {n - 1: -inf}), flat),
        "negative": (_with(flat, {1: -0.25, n - 1: nan}), flat),
        "sum": ([1.5 / n] * n, flat),
        "sum_1e-6": (_with(flat, {0: 1.0 / n + 1e-6}), flat),
        "overflow": ([1e308] * n, flat),
        "+inf_-inf": (_with(flat, {1: inf, n - 1: -inf}), flat),
        "zero_gibbs": (flat, _with(flat, {0: 0.0, 1: 2.0 / n})),
        "length": (flat, [1.0 / (n - 1)] * (n - 1)),
        "string": (_with([0.5 / (n - 1)] * n, {n - 1: "0.5"}), flat),
        "not_a_number": (_with(flat, {1: "x"}), flat),
        "none": (flat, _with(flat, {1: None})),
        "nested": (_with(flat, {1: [0.5 / n, 0.5 / n]}), flat),
        "huge_int": (flat, _with(flat, {n - 1: 10**400})),
        "none_mid": (_with(flat, {mid: None}), flat),
        **_packed_inputs(n),
    }


def _packed_inputs(n):
    """Valid pairs whose entries `struct` packs: fractions, decimals, numpy
    scalars and a float subclass worth 1/n each, and pure states of int,
    bool, numpy and -0.0 zeros with a one of another kind."""
    kinds = _spread([1.0 / n] * n, (Fraction, Decimal, _Float, np.float64))
    zeros = _spread([0.0] * n, (int, np.int64, bool, float.__neg__, np.float32))
    halves = _with(zeros, {0: np.float32(0.5), n - 1: np.float32(0.5)})
    return {
        "kinds": (kinds, [1.0 / n] * n),
        "bool_one": (_with(zeros, {0: True}), kinds),
        "int_one": (_with(zeros, {n // 2: np.int64(1)}), kinds),
        "float32_halves": (halves, kinds),
    }


def _outcome(monkeypatch, threshold, r, g):
    """The validated entries, or the type and message of the error raised."""
    _force(monkeypatch, threshold)
    try:
        state = validate_state(r, g)
    except (TypeError, ValueError, OverflowError) as exc:  # AthermalError is a ValueError
        return type(exc), str(exc)
    return state.r.entries, state.g.entries


def _float_error(x):
    with pytest.raises((TypeError, ValueError, OverflowError)) as info:
        float(x)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("n", (3, _NUMPY_MIN_DIM, 5000, 2 * core._PACK_BLOCK + 3))
def test_validation_errors_match(monkeypatch, n):
    bad = _bad_inputs(n)
    expected = {
        "nan": (NonFiniteEntry, "non-finite entry nan"),
        "+inf": (NonFiniteEntry, "non-finite entry inf"),
        "-inf": (NonFiniteEntry, "non-finite entry -inf"),
        "negative": (NegativeEntry, "negative entry -0.25"),
        "sum": (NormalizationOutOfTolerance, None),
        "sum_1e-6": (
            NormalizationOutOfTolerance,
            f"entries sum to {math.fsum(bad['sum_1e-6'][0])!r}, off by more than 1e-09",
        ),
        "overflow": (
            NormalizationOutOfTolerance, "entries sum to inf, off by more than 1e-09"
        ),
        # fsum raises ValueError on inf - inf: the loop names the first
        "+inf_-inf": (NonFiniteEntry, "non-finite entry inf"),
        "zero_gibbs": (RankDeficientGibbs, "Gibbs vector must be strictly positive"),
        "length": (DimensionMismatch, f"population dim {n} != Gibbs dim {n - 1}"),
        "string": None,  # valid
        # float()'s own error, whose wording varies with the Python version
        "not_a_number": _float_error("x"),
        "none": _float_error(None),
        "nested": _float_error([]),
        "huge_int": _float_error(10**400),
        "none_mid": _float_error(None),
        **dict.fromkeys(_packed_inputs(n)),  # valid
    }
    for name, (r, g) in bad.items():
        scalar = _outcome(monkeypatch, PURE_PYTHON, r, g)
        vector = _outcome(monkeypatch, NUMPY, r, g)
        assert vector == scalar, name
        if expected[name] is None:
            assert all(type(entries) is tuple for entries in scalar), name
            state = validate_state(r, g)  # still forced onto the numpy path
            assert isinstance(state.r._stored, np.ndarray), name
            assert isinstance(state.g._stored, np.ndarray), name
            continue
        kind, message = expected[name]
        assert scalar[0] is kind, name
        if message is not None:
            assert scalar[1] == message, name


# --------------------------------------------------- exact sum of the array


def _masses(rng, n):
    """Dirichlet masses, a third of them scaled down by up to 1e-300, and one
    subnormal entry, renormalized in numpy so that the total is near 1 but
    not always 1 and the scalar loop divides."""
    w = rng.dirichlet(np.ones(n))
    small = rng.random(n) < 1.0 / 3.0
    w[small] *= 10.0 ** -rng.uniform(0.0, 300.0, small.sum())
    w[1] = 3 * 2.0**-1074
    return w / w.sum()


def _mixed(values):
    """The values as floats, exact Fractions, Decimals, numpy scalars and a
    float subclass in turn, in a list."""
    kinds = itertools.cycle((float, Fraction, Decimal, np.float64, _Float))
    return [kind(x) for kind, x in zip(kinds, values)]


def _strings(values):
    return [repr(x) for x in values]


@pytest.mark.parametrize("kind", [list, tuple, np.array, _mixed, _strings])
@pytest.mark.parametrize("n", (_NUMPY_MIN_DIM, 2048, 2 * core._PACK_BLOCK + 3, 20_000))
def test_validation_parity_by_input_kind(monkeypatch, kind, n):
    for seed in range(3):
        raw = kind(_masses(np.random.default_rng([n, seed]), n).tolist())
        _force(monkeypatch, PURE_PYTHON)
        scalar = core.ProbabilityVector(raw)
        _force(monkeypatch, NUMPY)
        vector = core.ProbabilityVector(raw)
        assert isinstance(vector._stored, np.ndarray)
        assert np.array(vector.entries).tobytes() == np.array(scalar.entries).tobytes()
        assert min(x for x in vector.entries if x > 0.0) < 1e-300


@pytest.mark.parametrize("n", (_NUMPY_MIN_DIM, 2 * core._PACK_BLOCK + 3))
def test_only_refused_entries_are_read_by_fromiter(monkeypatch, n):
    """Every kind of entry but a string is packed; one string in the last
    block sends the whole list to `np.fromiter`, which reads the same values."""
    fromiter, calls = np.fromiter, []

    def spy(*args, **kwargs):
        calls.append(len(args[0]))
        return fromiter(*args, **kwargs)

    monkeypatch.setattr(np, "fromiter", spy)
    _force(monkeypatch, NUMPY)
    values = _masses(np.random.default_rng(n), n).tolist()
    packed = [tuple(values), _mixed(values)]
    packed += [v for pair in _packed_inputs(n).values() for v in pair]
    for raw in packed:
        assert isinstance(core.ProbabilityVector(raw)._stored, np.ndarray)
    assert calls == []
    vector = core.ProbabilityVector(_with(values, {n - 1: repr(values[-1])}))
    assert calls == [n]
    assert vector.array.tobytes() == core.ProbabilityVector(values).array.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5000),
    st.integers(0, 2**32 - 1),
    st.floats(-1074.0, 0.0),
    st.floats(0.0, 1.0),
    st.booleans(),
)
def test_exact_sum_is_fsum_or_none(n, seed, floor, zeros, normalize):
    """Entries from 2**floor (subnormal at the far end) up to 1, a share of
    them zero; raw, or divided by their float sum as validation sees them."""
    rng = np.random.default_rng(seed)
    a = rng.random(n) * 2.0 ** rng.uniform(floor, 0.0, n)
    a[rng.random(n) < zeros] = 0.0
    if normalize and a.sum() > 0.0:
        a /= a.sum()
    total = core._exact_sum(a)
    assert total is None or total == math.fsum(a.tolist())


@pytest.mark.parametrize("n", (_NUMPY_MIN_DIM, 2048, 20_000, 100_000))
def test_exact_sum_decides_validated_inputs(n):
    """No fallback on the inputs the numpy path sees: spread masses, masses
    down to 1e-300, and one dominant level."""
    rng = np.random.default_rng(n)
    dominant = rng.dirichlet(np.ones(n)) * 1e-6
    dominant[0] += 1.0 - dominant.sum()
    for a in (rng.dirichlet(np.ones(n)), _masses(rng, n), dominant):
        assert core._exact_sum(a) == math.fsum(a.tolist())


# Totals on, and within 1e-30 of, the rounding midpoints next to 1.0: the
# one below, 1 - 2**-54 (the float gap below 1.0 is half the one above),
# and the one above, 1 + 2**-53. 2048 entries of 2**-11 make 1.0 exactly.
_ONE_SPLIT = [2.0**-11] * 2048
_MIDPOINTS = {
    "below_one": _ONE_SPLIT[1:] + [2.0**-11 - 2.0**-53, 2.0**-54],
    "below_one_minus": _ONE_SPLIT[1:] + [2.0**-11 - 2.0**-53, 2.0**-54 - 1e-30],
    "below_one_plus": _ONE_SPLIT[1:] + [2.0**-11 - 2.0**-53, 2.0**-54 + 1e-30],
    "above_one": _ONE_SPLIT + [2.0**-53],
    "above_one_minus": _ONE_SPLIT + [2.0**-53 - 1e-30],
    "above_one_plus": _ONE_SPLIT + [2.0**-53 + 1e-30],
}
_MIDPOINT_TOTALS = {
    "below_one": 1.0,  # a tie, to even
    "below_one_minus": 1.0 - 2.0**-53,
    "below_one_plus": 1.0,
    "above_one": 1.0,  # a tie, to even
    "above_one_minus": 1.0,
    "above_one_plus": 1.0 + 2.0**-52,
}


@pytest.mark.parametrize("short", [False, True])
def test_exact_sum_at_rounding_midpoints(short):
    """At 2049 entries the remainders' error bound, 2**-80, is wider than
    1e-30, so every midpoint total falls back. With the first 2047 entries
    folded into one, 3 entries, it is 2**-100: the totals 1e-30 off a
    midpoint are decided, and fsum's, and a tie still falls back."""
    for name, entries in _MIDPOINTS.items():
        if short:
            entries = [math.fsum(entries[:-2])] + entries[-2:]
        assert math.fsum(entries) == _MIDPOINT_TOTALS[name], name
        a = np.random.default_rng(len(name)).permutation(entries)
        tie = name in ("below_one", "above_one")
        expected = _MIDPOINT_TOTALS[name] if short and not tie else None
        assert core._exact_sum(a) == expected, name


@pytest.mark.parametrize("name", list(_MIDPOINTS))
def test_validation_falls_back_to_fsum_at_a_midpoint(monkeypatch, name):
    raw = _MIDPOINTS[name]
    _force(monkeypatch, PURE_PYTHON)
    scalar = core.ProbabilityVector(raw)
    _force(monkeypatch, NUMPY)
    exact, fsums = [], []
    exact_sum, fsum = core._exact_sum, math.fsum

    def exact_spy(a):
        exact.append(exact_sum(a))
        return exact[-1]

    def fsum_spy(xs):
        fsums.append(fsum(xs))
        return fsums[-1]

    monkeypatch.setattr(core, "_exact_sum", exact_spy)
    monkeypatch.setattr(math, "fsum", fsum_spy)
    vector = core.ProbabilityVector(raw)
    assert exact == [None] and fsums == [_MIDPOINT_TOTALS[name]]
    assert isinstance(vector._stored, np.ndarray)
    assert np.array(vector.entries).tobytes() == np.array(scalar.entries).tobytes()
