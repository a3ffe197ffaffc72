import math
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from galmax import certify, ecff, nt, numfield as nf
from galmax.errors import BadReductionError, InvalidInputError, ResourceCapError, SingularCurveError
from weierstrass import invariants, short_model


def test_validate():
    assert ecff.validate(1, 1).delta == -496
    with pytest.raises(SingularCurveError):
        ecff.validate(0, 0)
    with pytest.raises(SingularCurveError):
        ecff.validate(-3, 2)


def test_normalize_short_input_is_identity():
    E = short_model(0, 0, 0, Fraction(3), Fraction(-2))
    assert (E.a, E.b) == (3, -2)


def test_normalize_completion():
    # y^2 + xy = x^3 - x  (a1=1, a4=-1)
    L = (Fraction(1), Fraction(0), Fraction(0), Fraction(-1), Fraction(0))
    E, inv = short_model(*L), invariants(*L)
    # same j both ways, discriminants differ by a 12th power
    assert inv.j == j_invariant(E)
    ratio = Fraction(E.delta) / inv.disc
    assert ratio == 6**12


def test_normalize_long_model_over_cubic_field():
    K = nf.MonogenicField([1, 1, 0, 1])
    a = K.alpha()
    L = (K.elem([2]), K.elem([-1]), a, K.elem([]), K.elem([]))
    E, inv = short_model(*L), invariants(*L)
    assert E.a.coeffs == (0, 1296, 0)
    assert E.b.coeffs == (0, 0, 11664)
    short = invariants(0, 0, 0, E.a, E.b)
    assert (inv.c4 * inv.c4 * inv.c4 * short.disc - short.c4 * short.c4 * short.c4 * inv.disc).is_zero()  # same j
    # Delta of the long model is -64 alpha^3 - 27 alpha^4 = 64 + 91 alpha + 27 alpha^2
    assert inv.disc.coeffs == (64, 91, 27)


def exhaustive_point_count(p, a, b):
    n = 1
    for x in range(p):
        for y in range(p):
            if (y * y - (x**3 + a * x + b)) % p == 0:
                n += 1
    return n


def j_invariant(E):
    """j of a short model, through the long-model formula c4^3 / Delta."""
    return invariants(0, 0, 0, E.a, E.b).j


def point_count(p, a, b):
    """(#E(F_p), a_p), read off the one-curve run of batch_curve_data."""
    ap = int(ecff.batch_curve_data(p, [a % p], [b % p])[0][0])
    return p + 1 - ap, ap


class Signature(NamedTuple):
    ap: int
    cubic_pattern: tuple
    psi3_pattern: tuple
    has_3pt: bool


def signatures(p, A, B):
    """certify.signature_columns(p, A, B), one Signature per curve."""
    ap, cubic, psi3, flag = (col.tolist() for col in certify.signature_columns(p, A, B))
    return [Signature(t, certify.CUBIC_PATTERNS[i], certify.PSI3_PATTERNS[j], bool(f))
            for t, i, j, f in zip(ap, cubic, psi3, flag)]


def signature(p, a, b):
    """The signature engine's output for one curve at p."""
    return signatures(p, [a % p], [b % p])[0]


def test_point_count_f5():
    assert point_count(5, 1, 1) == (9, -3)


@pytest.mark.parametrize("p,a,b", [(5, 1, 1), (7, 2, 3), (11, 4, 1), (13, 1, 6)])
def test_point_count_vs_exhaustive(p, a, b):
    N, ap = point_count(p, a, b)
    assert N == exhaustive_point_count(p, a, b)
    assert ap == p + 1 - N
    assert ap * ap <= 4 * p


def test_point_count_rejects_bad_reduction():
    with pytest.raises(BadReductionError):
        point_count(31, 0, 0)
    with pytest.raises(InvalidInputError):
        point_count(3, 1, 1)


def test_twist_antisymmetry():
    for p in (13, 29, 101):
        u = next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)
        for a, b in [(1, 1), (2, 3)]:
            _, ap = point_count(p, a, b)
            _, ap_tw = point_count(p, u * u * a % p, pow(u, 3, p) * b % p)
            assert ap_tw == -ap


def test_isomorphism_invariance():
    p = 101
    for u in (2, 3, 7):
        N1, _ = point_count(p, 1, 1)
        N2, _ = point_count(p, pow(u, 4, p), pow(u, 6, p))
        assert N1 == N2
        assert signature(p, 1, 1).cubic_pattern == signature(p, pow(u, 4, p), pow(u, 6, p)).cubic_pattern


def test_cubic_type():
    assert signature(7, -1, 0).cubic_pattern == (1, 1, 1)  # x^3 - x = x(x-1)(x+1)
    assert signature(5, 0, 1).cubic_pattern == (2, 1)  # x^3 + 1 = (x+1)(x^2-x+1), quadratic inert mod 5
    assert signature(5, 1, 1).cubic_pattern == (3,)


def test_cubic_type_distribution_near_class_proportions():
    # proportions approach (1/6, 1/2, 1/3) — here via the exact family counts
    p = 199
    counts = ecff.omega_counts_mod2(p)
    total = p * p - p
    assert abs(counts[(1, 1, 1)] / total - 1 / 6) < 0.01
    assert abs(counts[(2, 1)] / total - 1 / 2) < 0.01
    assert abs(counts[(3,)] / total - 1 / 3) < 0.01


def test_psi3_type_degrees_partition_four():
    for p in (7, 11, 13):
        for a in range(4):
            for b in range(1, 4):
                if (3 * ecff.discriminant(a, b)) % p == 0:
                    continue
                sig = signature(p, a, b)
                pattern, has_pt = sig.psi3_pattern, sig.has_3pt
                assert sum(pattern) == 4
                if has_pt:
                    N, _ = point_count(p, a, b)
                    assert N % 3 == 0  # rational 3-torsion point forces 3 | N


def test_psi3_type_example():
    # psi3 of E(0,1) over F_7 is 3x^4 + 12x = 3x(x^3 + 4); x^3 + 4 has no root mod 7
    sig = signature(7, 0, 1)
    assert sig.psi3_pattern == (3, 1)
    assert sig.has_3pt  # x0 = 0 gives y^2 = 1


def reference_signature(p, a, b):
    """(a_p, cubic pattern, psi3 pattern, has_3pt) without the signature engine:
    brute-force point count, distinct-degree factorization, and a direct scan
    of the quartic's roots."""
    ap = p + 1 - exhaustive_point_count(p, a, b)
    cubic = tuple(nt.factor_degrees_mod_p([b, a, 0, 1], p))
    inv3 = pow(3, -1, p)
    quartic = [-a * a * inv3, 4 * b, 2 * a, 0, 1]  # psi3 / 3, monic
    psi3 = tuple(nt.factor_degrees_mod_p(quartic, p))
    roots = [x for x in range(p) if sum(c * x**i for i, c in enumerate(quartic)) % p == 0]
    has_3pt = any(nt.kronecker(x**3 + a * x + b, p) == 1 for x in roots)
    return ap, cubic, psi3, has_3pt


@pytest.mark.parametrize("batch", [1, 7001])
def test_signature_engine_matches_brute_force(batch):
    # 7001 curves do not fill a whole number of x blocks, so the last block is
    # ragged.  At p = 5, 7 and 13 every nonsingular pair is checked, so each
    # splitting pattern is met at p = 1 and at p = 2 mod 3.
    rng = random.Random(batch)
    seen = set()
    for p in (5, 7, 11, 13, 101, 499):
        every = [(a, b) for a in range(p) for b in range(p) if ecff.discriminant(a, b) % p] if p in (5, 7, 13) else []
        pairs = list(every)
        while len(pairs) < max(batch, 30):
            a, b = rng.randrange(p), rng.randrange(p)
            if ecff.discriminant(a, b) % p:
                pairs.append((a, b))
        sigs = []
        for k in range(0, len(pairs), batch):
            A, B = (np.array(col, dtype=np.int64) for col in zip(*pairs[k : k + batch]))
            sigs += signatures(p, A, B)
        assert len(sigs) == len(pairs)
        engine = {}
        for ab, s in zip(pairs, sigs):
            # a pair repeated in the batch must repeat its signature
            assert engine.setdefault(ab, s) == s
        for a, b in every or list(engine)[:30]:
            ref = reference_signature(p, a, b)
            assert engine[a, b] == ref, (p, a, b)
            ap, cubic, psi3, _ = ref
            seen |= {(p % 3, cubic), (p % 3, psi3)}
            if psi3 == (3, 1) and (p + 1 - ap) % 9 == 0:
                seen.add((p % 3, "(3,1) with 9 | #E"))
    # (1,1,1,1) is scalar Frobenius on E[3]; (3,1) with 9 | #E is a candidate
    # for scalar Frobenius that the second psi3 sweep turns down
    assert seen >= {(r, c) for r in (1, 2) for c in certify.CUBIC_PATTERNS}
    assert seen >= {(1, (1, 1, 1, 1)), (1, (3, 1)), (1, (2, 2)), (1, "(3,1) with 9 | #E"), (2, (2, 1, 1)), (2, (4,))}


def test_rootless_psi3_splits_by_p_mod_3():
    # Frobenius permutes the four lines of E[3] through PGL2(F_3) = S4, with
    # the sign of det = p mod 3, so a rootless psi3 is (2,2) at p = 1 mod 3
    # and (4) at p = 2 mod 3
    rng = random.Random(3)
    rootless = set()
    for p in [q for q in nt.primes_up_to(2000) if q >= 5]:
        inv3 = pow(3, -1, p)
        pairs = [(a, b) for a, b in ((rng.randrange(p), rng.randrange(p)) for _ in range(8)) if ecff.discriminant(a, b) % p]
        sigs = signatures(p, *(np.array(col, dtype=np.int64) for col in zip(*pairs)))
        for (a, b), s in zip(pairs, sigs):
            degrees = tuple(nt.factor_degrees_mod_p([-a * a * inv3, 4 * b, 2 * a, 0, 1], p))
            assert s.psi3_pattern == degrees, (p, a, b)
            if 1 not in degrees:
                assert degrees == ((2, 2) if p % 3 == 1 else (4,)), (p, a, b)
                rootless.add(p % 3)
    assert rootless == {1, 2}


def test_curve_columns_of_a_huge_coefficient_match_brute_force():
    # B = 10^84 + 1 is far outside int64: the prime axis reduces it mod p first
    a, b = 1, 10**84 + 1
    rows = certify.collect_signatures(ecff.validate(Fraction(a), Fraction(b)), certify.CertParams(prime_bound=200))
    cols = certify.SignatureColumns.of_rows(rows)
    good = [p for p in nt.primes_up_to(200) if p >= 5 and ecff.discriminant(a, b) % p]
    assert cols.p.tolist() == good and (cols.root == -1).all()
    for p, ap, cubic, psi3, flag in zip(*(col.tolist() for col in (cols.p, cols.ap, cols.cubic, cols.psi3, cols.flag))):
        engine = (ap, certify.CUBIC_PATTERNS[cubic], certify.PSI3_PATTERNS[psi3], bool(flag))
        assert engine == reference_signature(p, a % p, b % p), p


def test_batch_with_one_singular_curve_raises():
    A = np.array([1, 2, 0, 3], dtype=np.int64)
    B = np.array([1, 5, 0, 4], dtype=np.int64)
    with pytest.raises(BadReductionError):
        ecff.batch_curve_data(11, A, B)
    with pytest.raises(BadReductionError):
        certify.signature_columns(11, A, B)
    assert (ecff.discriminant(A, B) % 11 == 0).tolist() == [False, False, True, False]


def _mixed_cells(rng, primes, roots_per_prime):
    """Cells (p, A mod p, B mod p) for some primes: Q-style cells (one curve
    per prime) when roots_per_prime is 1, field-style cells (several reduced
    curves share one p) otherwise, plus at each p = 1 mod 3 a cell whose
    Frobenius passes the scalar test and reaches the second psi3 sweep."""
    cells = []
    for p in primes:
        pairs = []
        while len(pairs) < roots_per_prime:
            a, b = rng.randrange(p), rng.randrange(p)
            if ecff.discriminant(a, b) % p:
                pairs.append((a, b))
        if p % 3 == 1:
            for a, b in ((a, b) for a in range(p) for b in range(p) if ecff.discriminant(a, b) % p):
                ap = point_count(p, a, b)[1]
                if ap % 3 and (p + 1 + (ap if ap % 3 == 1 else -ap)) % 9 == 0:
                    pairs.append((a, b))
                    break
        cells += [(p, a, b) for a, b in pairs]
    return cells


@pytest.mark.parametrize("batch_cells,roots_per_prime,order", [
    pytest.param(batch, roots, order, id=f"{batch}-{roots}" + "-prime" * (order == "prime"))
    for batch in (ecff.BATCH_CELLS, 50) for roots in (1, 3) for order in ("shuffled", "prime")
])
def test_mixed_prime_cells_match_one_call_per_prime(monkeypatch, roots_per_prime, batch_cells, order):
    # one call over cells of many primes (in prime order, as a stream feeds
    # them, or in any other; in one run or in many, each swept in one block
    # or in many) gives each cell the columns of its own prime's call
    rng = random.Random(roots_per_prime)
    primes = [5, 7, 13, 19, 31, 37, 43, 97, 101, 211, 499, 1009]
    cells = _mixed_cells(rng, primes, roots_per_prime)
    if order == "shuffled":
        rng.shuffle(cells)
    p, A, B = (np.array(col, dtype=np.int64) for col in zip(*cells))
    runs, run_data = [], ecff._run_data
    monkeypatch.setattr(ecff, "_run_data", lambda q, a, b: runs.append(np.ndim(q)) or run_data(q, a, b))
    monkeypatch.setattr(ecff, "BATCH_CELLS", batch_cells)
    mixed = ecff.batch_curve_data(p, A, B)
    columns = certify.signature_columns(p, A, B)
    monkeypatch.setattr(ecff, "BATCH_CELLS", 1 << 16)
    if order == "prime":  # the kernel's run split; np.ndim 0: a run swept with an int p
        assert set(runs) == ({1} if batch_cells == 1 << 16 else {0, 1})
    for q in primes:
        at = np.flatnonzero(p == q)
        single = (*ecff.batch_curve_data(q, A[at], B[at]), *certify.signature_columns(q, A[at], B[at]))
        for got, want in zip((*mixed, *columns), single):
            assert got[at].tolist() == want.tolist(), q
    ap, t = mixed[0], mixed[0] % 3
    swept = (p % 3 == 1) & (t != 0) & ((p + 1 + np.where(t == 1, ap, -ap)) % 9 == 0)
    assert swept.sum() >= sum(q % 3 == 1 for q in primes)
    assert set(mixed[2][swept].tolist()) == {1, 4}  # scalar Frobenius met, and turned down


def test_mixed_prime_cells_check_every_prime():
    A, B = [1, 1, 1], [1, 1, 1]
    for p in ([7, 11, 9], [7, 3, 11], [7, 1, 11], [7, -7, 11]):
        with pytest.raises(InvalidInputError):
            ecff.batch_curve_data(np.array(p), A, B)
        with pytest.raises(InvalidInputError):
            certify.signature_columns(np.array(p), A, B)


def test_no_cells_give_empty_columns():
    # an empty per-cell prime array gives the four empty columns of one int prime
    empty = np.array([], dtype=np.int64)
    for kernel in (ecff.batch_curve_data, certify.signature_columns):
        got, want = kernel(empty, empty, empty), kernel(7, empty, empty)
        assert len(got) == 4 and all(col.shape == (0,) for col in got)
        assert [col.dtype for col in got] == [col.dtype for col in want]
    with pytest.raises(InvalidInputError):  # one prime per cell, not fewer
        ecff.batch_curve_data(empty, [1], [1])
    with pytest.raises(InvalidInputError):
        ecff.batch_curve_data(np.array([7, 11]), [1, 1, 1], [1, 1, 1])


def test_mixed_prime_cells_name_the_singular_cell():
    # cell 2 is singular at its prime 13; the other cells are good at theirs
    p = np.array([7, 11, 13, 17])
    A, B = [1, 1, 1, 1], [1, 1, 1, 1]
    A[2], B[2] = next((a, b) for a in range(1, 13) for b in range(1, 13) if ecff.discriminant(a, b) % 13 == 0)
    for kernel in (ecff.batch_curve_data, certify.signature_columns):
        with pytest.raises(BadReductionError, match=r"p=13\b"):
            kernel(p, A, B)


def test_quartic_split_arrays_match_scalar_path():
    # the scalar (Python int) path is the reference for the int64 array path
    rng = random.Random(7)
    for p in (5, 7, 101, 499):
        a = [rng.randrange(p) for _ in range(30)]
        b = [rng.randrange(p) for _ in range(30)]
        mod_polys = [[x, y, (x * y) % p, (x + y) % p, 1] for x, y in zip(a, b)]
        columns = [np.array(col, dtype=np.int64) for col in zip(*mod_polys)]
        e = rng.randrange(p * p, p**3)
        by_array = nt.x_pow_mod(e, columns, p)
        for k, mod_poly in enumerate(mod_polys):
            assert [int(c[k]) for c in by_array] == nt.x_pow_mod(e, mod_poly, p)


def singular_pair_count(p):
    """#{(r, s): Delta_{r,s} = 0} from the family-scan grid; p for p >= 5
    (parametrized by the double root: (r, s) = (-3t^2, 2t^3))."""
    r = np.arange(p)
    return int((ecff._disc_mod(p, r[:, None], r) == 0).sum())


def test_singular_pair_count_equals_p():
    for p in (5, 11, 101):
        assert singular_pair_count(p) == p


def test_omega_counts_closed_forms():
    """Independent oracle: the exact class counts have closed forms obtained
    by counting cubics with prescribed roots (derivation in the test suite):
    N_split = (p-1)(p-2)/6, N_one = p(p-1)/2, N_irred = (p^2-1)/3."""
    for p in (5, 7, 101, 199):
        counts = ecff.omega_counts_mod2(p)
        assert counts[(1, 1, 1)] == (p - 1) * (p - 2) // 6
        assert counts[(2, 1)] == p * (p - 1) // 2
        assert counts[(3,)] == (p * p - 1) // 3
        assert sum(counts.values()) == p * p - p


def test_omega_count_single_class_and_partition():
    p = 101
    counts = ecff.omega_counts_mod2(p)
    total = sum(counts[pat] for pat in [(1, 1, 1), (2, 1), (3,)])
    assert total + singular_pair_count(p) == p * p
    assert abs(counts[(1, 1, 1)] / p**2 - 1 / 6) <= 32 / math.sqrt(p)


def test_family_scan_cap():
    with pytest.raises(ResourceCapError):
        ecff.omega_counts_mod2(2003)
    with pytest.raises(ResourceCapError):
        ecff.weil_count(2, 1, 2003)


def test_weil_count_r1_counts_all_nonzero():
    for p in (13, 29):
        count, _ = ecff.weil_count(1, 1, p)
        assert count == p * p - p


def test_weil_count_r2_vs_direct_scan():
    p = 13
    direct = 0
    squares = {(c * c) % p for c in range(1, p)}
    for a in range(p):
        for b in range(p):
            d = ecff.discriminant(a, b) % p
            if d != 0 and d in squares:
                direct += 1
    count, dev = ecff.weil_count(2, 1, p)
    assert count == direct == 78
    assert dev == abs(count - p * p / 2) / p**1.5


def test_weil_count_gamma_power_invariance():
    p, r = 13, 3
    u = 2
    for gamma in (1, 2, 5):
        c1, _ = ecff.weil_count(r, gamma, p)
        c2, _ = ecff.weil_count(r, gamma * pow(u, r, p) % p, p)
        assert c1 == c2


def test_weil_count_requires_congruence():
    with pytest.raises(InvalidInputError):
        ecff.weil_count(3, 1, 5)  # 5 != 1 mod 3


def test_j_invariant_values():
    assert j_invariant(ecff.validate(Fraction(0), Fraction(1))) == 0
    assert j_invariant(ecff.validate(Fraction(1), Fraction(0))) == 1728
    j = j_invariant(ecff.validate(Fraction(1), Fraction(1)))
    assert j == Fraction(6912, 31)
    # the thirteen class-number-one j-invariants of the CM screen
    assert len(ecff.CM_J_INVARIANTS) == 13
