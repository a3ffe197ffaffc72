"""Independent recheck of certified mod-l witnesses.

Shares no code with galmax: a_p is recomputed by naive point counting at the
witness prime, and the witness condition is tested from the formulas in the
docstring of ``certify.certify_mod_ell``.
"""
from __future__ import annotations


def naive_ap(p: int, a: int, b: int) -> int:
    """a_p = p + 1 - #E(F_p) for y^2 = x^3 + ax + b, counting points directly."""
    roots_of = [0] * p
    for y in range(p):
        roots_of[y * y % p] += 1
    affine = sum(roots_of[(x * x * x + a * x + b) % p] for x in range(p))
    return p - affine


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))


def _euler(v: int, ell: int) -> int:
    """1 for a nonzero square mod ell, -1 for a nonsquare, 0 for zero."""
    v %= ell
    if v == 0:
        return 0
    return 1 if pow(v, (ell - 1) // 2, ell) == 1 else -1


def condition_holds(condition: str, ap: int, p: int, ell: int) -> bool:
    if p % ell == 0 or ap * ap > 4 * p:
        return False
    t, d = ap % ell, p % ell
    disc = (t * t - 4 * d) % ell
    if condition == "split semisimple":
        return t != 0 and _euler(disc, ell) == 1
    if condition == "nonsplit semisimple":
        return t != 0 and _euler(disc, ell) == -1
    if condition == "projective order > 5":
        u = t * t * pow(d, -1, ell) % ell
        return u not in (0, 1, 2, 4 % ell) and (u * u - 3 * u + 1) % ell != 0
    return False


def _poly_at(coeffs, x: int, p: int) -> int:
    return sum(int(c) * pow(x, i, p) for i, c in enumerate(coeffs)) % p


def witness_aps(p: int, a, b, field) -> set[int]:
    """Every a_p the curve has at a good degree-one prime above p.

    Over Q, (a, b) are integers.  Over Q[x]/(f), they are integer power-basis
    coefficient lists and each root c of f mod p gives one prime (p, x - c).
    """
    if field is None:
        return {naive_ap(p, a % p, b % p)} if (4 * a**3 + 27 * b * b) % p else set()
    out = set()
    for c in range(p):
        if _poly_at(field, c, p):
            continue
        ac, bc = _poly_at(a, c, p), _poly_at(b, c, p)
        if (4 * ac**3 + 27 * bc * bc) % p:
            out.add(naive_ap(p, ac, bc))
    return out


def mod_ell_problems(levels: dict, a, b, field=None) -> list[str]:
    """Problems found in the certified mod-l levels of a report ({} if none)."""
    problems = []
    for key, level in levels.items():
        ell = (level.get("diagnostics") or {}).get("ell")
        if ell is None or level.get("status") != "certified":
            continue
        conditions = set()
        for w in level.get("witnesses", []):
            p, ap, cond = w.get("p"), w.get("ap"), w.get("condition")
            conditions.add(cond)
            if not isinstance(p, int) or not isinstance(ap, int) or p < 5 or not _is_prime(p):
                problems.append(f"level {key}: malformed witness {w}")
            elif ap not in witness_aps(p, a, b, field):
                problems.append(f"level {key}: a_{p} = {ap} does not match a naive point count")
            elif not condition_holds(cond, ap, p, ell):
                problems.append(f"level {key}: witness {w} fails {cond!r} mod {ell}")
        missing = {"split semisimple", "nonsplit semisimple", "projective order > 5"} - conditions
        if missing:
            problems.append(f"level {key}: no witness for {sorted(missing)}")
    return problems
