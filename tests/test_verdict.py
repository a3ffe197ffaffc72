"""Reports hold JSON values only.

``Verdict.to_json`` puts its witnesses and diagnostics into the report as
they are, with no conversion, so every producer must build them from str,
int, float, bool, None, lists, tuples and dicts with str keys.  These tests
walk reports that reach every producer in ``certify`` and ``numfield``.
"""
import json
from fractions import Fraction

import numpy as np
import pytest

from galmax import certify, cli, ecff
from galmax.verdict import certified, inconclusive, obstruction

JSON_SCALARS = (str, int, float, bool, type(None))

# (a, b, prime_bound) over Q, l_max = 13, and what the report shows
Q_CASES = {
    "certified": (1, 1, 1000),
    "mod-ell inconclusive": (1, 1, 30),
    "determinant coverage incomplete": (1, 3, 30),
    "surviving subgroups": (-3, 1, 200),
    "entanglement inconclusive": (6, 2, 1000),
    "rational 2-torsion": (1, -2, 500),
    "complex multiplication": (0, 2, 500),
}

# the field certify cases of the report corpus: conditions (c) and (d)
# certified by each mechanism, and both left open
FIELD_CASES = [
    ["certify", "--curve", "[0,1296],[0,0,11664]", "--field", "f=[1,1,0,1]"],
    ["certify", "--curve", "[1,1],[1,0]", "--field", "f=[-2,0,1]", "--prime-bound", "2000", "--l-max", "13"],
    ["certify", "--curve", "[-1],[1,1]", "--field", "f=[1,1,1]", "--prime-bound", "2000", "--l-max", "13"],
    ["certify", "--curve", "[2,1],[0,3]", "--field", "f=[1,1,1]", "--prime-bound", "2000", "--l-max", "13"],
    ["certify", "--curve", "[1],[1]", "--field", "f=[1,0,-1,0,1]", "--prime-bound", "2000", "--l-max", "13"],
]


def assert_json_values(value, path="report"):
    """Fail unless value is built from exactly the JSON value types; a
    subclass such as np.float64 or np.bool_ counts as foreign."""
    kind = type(value)
    if kind in JSON_SCALARS:
        return
    if kind in (list, tuple):
        for i, x in enumerate(value):
            assert_json_values(x, f"{path}[{i}]")
        return
    assert kind is dict, f"{path}: {kind.__name__} is not a JSON value"
    for k, x in value.items():
        assert type(k) is str, f"{path}: key {k!r} is a {type(k).__name__}, not a str"
        assert_json_values(x, f"{path}[{k!r}]")


def _check(report: dict) -> dict:
    assert_json_values(report)
    json.dumps(report)  # no default=: nothing needs converting
    return report


def _q_report(a, b, prime_bound) -> dict:
    params = certify.CertParams(prime_bound=prime_bound, l_max=13)
    return _check(certify.serre_check(ecff.validate(Fraction(a), Fraction(b)), params).to_json())


def test_q_certified_report_holds_json_values():
    report = _q_report(*Q_CASES["certified"])
    assert report["final"]["status"] == "certified"
    assert all(v["status"] == "certified" for v in report["levels"].values())


def test_q_inconclusive_reports_hold_json_values():
    seen = set()
    for case in ("mod-ell inconclusive", "determinant coverage incomplete", "surviving subgroups",
                 "entanglement inconclusive"):
        report = _q_report(*Q_CASES[case])
        assert report["final"]["status"] == "inconclusive", case
        for v in report["levels"].values():
            seen.update(v["diagnostics"])
            seen.add(v["diagnostics"].get("reason"))
    assert {"unmet_conditions", "surviving_subgroups", "surviving_discriminants",
            "determinant coverage incomplete"} <= seen


def test_no_usable_signatures_verdict_holds_json_values():
    empty = certify.SignatureColumns.of_rows([])
    acc = certify.LevelAccumulator(1, ms=(4,))
    report = _check(acc.elimination_verdict(4, empty).to_json())
    assert report["diagnostics"]["reason"] == "no usable signatures"


def test_q_obstruction_reports_hold_json_values():
    kinds = []
    for case in ("rational 2-torsion", "complex multiplication"):
        report = _q_report(*Q_CASES[case])
        assert report["final"]["status"] == "obstruction-certified"
        kinds += [w["kind"] for w in report["final"]["witnesses"]]
    assert kinds == ["rational 2-torsion", "complex multiplication"]


def test_field_reports_hold_json_values():
    parser = cli.build_parser()
    finals, mechanisms = set(), set()
    for argv in FIELD_CASES:
        report = _check(cli._run_certify(parser.parse_args(cli._attach_curve_value(argv))))
        finals.add(report["final"]["status"])
        for cond in ("c", "d"):
            mechanisms.add(report["conditions"][cond]["diagnostics"].get("mechanism"))
    assert finals == {"certified", "inconclusive"}
    assert {"all candidate quadratic characters refuted", "all candidate cubic characters refuted",
            "two degree-one primes over one p disagree",
            "two degree-one primes over one p disagree on cube-ness"} <= mechanisms


def test_maximality_report_over_q_holds_json_values():
    report = _check(certify.certify_maximal(ecff.validate(Fraction(1), Fraction(1))).to_json())
    assert report["final"]["status"] == "obstruction-certified"
    assert report["curve"] == [["1"], ["1"]] and report["field"] == []


def test_assemble_maximality_reports_hold_json_values():
    per_m = {4: certified("mod 4 full"), 9: certified("mod 9 full"), 5: certified("mod 5 full")}
    report = _check(certify.assemble_maximality({**per_m, 5: obstruction({"p": 7})}, certified("c"), certified("d"))
                    .to_json())
    assert report["status"] == "obstruction-certified" and report["witnesses"] == ("obstruction at 5",)
    report = _check(certify.assemble_maximality(per_m, inconclusive(), certified("d")).to_json())
    assert report["status"] == "inconclusive" and report["diagnostics"]["unresolved"] == ["sqrt-disc"]


def test_report_shares_the_witnesses():
    witnesses = ({"p": 5, "ap": [1, 2]},)
    v = certified(*witnesses, ell=5)
    report = v.to_json()
    assert report["witnesses"] is v.witnesses and report["witnesses"][0] is v.witnesses[0]
    assert report["diagnostics"] == {"ell": 5} and report["diagnostics"] is not v.diagnostics


@pytest.mark.parametrize("foreign", [
    {"p": np.int64(5)},
    {"p": np.float64(0.5)},
    {"ok": np.bool_(True)},
    {5: "int key"},
    {"s": {1, 2}},
    {"f": Fraction(1, 2)},
])
def test_walker_rejects_foreign_values(foreign):
    with pytest.raises(AssertionError):
        assert_json_values(certified(foreign).to_json())
    with pytest.raises(AssertionError):
        assert_json_values(inconclusive(extra=foreign).to_json())
