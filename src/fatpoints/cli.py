"""Command-line surface: analyze, unexpected, splitting, gen, equiv, search, verify.

All commands read and emit JSON (human-readable tables only with --pretty)
and repeat bit-identically under the same --seed.  Exit codes: 0 success,
1 claim failure, 2 usage error, 3 input error.

unexpected, splitting and analyze first size the largest conditions matrix
they would build, rows x C(d+2, 2) columns, and exit 3 with the error code
"budget" when it has more than MAX_MATRIX_CELLS = 10,000 cells.  The largest
matrix that the paper suite, the tests and the benchmark workloads build
has 2,970 cells (dual Fermat F6 at degree 9, 54 x 55); one point at degree
13 (79 x 105 = 8,295 cells) runs in about 3 s over Q, and the cost grows
steeply beyond, so one point at degree 40 (672,441 cells) is refused.
analyze with --basis also counts the nullspace basis it builds at each
degree, up to C(d+2, 2) forms of C(d+2, 2) coefficients: it admits
--max-degree up to 12 (91 x 91 = 8,281 cells; 0.06 s CPU on one point),
where one point at --max-degree 40 took 23 s CPU and 261 MB.  Without
--basis it takes each dimension by rank alone (system_dimension), builds
no basis and counts only the conditions matrix: one point at --max-degree
40 takes 0.01 s CPU, at 139, the budget's edge, 0.8 s, and nine random
points of height 10^121 at --max-degree 45 take 0.07 s.  Its
line statistics join each of the C(n, 2) pairs of points, one cell each,
so it admits at most 141 points (9,870 joins), where 1,000 points at
--max-degree 1 took 11 s CPU and 531 MB.

gen random exits 3 with "budget" above MAX_GEN_POINTS = 3,333 points, as
many as the rows of a matrix of the budget's cells in the three columns of
degree 1 (3,333 x 3): the points are drawn one by one and all kept, and
200,000 took 2.35 s CPU and 119 MB.  --samples, on unexpected, splitting and search, is
refused the same way above MAX_SAMPLES = 100: a positive verdict draws
every sample, and 30 samples take 0.46 s CPU on dual Fermat F6 at degree 9.

A cyclotomic field is refused the same way, with "budget", before it is
built: a configuration file, gen fermat --n, gen family --id fermat and gen
family --cyclotomic take conductors up to MAX_CONDUCTOR = 128.  Building
Q(zeta_n) grows as phi(n)^3 (5.6 s and 153 MB at n = 4,001), and the
field's first certificate prime, which every rank uses, splits Phi_n mod p
with an inverse Vandermonde matrix of phi(n)^2 entries, in closed form.  In
CPU time on a 2-vCPU machine, analyze --max-degree 1 on four points takes
0.86 s over Q(zeta_1024) and 0.20 s over Q(zeta_257), against 0.06 s over
Q(zeta_127), and gen fermat --n 127 takes 0.13 s.

equiv exits 3 with "budget" before any geometry when a configuration has
more than MAX_EQUIV_POINTS = 20 points: its search may build a frame for
each of the n(n-1)(n-2)(n-3) ordered quadruples, and line incidence prunes
none for points in general position.  Two random sets of 20 such points
take all 116,280 (1.2 s CPU, 6.4 s at 30), against 73,440 quadruples for
dual Fermat F6, whose 18 points are the most that the suite, the tests and
the benchmark compare.

search exits 3 with "budget" before any geometry when its grid side --n is
above MAX_SEARCH_SIDE = 10 or its --limit above MAX_SEARCH_LIMIT = 3,000:
each draw walks the (n+1)^2 grid points, and a larger grid takes more draws
(up to 200 per configuration) to find a 4-rich line.  300 configurations
take 0.15 s CPU at side 4 (the suite's search), 0.55 s at 10 and 2.4 s at
20, 50 take 4.3 s at 40, and 3,000 take 1.6 s at side 4 and 4.4 s at 10.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from .field import QQ, make_field
from .geom import PointConfiguration, analyze_lines, projective_equivalent
from .linsys import FatPointScheme, dim_linear_system
from .unexpected import GeneralPointStrategy, detect_unexpected, splitting_type
from .configs import (
    FAMILY_IDS,
    FamilyDomainError,
    SearchSpace,
    example_quartic_config,
    example_quartic_variant,
    dual_fermat,
    family,
    random_config,
)
from .verify import SUITE_CLAIMS, run_paper_suite

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3

MAX_MATRIX_CELLS = 10_000
MAX_CONDUCTOR = 128
MAX_EQUIV_POINTS = 20
MAX_SEARCH_SIDE = 10
MAX_SEARCH_LIMIT = 3_000
MAX_SAMPLES = 100
MAX_GEN_POINTS = MAX_MATRIX_CELLS // comb(3, 2)


class InputError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _emit(payload, pretty: bool = False):
    print(json.dumps(payload, indent=2 if pretty else None, sort_keys=False))


def _fail(code: str, message: str, exit_code: int) -> int:
    json.dump({"error": {"code": code, "message": message}}, sys.stderr)
    sys.stderr.write("\n")
    return exit_code


def _load_config(path: str) -> PointConfiguration:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError("io", f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError("parse", f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    try:
        spec = data["field"]
        if isinstance(spec, dict) and spec.get("type") == "cyclotomic":
            _check_conductor(spec.get("n"))
        return PointConfiguration.from_dict(data)
    except (KeyError, ValueError, TypeError) as e:
        raise InputError("config", f"{path}: {e}") from e


def _check_cells(what: str, cells: int) -> None:
    """Refuse a command that would build more than MAX_MATRIX_CELLS cells."""
    if cells > MAX_MATRIX_CELLS:
        raise InputError(
            "budget",
            f"{what} = {cells} cells, more than the budget of {MAX_MATRIX_CELLS}",
        )


def _check_budget(rows: int, d: int) -> None:
    """Refuse a command whose largest matrix of C(d+2, 2) columns, a
    conditions matrix or a nullspace basis, is above the budget."""
    cols = comb(d + 2, 2)
    _check_cells(f"the largest matrix would have {rows} x {cols}", rows * cols)


def _check_conductor(n) -> None:
    """Refuse an int conductor above the budget, before its field is built."""
    if type(n) is int and n > MAX_CONDUCTOR:
        raise InputError(
            "budget",
            f"the cyclotomic field of conductor {n} is above the budget of {MAX_CONDUCTOR}",
        )


def _strategy(args) -> GeneralPointStrategy:
    if args.samples > MAX_SAMPLES:
        raise InputError(
            "budget",
            f"{args.samples} samples are above the budget of {MAX_SAMPLES}",
        )
    return GeneralPointStrategy(
        mode="certified" if args.certify else "sampled",
        samples=args.samples,
        height=args.height,
        seed=args.seed,
    )


def _add_strategy_flags(p):
    p.add_argument("--samples", type=int, default=3, help="at most this many samples for the general point")
    p.add_argument("--height", type=int, default=1000, help="coordinate height bound for samples")
    p.add_argument("--seed", type=int, default=0, help="deterministic seed")
    p.add_argument("--certify", action="store_true", help="certified symbolic mode")


def _parse_params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise InputError("params", f"bad parameter assignment {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def cmd_analyze(args) -> int:
    Z = _load_config(args.config)
    d = max(args.max_degree, 0)
    # the conditions matrix, or the basis that --basis builds: up to
    # C(d+2, 2) forms of as many coefficients
    _check_budget(max(len(Z), comb(d + 2, 2)) if args.basis else len(Z), d)
    # the line statistics join each of the C(n, 2) pairs, one cell each
    _check_cells(f"the line statistics would join C({len(Z)}, 2)", comb(len(Z), 2))
    stats = analyze_lines(Z)
    X = FatPointScheme.of(Z)
    systems = []
    for d in range(1, args.max_degree + 1):
        systems.append(dim_linear_system(X, d, basis=args.basis).to_dict())
    payload = {
        "points": len(Z),
        "field": Z.field.to_dict(),
        "lineStats": {
            "simple": stats.simple_count,
            "rich": {str(k): v for k, v in sorted(stats.rich_counts.items())},
            "lines": [
                {"line": [str(c) for c in ln.coeffs], "points": list(idx)}
                for ln, idx in stats.lines
            ],
        },
        "systems": systems,
    }
    if args.pretty:
        print(f"{len(Z)} points over {Z.field!r}")
        print(f"simple lines: {stats.simple_count}")
        for k, v in sorted(stats.rich_counts.items()):
            print(f"{k}-rich lines: {v}")
        print("deg  vdim  edim  dim  special")
        for s in systems:
            print(
                f"{s['degree']:>3}  {s['vdim']:>4}  {s['edim']:>4}  {s['dim']:>3}  {s['special']}"
            )
    else:
        _emit(payload)
    return EXIT_OK


def cmd_unexpected(args) -> int:
    if args.degree < 2:
        raise InputError("flags", "degree must be at least 2")
    Z = _load_config(args.config)
    # Z plus the (d-1)-fold general point
    _check_budget(len(Z) + comb(args.degree, 2), args.degree)
    rep = detect_unexpected(Z, args.degree, _strategy(args))
    _emit(rep.to_dict(), args.pretty)
    return EXIT_OK


def cmd_splitting(args) -> int:
    Z = _load_config(args.config)
    # the last m(j) of the trace: Z plus a (|Z|-1)-fold point in degree |Z|
    _check_budget(len(Z) + comb(len(Z), 2), len(Z))
    st = splitting_type(Z, _strategy(args))
    _emit(st.to_dict(), args.pretty)
    return EXIT_OK


def cmd_gen(args) -> int:
    what = args.what
    if what == "example-quartic":
        Z = example_quartic_config() if args.pair is None else example_quartic_variant(
            tuple(int(x) for x in args.pair.split(","))
        )
    elif what == "fermat":
        if args.n is None:
            raise InputError("flags", "gen fermat needs --n")
        _check_conductor(args.n)
        Z = dual_fermat(args.n)
    elif what == "random":
        if args.points > MAX_GEN_POINTS:
            raise InputError(
                "budget",
                f"{args.points} random points are above the budget of {MAX_GEN_POINTS}",
            )
        Z = random_config(args.points, args.height, args.seed)
    elif what == "family":
        if not args.id:
            raise InputError("flags", "gen family needs --id")
        params = _parse_params(args.params or "")
        if args.id == "fermat":
            params = {"n": int(params.get("n", args.n or 0))}
            _check_conductor(params["n"])
            Z = family("fermat", params)
        else:
            _check_conductor(args.cyclotomic)
            fld = QQ if args.cyclotomic is None else make_field("cyclotomic", args.cyclotomic)
            try:
                Z = family(args.id, params, field=fld)
            except FamilyDomainError as e:
                raise InputError("domain", str(e)) from e
    else:
        raise InputError("flags", f"unknown generator {what!r}")
    _emit(Z.to_dict(), args.pretty)
    return EXIT_OK


def cmd_equiv(args) -> int:
    Z1 = _load_config(args.config1)
    Z2 = _load_config(args.config2)
    for Z in (Z1, Z2):
        if len(Z) > MAX_EQUIV_POINTS:
            raise InputError(
                "budget",
                f"equivalence of {len(Z)} points is above the budget of {MAX_EQUIV_POINTS}",
            )
    verdict, T = projective_equivalent(Z1, Z2)
    payload = {"equivalent": verdict}
    if T is not None:
        payload["witness"] = [[str(e) for e in row] for row in T]
    _emit(payload, args.pretty)
    return EXIT_OK


def cmd_search(args) -> int:
    from .verify import run_timed, search_uniqueness

    if args.n > MAX_SEARCH_SIDE or args.limit > MAX_SEARCH_LIMIT:
        raise InputError(
            "budget",
            f"a search of grid side {args.n} and limit {args.limit} is above the budget "
            f"of side {MAX_SEARCH_SIDE} and limit {MAX_SEARCH_LIMIT}",
        )
    space = SearchSpace(
        n=args.n,
        r=args.points,
        constraint=args.constraint,
        seed=args.seed,
        limit=args.limit,
    )
    inject = (example_quartic_config(),) if args.inject_example else ()
    res = run_timed(search_uniqueness, space, inject=inject, strategy=_strategy(args))
    _emit(res.to_dict(), args.pretty)
    return EXIT_OK if res.passed else EXIT_CLAIM_FAILURE


def cmd_verify(args) -> int:
    if args.suite != "paper":
        raise InputError("flags", f"unknown suite {args.suite!r}")
    claims = args.claims.split(",") if args.claims else None
    results = run_paper_suite(seed=args.seed, certify=args.certify, claims=claims)
    for r in results:
        print(f"[{r.status:>7}] {r.claim:32s} {r.runtime:7.2f}s", file=sys.stderr)
    payload = [r.to_dict() for r in results]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    else:
        _emit(payload, args.pretty)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CLAIM_FAILURE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fatpoints",
        description="Exact linear systems of plane curves through fat points.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="line statistics and per-degree dimensions")
    p.add_argument("config")
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--basis", action="store_true", help="include basis coefficients")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("unexpected", help="unexpected-curve detection report")
    p.add_argument("config")
    p.add_argument("--degree", "-d", type=int, required=True)
    _add_strategy_flags(p)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_unexpected)

    p = sub.add_parser("splitting", help="splitting type and m(j) trace")
    p.add_argument("config")
    _add_strategy_flags(p)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_splitting)

    p = sub.add_parser("gen", help="emit a configuration as JSON")
    p.add_argument(
        "what", choices=["example-quartic", "fermat", "random", "family"]
    )
    p.add_argument("--n", type=int, default=None, help="Fermat conductor")
    p.add_argument("--pair", default=None, help="variant diagonal pair, e.g. 5,7")
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--height", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--id", default=None, help=f"family id, one of {', '.join(FAMILY_IDS)}")
    p.add_argument("--params", default=None, help="family parameters, e.g. a=2,b=5")
    p.add_argument("--cyclotomic", type=int, default=None, help="conductor for family scalars")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("equiv", help="projective equivalence of two configurations")
    p.add_argument("config1")
    p.add_argument("config2")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("search", help="uniqueness search over a grid stream")
    p.add_argument("--n", type=int, default=4, help="grid side")
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--constraint", default="4-rich-line")
    p.add_argument("--limit", type=int, default=300)
    p.add_argument("--inject-example", action="store_true")
    _add_strategy_flags(p)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("verify", help="run the reproduction suite")
    p.add_argument("--suite", default="paper")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--certify", action="store_true")
    p.add_argument("--claims", default=None, help=f"comma list from: {', '.join(SUITE_CLAIMS)}")
    p.add_argument("--out", default=None, help="write the JSON results to a file")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except InputError as e:
        return _fail(e.code, e.message, EXIT_INPUT if e.code != "flags" else EXIT_USAGE)
    except (ValueError, TypeError) as e:
        return _fail("input", str(e), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
