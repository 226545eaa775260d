"""Command-line interface: enumeration, distributions, the bijections, and
batch verification sweeps.

Exit codes: 0 on success or a verified sweep, 1 when a check finds a
counterexample, 2 on usage errors: any argument a verb rejects, malformed
path, region, word or tableau text included.  Stdout is byte-deterministic
for fixed arguments; ``verify`` and ``check-conjectures`` write the wall time
of each sweep to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from operator import itemgetter

from .applications import (
    IJReport,
    Watermelon,
    andre_barbier_count,
    conjecture_52_check,
    conjecture_53_check,
    contact_formula_count,
    corollary_ij_check,
    path_of_perm,
    perm_of_path,
    perm_stats,
    tuple_to_watermelon,
    watermelon_to_tuple,
)
from .enumeration import (
    CONTACT_STATS,
    distribution,
    enumerate_paths,
    enumerate_tuples,
    path_distribution,
)
from .matroids import (
    LinearOrder,
    active_elements,
    lpm_oracle,
    natural_order,
    north_index_set,
    reversed_order,
    tutte_poly,
)
from .paths import (
    InvariantError,
    Path,
    Region,
    check_dimensions,
    contact_stats,
    descent_set,
    noncontact_heights,
    parse_path,
)
from .swaps import swapall
from .tableaux import Tableau, YoungShape, flagged_schur, is_flagged_ssyt, psi, psi_inv, tab_of_tuple
from .triangulations import (
    catalan_det,
    degree_sequence,
    enumerate_k_triangulations,
    nicolas_check,
)
from .tuples import PathTuple, h_stats, u_stats, v_stats
from .verify import SUITES
from .words import factorize, switch, switch_inv


def _region_from(args) -> Region:
    if args.region is not None:
        return Region.parse(args.region)
    if args.T is not None and args.B is not None:
        return Region.from_steps(args.T, args.B)
    raise ValueError("need --region or both --T and --B")


def _add_region_args(sub, with_format: bool = True):
    sub.add_argument("--region", help="region text T=<steps>;B=<steps>")
    sub.add_argument("--T", help="top boundary step string")
    sub.add_argument("--B", help="bottom boundary step string")
    if with_format:
        sub.add_argument("--format", choices=("text", "json"), default="text")


def _timed(label: str, run):
    """``run()``, with its wall time written to stderr as ``<label>: <seconds>s``."""
    start = time.perf_counter()
    result = run()
    print(f"{label}: {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return result


def _path_json(p: Path) -> dict:
    return {"x": p.x, "y": p.y, "heights": list(p.heights)}


def _parse_tableau(text: str, k: int) -> Tableau:
    """A flagged semistandard tableau, or a usage error."""
    rows = []
    try:
        for chunk in text.split("/"):
            chunk = chunk.strip()
            if any(sep in chunk for sep in (",", " ")):
                rows.append(tuple(int(v) for v in chunk.replace(",", " ").split()))
            else:
                rows.append(tuple(int(ch) for ch in chunk))
        tab = Tableau(tuple(rows), k)
    except ValueError as exc:
        raise ValueError(f"malformed tableau {text!r}: {exc}") from None
    if not is_flagged_ssyt(tab):
        raise ValueError(f"{text!r} is not a flagged semistandard tableau for k={k}")
    return tab


def _parse_paths_arg(region: Region, text: str) -> PathTuple:
    return PathTuple(region, tuple(parse_path(chunk) for chunk in text.split(";") if chunk))


def cmd_enumerate(args) -> int:
    region = _region_from(args)
    descents = (
        frozenset(int(v) for v in args.descents.split(",") if v)
        if args.descents is not None
        else None
    )
    h_filter = (
        tuple(int(v) for v in args.heights.split(",") if v)
        if args.heights is not None
        else None
    )
    if args.k < 0:
        raise ValueError("--k must be at least 1, or 0 to list paths")
    if args.k and (args.south or descents is not None or h_filter is not None):
        raise ValueError("--south, --descents and --heights filter paths, not --k tuples")
    if args.k:
        items = [
            ";".join(str(p) for p in t.paths) for t in enumerate_tuples(region, args.k)
        ]
    else:
        paths = enumerate_paths(region, args.south)
        if descents is not None:
            paths = (p for p in paths if descent_set(p) == descents)
        if h_filter is not None:
            paths = (p for p in paths if noncontact_heights(region, p) == h_filter)
        items = [str(p) for p in paths]
    if args.format == "json":
        print(json.dumps(items, separators=(",", ":")))
    else:
        for line in items:
            print(line)
        print(f"total {len(items)}")
    return 0


def cmd_dist(args) -> int:
    region = _region_from(args)
    names = [s.strip() for s in args.stats.split(",")]
    if any(name not in CONTACT_STATS for name in names):
        raise ValueError(f"stats must be a comma list over {','.join(CONTACT_STATS)}")
    poly = path_distribution(region, names, south_allowed=args.south)
    print(poly.to_json() if args.format == "json" else poly)
    return 0


def cmd_swapall(args) -> int:
    region = _region_from(args)
    path = parse_path(args.path)
    image = swapall(region, path)
    before = contact_stats(region, path)
    after = contact_stats(region, image)
    descents = descent_set(image)
    if (after.t, after.b) != (before.b, before.t):
        raise InvariantError("swapall did not exchange the contact counts")
    if descents != descent_set(path):
        raise InvariantError("swapall changed the descent set")
    if noncontact_heights(region, image) != noncontact_heights(region, path):
        raise InvariantError("swapall changed the free heights")
    if args.format == "json":
        print(
            json.dumps(
                {
                    "image": _path_json(image),
                    "before": before.as_tuple(),
                    "after": after.as_tuple(),
                },
                separators=(",", ":"),
            )
        )
    else:
        print(image)
        print(f"heights {list(image.heights)}")
        print(
            f"(t,b,l,r): {before.as_tuple()} -> {after.as_tuple()}; "
            f"descents {sorted(descents)} preserved"
        )
    return 0


def cmd_switch(args) -> int:
    factorize(args.word)  # letters outside {t, b} are a usage error
    try:
        print(switch_inv(args.word) if args.inverse else switch(args.word))
    except ValueError as exc:  # no unmatched letter to flip: the word has no image
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_psi(args) -> int:
    region = _region_from(args)
    pt = _parse_paths_arg(region, args.paths)
    tab = psi(pt)
    print(tab.text())
    return 0


def cmd_psi_inv(args) -> int:
    tab = _parse_tableau(args.tableau, args.k)
    pt = psi_inv(tab)
    print(";".join(str(p) for p in pt.paths))
    return 0


def cmd_tab(args) -> int:
    region = _region_from(args)
    pt = _parse_paths_arg(region, args.paths)
    print(tab_of_tuple(pt).text())
    return 0


def cmd_flagged_schur(args) -> int:
    shape = YoungShape(tuple(int(v) for v in args.shape.split(",")))
    poly = flagged_schur(shape, args.k, args.nvars)
    print(poly.to_json() if args.format == "json" else poly)
    return 0


def _order_from(text: str, m: int) -> LinearOrder:
    if text == "natural":
        return natural_order(m)
    if text == "reversed":
        return reversed_order(m)
    if text.startswith("perm:"):
        try:
            order = LinearOrder(tuple(int(v) for v in text[5:].split(",")))
        except ValueError as exc:
            raise ValueError(f"bad ranking {text[5:]!r}: {exc}") from None
        if len(order.ranking) != m:
            raise ValueError(f"ranking must order all {m} ground elements")
        return order
    raise ValueError("order must be natural, reversed, or perm:<ranking>")


def cmd_tutte(args) -> int:
    region = _region_from(args)
    order = _order_from(args.order, region.x + region.y)
    poly = tutte_poly(lpm_oracle(region), order)
    print(poly.to_json() if args.format == "json" else poly)
    return 0


def cmd_activities(args) -> int:
    region = _region_from(args)
    order = _order_from(args.order, region.x + region.y)
    oracle = lpm_oracle(region)
    if args.path:
        path = parse_path(args.path)
        check_dimensions(region, path)
        base = north_index_set(path)
    elif args.base is not None:
        try:
            values = args.base.split(",") if args.base else []
            base = frozenset(int(v) for v in values)
        except ValueError:
            raise ValueError(f"base must be comma-separated integers, not {args.base!r}") from None
    else:
        raise ValueError("need --base or --path")
    if not oracle.is_base(base):
        raise ValueError(f"{sorted(base)} is not a base of the region's path matroid")
    internal, external = active_elements(oracle, base, order)
    payload = {
        "internal": sorted(internal),
        "external": sorted(external),
        "activities": [len(internal), len(external)],
    }
    if args.format == "json":
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(
            f"internal {sorted(internal)} external {sorted(external)} "
            f"-> ({len(internal)}, {len(external)})"
        )
    return 0


def cmd_ktuple_dist(args) -> int:
    region = _region_from(args)
    k = args.k
    if k < 1:
        raise ValueError("--k must be at least 1")
    if args.stats == "u":
        stat, first, size = u_stats, 1, region.y - 1
    else:
        stat, first, size = (h_stats if args.stats == "h" else v_stats), 0, k + 1
    stats = [(f"x{first + i}", itemgetter(i)) for i in range(size)]
    poly = distribution(map(stat, enumerate_tuples(region, k)), stats)
    print(poly.to_json() if args.format == "json" else poly)
    return 0


def cmd_perm(args) -> int:
    if (args.to_path is None) == (args.from_path is None):
        raise ValueError("need exactly one of --to-path and --from-path")
    if args.to_path is not None:
        perm = tuple(
            int(v) for v in (args.to_path.split(",") if "," in args.to_path else args.to_path)
        )
        path = path_of_perm(perm)
        rl_min, rl_max, positions = perm_stats(perm)
        print(path)
        print(f"heights {list(path.heights)}")
    else:
        path = parse_path(args.from_path)
        perm = perm_of_path(path)
        rl_min, rl_max, positions = perm_stats(perm)
        print("".join(str(v) for v in perm) if max(perm, default=0) <= 9 else ",".join(map(str, perm)))
    print(f"rl-minima {rl_min} rl-maxima {rl_max} pattern-positions {sorted(positions)}")
    return 0


def cmd_watermelon(args) -> int:
    steps = {"U": 1, "D": -1}
    chunks = args.paths.split(";")
    bad = sorted(set("".join(chunks)) - set(steps))
    if bad:
        raise ValueError(f"steps must be U or D, not {bad}")
    melon = Watermelon(tuple(tuple(steps[ch] for ch in chunk) for chunk in chunks))
    pt = watermelon_to_tuple(melon)
    if tuple_to_watermelon(pt) != melon:
        raise InvariantError("the tuple does not map back to the configuration")
    print(str(pt.region))
    print(";".join(str(p) for p in pt.paths))
    print(
        f"returns {melon.returns()} h {list(h_stats(pt))} "
        f"b {h_stats(pt)[-1]}"
    )
    return 0


def _naturals(text: str, count: int, option: str) -> tuple[int, ...]:
    values = tuple(int(v) for v in text.split(","))
    if len(values) != count or min(values) < 0:
        raise ValueError(f"{option} takes {count} comma-separated natural numbers")
    return values


def cmd_count_ab(args) -> int:
    params = _naturals(args.params, 3, "--params")
    if args.contacts:
        i, j = _naturals(args.contacts, 2, "--contacts")
        print(contact_formula_count(args.case, params, i, j))
    else:
        print(andre_barbier_count(args.case, params))
    return 0


def cmd_check_cor_ij(args) -> int:
    region = _region_from(args)
    report: IJReport = corollary_ij_check(region)
    print(
        f"counts-depend-on-sum {report.cond_counts}; "
        f"bottoms-before-tops {report.cond_order}; "
        f"boundary-gap {report.cond_boundary}; agree {report.agree}"
    )
    return 0


def cmd_check_conjectures(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    ok = True
    for label, checker in (("equivalences", conjecture_52_check), ("sum-dependence", conjecture_53_check)):
        for n in range(1, args.n + 1):
            report = _timed(f"{label} n={n}", lambda: checker(n))
            status = "ok" if report.holds else f"COUNTEREXAMPLE {report.counterexample}"
            print(f"{label} n={n}: {report.regions_checked} regions, {status}")
            ok = ok and report.holds
    return 0 if ok else 1


def cmd_triangulate(args) -> int:
    count = 0
    for t in enumerate_k_triangulations(args.n, args.k):
        count += 1
        diags = ",".join(f"{a}-{b}" for a, b in sorted(t.diagonals))
        print(f"{diags} degrees {list(degree_sequence(t))}")
    print(f"total {count} (determinant {catalan_det(args.n, args.k)})")
    return 0


def cmd_nicolas_check(args) -> int:
    report = nicolas_check(args.n, args.k)
    print(
        f"n={report.n} k={report.k}: triangulations {report.triangulation_count}, "
        f"tuples {report.tuple_count}, window {report.window_match}, "
        f"full {report.full_match}"
    )
    return 0 if report.holds else 1


def cmd_verify(args) -> int:
    if args.list:
        for name in sorted(SUITES):
            print(name)
        return 0
    if args.max < 1:
        raise ValueError("--max must be at least 1")
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; use --list")
    failed = False
    for name in names:
        result = _timed(name, lambda: SUITES[name](args.max))
        print(result.line(), flush=True)
        failed = failed or not result.ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathlab",
        description="exact combinatorics of lattice paths between two boundaries",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("enumerate", help="list paths or nested tuples of a region")
    _add_region_args(p)
    p.add_argument("--south", action="store_true", help="allow south steps")
    p.add_argument("--descents", help="comma-separated descent x-coordinates")
    p.add_argument("--heights", help="comma-separated non-contact height filter")
    p.add_argument("--k", type=int, default=0, help="enumerate nested k-tuples instead")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("dist", help="joint distribution polynomial of contact statistics")
    _add_region_args(p)
    p.add_argument("--stats", required=True, help="comma list over t,b,l,r")
    p.add_argument("--south", action="store_true")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("swapall", help="apply the contact-exchanging involution")
    _add_region_args(p)
    p.add_argument("--path", required=True)
    p.set_defaults(func=cmd_swapall)

    p = sub.add_parser("switch", help="flip the leftmost unmatched t (or inverse)")
    p.add_argument("--word", required=True)
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(func=cmd_switch)

    p = sub.add_parser("psi", help="tuple of paths to flagged semistandard tableau")
    _add_region_args(p, with_format=False)
    p.add_argument("--paths", required=True, help="semicolon-separated step strings, top first")
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("psi-inv", help="flagged semistandard tableau back to a tuple")
    p.add_argument("--tableau", required=True, help="rows separated by /")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_psi_inv)

    p = sub.add_parser("tab", help="direct cell filling of a tuple")
    _add_region_args(p, with_format=False)
    p.add_argument("--paths", required=True)
    p.set_defaults(func=cmd_tab)

    p = sub.add_parser("flagged-schur", help="determinantal weight polynomial of flagged tableaux")
    p.add_argument("--shape", required=True, help="comma-separated row lengths")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_flagged_schur)

    p = sub.add_parser("tutte", help="activity polynomial of the region's path matroid")
    _add_region_args(p)
    p.add_argument("--order", default="natural")
    p.set_defaults(func=cmd_tutte)

    p = sub.add_parser("activities", help="active elements of one base")
    _add_region_args(p)
    p.add_argument("--order", default="natural")
    p.add_argument("--base", help="comma-separated north step positions")
    p.add_argument("--path", help="path whose north steps form the base")
    p.set_defaults(func=cmd_activities)

    p = sub.add_parser("ktuple-dist", help="distribution polynomial over nested tuples")
    _add_region_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--stats", required=True, choices=("h", "v", "u"))
    p.set_defaults(func=cmd_ktuple_dist)

    p = sub.add_parser("perm", help="staircase path/permutation bridge")
    p.add_argument("--to-path", help="permutation in one-line notation")
    p.add_argument("--from-path", help="path step string")
    p.set_defaults(func=cmd_perm)

    p = sub.add_parser("watermelon", help="up/down configuration to nested tuple")
    p.add_argument("--paths", required=True, help="semicolon-separated UD strings, bottom first")
    p.set_defaults(func=cmd_watermelon)

    p = sub.add_parser("count-ab", help="closed-formula path counts")
    p.add_argument("--case", type=int, required=True, choices=(1, 2))
    p.add_argument("--params", required=True, help="n,r,s for case 1; n,r,k for case 2")
    p.add_argument("--contacts", help="i,j for the contact-refined count")
    p.set_defaults(func=cmd_count_ab)

    p = sub.add_parser("check-cor-ij", help="three-way equivalence of contact-count conditions")
    _add_region_args(p, with_format=False)
    p.set_defaults(func=cmd_check_cor_ij)

    p = sub.add_parser("check-conjectures", help="finite checks of the two open conjectures")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_check_conjectures)

    p = sub.add_parser("triangulate", help="enumerate polygon multi-triangulations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("nicolas-check", help="degree distribution against tuple statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_nicolas_check)

    p = sub.add_parser("verify", help="run named verification sweeps")
    p.add_argument("--suite", default="all")
    p.add_argument("--max", type=int, default=6)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a usage error: the verb or the library rejected an argument
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # InvariantError: a checked theorem failed
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
