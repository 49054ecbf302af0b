"""Command-line interface.

Subcommands: verify (identity suites), compute (single exact values),
reflect build (mirrored-graph construction), tile count|verify|render,
spp gf.  Each leaf subcommand has one handler.  Exit codes: 0 success, 1 a
failed check or an exhausted budget, 2 a usage error.  Handlers report a
usage error by raising ValueError (an unreadable or malformed input file
raises OSError, ValueError or KeyError), and only main turns it into an
``error:`` line and exit 2.  All scalar output uses the canonical text
form of the ring module.  The environment variable TILING_REFLECT_BUDGET
overrides the default enumeration caps.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import dag, lozenge, partitions, reflect, render, verify
from .linalg import ExactMatrix, pfaffian
from .ring import scalar_str


def _parse_shape(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(p) for p in text.split(","))


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    command = f"verify --suite {args.suite} --size-budget {args.size_budget} --seed {args.seed}"
    report = verify.run_suites(rng, args.suite, args.size_budget, command)
    for line in report.lines():
        print(line)
    if args.timings:
        for line in report.timing_lines():
            print(line, file=sys.stderr)
    return report.exit_status


def _cmd_path_gf(args) -> int:
    graph, spec = dag.WeightedDag.from_json(_load_json(args.graph))
    src = args.source if args.source is not None else (spec.starts[0] if spec else None)
    dst = args.target if args.target is not None else (spec.ends[0] if spec else None)
    if src is None or dst is None:
        raise ValueError("need --source/--target or starts/ends in the graph file")
    print(scalar_str(dag.path_gf(graph, src, dst)))
    return 0


def _cmd_pfaffian(args) -> int:
    matrix = ExactMatrix.from_lists(_load_json(args.matrix))
    print(scalar_str(pfaffian(matrix)))
    return 0


def _cmd_staircase_product(args) -> int:
    if args.kind == "free":
        value = lozenge.double_staircase_free_product(args.m, args.n, args.k)
    else:
        value = lozenge.double_staircase_tiling_product(args.m, args.n, args.k)
    print(scalar_str(value))
    return 0


def _cmd_spp_gf(args) -> int:
    shape = _parse_shape(args.shape)
    if args.mode == "qt":
        enum = lambda: partitions.qt_gf_enumerated(args.m, shape)
        det = lambda: partitions.qt_gf_determinant(args.m, shape)
    elif args.mode == "q-spp":
        enum = lambda: partitions.spp_volume_gf(args.m, shape)
        det = lambda: partitions.volume_gf(args.m, shape, "spp")
    else:
        enum = lambda: partitions.pp_sym_volume_gf(args.m, partitions.symmetrize_shape(shape))
        det = lambda: partitions.volume_gf(args.m, shape, "pp_sym")
    # The determinant evaluates the squared generating function; the
    # enumeration gives the generating function itself.
    if args.method == "enum":
        print(str(enum()))
        return 0
    if args.method == "det":
        print(str(det()))
        return 0
    e = enum()
    d = det()
    if e * e != d:
        print(f"MISMATCH: enumeration^2 = {e * e} but determinant = {d}", file=sys.stderr)
        return 1
    print(str(d))
    return 0


def _cmd_reflect_build(args) -> int:
    graph, spec = dag.WeightedDag.from_json(_load_json(args.graph))
    if spec is None:
        raise ValueError("graph file must carry starts and ends")
    inp = reflect.ReflectionInput(graph, spec)
    doubled, new_spec = reflect.build_mirrored_graph(inp, args.variant)
    doc = doubled.to_json(starts=new_spec.starts, ends=new_spec.ends)
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_tile_count(args) -> int:
    region = lozenge.Region.from_json(_load_json(args.region))
    print(scalar_str(lozenge.count_tilings(region)))
    return 0


def _cmd_tile_verify(args) -> int:
    region = lozenge.Region.from_json(_load_json(args.region))
    central = lozenge.count_symmetric_tilings(region, "central")
    both = lozenge.count_symmetric_tilings(region, "both")
    ok = central == both * both
    print(f"central={central} central+vertical={both} {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_tile_render(args) -> int:
    region = lozenge.Region.from_json(_load_json(args.region))
    tiling = None
    if args.sample_tiling is not None:
        tiling = lozenge.sample_tiling(region, random.Random(args.sample_tiling))
    render.write_region_svg(region, args.out, tiling)
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathtiles",
        description="Exact identities for nonintersecting paths, lozenge tilings "
        "with free boundaries, and plane partition generating functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a cross-checking identity suite")
    p_verify.add_argument("--suite", default="all", choices=("all",) + verify.SUITES)
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--size-budget", default="small", choices=tuple(verify.BUDGET_PRESETS))
    p_verify.add_argument("--timings", action="store_true", help="print per-check timings to stderr")
    p_verify.set_defaults(func=_cmd_verify)

    p_compute = sub.add_parser("compute", help="compute one exact value")
    sub_compute = p_compute.add_subparsers(dest="object", required=True)

    c_path = sub_compute.add_parser("path-gf", help="path generating function between two vertices")
    c_path.add_argument("--graph", required=True, help="graph JSON file")
    c_path.add_argument("--source")
    c_path.add_argument("--target")
    c_path.set_defaults(func=_cmd_path_gf)

    c_pf = sub_compute.add_parser("pfaffian", help="Pfaffian of a skew-symmetric matrix")
    c_pf.add_argument("--matrix", required=True, help="matrix JSON file (rows of scalar strings)")
    c_pf.set_defaults(func=_cmd_pfaffian)

    c_tc = sub_compute.add_parser("tiling-count", help="tiling generating function of a region")
    c_tc.add_argument("--region", required=True, help="region JSON file")
    c_tc.set_defaults(func=_cmd_tile_count)

    c_spp = sub_compute.add_parser("spp-gf", help="shifted plane partition generating function")
    _add_spp_args(c_spp)
    c_spp.set_defaults(func=_cmd_spp_gf)

    c_prod = sub_compute.add_parser(
        "staircase-product", help="double-staircase product formula evaluation"
    )
    c_prod.add_argument("--m", type=int, required=True)
    c_prod.add_argument("--n", type=int, required=True)
    c_prod.add_argument("--k", type=int, required=True)
    c_prod.add_argument(
        "--kind",
        default="tiling",
        choices=("tiling", "free"),
        help="two-sided tiling GF (default) or the free-boundary count",
    )
    c_prod.set_defaults(func=_cmd_staircase_product)

    p_reflect = sub.add_parser("reflect", help="mirrored-graph constructions")
    sub_reflect = p_reflect.add_subparsers(dest="action", required=True)
    r_build = sub_reflect.add_parser("build", help="build the mirrored graph")
    r_build.add_argument("--graph", required=True, help="graph JSON with starts/ends")
    r_build.add_argument("--variant", required=True, choices=reflect.VARIANTS)
    r_build.add_argument("--out", help="output JSON path (default: stdout)")
    r_build.set_defaults(func=_cmd_reflect_build)

    p_tile = sub.add_parser("tile", help="tiling counts and figures")
    sub_tile = p_tile.add_subparsers(dest="action", required=True)
    t_count = sub_tile.add_parser("count", help="count tilings of a region")
    t_count.add_argument("--region", required=True)
    t_count.set_defaults(func=_cmd_tile_count)
    t_verify = sub_tile.add_parser("verify", help="check the symmetric-count factorization")
    t_verify.add_argument("--region", required=True)
    t_verify.set_defaults(func=_cmd_tile_verify)
    t_render = sub_tile.add_parser("render", help="emit an SVG figure")
    t_render.add_argument("--region", required=True)
    t_render.add_argument("--out", required=True)
    t_render.add_argument("--sample-tiling", type=int, default=None, metavar="SEED")
    t_render.set_defaults(func=_cmd_tile_render)

    p_spp = sub.add_parser("spp", help="plane partition generating functions")
    sub_spp = p_spp.add_subparsers(dest="action", required=True)
    s_gf = sub_spp.add_parser("gf", help="generating function of shifted plane partitions")
    _add_spp_args(s_gf)
    s_gf.set_defaults(func=_cmd_spp_gf)

    return parser


def _add_spp_args(parser) -> None:
    parser.add_argument("--m", type=int, required=True, help="largest entry bound")
    parser.add_argument("--shape", required=True, help="strict partition, e.g. 9,7,6,3,2")
    parser.add_argument("--mode", default="qt", choices=("qt", "q-spp", "q-sym"))
    parser.add_argument(
        "--method",
        default="det",
        choices=("det", "enum", "both"),
        help="det gives the squared GF; enum the GF itself; both cross-checks",
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: missing field {exc} in input file", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except dag.BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
