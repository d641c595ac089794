"""Command-line front end: solvers, reductions, generators, campaigns.

Exit codes: 0 success or property verified, 1 property violated with a
counterexample printed, 2 usage or input error, 3 search budget or size
guard exceeded. The DICHRO_BUDGET environment variable overrides the
default search budget; --budget overrides both.
"""

from __future__ import annotations

import argparse
import os
import sys

from .digraphs import find_homomorphism, verify_homomorphism
from .errors import (
    BranchTooLarge,
    CycleInX,
    IndexOutOfRange,
    LimitExceeded,
    OrderdimError,
    TooLarge,
)
from .reduction import (
    cover_to_extensions,
    extensions_to_cover,
    pair_digraph,
    two_level_order,
)
from .serialize import (
    MAX_INPUT_N,
    FormatError,
    cover_from_payload,
    cover_payload,
    digraph_from_payload,
    digraph_payload,
    dumps,
    family_from_payload,
    family_payload,
    homwitness_from_payload,
    homwitness_payload,
    order_from_payload,
    order_payload,
    parse_json,
)
from .solvers import (
    DEFAULT_SEARCH_BUDGET,
    chromatic_number,
    dichromatic_number,
    order_dimension,
)

GUARD_ERRORS = (LimitExceeded, TooLarge, BranchTooLarge)


class UsageError(Exception):
    pass


def _resolve_budget(args) -> int:
    budget, source = getattr(args, "budget", None), "--budget"
    if budget is None:
        env = os.environ.get("DICHRO_BUDGET")
        if not env:
            return DEFAULT_SEARCH_BUDGET
        source = "DICHRO_BUDGET"
        try:
            budget = int(env)
        except ValueError:
            raise UsageError(f"DICHRO_BUDGET must be an integer, got {env!r}")
    if budget < 0:
        raise UsageError(f"{source} must be at least 0, got {budget}")
    return budget


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _load(path: str, from_payload):
    """from_payload of the JSON at path; bad input is a usage error."""
    try:
        return from_payload(parse_json(_read(path)))
    except OrderdimError as exc:
        raise UsageError(f"{path}: {exc}")


def _parse_sigma(text: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        entries = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"--sigma expects comma-separated integers, got {text!r}")
    if any(v < 2 for v in entries):
        raise UsageError("--sigma entries must all be at least 2")
    return entries


def _emit(args, out, payload: dict, text: str) -> None:
    out.write(dumps(payload) if args.format == "json" else text + "\n")


# ---------------------------------------------------------------- handlers


def _cmd_dim(args, out) -> int:
    base = _load(args.order, order_from_payload)
    res = order_dimension(base, _resolve_budget(args))
    _emit(
        args,
        out,
        {"d": res.d, "family": family_payload(res.witness)},
        f"d={res.d} extensions={res.witness.size}",
    )
    return 0


def _cmd_dicr(args, out) -> int:
    g = _load(args.digraph, digraph_from_payload)
    res = dichromatic_number(g, _resolve_budget(args))
    _emit(
        args,
        out,
        {"k": res.k, "cover": cover_payload(res.witness)},
        f"k={res.k} classes={len(res.witness.classes)}",
    )
    return 0


def _cmd_chrom(args, out) -> int:
    g = _load(args.digraph, digraph_from_payload)
    k, colors = chromatic_number(g, _resolve_budget(args))
    _emit(
        args,
        out,
        {"k": k, "coloring": list(colors)},
        f"k={k}",
    )
    return 0


def _cmd_reduce(args, out) -> int:
    if args.what in ("ap", "bp"):
        base = _load(args.source, order_from_payload)
        d, pvm = pair_digraph(base, incomparable_only=args.what == "bp")
        _emit(
            args,
            out,
            {
                "digraph": digraph_payload(d),
                "pairs": [list(p) for p in pvm.pairs],
            },
            f"vertices={d.n} edges={d.edge_count()}",
        )
        return 0
    g = _load(args.source, digraph_from_payload)
    q, emb = two_level_order(g)
    _emit(
        args,
        out,
        {"order": order_payload(q), "embedding": list(emb)},
        f"elements={q.n}",
    )
    return 0


def _cmd_convert(args, out) -> int:
    base = _load(args.order, order_from_payload)
    doc = _load(args.witness, lambda doc: doc)
    try:
        if args.direction == "cover-to-ext":
            fam = cover_to_extensions(base, cover_from_payload(doc))
        else:
            fam = family_from_payload(doc, base)
    except (FormatError, IndexOutOfRange) as exc:
        # a malformed witness, or one naming an id outside the base or its
        # pair digraph, is bad input rather than a violated property
        raise UsageError(f"{args.witness}: {exc}")
    if args.direction == "cover-to-ext":
        _emit(args, out, family_payload(fam), f"extensions={fam.size}")
        return 0
    cover = extensions_to_cover(fam)
    _emit(
        args,
        out,
        cover_payload(cover),
        f"classes={len(cover.classes)}",
    )
    return 0


def _cmd_g0(args, out) -> int:
    from .selectors import (
        DenseSelector,
        canonical_cycles,
        density_report,
        level_edge_count,
        monotone_counterexample,
        selector_digraph,
    )

    sigma = _parse_sigma(args.sigma)
    sel = DenseSelector()
    if args.what == "selector":
        val = sel(sigma)
        _emit(
            args,
            out,
            {"sigma": list(sigma), "selector": list(val)},
            ",".join(map(str, val)),
        )
        return 0
    if args.what == "k":
        kd = selector_digraph(sel, sigma)
        cycles = canonical_cycles(sel, sigma)
        _emit(
            args,
            out,
            {
                "sigma": list(sigma),
                "digraph": digraph_payload(kd.graph),
                "verts": [list(t) for t in kd.verts],
                "level_edges": [
                    level_edge_count(sigma, k) for k in range(len(sigma))
                ],
                "canonical_cycles": [list(c.verts) for c in cycles],
            },
            f"vertices={kd.graph.n} edges={kd.graph.edge_count()} "
            f"canonical_cycles={len(cycles)}",
        )
        return 0
    if args.what == "density":
        depth = len(sigma) if args.depth is None else args.depth
        if depth < 0 or depth > len(sigma):
            raise UsageError(f"--depth must lie in 0..{len(sigma)}")
        rep = density_report(sel, sigma, depth)
        _emit(
            args,
            out,
            {
                "sigma": list(sigma),
                "depth": depth,
                "witnessed": [[list(s), l] for s, l in rep.witnessed],
                "unresolved": [[list(s), l] for s, l in rep.unresolved],
                "violations": [[list(s), l] for s, l in rep.violations],
                "ok": rep.ok,
            },
            f"witnessed={len(rep.witnessed)} unresolved={len(rep.unresolved)} "
            f"violations={len(rep.violations)}",
        )
        return 0 if rep.ok else 1
    pair = monotone_counterexample(sel, sigma)
    ok = pair is None
    counterexample = None if ok else list(pair)
    _emit(
        args,
        out,
        {"sigma": list(sigma), "monotone": ok, "counterexample": counterexample},
        "monotone" if ok else f"violated at prefix lengths {counterexample}",
    )
    return 0 if ok else 1


def _cmd_hom(args, out) -> int:
    g = _load(args.g, digraph_from_payload)
    h = _load(args.h, digraph_from_payload)
    if args.what == "find":
        w = find_homomorphism(
            g, h, minimal=args.minimal, budget=_resolve_budget(args)
        )
        if w is None:
            _emit(
                args,
                out,
                {"found": False, "minimal": args.minimal},
                "no homomorphism",
            )
            return 1
        _emit(
            args,
            out,
            {"found": True, **homwitness_payload(w)},
            "map=" + ",".join(map(str, w.mapping)),
        )
        return 0
    if args.witness is None:
        raise UsageError("hom check needs a witness file")
    w = _load(args.witness, homwitness_from_payload)
    res = verify_homomorphism(g, h, w)
    payload = {
        "ok": res.ok,
        "reason": res.reason,
        "pair": list(res.pair) if res.pair else None,
        "cycle": list(res.cycle) if res.cycle else None,
    }
    _emit(args, out, payload, "ok" if res.ok else f"violation: {res.reason}")
    return 0 if res.ok else 1


# kind -> (generate function, whether it takes p and seed after n,
# payload function); only gen imports generate
GENERATORS = {
    "poset": ("random_order", True, order_payload),
    "quasi": ("random_quasi", True, order_payload),
    "digraph": ("random_digraph", True, digraph_payload),
    "symmetric": ("random_symmetric", True, digraph_payload),
    "crown": ("crown_order", False, order_payload),
    "chain": ("chain_order", False, order_payload),
    "antichain": ("antichain_order", False, order_payload),
    "boolean": ("boolean_order", False, order_payload),
    "cycle": ("directed_cycle", False, digraph_payload),
    "biclique": ("bidirected_clique", False, digraph_payload),
}

# The instances of all kinds but antichain, cycle and boolean (which
# guards itself) grow with n squared: at n = 2000 one takes seconds and
# a few hundred MB. gen refuses n above this for them.
MAX_GEN_N = 1000


def _cmd_gen(args, out) -> int:
    n = args.n
    if n < 0:
        raise UsageError(f"--n must be at least 0, got {n}")
    if n > MAX_INPUT_N:
        raise UsageError(f"--n is {n}, above the input limit of {MAX_INPUT_N}")
    # nan compares false with everything, so it fails this test too
    if not 0 <= args.p <= 1:
        raise UsageError(f"--p must be a number in [0, 1], got {args.p}")
    if n > MAX_GEN_N and args.kind not in ("antichain", "cycle", "boolean"):
        raise TooLarge(
            f"gen {args.kind} is guarded to n <= {MAX_GEN_N}, got {n}"
        )
    from . import generate

    name, seeded, payload = GENERATORS[args.kind]
    make = getattr(generate, name)
    try:
        instance = make(n, args.p, args.seed) if seeded else make(n)
    except IndexOutOfRange as exc:
        # crown and cycle have a least size of their own
        raise UsageError(str(exc))
    out.write(dumps(payload(instance)))
    return 0


def _cmd_enumerate(args, out) -> int:
    from .generate import enumerate_posets

    if args.n < 0:
        raise UsageError(f"--n must be at least 0, got {args.n}")
    count = 0
    for q in enumerate_posets(args.n):
        count += 1
        if args.format == "json":
            out.write(dumps(order_payload(q)))
    if args.format == "text":
        out.write(f"count={count}\n")
    return 0


def _cmd_verify(args, out) -> int:
    # only verify needs the campaigns, so other commands skip their import
    from .campaigns import run_campaign

    budget = _resolve_budget(args)
    try:
        certs = run_campaign(args.name, n=args.n, seed=args.seed, budget=budget)
    except OrderdimError as exc:
        raise UsageError(str(exc))
    total = 0
    for cert in certs:
        total += 1
        out.write(dumps(cert.to_payload()))
        if not cert.verified:
            print(
                f"campaign {args.name}: certificate {cert.index} "
                "failed verification (counterexample above)",
                file=sys.stderr,
            )
            return 1
    print(
        f"campaign {args.name}: {total} certificates, all verified",
        file=sys.stderr,
    )
    return 0


# ------------------------------------------------------------------ parser


def _add_common(sub, budget=True):
    sub.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_argument("--out", default=None, metavar="FILE")
    if budget:
        sub.add_argument("--budget", type=int, default=None)


def _dim_args(p):
    p.add_argument("order")
    _add_common(p)


def _digraph_args(p):
    p.add_argument("digraph")
    _add_common(p)


def _reduce_args(p):
    p.add_argument("what", choices=("ap", "bp", "pg"))
    p.add_argument("source")
    _add_common(p, budget=False)


def _convert_args(p):
    p.add_argument("direction", choices=("cover-to-ext", "ext-to-cover"))
    p.add_argument("order")
    p.add_argument("witness")
    _add_common(p, budget=False)


def _g0_args(p):
    p.add_argument("what", choices=("selector", "k", "density", "monotone"))
    p.add_argument("--sigma", required=True)
    p.add_argument("--depth", type=int, default=None)
    _add_common(p, budget=False)


def _hom_args(p):
    p.add_argument("what", choices=("find", "check"))
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("witness", nargs="?", default=None)
    p.add_argument("--minimal", action="store_true")
    _add_common(p)


def _gen_args(p):
    p.add_argument("kind", choices=tuple(GENERATORS))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, budget=False)


def _enumerate_args(p):
    p.add_argument("--n", type=int, default=4)
    _add_common(p, budget=False)


def _verify_args(p):
    p.add_argument("name")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)


# name -> (help line, handler, function adding its arguments), in the
# order the full parser lists them
SUBCOMMANDS = {
    "dim": ("order dimension of a quasi order", _cmd_dim, _dim_args),
    "dicr": ("dichromatic number of a digraph", _cmd_dicr, _digraph_args),
    "chrom": (
        "chromatic number of a symmetric digraph", _cmd_chrom, _digraph_args
    ),
    "reduce": ("order/digraph reductions", _cmd_reduce, _reduce_args),
    "convert": ("witness conversions", _cmd_convert, _convert_args),
    "g0": ("branching-tree digraphs and selectors", _cmd_g0, _g0_args),
    "hom": ("digraph homomorphisms", _cmd_hom, _hom_args),
    "gen": ("instance generators", _cmd_gen, _gen_args),
    "enumerate": (
        "labeled posets on exactly n points", _cmd_enumerate, _enumerate_args
    ),
    "verify": ("run a certificate campaign", _cmd_verify, _verify_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The orderdim parser, with every subcommand or only the one named."""
    parser = argparse.ArgumentParser(
        prog="orderdim",
        description=(
            "Exact order-dimension and dichromatic-number toolkit with "
            "verifiable witnesses"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, add_args) in SUBCOMMANDS.items():
        if command in (None, name):
            p = subs.add_parser(name, help=help_line)
            add_args(p)
            p.set_defaults(handler=handler)
    return parser


def _parse(argv):
    """Parse argv, building only the parser of the command it names.

    Past its first argument the top-level parser only passes the rest
    to the command's parser, which prints its own usage, help and
    errors. The one exception is arguments the command leaves over:
    the full parser reports those, under the full usage line.
    """
    if not argv or argv[0] not in SUBCOMMANDS:
        return build_parser().parse_args(argv)
    args, extra = build_parser(argv[0]).parse_known_args(argv)
    if extra:
        build_parser().parse_args(argv)
    return args


def run(argv) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    close = False
    if args.out is None:
        out = sys.stdout
    else:
        try:
            out = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot open {args.out}: {exc}", file=sys.stderr)
            return 2
        close = True
    try:
        code = args.handler(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe; send what is still buffered to
        # /dev/null so the flush at exit cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        print("error: output pipe closed", file=sys.stderr)
        return 2
    except (UsageError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GUARD_ERRORS as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except CycleInX as exc:
        out.write(dumps({"cycle": [list(p) for p in exc.pairs]}))
        print("property violated: offered pairs contain a cycle", file=sys.stderr)
        return 1
    except OrderdimError as exc:
        print(f"property violated: {exc}", file=sys.stderr)
        return 1
    finally:
        if close:
            out.close()


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
