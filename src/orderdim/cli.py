"""Command-line front end: solvers, reductions, generators, campaigns.

Exit codes: 0 success or property verified, 1 property violated with a
counterexample printed, 2 usage or input error, 3 search budget or size
guard exceeded. The DICHRO_BUDGET environment variable overrides the
default search budget; --budget overrides both.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from .digraphs import HomWitness, find_homomorphism, verify_homomorphism
from .errors import (
    IndexOutOfRange,
    LimitExceeded,
    OrderdimError,
    SizeMismatch,
    TooLarge,
)
from .reduction import (
    MAX_PAIR_EDGES,
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


class _OpenOnWrite:
    """The --out file, opened at the first write, so a command that fails
    before its output, or reads that same file, leaves it as it was."""

    def __init__(self, path: str):
        self.path = path

    def write(self, text: str) -> int:
        try:
            fh = open(self.path, "w", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot open {self.path}: {exc}")
        # from now on every call goes straight to the file
        self.write, self.flush, self.fileno, self.close = (
            fh.write, fh.flush, fh.fileno, fh.close
        )
        return fh.write(text)

    def flush(self) -> None:
        """Nothing is written before the file opens."""

    close = flush


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
        d, pairs = pair_digraph(base, incomparable_only=args.what == "bp")
        edges = d.edge_count()
        if edges > MAX_PAIR_EDGES:
            raise TooLarge(
                f"{edges} pair edges exceed the pair edge guard of "
                f"{MAX_PAIR_EDGES}"
            )
        _emit(
            args,
            out,
            {"digraph": digraph_payload(d), "pairs": [list(p) for p in pairs]},
            f"vertices={d.n} edges={edges}",
        )
        return 0
    g = _load(args.source, digraph_from_payload)
    if 2 * g.n > MAX_INPUT_N:
        raise TooLarge(
            f"reduce pg of {g.n} vertices writes {2 * g.n} elements, above "
            f"the input limit of {MAX_INPUT_N}"
        )
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
        canonical_cycles,
        dense_selector,
        density_report,
        level_edge_count,
        monotone_counterexample,
        selector_digraph,
    )

    sigma = _parse_sigma(args.sigma)
    if args.what == "selector":
        val = dense_selector(sigma)
        _emit(
            args,
            out,
            {"sigma": list(sigma), "selector": list(val)},
            ",".join(map(str, val)),
        )
        return 0
    if args.what == "k":
        g, verts = selector_digraph(sigma)
        cycles = canonical_cycles(sigma)
        _emit(
            args,
            out,
            {
                "sigma": list(sigma),
                "digraph": digraph_payload(g),
                "verts": [list(t) for t in verts],
                "level_edges": [
                    level_edge_count(sigma, k) for k in range(len(sigma))
                ],
                "canonical_cycles": [list(c.verts) for c in cycles],
            },
            f"vertices={g.n} edges={g.edge_count()} "
            f"canonical_cycles={len(cycles)}",
        )
        return 0
    if args.what == "density":
        depth = len(sigma) if args.depth is None else args.depth
        if depth < 0 or depth > len(sigma):
            raise UsageError(f"--depth must lie in 0..{len(sigma)}")
        witnessed, unresolved = density_report(sigma, depth)
        _emit(
            args,
            out,
            {
                "sigma": list(sigma),
                "depth": depth,
                "witnessed": [[list(s), l] for s, l in witnessed],
                "unresolved": [[list(s), l] for s, l in unresolved],
                # the value at each witnessed index extends its tuple by
                # construction, so no tuple can fail the check
                "violations": [],
                "ok": True,
            },
            f"witnessed={len(witnessed)} unresolved={len(unresolved)} "
            "violations=0",
        )
        return 0
    pair = monotone_counterexample(sigma)
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
        if args.witness is not None:
            raise UsageError("hom find takes no witness file")
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
    # --minimal asks for the cycle rule even when the witness does not
    w = HomWitness(w.mapping, w.minimal or args.minimal)
    try:
        res = verify_homomorphism(g, h, w, budget=_resolve_budget(args))
    except (SizeMismatch, IndexOutOfRange) as exc:
        # a map of the wrong length or with an image outside H is bad
        # input rather than a violated property
        raise UsageError(f"{args.witness}: {exc}")
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


def _cmd_gen(args, out) -> int:
    n = args.n
    if n < 0:
        raise UsageError(f"--n must be at least 0, got {n}")
    if n > MAX_INPUT_N:
        raise UsageError(f"--n is {n}, above the input limit of {MAX_INPUT_N}")
    # nan compares false with everything, so it fails this test too
    if not 0 <= args.p <= 1:
        raise UsageError(f"--p must be a number in [0, 1], got {args.p}")
    from . import generate

    guard = generate.MAX_GEN_N
    if n > guard and args.kind not in ("antichain", "cycle", "boolean"):
        raise TooLarge(f"gen {args.kind} is guarded to n <= {guard}, got {n}")
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

# Each argument is (name, keyword arguments of argparse's add_argument). A
# name starting with - is an option: its flag, with its type, default and
# choices, and whether it is store_true or required. Any other name is a
# positional, with its choices, and optional when nargs is "?" (only as
# the last positional).
_OUT = ("--out", {"default": None, "metavar": "FILE"})
_COMMON = (("--format", {"choices": ("json", "text"), "default": "json"}), _OUT)
_BUDGET = ("--budget", {"type": int, "default": None})

# name -> (help line, handler, arguments), in the order the parser lists
# them; build_parser hands the arguments to argparse and _fast_parse
# reads the same entries
SUBCOMMANDS = {
    "dim": (
        "order dimension of a quasi order",
        _cmd_dim,
        (("order", {}), *_COMMON, _BUDGET),
    ),
    "dicr": (
        "dichromatic number of a digraph",
        _cmd_dicr,
        (("digraph", {}), *_COMMON, _BUDGET),
    ),
    "chrom": (
        "chromatic number of a symmetric digraph",
        _cmd_chrom,
        (("digraph", {}), *_COMMON, _BUDGET),
    ),
    "reduce": (
        "order/digraph reductions",
        _cmd_reduce,
        (
            ("what", {"choices": ("ap", "bp", "pg")}),
            ("source", {}),
            *_COMMON,
        ),
    ),
    "convert": (
        "witness conversions",
        _cmd_convert,
        (
            ("direction", {"choices": ("cover-to-ext", "ext-to-cover")}),
            ("order", {}),
            ("witness", {}),
            *_COMMON,
        ),
    ),
    "g0": (
        "branching-tree digraphs and selectors",
        _cmd_g0,
        (
            ("what", {"choices": ("selector", "k", "density", "monotone")}),
            ("--sigma", {"required": True}),
            ("--depth", {"type": int, "default": None}),
            *_COMMON,
        ),
    ),
    "hom": (
        "digraph homomorphisms",
        _cmd_hom,
        (
            ("what", {"choices": ("find", "check")}),
            ("g", {}),
            ("h", {}),
            ("witness", {"nargs": "?", "default": None}),
            ("--minimal", {"action": "store_true"}),
            *_COMMON,
            _BUDGET,
        ),
    ),
    "gen": (
        "instance generators",
        _cmd_gen,
        (
            ("kind", {"choices": tuple(GENERATORS)}),
            ("--n", {"type": int, "default": 4}),
            ("--p", {"type": float, "default": 0.3}),
            ("--seed", {"type": int, "default": 0}),
            _OUT,
        ),
    ),
    "enumerate": (
        "labeled posets on exactly n points",
        _cmd_enumerate,
        (("--n", {"type": int, "default": 4}), *_COMMON),
    ),
    "verify": (
        "run a certificate campaign",
        _cmd_verify,
        (
            ("name", {}),
            ("--n", {"type": int, "default": None}),
            ("--seed", {"type": int, "default": 0}),
            _OUT,
            _BUDGET,
        ),
    ),
}


def build_parser():
    """The orderdim argparse.ArgumentParser, built from SUBCOMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="orderdim",
        description=(
            "Exact order-dimension and dichromatic-number toolkit with "
            "verifiable witnesses"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, arguments) in SUBCOMMANDS.items():
        p = subs.add_parser(name, help=help_line)
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def _plain_value(kwargs, text):
    """text as argparse stores it for the argument, or None where argparse
    would refuse it."""
    kind = kwargs.get("type")
    if kind is not None:
        try:
            text = kind(text)
        except ValueError:
            return None
    choices = kwargs.get("choices")
    return text if choices is None or text in choices else None


def _fast_parse(argv):
    """The namespace _parse would return for a plain argv, or None.

    Plain is a subcommand, then its positionals and options in any
    order. An option is named in full or by an unambiguous -- prefix,
    with its value after = or as the next argument. None leaves every
    help text, usage line and error to argparse. It is returned for: -h,
    --help or a prefix of it; an argument starting with - (a negative
    number too), other than - itself, that names no single option, --
    among them; =value on a flag; a value of --, or a next-argument
    value starting with -; a missing, extra or out-of-choice positional;
    a value its type rejects; and a missing required option.
    """
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    _, handler, arguments = SUBCOMMANDS[argv[0]]
    positionals, options, ns = [], {}, {"command": argv[0]}
    for name, kwargs in arguments:
        if name[0] != "-":
            positionals.append((name, kwargs))
            continue
        options[name] = kwargs
        if not kwargs.get("required"):
            store_true = kwargs.get("action") == "store_true"
            ns[name[2:]] = False if store_true else kwargs.get("default")
    given = []
    rest = iter(argv[1:])
    for arg in rest:
        if arg[:1] != "-" or arg == "-":
            given.append(arg)
            continue
        name, eq, text = arg.partition("=")
        if name not in options:
            # argparse takes an unambiguous prefix; --help is one more
            full = [o for o in (*options, "--help") if o.startswith(name)]
            if name[:2] != "--" or len(full) != 1 or full[0] == "--help":
                return None
            name = full[0]
        kwargs = options[name]
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            ns[name[2:]] = True
            continue
        if not eq:
            text = next(rest, None)
            if text is None or text[:1] == "-" and text != "-":
                return None
        elif text == "--":
            # argparse drops it as it drops a lone -- (3.11 then stores
            # an empty list)
            return None
        value = _plain_value(kwargs, text)
        if value is None:
            return None
        ns[name[2:]] = value
    if any(name[2:] not in ns for name in options):
        return None
    least = sum(kwargs.get("nargs") != "?" for _, kwargs in positionals)
    if not least <= len(given) <= len(positionals):
        return None
    for i, (name, kwargs) in enumerate(positionals):
        if i >= len(given):
            ns[name] = kwargs.get("default")
            continue
        value = _plain_value(kwargs, given[i])
        if value is None:
            return None
        ns[name] = value
    ns["handler"] = handler
    return SimpleNamespace(**ns)


def _parse(argv):
    """argv read from the table where _fast_parse can, else by argparse
    as typed, so every help text, usage line and error is argparse's own.
    An option given as --opt=-- has no value, yet argparse stores one (an
    empty list on 3.11, where other versions may keep the "--"), so such
    a line is re-read with the bare option, which argparse refuses."""
    args = _fast_parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
        for name, _ in SUBCOMMANDS[args.command][2]:
            if name[0] == "-" and getattr(args, name[2:]) in ([], "--"):
                build_parser().parse_args([args.command, name])
    return args


def _to_devnull(stream) -> None:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def run(argv) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    out = sys.stdout if args.out is None else _OpenOnWrite(args.out)
    # a payload is many small lists and no reference cycle, so a
    # collection while one is built and written frees nothing; such
    # collections took most of the time of listing it
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.handler(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe; send what is still buffered to
        # /dev/null so the flush at exit cannot raise a second time, and
        # stderr too when it is the same closed pipe
        _to_devnull(out)
        try:
            print("error: output pipe closed", file=sys.stderr)
        except BrokenPipeError:
            _to_devnull(sys.stderr)
        return 2
    except (UsageError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return 3
    except LimitExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except OrderdimError as exc:
        print(f"property violated: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()
        if out is not sys.stdout:
            out.close()


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
