"""Command line front end.

Subcommands:
  word linv|enum|canon
  braid nf|theta|census|bracket
  config3 decode-braid|decode-word|in-h
  conformal lambda|grid|torus-bounds
  dbar kernel|solve|demo
  bounds thm1|thm2|thm3|prop1a|prop1b|table

Exit codes: 0 success, 2 validation error, 3 numeric non-convergence.
Output is JSON (or CSV for tables); identical argv give byte-identical
stdout.  FBT_THREADS caps the BLAS thread pools used by
the numeric backends.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys


def _cap_threads() -> None:
    n = os.environ.get("FBT_THREADS")
    if n:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, n)


_cap_threads()

from .errors import NumericalError, ValidationError  # noqa: E402


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _emit_csv(header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _floats(text: str) -> list[float]:
    items = [t for t in text.split(",") if t.strip()]
    return [float(t) for t in items]


# ---------------------------------------------------------------------------
# word


def _cmd_word(args) -> int:
    from . import words as W

    if args.op == "linv":
        _emit(W.word_json(W.parse_word(args.word)))
    elif args.op == "canon":
        w = W.parse_word(args.word)
        _emit({"word": W.format_word(w),
               "canonical": W.format_word(W.cyclic_canonical(w)),
               "primitive": None if w.is_identity else W.is_primitive(w)})
    else:  # enum
        cap = args.cap if args.cap is not None else W.ENUM_BUDGET_CAP
        ws = W.enumerate_words(args.budget, cap=cap)
        if args.table:
            _emit_csv(["budget", "count"], [[args.budget, len(ws)]])
        else:
            _emit({"budget": args.budget, "count": len(ws),
                   "words": [W.format_word(w) for w in ws]})
    return 0


# ---------------------------------------------------------------------------
# braid


def _cmd_braid(args) -> int:
    from . import braid as B
    from . import words as W

    if args.op in ("nf", "theta", "bracket"):
        b = B.parse_braid(args.braid)
        if args.op == "nf":
            _emit(B.braid_json(b))
        elif args.op == "theta":
            th = B.theta(b)
            _emit({"braid": B.format_braid(b), "theta": W.format_word(th),
                   "l_minus": W.l_minus(th)})
        else:
            nf = B.normal_form(b)
            _emit({"braid": B.format_braid(b),
                   "lambda_tr_lower": B.lambda_tr_lower_nf(nf),
                   "exceptional": nf.kind == "delta-power" or nf.b1.is_identity})
        return 0
    # census
    budgets = _floats(args.budgets)
    if not budgets:
        raise ValidationError("empty sweep")
    cap = args.cap if args.cap is not None else W.ENUM_BUDGET_CAP
    if args.table:
        rows = []
        for y in budgets:
            elems = B.census(y, cap=cap)
            rows.append([y, len(elems), B.braid_count_bound(y).ln])
        _emit_csv(["budget", "count", "ln_bound"], rows)
    else:
        out = []
        for y in budgets:
            elems = B.census(y, cap=cap)
            out.append({"budget": y, "count": len(elems),
                        "elements": [B.format_braid(e) for e in elems]})
        _emit({"census": out})
    return 0


# ---------------------------------------------------------------------------
# config3


def _cmd_config3(args) -> int:
    from . import braid as B
    from . import config3 as C
    from . import words as W

    if args.op == "in-h":
        vals = _floats(args.points)
        if len(vals) != 6:
            raise ValidationError("in-h needs six floats re1,im1,...,im3")
        t = C.triple(complex(vals[0], vals[1]), complex(vals[2], vals[3]),
                     complex(vals[4], vals[5]))
        _emit({"in_h": C.in_h(t, args.tol), "defect": C.collinearity_defect(t)})
    elif args.op == "decode-word":
        loop = C.load_plane_loop(args.path)
        w = C.decode_word(loop)
        _emit({"word": W.format_word(w),
               "windings": list(C.winding_numbers(loop))})
    else:  # decode-braid
        loop = C.load_config_loop(args.path)
        amb = B.MOD_CENTER if args.mod_center else B.B3
        b = C.decode_braid(loop, ambient=amb)
        _emit(B.braid_json(b))
    return 0


# ---------------------------------------------------------------------------
# conformal


def _spec_from_args(args):
    from . import conformal as Cf

    if args.kind == "round":
        return Cf.round_annulus(args.r, args.R)
    if args.kind == "rectangle":
        return Cf.rectangle(args.a, args.b)
    return Cf.flat_cylinder(args.circumference, args.height)


def _cmd_conformal(args) -> int:
    from . import conformal as Cf

    if args.op == "lambda":
        if getattr(args, "spec_file", None):
            with open(args.spec_file) as fh:
                spec = Cf.spec_from_json(json.load(fh))
        elif args.kind:
            spec = _spec_from_args(args)
        else:
            raise ValidationError("need --kind or --spec-file")
        _emit({"kind": spec.kind, "lambda": Cf.lambda_closed_form(spec)})
    elif args.op == "grid":
        if args.kind == "round":
            dom = Cf.annulus_grid(args.r, args.R, args.h, family=args.family)
        elif args.kind == "rectangle":
            dom = Cf.rectangle_grid(args.a, args.b, args.h,
                                    marked=args.marked, family=args.family)
        else:
            dom = Cf.cylinder_grid(args.circumference, args.height, args.h)
        _emit(Cf.grid_extremal_length(dom).to_json())
    else:  # torus-bounds
        x = Cf.TorusWithHole(args.alpha, args.sigma)
        out = dict(Cf.generator_upper_bounds(x))
        out["lambda3_upper"] = Cf.prop1a_lambda3_upper(x)
        _emit(out)
    return 0


# ---------------------------------------------------------------------------
# dbar


def _cmd_dbar(args) -> int:
    from . import dbar as D

    if args.op == "kernel":
        params = D.KernelParams(args.alpha, trunc=args.N)
        z = complex(args.re, args.im)
        wpv = D.wp(params, z)
        wnv = D.wp_nu(params, z)
        _emit({"alpha": args.alpha, "N": args.N, "z": [z.real, z.imag],
               "wp": [wpv.real, wpv.imag], "wp_nu": [wnv.real, wnv.imag]})
    elif args.op == "solve":
        cfg = D.DbarConfig(eps=args.eps, delta=args.delta, quad_n=args.quad)
        params = D.KernelParams(args.alpha)
        g = D.demo_g(args.alpha, 1, args.winding, args.rho)
        quad = D.quadrature_phi(g, cfg)
        sol = D.solve_dbar(quad, params, cfg)
        diag = D.solve_diagnostics(sol, g, complex(g(0j)))
        _emit({"alpha": args.alpha, "sigma": cfg.sigma,
               "sup_f": diag.sup_f, "budget": diag.budget,
               "c1": diag.c1, "c2": diag.c2,
               "fd_dbar_residual": diag.fd_dbar_residual,
               "off_support_residual": diag.off_support_residual,
               "periodic_defect": diag.periodic_defect})
    else:  # demo
        from . import words as W

        target = W.parse_word(args.target)
        res = D.demo_construct(args.alpha, args.sigma, target)
        if args.dump:
            rows = [[z.real, z.imag, f.real, f.imag]
                    for z, f in zip(res.circle_samples, res.map_samples)]
            with open(args.dump, "w", newline="") as fh:
                wr = csv.writer(fh, lineterminator="\n")
                wr.writerow(["re_z", "im_z", "re_f", "im_f"])
                wr.writerows(rows)
        _emit(res.to_json())
    return 0


# ---------------------------------------------------------------------------
# bounds


def _cmd_bounds(args) -> int:
    from . import bounds as Bd

    if args.op == "thm1":
        t = Bd.SurfaceTopology(args.g, args.m)
        val = Bd.thm1_bound(t, args.lambda4)
        _emit(Bd.bound_json(val, "3*(3/2*e^{24 pi lambda4})^{2g+m}",
                            {"g": args.g, "m": args.m, "lambda4": args.lambda4}))
    elif args.op in ("thm2", "thm3"):
        t = Bd.SurfaceTopology(args.g, args.m)
        fn = Bd.thm2_bound if args.op == "thm2" else Bd.thm3_bound
        pre = "2*" if args.op == "thm2" else ""
        val = fn(t, args.lambda8)
        _emit(Bd.bound_json(val, f"({pre}3^6*5^6*e^{{36 pi lambda8}})^{{2g+m}}",
                            {"g": args.g, "m": args.m, "lambda8": args.lambda8}))
    elif args.op == "prop1a":
        up = Bd.prop1a_upper(args.alpha, args.sigma)
        out = Bd.bound_json(up, "7*e^{192 pi (2 alpha+1)/sigma}",
                            {"alpha": args.alpha, "sigma": args.sigma})
        if args.C is not None or args.c is not None:
            if args.C is None or args.c is None:
                raise ValidationError("the lower bound needs both --C and --c")
            low = Bd.prop1a_lower(args.alpha, args.sigma, args.C, args.c)
            out["lower"] = {"ln": low.ln, "decimal": low.decimal(),
                            "formula": "c*e^{C alpha/sigma}"}
        _emit(out)
    elif args.op == "prop1b":
        up, low = Bd.prop1b_bounds(args.sigma, args.C1, args.C2,
                                   args.C1p, args.C2p)
        _emit({"upper": {"ln": up.ln, "decimal": up.decimal()},
               "lower": {"ln": low.ln, "decimal": low.decimal()},
               "inputs": {"sigma": args.sigma}})
    else:  # table
        _bounds_table(args)
    return 0


def _bounds_table(args) -> None:
    from . import bounds as Bd

    rows = []
    if args.formula == "prop1a-upper":
        sigmas = _floats(args.sigmas or "")
        if not sigmas:
            raise ValidationError("empty sweep")
        for s in sigmas:
            v = Bd.prop1a_upper(args.alpha, s)
            rows.append([args.alpha, s, v.ln, v.decimal()])
        _emit_csv(["alpha", "sigma", "ln", "decimal"], rows)
    elif args.formula in ("thm1", "thm2", "thm3"):
        lams = _floats(args.lambdas or "")
        if not lams:
            raise ValidationError("empty sweep")
        t = Bd.SurfaceTopology(args.g, args.m)
        fn = {"thm1": Bd.thm1_bound, "thm2": Bd.thm2_bound,
              "thm3": Bd.thm3_bound}[args.formula]
        for lam in lams:
            v = fn(t, lam)
            rows.append([args.g, args.m, lam, v.ln, v.decimal()])
        _emit_csv(["g", "m", "lambda", "ln", "decimal"], rows)
    else:
        raise ValidationError(f"unknown table formula {args.formula!r}")


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fbt")
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("word")
    wsub = w.add_subparsers(dest="op", required=True)
    for name in ("linv", "canon"):
        q = wsub.add_parser(name)
        q.add_argument("word")
    q = wsub.add_parser("enum")
    q.add_argument("--budget", type=float, required=True)
    q.add_argument("--cap", type=float, default=None)
    q.add_argument("--table", action="store_true")

    b = sub.add_parser("braid")
    bsub = b.add_subparsers(dest="op", required=True)
    for name in ("nf", "theta", "bracket"):
        q = bsub.add_parser(name)
        q.add_argument("braid")
    q = bsub.add_parser("census")
    q.add_argument("--budgets", required=True)
    q.add_argument("--cap", type=float, default=None)
    q.add_argument("--table", action="store_true")

    c = sub.add_parser("config3")
    csub = c.add_subparsers(dest="op", required=True)
    q = csub.add_parser("in-h")
    q.add_argument("--points", required=True, help="re1,im1,re2,im2,re3,im3")
    q.add_argument("--tol", type=float, default=1e-9)
    q = csub.add_parser("decode-word")
    q.add_argument("path")
    q = csub.add_parser("decode-braid")
    q.add_argument("path")
    q.add_argument("--mod-center", action="store_true")

    f = sub.add_parser("conformal")
    fsub = f.add_subparsers(dest="op", required=True)
    for name in ("lambda", "grid"):
        q = fsub.add_parser(name)
        q.add_argument("--kind", required=name == "grid",
                       choices=["round", "rectangle", "flat-cylinder"])
        if name == "lambda":
            q.add_argument("--spec-file", default=None)
        q.add_argument("--r", type=float)
        q.add_argument("--R", type=float)
        q.add_argument("--a", type=float)
        q.add_argument("--b", type=float)
        q.add_argument("--circumference", type=float)
        q.add_argument("--height", type=float)
        if name == "grid":
            q.add_argument("--h", type=float, required=True)
            q.add_argument("--family", default="separating",
                           choices=["separating", "joining"])
            q.add_argument("--marked", default="horizontal",
                           choices=["horizontal", "vertical"])
    q = fsub.add_parser("torus-bounds")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--sigma", type=float, required=True)

    d = sub.add_parser("dbar")
    dsub = d.add_subparsers(dest="op", required=True)
    q = dsub.add_parser("kernel")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--N", type=int, default=60)
    q.add_argument("--re", type=float, required=True)
    q.add_argument("--im", type=float, required=True)
    q = dsub.add_parser("solve")
    q.add_argument("--alpha", type=float, default=1.0)
    q.add_argument("--delta", type=float, default=0.1)
    q.add_argument("--eps", type=float, required=True)
    q.add_argument("--quad", type=int, default=400)
    q.add_argument("--winding", type=int, default=1)
    q.add_argument("--rho", type=float, default=0.2)
    q = dsub.add_parser("demo")
    q.add_argument("--alpha", type=float, default=1.0)
    q.add_argument("--sigma", type=float, required=True)
    q.add_argument("--target", required=True)
    q.add_argument("--dump", default=None)

    bd = sub.add_parser("bounds")
    bdsub = bd.add_subparsers(dest="op", required=True)
    q = bdsub.add_parser("thm1")
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--lambda4", type=float, required=True)
    for name in ("thm2", "thm3"):
        q = bdsub.add_parser(name)
        q.add_argument("--g", type=int, required=True)
        q.add_argument("--m", type=int, required=True)
        q.add_argument("--lambda8", type=float, required=True)
    q = bdsub.add_parser("prop1a")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--sigma", type=float, required=True)
    q.add_argument("--C", type=float, default=None)
    q.add_argument("--c", type=float, default=None)
    q = bdsub.add_parser("prop1b")
    q.add_argument("--sigma", type=float, required=True)
    q.add_argument("--C1", type=float, required=True)
    q.add_argument("--C2", type=float, required=True)
    q.add_argument("--C1p", type=float, required=True)
    q.add_argument("--C2p", type=float, required=True)
    q = bdsub.add_parser("table")
    q.add_argument("--formula", required=True)
    q.add_argument("--alpha", type=float, default=1.0)
    q.add_argument("--sigmas", default=None)
    q.add_argument("--lambdas", default=None)
    q.add_argument("--g", type=int, default=0)
    q.add_argument("--m", type=int, default=1)
    return p


_DISPATCH = {
    "word": _cmd_word,
    "braid": _cmd_braid,
    "config3": _cmd_config3,
    "conformal": _cmd_conformal,
    "dbar": _cmd_dbar,
    "bounds": _cmd_bounds,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _DISPATCH[args.command](args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
