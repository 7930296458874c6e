import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fbt.cli import main
from fbt.conformal import KINDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_word_linv(capsys):
    code, out, _ = run_cli(capsys, "word", "linv", "a1^2 a2^-3")
    assert code == 0
    data = json.loads(out)
    assert data["l_minus"] == pytest.approx(math.log(6) + math.log(9), abs=1e-12)
    assert data["word"] == "a1^2 a2^-3"


def test_word_enum(capsys):
    code, out, _ = run_cli(capsys, "word", "enum", "--budget", str(math.log(3)))
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 5
    assert sorted(data["words"]) == ["", "a1", "a1^-1", "a2", "a2^-1"]


def test_word_canon(capsys):
    code, out, _ = run_cli(capsys, "word", "canon", "a2 a1 a2^-1")
    data = json.loads(out)
    assert code == 0 and data["canonical"] == "a1"


def test_braid_theta(capsys):
    code, out, _ = run_cli(capsys, "braid", "theta", "s1^-4 d s1^4")
    assert code == 0
    assert json.loads(out)["theta"] == "a1^-2 a2^2"


def test_braid_nf_and_bracket(capsys):
    code, out, _ = run_cli(capsys, "braid", "nf", "s2^-2 s1 s2 s2^2")
    data = json.loads(out)
    assert code == 0
    assert data["normal_form"] == {"kind": "general", "j": 2, "k": -3,
                                   "b1": "a1", "l": 1}
    code, out, _ = run_cli(capsys, "braid", "bracket", "s1^5 d^3")
    data = json.loads(out)
    assert data["lambda_tr_lower"] == 0.0 and data["exceptional"]


def test_braid_census_table(capsys):
    code, out, _ = run_cli(capsys, "braid", "census",
                           "--budgets", f"0,{math.log(3)}", "--table")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["budget", "count", "ln_bound"]
    assert [r[1] for r in rows[1:]] == ["10", "42"]


def test_config3_in_h(capsys):
    code, out, _ = run_cli(capsys, "config3", "in-h", "--points=-1,0,0,0,1,0")
    assert code == 0 and json.loads(out)["in_h"] is True
    code, out, _ = run_cli(capsys, "config3", "in-h", "--points=-1,0,0,1,1,0")
    assert code == 0 and json.loads(out)["in_h"] is False


def test_config3_decoders(tmp_path, capsys):
    import cmath

    path = tmp_path / "loop.csv"
    n = 128
    with open(path, "w") as fh:
        fh.write("t,re,im\n")
        for k in range(n + 1):
            z = 1 + 0.4 * cmath.exp(1j * (math.pi + 2 * math.pi * k / n))
            fh.write(f"{k},{z.real!r},{z.imag!r}\n")
    code, out, _ = run_cli(capsys, "config3", "decode-word", str(path))
    assert code == 0 and json.loads(out)["word"] == "a2"

    path2 = tmp_path / "rot.csv"
    with open(path2, "w") as fh:
        fh.write("t,re1,im1,re2,im2,re3,im3\n")
        for k in range(n + 1):
            w = cmath.exp(1j * math.pi * k / n)
            fh.write(f"{k},{(-w).real!r},{(-w).imag!r},0.0,0.0,{w.real!r},{w.imag!r}\n")
    code, out, _ = run_cli(capsys, "config3", "decode-braid", str(path2))
    assert code == 0
    assert json.loads(out)["exponent_sum"] == 3


def test_conformal(capsys):
    code, out, _ = run_cli(capsys, "conformal", "lambda", "--kind", "rectangle",
                           "--a", "2", "--b", "1")
    assert code == 0 and json.loads(out)["lambda"] == 2.0
    code, out, _ = run_cli(capsys, "conformal", "torus-bounds",
                           "--alpha", "1", "--sigma", "0.1")
    data = json.loads(out)
    assert data["e"] == pytest.approx(10.0)
    assert data["lambda3_upper"] == pytest.approx(120.0)
    code, out, _ = run_cli(capsys, "conformal", "grid", "--kind", "rectangle",
                           "--a", "1", "--b", "1", "--h", "0.05")
    data = json.loads(out)
    assert data["lambda"] == pytest.approx(1.0, rel=1e-2)


def test_dbar_kernel(capsys):
    code, out, _ = run_cli(capsys, "dbar", "kernel", "--alpha", "1",
                           "--N", "40", "--re", "0.2", "--im", "0.3")
    assert code == 0
    data = json.loads(out)
    assert len(data["wp"]) == 2 and len(data["wp_nu"]) == 2


def test_bounds_thm1(capsys):
    code, out, _ = run_cli(capsys, "bounds", "thm1", "--g", "0", "--m", "1",
                           "--lambda4", "0")
    data = json.loads(out)
    assert code == 0
    assert math.exp(data["bound"]["ln"]) == pytest.approx(4.5, rel=1e-12)
    assert data["bound"]["decimal"].startswith("4.5")


def test_bounds_prop1a_requires_both_lower_constants(capsys):
    code, _, err = run_cli(capsys, "bounds", "prop1a", "--alpha", "1",
                           "--sigma", "0.1", "--C", "0.5")
    assert code == 2 and err.startswith("error:")


def test_bounds_table_sweep(capsys):
    code, out, _ = run_cli(capsys, "bounds", "table", "--formula", "prop1a-upper",
                           "--alpha", "1", "--sigmas", "0.2,0.1,0.05")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["alpha", "sigma", "ln", "decimal"]
    lns = [float(r[2]) for r in rows[1:]]
    base = math.log(7)
    assert lns == pytest.approx([base + 192 * math.pi * 15,
                                 base + 192 * math.pi * 30,
                                 base + 192 * math.pi * 60], rel=1e-12)


def test_bounds_table_theorem(capsys):
    from fbt.bounds import SurfaceTopology, thm2_bound

    code, out, err = run_cli(capsys, "bounds", "table", "--formula", "thm2",
                             "--g", "1", "--m", "0", "--lambdas", "0,0.5")
    assert code == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["g", "m", "lambda", "ln", "decimal"]
    assert len(rows) == 3
    for row, lam in zip(rows[1:], (0.0, 0.5)):
        v = thm2_bound(SurfaceTopology(1, 0), lam)
        assert row == ["1", "0", repr(lam), repr(v.ln), v.decimal()]


def test_empty_sweep_exits_2(capsys):
    code, _, err = run_cli(capsys, "bounds", "table", "--formula", "prop1a-upper",
                           "--sigmas", "")
    assert code == 2 and "empty sweep" in err
    code, _, err = run_cli(capsys, "braid", "census", "--budgets", "")
    assert code == 2


def test_validation_exit_code(capsys):
    code, _, err = run_cli(capsys, "word", "linv", "a3^2")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("dbar", "kernel", "--alpha", "nan", "--re", "0.2", "--im", "0.3"),
    ("dbar", "kernel", "--alpha", "inf", "--re", "0.2", "--im", "0.3"),
    ("dbar", "kernel", "--alpha", "1", "--re", "nan", "--im", "0.3"),
    ("dbar", "kernel", "--alpha", "1", "--N", "100000", "--re", "0.2", "--im", "0.3"),
    ("dbar", "solve", "--alpha", "nan", "--eps", "0.01"),
    ("dbar", "solve", "--eps", "0.01", "--quad", "100000"),
    ("dbar", "solve", "--eps", "0.01", "--rho", "nan"),
    ("dbar", "solve", "--eps", "0.01", "--winding", "1000000"),
    ("dbar", "solve", "--delta", "0.2", "--eps", "0.95", "--quad", "128"),
    # the cell area (3 delta / n)(delta / n) underflows, so every weight is 0
    ("dbar", "solve", "--eps", "0.01", "--delta", "1e-300"),
    ("dbar", "demo", "--alpha", "inf", "--sigma", "0.01", "--target", "a1"),
    # a winding or an exponent beyond the float range, and alpha = 0 in the
    # demo (it divided by alpha before checking it)
    ("dbar", "solve", "--eps", "0.5", "--quad", "16", "--winding", "9" * 400),
    ("dbar", "demo", "--sigma", "0.01", "--target", "a1^" + "9" * 400),
    ("dbar", "demo", "--alpha", "0", "--sigma", "0.01", "--target", "a1"),
    # outside DbarConfig's (0, 0.2] delta, and a quadrature grid below 16
    ("dbar", "solve", "--eps", "0.01", "--delta", "0.3"),
    ("dbar", "solve", "--eps", "0.01", "--delta", "0"),
    ("dbar", "solve", "--eps", "0.01", "--quad", "15"),
], ids=lambda argv: " ".join(argv[1:])[:60])
def test_dbar_input_contract_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("error:") == 1


def _argv_id(argv):
    return " ".join(a if len(a) < 100 else f"{a[:12]}...({len(a)} chars)" for a in argv)


@pytest.mark.parametrize("argv", [
    ("word", "enum", "--budget", "nan"),
    ("braid", "census", "--budgets", "nan"),
    ("braid", "census", "--budgets", "4.0,nan"),
    ("braid", "nf", "s1^1000000 s2^-3"),
    ("braid", "nf", "s2^35976124383057076 s1^-21"),  # refused without peeling 1e6 terms
    ("word", "enum", "--budget", "800"),
    ("braid", "census", "--budgets", "800"),
    # above ENUM_BUDGET_CAP, so refused before its padding e^budget (1 + 1e-12)
    # could overflow
    ("word", "enum", "--budget", "709.782712893384"),
    ("braid", "census", "--budgets", "abc"),
    ("word", "linv", "a1^" + "9" * 4001),
    ("braid", "nf", "s1^" + "9" * 4001),
    ("word", "linv", "a1^\u0663"),  # an Arabic-Indic digit three
    ("braid", "nf", "s1^\u0663"),
], ids=_argv_id)
def test_exact_input_contract_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("error:") == 1


@pytest.mark.parametrize("argv", [
    ("bounds", "thm1", "--g", "0", "--m", "1", "--lambda4", "nan"),
    ("bounds", "thm1", "--g", "0", "--m", "1", "--lambda4", "inf"),
    ("bounds", "thm2", "--g", "0", "--m", "1", "--lambda8", "nan"),
    ("bounds", "prop1a", "--alpha", "nan", "--sigma", "0.1"),
    ("bounds", "prop1a", "--alpha", "inf", "--sigma", "0.1"),
    ("bounds", "prop1b", "--sigma", "0.1", "--C1", "nan", "--C2", "1",
     "--C1p", "1", "--C2p", "1"),
    ("bounds", "table", "--formula", "thm1", "--lambdas", "nan"),
    ("conformal", "grid", "--kind", "round", "--r", "1", "--R", "2", "--h", "0"),
    ("conformal", "grid", "--kind", "round", "--R", "2", "--h", "0.1"),
    ("conformal", "grid", "--kind", "rectangle", "--a", "1", "--b", "1", "--h", "nan"),
    ("conformal", "grid", "--kind", "flat-cylinder", "--circumference", "1",
     "--height", "1", "--h", "-1"),
    ("conformal", "lambda", "--kind", "rectangle"),
    ("conformal", "lambda"),  # neither --kind nor --spec-file
    ("conformal", "torus-bounds", "--alpha", "nan", "--sigma", "0.1"),
    ("config3", "in-h", "--points=-1,0,0,0,1,0", "--tol", "nan"),
    ("config3", "in-h", "--points=nan,0,0,0,1,0"),
    ("config3", "in-h", "--points=inf,0,0,0,1,0"),
    ("config3", "in-h", "--points=1.7e308,1.7e308,-1.7e308,0,0,1e308"),
    ("bounds", "thm1", "--g", "0", "--m", "1", "--lambda4", "1e308"),
    ("bounds", "prop1a", "--alpha", "1", "--sigma", "1e-310"),
    ("bounds", "table", "--formula", "thm1", "--lambdas", "1e308"),
    # |ln| >= 2^52: the stored logarithm no longer fixes even the leading digit
    ("bounds", "thm1", "--g", "0", "--m", "1", "--lambda4", "1e306"),
    ("bounds", "thm1", "--g", "0", "--m", "1", "--lambda4", "1e14"),
    ("bounds", "table", "--formula", "thm1", "--lambdas", "1e306"),
    ("bounds", "table", "--formula", "thm1", "--lambdas", "x"),
    ("bounds", "table", "--formula", "nope"),
    ("bounds", "thm1", "--g", "9" * 400, "--m", "1", "--lambda4", "0"),
    ("conformal", "grid", "--kind", "round", "--r", "1", "--R", "2", "--h", "4e-6"),
    ("conformal", "grid", "--kind", "rectangle", "--a", "1", "--b", "1", "--h", "1e-320"),
    ("conformal", "lambda", "--kind", "rectangle", "--a", "1e308", "--b", "1e-10"),
    # a closed form that underflows to 0
    ("conformal", "lambda", "--kind", "rectangle", "--a", "1e-320", "--b", "1e300"),
    ("conformal", "lambda", "--kind", "flat-cylinder", "--circumference", "1e-320",
     "--height", "1e300"),
    ("conformal", "torus-bounds", "--alpha", "1e308", "--sigma", "1e-300"),
    # a closed form outside the normal float range: subnormal or infinite
    ("conformal", "lambda", "--kind", "rectangle", "--a", "1.2345678901234567e-300",
     "--b", "1e23"),
    ("conformal", "lambda", "--kind", "flat-cylinder", "--circumference", "1e-300",
     "--height", "1e10"),
    ("conformal", "torus-bounds", "--alpha", "1e308", "--sigma", "0.1"),
    ("conformal", "torus-bounds", "--alpha", "1e307", "--sigma", "0.1"),
    # an h that does not fit a side twice
    ("conformal", "grid", "--kind", "rectangle", "--a", "1", "--b", "2", "--h", "5"),
    ("conformal", "grid", "--kind", "flat-cylinder", "--circumference", "1",
     "--height", "0.5", "--h", "0.4"),
], ids=_argv_id)
def test_bounds_conformal_config3_input_contract_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("error:") == 1


@pytest.mark.parametrize("argv", [
    # there is no --marked flag: a rectangle marked on its vertical sides is
    # --kind flat-cylinder
    ("conformal", "grid", "--kind", "round", "--r", "1", "--R", "2", "--h", "0.05",
     "--marked", "vertical"),
    ("conformal", "grid", "--kind", "flat-cylinder", "--circumference", "1",
     "--height", "0.5", "--h", "0.05", "--marked", "horizontal"),
], ids=_argv_id)
def test_argparse_error_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: ") and err.count("error:") == 1


def test_flat_cylinder_is_the_rectangle_marked_on_its_vertical_sides(capsys):
    from fbt.conformal import grid_extremal_length, rectangle_grid

    code, out, _ = run_cli(capsys, "conformal", "grid", "--kind", "flat-cylinder",
                           "--circumference", "1.37", "--height", "1", "--h", "0.01",
                           "--family", "joining")
    want = grid_extremal_length(rectangle_grid(1.37, 1, 0.01, marked="vertical"))
    assert code == 0 and out == json.dumps(want.to_json(), sort_keys=True) + "\n"


@pytest.mark.parametrize("kind,h,other", [
    (("--kind", "round", "--r", "1", "--R", "2"), "0.02", "joining"),
    (("--kind", "rectangle", "--a", "1", "--b", "2"), "0.05", "separating"),
    (("--kind", "flat-cylinder", "--circumference", "1", "--height", "0.5"), "0.05",
     "joining"),
], ids=lambda v: v[1] if isinstance(v, tuple) else v)
def test_conformal_grid_default_family_is_the_closed_form_one(capsys, kind, h, other):
    _, out, _ = run_cli(capsys, "conformal", "lambda", *kind)
    exact = json.loads(out)["lambda"]
    code, out, _ = run_cli(capsys, "conformal", "grid", *kind, "--h", h)
    assert code == 0 and json.loads(out)["lambda"] == pytest.approx(exact, rel=2e-2)
    code, out, _ = run_cli(capsys, "conformal", "grid", *kind, "--h", h, "--family", other)
    assert code == 0 and json.loads(out)["lambda"] == pytest.approx(1 / exact, rel=2e-2)


def test_conformal_grid_stdout_does_not_follow_the_blas_threads():
    # with two OpenBLAS threads this cylinder's lambda came out as
    # 1.0000000000001137 against 1.0 with one: the CLI caps the pools at one
    # thread, and FBT_THREADS sizes none of them
    argv = ["conformal", "grid", "--kind", "flat-cylinder", "--circumference", "1",
            "--height", "1", "--h", "0.004"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items()
            if k not in ("FBT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    base["PYTHONPATH"] = src

    def stdout(env):
        res = subprocess.run([sys.executable, "-c",
                              "import sys\nfrom fbt.cli import main\nsys.exit(main(sys.argv[1:]))",
                              *argv], env=env, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        return res.stdout

    assert stdout(base) == stdout({**base, "FBT_THREADS": "2"})


def test_a_pool_variable_that_is_set_still_wins(monkeypatch):
    from fbt.cli import _cap_threads

    pools = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
    for var in pools:
        monkeypatch.setenv(var, "")  # restored after the test
        monkeypatch.delenv(var)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setenv("FBT_THREADS", "3")
    _cap_threads()
    assert [os.environ[var] for var in pools] == ["1", "2", "1", "1"]


def test_bounds_largest_printable_lambda(capsys):
    code, out, _ = run_cli(capsys, "bounds", "thm1", "--g", "0", "--m", "1",
                           "--lambda4", "1e13")
    assert code == 0
    assert json.loads(out)["bound"]["decimal"].endswith("E+327450324922042")


@pytest.mark.parametrize("op,header,row", [
    ("decode-word", "t,re,im", "{k},nan,0.5"),
    ("decode-braid", "t,re1,im1,re2,im2,re3,im3", "{k},nan,0.0,0.0,0.0,1.0,0.0"),
    ("decode-word", "t,re,im", "{k},abc,0.5"),
    ("decode-word", "t,re,im", "{k},0.5"),
    ("decode-word", "t,re,im", "{k},1.5,0.5,7"),
    ("decode-braid", "t,re1,im1,re2,im2,re3,im3", "{k},0.0,-1.0,0.0,0.0,0.0,x"),
    ("decode-braid", "t,re1,im1,re2,im2,re3,im3", "{k},0.0,-1.0,0.0,0.0,0.0"),
    ("decode-braid", "t,re1,im1,re2,im2,re3,im3", "{k},0.0,-1.0,0.0,0.0,0.0,1.0,0.0"),
    ("decode-word", "t,re,im", "{k},1.7e308,1.7e308"),
    ("decode-braid", "t,re1,im1,re2,im2,re3,im3", "{k},1.5e308,1.5e308,0.0,0.0,0.0,1.0"),
], ids=("decode-word", "decode-braid", "word-non-numeric", "word-short-row",
        "word-long-row", "braid-non-numeric", "braid-short-row", "braid-long-row",
        "word-huge", "braid-huge"))
def test_config3_decoders_refuse_non_finite_rows(tmp_path, capsys, op, header, row):
    import cmath

    path = tmp_path / "loop.csv"
    n = 16
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for k in range(n + 1):
            if k == n // 2:
                fh.write(row.format(k=k) + "\n")
                continue
            w = cmath.exp(1j * math.pi * k / n)
            if op == "decode-word":
                z = 1 + 0.4 * cmath.exp(1j * (math.pi + 2 * math.pi * k / n))
                fh.write(f"{k},{z.real!r},{z.imag!r}\n")
            else:
                fh.write(f"{k},{(-w).real!r},{(-w).imag!r},0.0,0.0,"
                         f"{w.real!r},{w.imag!r}\n")
    code, out, err = run_cli(capsys, "config3", op, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("error:") == 1


@pytest.mark.parametrize("argv,files", [
    (["conformal", "lambda", "--spec-file", "dom.json"],
     {"dom.json": '{"kind": "round", "params": {"r": "one", "R": 2.0}}'}),
    (["conformal", "lambda", "--spec-file", "dom.json"],
     {"dom.json": '{"kind": "round", '}),
    (["conformal", "lambda", "--spec-file", "missing.json"], {}),
    (["config3", "decode-word", "missing.csv"], {}),
    (["config3", "decode-braid", "missing.csv"], {}),
    (["dbar", "demo", "--sigma", "0.01", "--target", "a1^2",
      "--dump", "missing-dir/samples.csv"], {}),
    (["config3", "decode-word", "loop.csv"],
     {"loop.csv": b"t,re,im\n0,0.6,0\n\xff\xfe,1,2\n0,0.6,0\n"}),
    (["config3", "decode-word", "loop.csv"],
     {"loop.csv": "t,re,im\n0," + "1" * 200000 + ",0\n1,0.6,0\n"}),
    (["conformal", "lambda", "--spec-file", "dom.json"], {"dom.json": "[" * 100000}),
    (["conformal", "lambda", "--spec-file", "dom.json"],
     {"dom.json": '{"kind": "round", "params": {"r": 1, "R": 1' + "0" * 400 + "}}"}),
    (["conformal", "lambda", "--spec-file", "dom\x00.json"], {}),
    (["config3", "decode-word", "loop\x00.csv"], {}),
    (["dbar", "demo", "--sigma", "0.01", "--target", "a1^2", "--dump", "x\x00.csv"], {}),
    # numeric strings and booleans are not JSON numbers
    (["conformal", "lambda", "--spec-file", "dom.json"],
     {"dom.json": '{"kind": "round", "params": {"r": "1", "R": "2"}}'}),
    (["conformal", "lambda", "--spec-file", "dom.json"],
     {"dom.json": '{"kind": "rectangle", "params": {"a": "1_0", "b": 1}}'}),
    (["conformal", "lambda", "--spec-file", "dom.json"],
     {"dom.json": '{"kind": "round", "params": {"r": true, "R": 2}}'}),
    # a key the kind does not read is refused, not dropped
    (["conformal", "lambda", "--spec-file", "dom.json"],
     {"dom.json": '{"kind": "round", "params": {"r": 1, "R": 2, "rr": "junk", "h": 0.1}}'}),
    (["conformal", "lambda", "--spec-file", "dom.json"],
     {"dom.json": '{"kind": "round", "params": {"r": 1, "R": 2}, "kindd": 3}'}),
    # the loop crosses the real axis within 1e-9 of the puncture +1
    (["config3", "decode-word", "loop.csv"],
     {"loop.csv": "t,re,im\n0,1.0000000002,0.001\n1,1.0000000002,-0.001\n2,3.0,-0.001\n"
                  "3,3.0,0.001\n4,1.0000000002,0.001\n"}),
], ids=("spec-non-numeric", "spec-malformed-json", "spec-missing",
        "word-missing", "braid-missing", "dump-unwritable", "csv-undecodable",
        "csv-huge-field", "spec-deep-nesting", "spec-huge-integer", "spec-nul-path",
        "word-nul-path", "dump-nul-path", "spec-numeric-strings", "spec-underscore-string",
        "spec-boolean", "spec-unknown-param", "spec-unknown-top-level-key",
        "word-crossing-at-puncture"))
def test_file_input_contract_exit_code(tmp_path, monkeypatch, capsys, argv, files):
    for name, text in files.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_dbar_demo_dump_opened_before_construction(tmp_path, monkeypatch, capsys):
    def construct(*args, **kwargs):
        raise AssertionError("demo_construct ran before the dump target was opened")

    monkeypatch.setattr("fbt.dbar.demo_construct", construct)
    code, out, err = run_cli(capsys, "dbar", "demo", "--sigma", "0.01", "--target", "a1^2",
                             "--dump", str(tmp_path / "missing-dir" / "x.csv"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_dbar_demo_dump_replaces_existing_file(tmp_path, capsys):
    path = tmp_path / "x.csv"
    path.write_text("stale contents\n" * 3)
    code, _, _ = run_cli(capsys, "dbar", "demo", "--sigma", "0.02", "--target", "a2",
                         "--dump", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "re_z,im_z,re_f,im_f" and "stale contents" not in lines
    assert len(lines) == 1 + 1024 + 1  # header, the circle samples and the closing one


def test_dbar_demo_failure_removes_the_dump_file_it_created(tmp_path, capsys):
    path = tmp_path / "new.csv"
    code, out, err = run_cli(capsys, "dbar", "demo", "--sigma", "0.01", "--target", "a1 a2",
                             "--dump", str(path))
    assert code == 2 and out == "" and err.startswith("error:")
    assert not path.exists()


def test_dbar_demo_failure_keeps_an_existing_dump_file(tmp_path, capsys):
    path = tmp_path / "old.csv"
    path.write_bytes(b"stale contents\r\nno newline at the end")
    code, out, err = run_cli(capsys, "dbar", "demo", "--sigma", "0.01", "--target", "a1 a2",
                             "--dump", str(path))
    assert code == 2 and out == "" and err.startswith("error:")
    assert path.read_bytes() == b"stale contents\r\nno newline at the end"


def test_word_canon_long_power(capsys):
    code, out, _ = run_cli(capsys, "word", "canon", "a1^100000")
    assert code == 0
    assert json.loads(out) == {"word": "a1^100000", "canonical": "a1^100000",
                               "primitive": False}


def test_word_canon_huge_exponent(capsys):
    code, out, _ = run_cli(capsys, "word", "canon", "a1^-9999999999999999999999")
    assert code == 0
    assert json.loads(out) == {"word": "a1^-9999999999999999999999",
                               "canonical": "a1^-9999999999999999999999", "primitive": False}
    # the longest exponents, merged by the cyclic reduction, still print
    big = "9" * 4000
    code, out, _ = run_cli(capsys, "word", "canon", f"a1^{big} a2 a1^{big}")
    assert code == 0 and json.loads(out)["canonical"] == f"a1^{2 * int(big)} a2"


def test_dbar_solve_alpha_edge(capsys):
    code, out, err = run_cli(capsys, "dbar", "solve", "--eps", "0.01", "--alpha", "120",
                             "--quad", "300")
    assert code == 0 and err == ""
    assert all(math.isfinite(v) and v >= 0 for v in json.loads(out).values())
    code, out, err = run_cli(capsys, "dbar", "solve", "--eps", "0.01", "--alpha", "250",
                             "--quad", "300")
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_dbar_kernel_overflow_exit_code(capsys):
    code, out, err = run_cli(capsys, "dbar", "kernel", "--alpha", "1e300",
                             "--re", "0.2", "--im", "0.3")
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("error:") == 1


def test_dbar_kernel_lattice_overflow_is_one_error_line(capsys):
    # at alpha = 1e308 the lattice points i alpha m overflow before the sums
    code, out, err = run_cli(capsys, "dbar", "kernel", "--alpha", "1e308",
                             "--re", "0.2", "--im", "0.3")
    assert code == 3 and out == ""
    assert err.startswith("error: truncated wp sum") and err.count("\n") == 1


def test_dbar_kernel_readme_output(capsys):
    code, out, _ = run_cli(capsys, "dbar", "kernel", "--alpha", "1", "--N", "60",
                           "--re", "0.2", "--im", "0.3")
    assert code == 0
    assert out == ('{"N": 60, "alpha": 1.0, "wp": [-3.37209001346673, -5.991451385101451], '
                   '"wp_nu": [4.0185287631930855, -4.018528763193086], "z": [0.2, 0.3]}\n')


def test_numeric_exit_code(capsys):
    code, _, err = run_cli(capsys, "dbar", "solve", "--eps", "0.001",
                           "--quad", "16")
    assert code == 3 and err.startswith("error:")


def test_conformal_spec_file(tmp_path, capsys):
    path = tmp_path / "dom.json"
    path.write_text('{"kind": "round", "params": {"r": 1.0, "R": 2.0}}')
    code, out, _ = run_cli(capsys, "conformal", "lambda", "--spec-file", str(path))
    assert code == 0
    assert json.loads(out)["lambda"] == pytest.approx(2 * math.pi / math.log(2))


@pytest.mark.parametrize("r,big_r", [("1e-300", "1e300"), ("1e-320", "1")])
def test_conformal_lambda_round_with_overflowing_quotient(tmp_path, capsys, r, big_r):
    # R/r overflows: the answer is 2 pi / (log R - log r), not 0
    want = 2 * math.pi / (math.log(float(big_r)) - math.log(float(r)))
    path = tmp_path / "dom.json"
    path.write_text(f'{{"kind": "round", "params": {{"r": {r}, "R": {big_r}}}}}')
    for argv in (("--kind", "round", "--r", r, "--R", big_r), ("--spec-file", str(path))):
        code, out, err = run_cli(capsys, "conformal", "lambda", *argv)
        assert code == 0 and err == ""
        assert json.loads(out)["lambda"] == pytest.approx(want, rel=1e-15)


def test_main_builds_one_parser_and_reports_usage_on_the_current_stderr(monkeypatch, capsys):
    import argparse
    import contextlib

    from fbt import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    assert run_cli(capsys, "word", "linv", "a1")[0] == 0
    first = len(built)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["word", "nope"]) == 2
    assert first > 0 and len(built) == first
    assert err.getvalue().startswith("usage: fbt word ")
    assert "invalid choice: 'nope'" in err.getvalue()
    assert capsys.readouterr() == ("", "")


def test_determinism_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "braid", "census",
                               "--budgets", str(math.log(3)))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_json_round_trip(capsys):
    _, out, _ = run_cli(capsys, "word", "linv", "a1^3 a2^-1 a1")
    data = json.loads(out)
    assert json.loads(json.dumps(data)) == data


def _readme_cli_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.strip() for line in block.splitlines() if line.startswith("fbt ")]


def _write_readme_inputs(directory):
    """The files the README commands read: loop.csv, strands.csv, domain.json."""
    import cmath

    n = 128
    with open(directory / "loop.csv", "w") as fh:
        fh.write("t,re,im\n")
        for k in range(n + 1):
            z = 1 + 0.4 * cmath.exp(1j * (math.pi + 2 * math.pi * k / n))
            fh.write(f"{k},{z.real!r},{z.imag!r}\n")
    with open(directory / "strands.csv", "w") as fh:
        fh.write("t,re1,im1,re2,im2,re3,im3\n")
        for k in range(n + 1):
            w = cmath.exp(1j * math.pi * k / n)
            fh.write(f"{k},{(-w).real!r},{(-w).imag!r},0.0,0.0,{w.real!r},{w.imag!r}\n")
    (directory / "domain.json").write_text('{"kind": "round", "params": {"r": 1.0, "R": 2.0}}')


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    _write_readme_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    commands = _readme_cli_commands()
    assert len(commands) == 20
    for command in commands:
        code, out, err = run_cli(capsys, *shlex.split(command)[1:])
        assert code == 0, (command, err)
        if "--table" in command or " table " in command:
            rows = list(csv.reader(io.StringIO(out)))
            assert len(rows) >= 2 and all(len(r) == len(rows[0]) for r in rows), command
            assert not any(cell.replace(".", "").isdigit() for cell in rows[0]), command
        else:
            assert out.endswith("\n") and out.count("\n") == 1, command
            json.loads(out)
    with open(tmp_path / "circle.csv") as fh:
        assert fh.readline() == "re_z,im_z,re_f,im_f\n"


# runs each README command through main in one process and prints, per
# command, [command, exit code, stdout, stderr] as one JSON list
_README_RUNNER = """\
import contextlib, io, json, shlex, sys
from fbt.cli import main
results = []
for command in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command)[1:])
    results.append([command, code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _readme_outcomes(directory):
    """The README commands' outcomes from a fresh interpreter whose BLAS
    pools are sized by the CLI alone, and the bytes of the demo's dump."""
    import hashlib

    _write_readme_inputs(directory)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    res = subprocess.run([sys.executable, "-c", _README_RUNNER,
                          json.dumps(_readme_cli_commands())],
                         cwd=directory, env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    outcomes = {command: (code, out, err) for command, code, out, err in json.loads(res.stdout)}
    dump = (directory / "circle.csv").read_bytes()
    return outcomes, (len(dump), hashlib.sha256(dump).hexdigest())


# captured at the parent of the change that retired the braid parser's own
# token grammar; the dump is compared by its length and sha256.  The
# `conformal grid`, `dbar solve` and `dbar demo` lines and the dump were
# captured again when the grid energy became a sum of squares and the smooth
# dbar remainder became cluster sums (last digits only).  The demo's
# dbar_residual and dump hold the rounding of f itself (a central difference
# of step sigma/8, and g - f at about 1 on the circle), so any summation of
# the smooth remainder other than the former dense matrix-vector product
# moves them: summed in extended precision, dbar_residual reads
# 0.0001070061594923382 and 36 of the 1,025 dump rows change.  The `conformal grid` line was captured again when the grid
# solver's multigrid went to numpy alone (two Jacobi sweeps a side, a dense
# coarsest level): 7 -> 5 iterations, lambda 9.0647097025722 ->
# 9.064709702572209, residual 3.41e-11 -> 8.23e-11.
_README_GOLDEN = {
    'fbt word linv "a1^2 a2^-3"': (
        0, ('{"l_minus": 3.9889840465642745, "l_plus": 4.564348191467836, '
            '"syllables": [{"degree": 2, "kind": "big-power"}, {"degree": 3, '
            '"kind": "big-power"}], "word": "a1^2 a2^-3"}\n'),
        ''),
    'fbt word enum --budget 1.0986122886681098': (
        0, ('{"budget": 1.0986122886681098, "count": 5, "words": ["", "a1^-1", '
            '"a1", "a2^-1", "a2"]}\n'),
        ''),
    'fbt word canon "a2 a1 a2^-1"': (
        0, '{"canonical": "a1", "primitive": true, "word": "a2 a1 a2^-1"}\n',
        ''),
    'fbt braid nf "s2^-2 s1 s2 s2^2"': (
        0, ('{"ambient": "B3", "braid": "s2^-2 s1 s2 s2^2", "exponent_sum": 2, '
            '"l_minus": 2.1972245773362196, "l_plus": 2.772588722239781, '
            '"normal_form": {"b1": "a1", "j": 2, "k": -3, "kind": "general", '
            '"l": 1}, "syllables": [{"degree": 1, "kind": "minus-run"}, '
            '{"degree": 1, "kind": "plus-run"}], "theta": "a2^-1 a1"}\n'),
        ''),
    'fbt braid theta "s1^-4 d s1^4"': (
        0, ('{"braid": "s1^-4 d s1^4", "l_minus": 3.58351893845611, '
            '"theta": "a1^-2 a2^2"}\n'),
        ''),
    'fbt braid bracket "s1^5 d^3"': (
        0, '{"braid": "s1^5 d^3", "exceptional": true, "lambda_tr_lower": 0.0}\n',
        ''),
    'fbt braid census --budgets 0,1.0986122886681098 --table': (
        0, ('budget,count,ln_bound\n0.0,10,2.70805020110221\n'
            '1.0986122886681098,42,6.00388706710654\n'),
        ''),
    'fbt config3 in-h --points=-1,0,0,0,1,0': (
        0, '{"defect": 0.0, "in_h": true}\n',
        ''),
    'fbt config3 decode-word loop.csv': (
        0, '{"windings": [0, 1], "word": "a2"}\n',
        ''),
    'fbt config3 decode-braid strands.csv --mod-center': (
        0, ('{"ambient": "B3-mod-center", "braid": "s1 s2 s1", "exponent_sum": 3, '
            '"l_minus": 0, "l_plus": 0, "normal_form": {"kind": "delta-power", '
            '"l": 1}, "syllables": [], "theta": ""}\n'),
        ''),
    'fbt conformal lambda --kind round --r 1 --R 2': (
        0, '{"kind": "round", "lambda": 9.064720283654388}\n',
        ''),
    'fbt conformal lambda --spec-file domain.json': (
        0, '{"kind": "round", "lambda": 9.064720283654388}\n',
        ''),
    'fbt conformal grid --kind round --r 1 --R 2 --h 0.005': (
        0, ('{"h": 0.005, "iterations": 5, "lambda": 9.064709702572209, '
            '"residual": 8.229991777636891e-11}\n'),
        ''),
    'fbt conformal torus-bounds --alpha 1 --sigma 0.1': (
        0, '{"e": 10.0, "e_prime": 10.0, "lambda3_upper": 120.0}\n',
        ''),
    'fbt dbar kernel --alpha 1 --N 60 --re 0.2 --im 0.3': (
        0, ('{"N": 60, "alpha": 1.0, "wp": [-3.37209001346673, '
            '-5.991451385101451], "wp_nu": [4.0185287631930855, '
            '-4.018528763193086], "z": [0.2, 0.3]}\n'),
        ''),
    'fbt dbar solve --eps 0.01': (
        0, ('{"alpha": 1.0, "budget": 0.636771112754504, "c1": 2.001337385716932, '
            '"c2": 8.09040780162718, "fd_dbar_residual": 0.00048369642151890895, '
            '"off_support_residual": 2.6599826135878368e-09, '
            '"periodic_defect": 1.1318364473395126e-17, "sigma": 0.001, '
            '"sup_f": 0.0017118050498352011}\n'),
        ''),
    'fbt dbar demo --sigma 0.01 --target "a1^2" --dump circle.csv': (
        0, ('{"alpha": 1.0, "clearance": 0.13075445656556817, '
            '"dbar_residual": 0.00010700615949255805, "decoded": "a1^2", '
            '"sigma": 0.01, "sup_f": 0.023786832434942045, "target": "a1^2"}\n'),
        ''),
    'fbt bounds thm1 --g 0 --m 1 --lambda4 0': (
        0, ('{"bound": {"decimal": "4.500000000000E+0", "ln": 1.5040773967762742}, '
            '"formula": "3*(3/2*e^{24 pi lambda4})^{2g+m}", "inputs": {"g": 0, '
            '"lambda4": 0.0, "m": 1}}\n'),
        ''),
    'fbt bounds prop1a --alpha 1 --sigma 0.1 --C 0.07 --c 0.5': (
        0, ('{"bound": {"decimal": "4.496723345271E+7859", '
            '"ln": 18097.519594826263}, '
            '"formula": "7*e^{192 pi (2 alpha+1)/sigma}", "inputs": {"alpha": 1.0, '
            '"sigma": 0.1}, "lower": {"decimal": "1.006876353735E+0", '
            '"formula": "c*e^{C alpha/sigma}", "ln": 0.00685281944005478}}\n'),
        ''),
    'fbt bounds table --formula prop1a-upper --alpha 1 --sigmas 0.2,0.1,0.05': (
        0, ('alpha,sigma,ln,decimal\n1.0,0.2,9049.73275248766,1.774177652239E+3930\n'
            '1.0,0.1,18097.519594826263,4.496723345271E+7859\n'
            '1.0,0.05,36193.093279503475,2.888645834859E+15718\n'),
        ''),
}
_README_DUMP = (57637, 'e0c6e829046bfa32df12e3b361c62bc74599a88c0e27788d20dc9e9d6bb2f27c')


def test_readme_cli_golden(tmp_path):
    outcomes, dump = _readme_outcomes(tmp_path)
    assert outcomes == _README_GOLDEN
    assert dump == _README_DUMP


def _loop_rows(op, n):
    """A well-formed loop file's rows: a circle about 1, or the strands
    (-1, 0, 1) turned by 2 pi."""
    import cmath

    rows = []
    for k in range(n + 1):
        w = cmath.exp(2j * math.pi * k / n)
        pts = [1 - 0.4 * w] if op == "decode-word" else [-w, 0j, w]
        rows.append([str(k)] + [repr(x) for z in pts for x in (z.real, z.imag)])
    return rows


_CELLS = st.one_of(st.floats().map(repr), st.integers(-3, 3).map(str),
                   st.sampled_from(["nan", "-inf", "inf", "", "abc", "1e", "0x1"]))
# an edit replaces a cell (t included), drops a row's last field or adds one
_EDITS = st.lists(st.tuples(st.integers(0, 40), st.sampled_from(["set", "drop", "add"]),
                            st.integers(0, 6), _CELLS), max_size=4)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(op=st.sampled_from(["decode-word", "decode-braid"]),
       n=st.integers(1, 40), edits=_EDITS)
def test_config3_csv_exit_code_property(op, n, edits):
    import contextlib
    import tempfile

    rows = _loop_rows(op, n)
    for row, action, col, cell in edits:
        cells = rows[row % len(rows)]
        if action == "set":
            cells[col % len(cells)] = cell
        elif action == "drop":
            cells.pop()
        else:
            cells.append(cell)
    header = "t,re,im" if op == "decode-word" else "t,re1,im1,re2,im2,re3,im3"
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "loop.csv"
        path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["config3", op, str(path)])
    assert code in (0, 2), err.getvalue()
    if code == 0:
        assert err.getvalue() == "" and json.loads(out.getvalue())
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1


# argv for the commands that answer at once, for conformal grid on small
# lattices and for dbar kernel up to N = 400.  Each flag takes a plausible
# value or a wild one: left out, any float (NaN and +-inf included), zero,
# negative, huge or not a number.  Budgets stay <= 4.5; exponents reach past
# int()'s digit limit.
_ANY = st.one_of(st.floats(0.01, 0.99), st.floats(1.0, 100.0)).map(repr)
_SIGMA = st.floats(0.01, 0.99).map(repr)
_LARGE = st.floats(1.0, 100.0).map(repr)
_WILD = st.one_of(
    st.sampled_from(["0", "-0.0", "-1", "1e308", "-1e308", "5e-324", "1e-300",
                     "nan", "inf", "-inf", "", "x", None]),
    st.floats().map(repr), st.integers(-10 ** 40, 10 ** 40).map(str))
_BUDGET = st.one_of(st.floats(0.0, 4.5).map(repr), st.floats(0.0, 4.5).map(repr),
                    st.floats(max_value=4.5).map(repr),
                    st.sampled_from(["nan", "inf", "-inf", "1.0986122886681098"]))
_WILD_INT = st.one_of(st.sampled_from(["-1", "1e3", "nan", "9" * 400, "9" * 5000, None]),
                      st.integers(-10 ** 400, 10 ** 400).map(str))
# conformal grid: lengths and --h keep every lattice that gets allocated
# below about 4e4 cells
_GRID_LENGTH = st.floats(0.05, 2.0).map(repr)
_GRID_H = st.floats(0.02, 0.25).map(repr)
_GRID_WILD = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "1e308", None])
_EXPONENT = st.one_of(st.integers(-40, 40), st.integers(-10 ** 30, 10 ** 30),
                      st.integers(1, 5000).map(lambda n: int("9" * n) if n <= 4300 else "9" * n))


@st.composite
def _flags(draw, wild=_WILD, **plausible):
    """--name=value for each name, a draw of its plausible strategy or,
    about one time in four, of the wild one; a None value leaves the flag out."""
    values = {n: draw(st.one_of(s, s, s, wild)) for n, s in plausible.items()}
    return [f"--{n}={v}" for n, v in values.items() if v is not None]


@st.composite
def _word_text(draw, gens):
    """Terms on alternating generators (the first drawn), or on any."""
    exps = draw(st.lists(_EXPONENT, max_size=4))
    first = draw(st.integers(0, len(gens) - 1))
    if draw(st.booleans()):
        names = [gens[(first + i) % 2] for i in range(len(exps))]
    else:
        names = draw(st.lists(st.sampled_from(gens), min_size=len(exps), max_size=len(exps)))
    return " ".join(f"{g}^{e}" for g, e in zip(names, exps))


_COMMANDS = [
    ("word", "linv"), ("word", "canon"), ("word", "enum"), ("braid", "nf"),
    ("braid", "theta"), ("braid", "bracket"), ("braid", "census"), ("bounds", "thm1"),
    ("bounds", "thm2"), ("bounds", "thm3"), ("bounds", "prop1a"), ("bounds", "prop1b"),
    ("bounds", "table"), ("conformal", "lambda"), ("conformal", "grid"),
    ("conformal", "torus-bounds"), ("config3", "in-h"), ("dbar", "kernel")]


@st.composite
def _argv(draw, commands=_COMMANDS):
    command, op = draw(st.sampled_from(commands))
    table = ["--table"] if draw(st.booleans()) else []
    topology = draw(_flags(_WILD_INT, g=st.integers(0, 4).map(str), m=st.integers(0, 4).map(str)))
    if op == "enum":
        return ["word", "enum", *draw(_flags(st.none(), budget=_BUDGET)), *table]
    if op == "census":
        budgets = ",".join(draw(st.lists(_BUDGET, max_size=3)))
        return ["braid", "census", f"--budgets={budgets}", *table]
    if command == "word":
        return ["word", op, draw(_word_text(["a1", "a2"]))]
    if command == "braid":
        prefix = "@mod-center " if draw(st.booleans()) else ""
        return ["braid", op, prefix + draw(_word_text(["s1", "s2", "d"]))]
    if op in ("thm1", "thm2", "thm3"):
        lam = "lambda4" if op == "thm1" else "lambda8"
        return ["bounds", op, *topology, *draw(_flags(**{lam: _ANY}))]
    if op == "prop1a":
        return ["bounds", op, *draw(_flags(alpha=_LARGE, sigma=_SIGMA, C=_ANY, c=_ANY))]
    if op == "prop1b":
        return ["bounds", op, *draw(_flags(sigma=_SIGMA, C1=_ANY, C2=_ANY, C1p=_ANY, C2p=_ANY))]
    if op == "table":
        formula = draw(st.sampled_from(["thm1", "thm2", "thm3", "prop1a-upper", "thm4"]))
        sweep = ",".join(draw(st.lists(st.one_of(_SIGMA, _SIGMA, _WILD.filter(bool)),
                                       min_size=1, max_size=3)))
        return ["bounds", "table", f"--formula={formula}", f"--sigmas={sweep}",
                f"--lambdas={sweep}", *topology, *draw(_flags(alpha=_LARGE))]
    if op == "kernel":
        return ["dbar", "kernel", *draw(_flags(_WILD_INT, N=st.integers(2, 400).map(str))),
                *draw(_flags(alpha=_LARGE, re=_ANY, im=_ANY))]
    if op == "torus-bounds":
        return ["conformal", "torus-bounds", *draw(_flags(alpha=_LARGE, sigma=_SIGMA))]
    if op == "lambda":
        kind = draw(st.sampled_from(["round", "rectangle", "flat-cylinder", "oval", None]))
        return ["conformal", "lambda", *([f"--kind={kind}"] if kind else []),
                *draw(_flags(**{k: _ANY for k in ("r", "R", "a", "b", "circumference", "height")}))]
    if op == "grid":
        kind = draw(st.sampled_from(["round", "rectangle", "flat-cylinder", "oval", None]))
        names = KINDS[kind].params if kind in KINDS else \
            ("r", "R", "a", "b", "circumference", "height")
        family = draw(st.sampled_from([None, "separating", "joining", "bogus"]))
        return ["conformal", "grid", *([f"--kind={kind}"] if kind else []),
                *draw(_flags(_GRID_WILD, h=_GRID_H, **{k: _GRID_LENGTH for k in names})),
                *([f"--family={family}"] if family else [])]
    names = ("re1", "im1", "re2", "im2", "re3", "im3")
    points = [v.split("=", 1)[1]
              for v in draw(_flags(_WILD.filter(bool), **{k: _ANY for k in names}))]
    if draw(st.booleans()):
        points = points[:draw(st.integers(0, 7))]
    return ["config3", "in-h", f"--points={','.join(points)}", *draw(_flags(tol=_ANY))]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(argv=_argv())
def test_cli_exit_code_property(argv):
    _assert_exit_code_contract(argv)


# the slice of dbar kernel alone: in the mixed draw above it gets only a
# few examples
@settings(derandomize=True, max_examples=60, deadline=None)
@given(argv=_argv([("dbar", "kernel")]))
def test_dbar_kernel_exit_code_property(argv):
    _assert_exit_code_contract(argv)


# dbar solve and demo, the costly commands: --quad is always given and, when
# it passes the bounds check, at most 64; demo targets are mostly single
# powers.  Half the draws take no wild value, so that about half the
# commands run to the end.
_QUAD_WILD = st.one_of(st.sampled_from(["-1", "0", "15", "1001", "1e3", "nan", "", "9" * 400]),
                       st.integers(-10 ** 400, 15).map(str),
                       st.integers(1001, 10 ** 400).map(str))
_POWER = st.builds(lambda g, e: f"a{g}^{e}", st.sampled_from([1, 2]), st.integers(-8, 8))


@st.composite
def _dbar_argv(draw):
    tame = draw(st.booleans())
    wild, wild_int, wild_quad = (st.nothing(),) * 3 if tame else (_WILD, _WILD_INT, _QUAD_WILD)
    alpha = draw(_flags(wild, alpha=_LARGE))
    if draw(st.booleans()):
        return ["dbar", "solve", *alpha, *draw(_flags(wild_quad, quad=st.integers(16, 64).map(str))),
                *draw(_flags(wild, eps=st.floats(0.01, 0.99).map(repr),
                             delta=st.floats(0.01, 0.2).map(repr),
                             rho=st.floats(0.05, 0.5).map(repr))),
                *draw(_flags(wild_int, winding=st.integers(-4, 4).map(str)))]
    target = draw(_POWER if tame else st.one_of(_POWER, _word_text(["a1", "a2"])))
    return ["dbar", "demo", *alpha, f"--target={target}",
            *draw(_flags(wild, sigma=st.floats(0.001, 0.1).map(repr)))]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(argv=_dbar_argv())
def test_dbar_solve_demo_exit_code_property(argv):
    _assert_exit_code_contract(argv)


# the file readers: conformal lambda --spec-file with drawn JSON contents
# (spec-shaped objects with drawn kinds and parameters, any JSON, text that
# is not JSON, undecodable bytes, deep nesting), and dbar demo --dump with
# drawn relative paths into a directory holding a subdirectory d and the
# files f.csv and d/g.csv
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10 ** 400, 10 ** 400), st.floats(),
              st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
# a parameter: mostly plausible, else any float, a huge integer or not a number
_SPEC_PARAM = st.one_of(*[st.floats(0.01, 100.0)] * 6, st.floats(),
                        st.integers(-10 ** 400, 10 ** 400),
                        st.sampled_from([1e-320, 1e300, 1.5, "2.5", "nan", "x", True, None]),
                        _JSON)


@st.composite
def _spec_contents(draw):
    shape = draw(st.sampled_from(["spec", "spec", "spec", "json", "text", "bytes"]))
    if shape == "spec":
        kind = draw(st.sampled_from(["round", "rectangle", "flat-cylinder"] * 3 +
                                    ["oval", 3, None]))
        names = draw(st.lists(st.sampled_from(["r", "R", "a", "b", "circumference",
                                               "height"]), max_size=3, unique=True))
        if kind in KINDS and draw(st.integers(0, 3)):
            names = list(KINDS[kind].params)
        params = {n: draw(_SPEC_PARAM) for n in names}
        return json.dumps({"kind": kind, "params": params}).encode()
    if shape == "json":
        return json.dumps(draw(_JSON)).encode()
    if shape == "text":
        return draw(st.one_of(st.text(max_size=20),
                              st.sampled_from(['{"kind": "round", ', "[" * 100000,
                                               "1" * 5000, "NaN"]))).encode()
    return draw(st.binary(max_size=20))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(contents=_spec_contents())
def test_conformal_spec_file_exit_code_property(contents):
    import contextlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("dom.json").write_bytes(contents)
        _assert_exit_code_contract(["conformal", "lambda", "--spec-file", "dom.json"])


_PATH_PART = st.one_of(
    st.sampled_from(["d", "f.csv", "d/g.csv", "out.csv", "out.csv", "d/new.csv", "missing",
                     ".", "", "x" * 300, "\udcff"]),
    st.text(st.sampled_from("ab.-_ \u00e9"), min_size=1, max_size=6).filter(
        lambda t: t != ".."),
    st.text(st.sampled_from("ab\x00"), min_size=1, max_size=3))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(parts=st.lists(_PATH_PART, min_size=1, max_size=2),
       slash=st.sampled_from([False, False, False, True]),
       target=st.sampled_from(["a1^2", "a2^-1", "a1^2", "a1 a2"]))
def test_dbar_demo_dump_exit_code_property(parts, slash, target):
    import contextlib
    import tempfile

    path = "/".join(parts) + ("/" if slash else "")
    if path.startswith("/"):  # stay inside the directory
        path = "." + path
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("d").mkdir()
        Path("f.csv").write_text("old\n")
        Path("d/g.csv").write_text("old\n")
        argv = ["dbar", "demo", "--sigma", "0.01", "--target", target, f"--dump={path}"]
        code = _assert_exit_code_contract(argv)
        if code == 0 and path:
            with open(path) as fh:
                assert fh.readline() == "re_z,im_z,re_f,im_f\n"


def _assert_exit_code_contract(argv):
    """Exit 0, 2 or 3 with at most one error: line; a failure prints nothing
    on stdout, a success one JSON line (or a CSV table) and nothing on stderr.
    Returns the exit code."""
    import contextlib

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), err
    assert err.count("error:") <= 1
    if code != 0:
        assert out == "" and "error:" in err
    elif "--table" in argv or argv[:2] == ["bounds", "table"]:
        rows = list(csv.reader(io.StringIO(out)))
        assert err == "" and len(rows) >= 2 and len({len(r) for r in rows}) == 1
    else:
        assert err == "" and out.count("\n") == 1
        data = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in {out}"))
        if argv[:2] == ["conformal", "lambda"]:
            # a normal float: a subnormal has lost bits of the closed form
            assert sys.float_info.min <= data["lambda"] < math.inf, out
    return code
