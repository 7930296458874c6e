import csv
import io
import json
import math

import pytest

from fbt.cli import main


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
    ("dbar", "demo", "--alpha", "inf", "--sigma", "0.01", "--target", "a1"),
], ids=lambda argv: " ".join(argv[1:]))
def test_dbar_input_contract_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("error:") == 1


@pytest.mark.parametrize("argv", [
    ("word", "enum", "--budget", "nan"),
    ("word", "enum", "--budget", "5", "--cap", "nan"),
    ("braid", "census", "--budgets", "nan"),
    ("braid", "census", "--budgets", "4.0,nan"),
    ("braid", "nf", "s1^1000000 s2^-3"),
], ids=lambda argv: " ".join(argv))
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
    ("conformal", "torus-bounds", "--alpha", "nan", "--sigma", "0.1"),
    ("config3", "in-h", "--points=-1,0,0,0,1,0", "--tol", "nan"),
], ids=lambda argv: " ".join(argv))
def test_bounds_conformal_config3_input_contract_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("error:") == 1


def test_dbar_kernel_overflow_exit_code(capsys):
    code, out, err = run_cli(capsys, "dbar", "kernel", "--alpha", "1e300",
                             "--re", "0.2", "--im", "0.3")
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("error:") == 1


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
