import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from qfsp.classifier import (
    family_from_json,
    hs_discriminant,
    norm_equivalence_bounds,
)
import qfsp
from qfsp import cli
from qfsp.cli import main
from qfsp.quasifree import QuasifreeForm, fock_form, thermal_form
from qfsp.serialize import (
    dump_json,
    encode_complex_matrix,
    encode_form,
    encode_phase_space,
)
from conftest import expm_apply_reference, squeeze, sym_power_apply_reference


@pytest.fixture
def inputs(tmp_path, diag1):
    paths = {}

    def put(name, obj):
        p = tmp_path / name
        dump_json(obj, str(p))
        paths[name] = str(p)
        return str(p)

    put("thermal.json", encode_form(thermal_form(diag1, 0.5)))
    put("fock.json", encode_form(fock_form(diag1)))
    put("zero.json", encode_form(QuasifreeForm(diag1, np.zeros((2, 2)))))
    put("space.json", encode_phase_space(diag1))
    put("squeeze1.json", encode_complex_matrix(squeeze(1.0)))
    put("squeeze3.json", encode_complex_matrix(squeeze(3.0)))
    put("squeeze04.json", encode_complex_matrix(squeeze(0.4)))
    put("fam_conv.json", {
        "generator": {"kind": "thermal_pair", "tau": "1/k**2",
                      "tau_prime": "0"},
        "n_max": 400,
    })
    put("fam_const.json", {
        "generator": {"kind": "thermal_pair", "tau": "0", "tau_prime": "0.3"},
        "n_max": 100,
    })
    rng = np.random.default_rng(0)
    vectors = []
    for _ in range(4):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        vectors.append([[float(x.real), float(x.imag)] for x in v])
    put("moments.json", {"form": encode_form(thermal_form(diag1, 0.25)),
                         "vectors": vectors})
    for _ in range(12):  # the 16-vector input extends the 4 above
        v = 0.6 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        vectors.append([[float(x.real), float(x.imag)] for x in v])
    put("moments16.json", {"form": encode_form(thermal_form(diag1, 0.3)),
                           "vectors": vectors})
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    paths["bad.json"] = str(bad)
    paths["dir"] = str(tmp_path)
    return paths


def test_validate_exit_codes(inputs, capsys):
    assert main(["validate", inputs["thermal.json"], inputs["fock.json"],
                 inputs["space.json"]]) == 0
    out = json.loads(capsys.readouterr().out)
    kinds = [r["kind"] for r in out["reports"]]
    assert kinds == ["quasifree_form", "quasifree_form", "phase_space"]
    assert [r["classification"] for r in out["reports"]] == \
        ["Mixed", "BasisProjection", None]
    assert main(["validate", inputs["zero.json"]]) == 1
    assert main(["validate", inputs["bad.json"]]) == 2


def test_moments_command(inputs, capsys):
    assert main(["moments", inputs["moments.json"], "--bruteforce"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pairing_count"] == 3
    assert out["difference"] <= 1e-10
    # exit 0 means the doubled-Fock oracle agrees to --tol
    assert main(["moments", inputs["moments16.json"], "--bruteforce"]) == 0
    assert json.loads(capsys.readouterr().out)["pairing_count"] == 2027025


@pytest.mark.parametrize("bad, message", [
    ([[0.5, 0.5]] * 3, "vector 1 has length 3"),
    ([[0.5, 0.5]], "vector 1 has length 1"),
    ([[float("nan"), 0.0], [1.0, 0.0]], "vector 1 has non-finite entries"),
], ids=["too-long", "too-short", "nan"])
def test_moments_rejects_malformed_vector(tmp_path, diag1, capsys, bad, message):
    path = tmp_path / "moments.json"
    # json.dumps writes NaN as a literal that json.load accepts
    path.write_text(json.dumps({"form": encode_form(thermal_form(diag1, 0.25)),
                                "vectors": [[[1.0, 0.0], [0.0, 1.0]], bad]}))
    assert main(["moments", str(path)]) == 2
    assert message in capsys.readouterr().err


MALFORMED = ["dim-string", "dim-float", "no-sigma-prime", "block-not-object",
             "block-matrix-not-square", "vectors-int", "vectors-null",
             "overlap-map-too-large", "implement-map-too-large",
             "thresholds-int", "threshold-string", "threshold-nan",
             "threshold-bool", "tol-inf", "tol-nan"]


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_is_a_parse_error(tmp_path, diag1, capsys, case):
    """Each document in argv is written to a file of its own; strings are
    passed as they are."""
    space = encode_phase_space(diag1)
    block = {"space": space,
             "Sigma": encode_form(thermal_form(diag1, 0.5))["Sigma"],
             "Sigma_prime": encode_form(thermal_form(diag1, 0.7))["Sigma"]}

    def family(blocks):
        return {"generator": {"kind": "explicit", "blocks": blocks}, "n_max": 2}

    def moments(vectors):
        return {"form": encode_form(thermal_form(diag1, 0.25)), "vectors": vectors}

    def thresholds(document):
        return ["classify", family([block, block]), "--thresholds", document]

    fock1 = encode_form(fock_form(diag1))
    map4 = encode_complex_matrix(np.eye(4))
    block_keys = "explicit block 1 needs keys space, Sigma, Sigma_prime"
    map_size = "symplectic matrix is 4x4, the space has dimension 2"
    argv, message = {
        "dim-string": (["validate", {**space, "dim": "abc"}],
                       "dim must be an integer; got 'abc'"),
        "dim-float": (["validate", {**space, "dim": 2.7}],
                      "dim must be an integer; got 2.7"),
        "no-sigma-prime": (["classify", family([block, {"space": space,
                                                        "Sigma": block["Sigma"]}])],
                           block_keys),
        "block-not-object": (["classify", family([block, 5])], block_keys),
        "block-matrix-not-square": (
            ["classify", family([block, {**block, "Sigma_prime": [[1, 2]]}])],
            "explicit block 1: complex matrix must be square with [re, im] "
            "entries; got shape (1, 2)"),
        "vectors-int": (["moments", moments(5)], "'vectors' must be a list of vectors"),
        "vectors-null": (["moments", moments(None)],
                         "'vectors' must be a list of vectors"),
        "overlap-map-too-large": (["overlap", fock1, map4], map_size),
        "implement-map-too-large": (["implement", map4, fock1], map_size),
        "thresholds-int": (thresholds(5), "thresholds must be a JSON object"),
        "threshold-string": (thresholds({"min_fit_points": "x"}),
                             "threshold min_fit_points must be a finite number; "
                             "got 'x'"),
        # json.dumps writes NaN as a literal that json.load accepts
        "threshold-nan": (thresholds({"divergence_threshold": float("nan")}),
                          "threshold divergence_threshold must be a finite "
                          "number; got nan"),
        "threshold-bool": (thresholds({"alpha_min": True}),
                           "threshold alpha_min must be a finite number; got True"),
        "tol-inf": (["modular", fock1, "--tol", "inf"], "tolerance must be finite"),
        "tol-nan": (["validate", fock1, "--tol", "nan"], "tolerance must be finite"),
    }[case]
    for k, item in enumerate(argv):
        if not isinstance(item, str):
            argv[k] = str(tmp_path / f"input-{k}.json")
            with open(argv[k], "w", encoding="utf-8") as fh:
                json.dump(item, fh)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["validate", "thermal.json"],
    ["moments", "moments.json", "--bruteforce"],
    ["overlap", "fock.json", "squeeze04.json", "--cutoff", "20"],
    ["implement", "squeeze04.json", "fock.json", "--cutoff", "12"],
    ["classify", "fam_conv.json", "--n-max", "20"],
    ["modular", "thermal.json", "--cutoff", "8"],
], ids=lambda argv: argv[0])
def test_commands_return_their_report(inputs, tmp_path, capsys, argv):
    """A command returns (report, exit code) and writes no report; main
    writes exactly that report.  classify still writes its CSV beside --out."""
    argv = [inputs.get(a, a) for a in argv] + ["--out", str(tmp_path / "report.json")]
    args = cli.build_parser().parse_args(argv)
    assert args.run is getattr(cli, f"cmd_{argv[0]}")
    config = cli.RunConfig(**{f.name: getattr(args, f.name)
                              for f in fields(cli.RunConfig) if hasattr(args, f.name)})
    report, code = args.run(args, config)
    assert type(report) is dict and type(code) is int
    assert capsys.readouterr() == ("", "")
    assert not (tmp_path / "report.json").exists()
    assert (tmp_path / "report.csv").exists() == (argv[0] == "classify")
    assert main(argv) == code
    assert (tmp_path / "report.json").read_text() == dump_json(report) + "\n"
    assert capsys.readouterr() == ("", "")


def test_reports_match_the_reference_fock_primitives(inputs, tmp_path, diag2,
                                                    monkeypatch, capsys):
    """With the first-written expm_apply loop and the whole-operator Gamma(R)
    in place of the library's, the reports are byte-identical."""
    thermal2 = str(tmp_path / "thermal2.json")
    dump_json(encode_form(thermal_form(diag2, [0.3, 0.7])), thermal2)
    calls = [["implement", inputs["squeeze1.json"], inputs["fock.json"],
              "--cutoff", "40", "--bruteforce"],
             ["overlap", inputs["fock.json"], inputs["squeeze1.json"], "--cutoff", "40"],
             ["modular", thermal2, "--cutoff", "8"]]

    def reports():
        out = []
        for k, argv in enumerate(calls):
            path = tmp_path / f"report-{k}.json"
            assert main(argv + ["--out", str(path)]) == 0
            out.append((path.read_bytes(), capsys.readouterr()))
        return out

    library = reports()
    for module in (qfsp.implementers, qfsp.fock):
        monkeypatch.setattr(module, "expm_apply", expm_apply_reference)
    for module in (qfsp.implementers, qfsp.modular):
        monkeypatch.setattr(module, "_sym_power_apply", sym_power_apply_reference)
    assert reports() == library


def test_overlap_command(inputs, capsys):
    assert main(["overlap", inputs["fock.json"], inputs["squeeze1.json"],
                 "--cutoff", "40"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["difference"] <= 1e-6
    assert out["overlap_det"] == pytest.approx(np.cosh(1.0) ** -0.5, abs=1e-6)
    assert np.allclose(out["theta_spectrum"], [1.0, 1.0], atol=1e-9)


def test_overlap_identity(inputs, capsys):
    eye = encode_complex_matrix(np.eye(2, dtype=complex))
    path = os.path.join(inputs["dir"], "eye.json")
    dump_json(eye, path)
    assert main(["overlap", inputs["fock.json"], path, "--cutoff", "12"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["overlap_det"] == pytest.approx(1.0)
    assert out["overlap_bruteforce"][0] == pytest.approx(1.0)


def test_overlap_insufficient_cutoff(inputs, capsys):
    assert main(["overlap", inputs["fock.json"], inputs["squeeze3.json"],
                 "--cutoff", "20"]) == 5


def test_overlap_rejects_mixed_form(inputs, capsys):
    assert main(["overlap", inputs["thermal.json"], inputs["squeeze1.json"],
                 "--cutoff", "12"]) == 1


@pytest.mark.parametrize("command", ["overlap", "implement"])
def test_non_finite_symplectic_map_is_a_parse_error(inputs, tmp_path, capsys,
                                                    command):
    path = tmp_path / "nan_u.json"
    # json.dumps writes NaN as a literal that json.load accepts
    path.write_text(json.dumps([[[float("nan"), 0.0], [0.0, 0.0]],
                                [[0.0, 0.0], [1.0, 0.0]]]))
    args = ([inputs["fock.json"], str(path)] if command == "overlap"
            else [str(path), inputs["fock.json"]])
    assert main([command, *args, "--cutoff", "12"]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_implement_command(inputs, capsys):
    assert main(["implement", inputs["squeeze04.json"], inputs["fock.json"],
                 "--cutoff", "40", "--bruteforce"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["continuity_ok"]
    assert out["corner_hs_norm"] == pytest.approx(np.sinh(0.4), rel=1e-10)
    assert out["polar_recompose_residual"] <= 1e-10
    assert all(c["rounded"] in (1, -1) for c in out["cocycle_checks"])


def test_classify_exit_codes_and_csv(inputs, tmp_path, capsys):
    out_json = str(tmp_path / "verdict.json")
    assert main(["classify", inputs["fam_conv.json"], "--out", out_json]) == 0
    report = json.loads(open(out_json).read())
    assert report["outcome"] == "Equivalent"
    csv_lines = open(str(tmp_path / "verdict.csv")).read().splitlines()
    assert csv_lines[0] == "k,t_k,partial_sum,alpha_k,beta_k"
    assert len(csv_lines) == 401
    assert main(["classify", inputs["fam_const.json"]]) == 3
    capsys.readouterr()
    assert main(["classify", inputs["fam_conv.json"], "--n-max", "3"]) == 4
    capsys.readouterr()


def test_unwritable_out_is_a_one_line_error(inputs, tmp_path, capsys):
    """--out into a missing directory: exit 2 and one stderr line naming the
    path, as for an unreadable input."""
    out = str(tmp_path / "missing" / "report.json")
    assert main(["validate", inputs["thermal.json"], "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {out}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_unwritable_classify_csv_is_a_one_line_error(inputs, tmp_path, capsys):
    """The CSV beside --out is written first; when it cannot be written the
    command exits 2 with one stderr line and writes no JSON report."""
    csv = tmp_path / "report.csv"
    csv.mkdir()
    out = str(tmp_path / "report.json")
    assert main(["classify", inputs["fam_const.json"], "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {csv}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert not os.path.exists(out)


def test_classify_thresholds_file(inputs, tmp_path, capsys):
    th = str(tmp_path / "th.json")
    dump_json({"divergence_threshold": 5.0}, th)
    assert main(["classify", inputs["fam_const.json"], "--n-max", "50",
                 "--thresholds", th]) == 3
    capsys.readouterr()
    bad = str(tmp_path / "th_bad.json")
    dump_json({"nope": 1}, bad)
    assert main(["classify", inputs["fam_const.json"], "--thresholds",
                 bad]) == 2


def test_modular_command(inputs, capsys):
    assert main(["modular", inputs["thermal.json"], "--cutoff", "20"]) == 0
    out = json.loads(capsys.readouterr().out)
    expect = np.log(3.0)
    assert np.allclose(sorted(out["H_S_spectrum"]), [-expect, expect])
    assert max(out["tomita_residuals"]) <= out["scaled_tolerance"]
    assert main(["modular", inputs["fock.json"], "--cutoff", "20"]) == 1
    assert main(["modular", inputs["thermal.json"], "--cutoff", "4"]) == 5


def _thermal_input(tmp_path, nus):
    ps = qfsp.build_standard(len(nus), qfsp.Presentation.DIAGONAL)
    path = str(tmp_path / f"thermal{len(nus)}.json")
    dump_json(encode_form(thermal_form(ps, nus)), path)
    return path


def test_gamma_is_applied_by_sector(inputs, tmp_path, monkeypatch):
    """modular and implement apply every symmetric power through its blocks
    up to the operand's top sector: no whole Gamma(R) is built, and modular's
    operands, B(f)B(g)Psi and Psi, need no block above sector 2."""
    import qfsp.fock as fock
    import qfsp.implementers as impl
    import qfsp.modular as modular

    whole, tops = [], []
    gamma = fock.second_quantize_unitary
    for mod in (fock, impl, modular):
        if hasattr(mod, "second_quantize_unitary"):
            monkeypatch.setattr(mod, "second_quantize_unitary",
                                lambda *a: whole.append(a) or gamma(*a))
    blocks = fock._sym_power_blocks
    monkeypatch.setattr(fock, "_sym_power_blocks",
                        lambda *a: tops.append(a[2]) or blocks(*a))
    out = str(tmp_path / "report.json")
    assert main(["modular", _thermal_input(tmp_path, [0.3, 0.5, 0.7]),
                 "--cutoff", "8", "--out", out]) == 0
    assert len(tops) == 13 and max(tops) == 2  # 4 Tomita, 4 KMS, Delta^{it}
    assert main(["implement", inputs["squeeze04.json"], inputs["fock.json"],
                 "--cutoff", "40", "--bruteforce", "--out", out]) == 0
    assert whole == []


def test_modular_report_does_not_depend_on_the_cutoff(tmp_path):
    path = _thermal_input(tmp_path, [0.3, 0.7])
    reports = {}
    for cutoff in ("8", "14"):
        reports[cutoff] = str(tmp_path / f"modular-{cutoff}.json")
        assert main(["modular", path, "--cutoff", cutoff,
                     "--out", reports[cutoff]]) == 0
    low, high = (open(reports[c], "rb").read() for c in ("8", "14"))
    assert low != high
    assert low.replace(b'"cutoff": 8', b'"cutoff": 14') == high


def test_reports_are_deterministic_across_threads(inputs, tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["classify", inputs["fam_conv.json"], "--threads", "1",
                 "--out", a]) == 0
    assert main(["classify", inputs["fam_conv.json"], "--threads", "4",
                 "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert open(a[:-5] + ".csv", "rb").read() == open(b[:-5] + ".csv", "rb").read()


def test_threads_env_fallback(inputs, tmp_path, monkeypatch):
    # no command reads an environment variable; a value that is not an
    # integer once ended classify in a traceback
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["classify", inputs["fam_conv.json"], "--out", a]) == 0
    monkeypatch.setenv("QFSP_THREADS", "abc")
    assert main(["classify", inputs["fam_conv.json"], "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert open(a[:-5] + ".csv", "rb").read() == open(b[:-5] + ".csv", "rb").read()


def test_version_and_bad_config(inputs, capsys):
    with pytest.raises(SystemExit):
        main(["--version"])
    assert main(["validate", inputs["thermal.json"], "--tol", "-1"]) == 2
    assert main(["overlap", inputs["fock.json"], inputs["squeeze1.json"],
                 "--cutoff", "2"]) == 2
    assert main(["classify", inputs["fam_conv.json"], "--threads", "0"]) == 2
    err = capsys.readouterr().err
    assert "cutoff must be at least 4 for Fock-level commands" in err
    assert err.count("threads must be at least 1") == 1


@pytest.mark.parametrize("argv", [
    ["validate", "thermal.json", "--seed", "1"],
    ["overlap", "fock.json", "squeeze1.json", "--bruteforce"],
    ["classify", "fam_conv.json", "--cutoff", "8"],
    ["modular", "thermal.json", "--threads", "2"],
], ids=lambda argv: argv[0])
def test_unread_option_is_a_usage_error(inputs, capsys, argv):
    argv = [inputs.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert err.startswith(f"usage: qfsp {argv[0]} ")


def test_classify_csv_matches_pair_oracle(tmp_path):
    description = {"generator": {"kind": "thermal_pair", "tau": "1/k",
                                 "tau_prime": "0"}, "n_max": 500}
    fam_path = str(tmp_path / "family.json")
    dump_json(description, fam_path)
    out = str(tmp_path / "verdict.json")
    assert main(["classify", fam_path, "--out", out]) in (0, 3, 4)
    fam = family_from_json(description)
    rows = []
    for k in range(1, fam.n_max + 1):
        f, g = fam.pair(k)
        rows.append((k, hs_discriminant(f, g), *norm_equivalence_bounds(f, g)))
    partial = np.cumsum([r[1] for r in rows])
    expect = "k,t_k,partial_sum,alpha_k,beta_k\n" + "".join(
        f"{k},{t!r},{float(p)!r},{a!r},{b!r}\n"
        for (k, t, a, b), p in zip(rows, partial))
    assert open(str(tmp_path / "verdict.csv")).read() == expect


@pytest.mark.parametrize("tau, block", [
    ("1/(k-3)", 3), ("log(k-2)", 1), ("sqrt(2-k)", 3), ("(-1)**(1/k)", 2),
    ("exp(1000/k)", 1),
])
def test_classify_reports_first_failing_block(tmp_path, capsys, tau, block):
    fam_path = str(tmp_path / "family.json")
    dump_json({"generator": {"kind": "thermal_pair", "tau": tau,
                             "tau_prime": "0"}, "n_max": 10}, fam_path)
    assert main(["classify", fam_path]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error.startswith(f"block {block} failed: ")


def test_classify_overflowing_power_is_infinite(tmp_path, capsys):
    # k**400 leaves the float range from k = 6 on; it evaluates to inf, so
    # tau = 1/k**400 is 0 there and every block classifies
    fam_path = str(tmp_path / "family.json")
    dump_json({"generator": {"kind": "thermal_pair", "tau": "1/k**400",
                             "tau_prime": "0"}, "n_max": 10}, fam_path)
    assert main(["classify", fam_path]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["outcome"] == "Inconclusive"


def test_numpy_only_paths_load_no_scipy(inputs, tmp_path):
    """Import, --help, classify on a thermal_pair family and validate on a
    diagonal-metric form load no scipy module in a fresh interpreter; scipy
    is imported on first use only (overlap loads scipy.sparse for its Fock
    check, the positive control)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qfsp.__file__)))
    probe = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

seen = {}
from qfsp.cli import main
seen["import"] = (0, scipy_modules())
for name, argv in json.loads(sys.argv[1]):
    seen[name] = (run(argv), scipy_modules())
print(json.dumps(seen))
"""
    steps = [
        ("help", ["--help"]),
        ("classify", ["classify", inputs["fam_const.json"],
                      "--out", str(tmp_path / "report.json")]),
        ("validate", ["validate", inputs["thermal.json"]]),
        ("overlap", ["overlap", inputs["fock.json"], inputs["squeeze04.json"]]),
    ]
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(steps)], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    seen = json.loads(out.stdout.strip().splitlines()[-1])
    assert {name: code for name, (code, _) in seen.items()} == {
        "import": 0, "help": 0, "classify": 3, "validate": 0, "overlap": 0}
    for name in ("import", "help", "classify", "validate"):
        assert seen[name][1] == [], name
    assert "scipy.sparse" in seen["overlap"][1]
    assert (tmp_path / "report.csv").exists()
