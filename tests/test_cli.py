import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qfsp.classifier import (
    family_from_json,
    hs_discriminant,
    norm_equivalence_bounds,
)
import qfsp
from qfsp.cli import main
from qfsp.quasifree import QuasifreeForm, fock_form, thermal_form
from qfsp.serialize import (
    dump_json,
    encode_complex_matrix,
    encode_form,
    encode_phase_space,
)
from conftest import squeeze


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
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    main(["classify", inputs["fam_conv.json"], "--threads", "1", "--out", a])
    monkeypatch.setenv("QFSP_THREADS", "3")
    main(["classify", inputs["fam_conv.json"], "--out", b])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_version_and_bad_config(inputs, capsys):
    with pytest.raises(SystemExit):
        main(["--version"])
    assert main(["validate", inputs["thermal.json"], "--tol", "-1"]) == 2
    assert main(["validate", inputs["thermal.json"], "--cutoff", "2"]) == 2


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


def test_cli_import_leaves_scipy_sparse_unloaded():
    """The sparse Fock layer imports scipy.sparse on first use, so the
    start-up cost of every command stays flat."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qfsp.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, qfsp.cli; print([m for m in ('scipy.sparse', "
             "'scipy.sparse.linalg') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"
