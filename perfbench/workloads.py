"""The benchmark's four workloads: seeded inputs, one pass, result checks.

Each workload is a closed loop in one process: every operation starts when
the previous one has returned.  ``setup`` writes the seeded inputs as JSON
files; the program sees only those files and argv.  ``run_pass`` runs one
full pass through ``Ops``, which times each operation and applies its check.

qfsp functions are always looked up on their module at call time (``q.cli.main``,
``q.quasifree.validate_form``), so the tracer's wrappers apply when installed.
"""

from __future__ import annotations

import json
import math
import os
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class OpRecord:
    command: str
    seconds: float
    problem: str | None


@dataclass
class Ops:
    """Runs operations one after another and records time and check outcome."""

    tracer: object | None = None
    between_ops: object | None = None  # called before each operation, untimed
    between_ops_s: float = 0.0
    records: list = field(default_factory=list)

    def run(self, command: str, fn, check):
        """Time ``fn()``; ``check(result)`` returns None or a problem string."""
        if self.between_ops is not None:
            t0 = perf_counter()
            self.between_ops()
            self.between_ops_s += perf_counter() - t0
        if self.tracer is not None:
            self.tracer.op_id += 1
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # one failing operation must not stop the run
            seconds = perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            self.records.append(OpRecord(command, seconds,
                                         f"raised {type(exc).__name__}: {exc}"))
            return None
        seconds = perf_counter() - t0
        with self._paused():
            try:
                problem = check(result)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                problem = f"check raised {type(exc).__name__}: {exc}"
        self.records.append(OpRecord(command, seconds, problem))
        return result

    def verify(self, what: str, fn):
        """A benchmark-side check that is an operation of its own (untimed)."""
        with self._paused():
            try:
                problem = fn()
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                problem = f"raised {type(exc).__name__}: {exc}"
        self.records.append(OpRecord("check", 0.0, problem and f"{what}: {problem}"))

    def _paused(self):
        return nullcontext() if self.tracer is None else self.tracer.paused()


def _write(q, path: str, obj) -> str:
    q.serialize.dump_json(obj, path)
    return path


def _read(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _cli(q, argv):
    return lambda: q.cli.main(list(argv))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _expi(h: np.ndarray) -> np.ndarray:
    import scipy.linalg as sla

    return sla.expm(1j * h).real.astype(complex)


def real_symplectic(q, ps, rng, scale: float, log: bool = False) -> np.ndarray:
    """Random real symplectic map exp(iH) with H purely imaginary.

    The raw matrix is scaled by 1/sqrt(dim), so the squeezing stays moderate
    as the number of modes grows.  With ``log`` the generator H is returned.
    """
    raw = (rng.normal(size=(ps.dim, ps.dim))
           + 1j * rng.normal(size=(ps.dim, ps.dim))) * scale / np.sqrt(ps.dim)
    h = q.sp_algebra.hamiltonian_projection(ps, raw).op
    h = 0.5 * (h - np.conj(h))
    return h if log else _expi(h)


def _split_passive(h: np.ndarray, p: np.ndarray):
    """(part commuting with the projection p, pair-creating rest) of H."""
    passive = p @ h @ p + (np.eye(len(p)) - p) @ h @ (np.eye(len(p)) - p)
    return passive, h - passive


# ---------------------------------------------------------------------------
# families: `qfsp classify` on criterion-11 thermal_pair families
# ---------------------------------------------------------------------------

FAMILY_BLOCKS = 10_000
THREADS_CHECK_BLOCKS = 1_000


def setup_families(q, seed: int, workdir: str, smoke: bool = False) -> dict:
    big = 200 if smoke else FAMILY_BLOCKS
    small = 100 if smoke else THREADS_CHECK_BLOCKS
    # outcome at n_max = 200 is Inconclusive for both decaying families
    conv_expect = (4, "Inconclusive") if smoke else (0, "Equivalent")
    div_expect = (4, "Inconclusive") if smoke else (3, "Inequivalent")
    rng = np.random.default_rng(seed)

    def family(tau, tau_prime, n):
        return {"generator": {"kind": "thermal_pair", "tau": tau,
                              "tau_prime": tau_prime}, "n_max": n}

    return {
        "workdir": workdir,
        "blocks_per_pass": 2 * big + 2 * small,
        "classify": [
            # (label, file, threads, expected exit code, expected outcome)
            ("conv", _write(q, os.path.join(workdir, "conv.json"),
                            family("1/k", "0", big)), 1, *conv_expect),
            ("div", _write(q, os.path.join(workdir, "div.json"),
                           family("1/sqrt(k)", "0", big)), 1, *div_expect),
            ("const", _write(q, os.path.join(workdir, "const.json"),
                             family("0", "0.3", small)), 1, 3, "Inequivalent"),
            ("const", os.path.join(workdir, "const.json"), 2, 3, "Inequivalent"),
        ],
        # per-mode closed form 2 (1 - exp(-2 tau_k))^2 at sampled k
        "closed_form_k": sorted({1, *map(int, rng.integers(1, big + 1, size=4))}),
    }


def run_families(q, inp: dict, ops: Ops):
    outputs = {}
    for label, path, threads, want_rc, want_outcome in inp["classify"]:
        out = os.path.join(inp["workdir"], f"report-{label}-t{threads}.json")

        def check(rc, out=out, want_rc=want_rc, want_outcome=want_outcome):
            if rc != want_rc:
                return f"exit {rc}, expected {want_rc}"
            outcome = _read(out)["outcome"]
            if outcome != want_outcome:
                return f"outcome {outcome}, expected {want_outcome}"
            return None

        ops.run("classify", _cli(q, ["classify", path, "--threads", str(threads),
                                     "--out", out]), check)
        outputs[(label, threads)] = out

    def same_reports():
        a, b = outputs[("const", 1)], outputs[("const", 2)]
        for suffix in ("", ".csv"):
            pa = a if not suffix else a[:-5] + suffix
            pb = b if not suffix else b[:-5] + suffix
            if _read_bytes(pa) != _read_bytes(pb):
                return f"{os.path.basename(pa)} differs between --threads 1 and 2"
        return None

    ops.verify("threads determinism", same_reports)

    def closed_form():
        worst = 0.0
        for label, tau in (("conv", lambda k: 1.0 / k),
                           ("div", lambda k: 1.0 / math.sqrt(k))):
            path = inp["classify"][0 if label == "conv" else 1][1]
            fam = q.classifier.family_from_json(_read(path))
            for k in inp["closed_form_k"]:
                value = q.classifier.hs_discriminant(*fam.pair(k))
                closed = 2.0 * (1.0 - math.exp(-2.0 * tau(k))) ** 2
                worst = max(worst, _rel(value, closed))
        return None if worst <= 1e-10 else f"relative error {worst:.2e} > 1e-10"

    ops.verify("discriminant closed form", closed_form)


# ---------------------------------------------------------------------------
# one_particle: general-metric library calls, `validate`, `moments`
# ---------------------------------------------------------------------------

PAIR_MODES = (4, 8, 16)
PAIRS_PER_SIZE = 6
MOMENT_SIZES = (12, 14)


def _pairing_count(n: int) -> int:
    return math.factorial(n) // (2 ** (n // 2) * math.factorial(n // 2))


def setup_one_particle(q, seed: int, workdir: str, smoke: bool = False) -> dict:
    rng = np.random.default_rng(seed)
    qf, ser, cl = q.quasifree, q.serialize, q.classifier
    diag = q.phase_space.Presentation.DIAGONAL
    pairs = []
    for n in ((2,) if smoke else PAIR_MODES):
        ps = q.phase_space.build_standard(n, diag)
        for _ in range(1 if smoke else PAIRS_PER_SIZE):
            i = len(pairs)
            tau = rng.uniform(0.3, 1.0, n)
            tau_p = rng.uniform(0.3, 1.0, n)
            a0 = qf.thermal_form(ps, np.sinh(tau) ** 2)
            b0 = qf.thermal_form(ps, np.sinh(tau_p) ** 2)
            u = real_symplectic(q, ps, rng, 0.5)
            a, b = qf.transport_form(a0, u), qf.transport_form(b0, u)
            u1 = real_symplectic(q, ps, rng, 0.5)
            u2 = real_symplectic(q, ps, rng, 0.5)
            pa = qf.transport_form(qf.fock_form(ps), u1)
            pb = qf.transport_form(qf.fock_form(ps), u2)
            files = {}
            for key, obj in (("a", a), ("b", b), ("pa", pa), ("pb", pb)):
                files[key] = _write(q, os.path.join(workdir, f"pair{i}-{key}.json"),
                                    ser.encode_form(obj))
            files["u"] = _write(q, os.path.join(workdir, f"pair{i}-u.json"),
                                ser.encode_complex_matrix(u2))
            ratio = np.cosh(2 * tau_p) / np.cosh(2 * tau)
            pairs.append({
                "files": files,
                # a common Bogoliubov transport leaves these invariants alone,
                # so the thermal closed forms and diagonal-path values apply
                "hs": float(np.sum(2.0 * (1.0 - np.exp(2.0 * (tau_p - tau))) ** 2)),
                "hs_mirrored": float(np.sum(
                    2.0 * (1.0 - np.exp(2.0 * (tau - tau_p))) ** 2)),
                "alpha": float(np.sqrt(ratio.min())),
                "beta": float(np.sqrt(ratio.max())),
                "distance": cl.state_distance_lower_bound(a0, b0),
                # the overlap is symmetric; the reverse direction is the reference
                "overlap": q.implementers.vacuum_overlap(pb, pa),
            })
    d1 = q.phase_space.build_standard(1, diag)
    base = qf.transport_form(qf.thermal_form(d1, rng.uniform(0.2, 0.8)),
                             real_symplectic(q, d1, rng, 0.5))
    moments = []
    for n in ((6, 8) if smoke else MOMENT_SIZES):
        vecs = 0.6 * (rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
        moments.append((n, _write(q, os.path.join(workdir, f"moments{n}.json"), {
            "form": ser.encode_form(base),
            "vectors": [ser.encode_complex_vector(v) for v in vecs],
        })))
    return {"workdir": workdir, "pairs": pairs, "moments": moments}


def _check_validation(kind):
    def check(rep):
        if not rep.valid or rep.classification != kind:
            return f"valid={rep.valid} classification={rep.classification}"
        return None
    return check


def run_one_particle(q, inp: dict, ops: Ops):
    qf, cl, im, ser = q.quasifree, q.classifier, q.implementers, q.serialize
    validate_files, kinds = [], []
    for pair in inp["pairs"]:
        files = pair["files"]
        loaded = ops.run("pairs", lambda: {
            key: (ser.decode_complex_matrix(ser.load_json(path)) if key == "u"
                  else ser.decode_form(ser.load_json(path)))
            for key, path in files.items()}, lambda got: None)
        if loaded is None:
            continue
        a, b, pa = loaded["a"], loaded["b"], loaded["pa"]
        ps = a.space
        ops.run("pairs", lambda: qf.validate_form(a), _check_validation("Mixed"))
        ops.run("pairs", lambda: qf.validate_form(b), _check_validation("Mixed"))

        def check_pair(rep, pair=pair):
            errs = {
                "hs": _rel(rep.hs_value, pair["hs"]),
                "hs_mirrored": _rel(rep.hs_value_mirrored, pair["hs_mirrored"]),
                "alpha": _rel(rep.alpha, pair["alpha"]),
                "beta": _rel(rep.beta, pair["beta"]),
            }
            bad = {k: v for k, v in errs.items() if v > 1e-8}
            if bad or rep.projection_mismatch:
                return f"relative errors {bad}, mismatch={rep.projection_mismatch}"
            return None

        ops.run("pairs", lambda: cl.classify_pair(a, b), check_pair)
        ops.run("pairs", lambda: cl.state_distance_lower_bound(a, b),
                lambda v, pair=pair: None if abs(v - pair["distance"]) <= 1e-8
                else f"distance {v!r}, diagonal path {pair['distance']!r}")
        ops.run("pairs", lambda: cl.state_distance_lower_bound(a, a),
                lambda v: None if abs(v) <= 1e-9 else f"self-distance {v!r} > 1e-9")
        ops.run("pairs", lambda: qf.double(a),
                lambda dd, n=ps.dim: None
                if dd.hat_form.space.dim == 2 * n and dd.hat_form.is_basis_projection(1e-8)
                else "doubled form is not a basis projection")
        pb, u = loaded["pb"], q.implementers.SymplecticMap(loaded["u"])
        ops.run("pairs", lambda: im.vacuum_overlap(pa, pb),
                lambda v, pair=pair: None
                if 0.0 < v <= 1.0 + 1e-12 and abs(v - pair["overlap"]) <= 1e-10
                else f"overlap {v!r}, reverse direction {pair['overlap']!r}")

        def check_polar(parts, u=u, pa=pa):
            recompose = np.linalg.norm(parts.positive.u @ parts.rotation.u - u.u, 2)
            commute = np.linalg.norm(parts.rotation.u @ pa.s_op
                                     - pa.s_op @ parts.rotation.u, 2)
            scale = max(1.0, float(np.linalg.norm(u.u, 2)))
            if recompose > 1e-8 * scale or commute > 1e-8 * scale:
                return f"recompose {recompose:.2e}, commute {commute:.2e}"
            return None

        ops.run("pairs", lambda: im.polar(ps, u, pa), check_polar)
        eye = q.implementers.SymplecticMap(np.eye(ps.dim, dtype=complex))
        ops.run("pairs", lambda: im.dP_distance(ps, u, eye, pa),
                lambda v: None if math.isfinite(v) and v > 0.0
                else f"d_P {v!r} not positive")
        for key, kind in (("a", "Mixed"), ("b", "Mixed"),
                          ("pa", "BasisProjection"), ("pb", "BasisProjection")):
            validate_files.append(files[key])
            kinds.append(kind)

    out = os.path.join(inp["workdir"], "report-validate.json")

    def check_validate(rc):
        if rc != 0:
            return f"exit {rc}, expected 0"
        got = [r["classification"] for r in _read(out)["reports"]]
        return None if got == kinds else f"classifications {got}"

    ops.run("validate", _cli(q, ["validate", *validate_files, "--out", out]),
            check_validate)
    for n, path in inp["moments"]:
        out = os.path.join(inp["workdir"], f"report-moments{n}.json")

        def check_moments(rc, out=out, n=n):
            if rc != 0:
                return f"exit {rc}, expected 0"
            rep = _read(out)
            if rep["pairing_count"] != _pairing_count(n):
                return f"pairing_count {rep['pairing_count']}"
            return None

        ops.run("moments", _cli(q, ["moments", path, "--bruteforce", "--out", out]),
                check_moments)


# ---------------------------------------------------------------------------
# implement: `qfsp overlap` and `qfsp implement --bruteforce`
# ---------------------------------------------------------------------------

SQUEEZE_R = 0.4


def setup_implement(q, seed: int, workdir: str, smoke: bool = False) -> dict:
    rng = np.random.default_rng(seed)
    ser, qf = q.serialize, q.quasifree
    diag = q.phase_space.Presentation.DIAGONAL
    d1 = q.phase_space.build_standard(1, diag)
    r = SQUEEZE_R
    squeeze = np.array([[np.cosh(r), np.sinh(r)], [np.sinh(r), np.cosh(r)]],
                       dtype=complex)
    cases = [("squeeze", _write(q, os.path.join(workdir, "fock1.json"),
                                ser.encode_form(qf.fock_form(d1))),
              _write(q, os.path.join(workdir, "squeeze.json"),
                     ser.encode_complex_matrix(squeeze)), 40)]
    if not smoke:
        d2 = q.phase_space.build_standard(2, diag)
        # R1 S R2: the squeeze S is the same for every seed and the passive
        # rotations R1, R2 are seeded, so the angle spectrum (and with it the
        # cost of expm) does not depend on the seed.  Scale 0.22 * sqrt(dim)
        # undoes real_symplectic's 1/sqrt(dim).
        p = qf.fock_form(d2).s_op
        scale = 0.22 * np.sqrt(d2.dim)
        squeeze2 = _split_passive(real_symplectic(q, d2, np.random.default_rng(0),
                                                  scale, log=True), p)[1]
        rot1, rot2 = (_split_passive(real_symplectic(q, d2, rng, scale, log=True),
                                     p)[0] for _ in range(2))
        u = _expi(rot1) @ _expi(squeeze2) @ _expi(rot2)
        # cutoff 28 is the lowest that certifies the default cocycle sector
        cases.append(("map2", _write(q, os.path.join(workdir, "fock2.json"),
                                     ser.encode_form(qf.fock_form(d2))),
                      _write(q, os.path.join(workdir, "map2.json"),
                             ser.encode_complex_matrix(u)), 28))
    return {"workdir": workdir, "cases": cases}


def run_implement(q, inp: dict, ops: Ops):
    for label, proj, sym, cutoff in inp["cases"]:
        out = os.path.join(inp["workdir"], f"report-overlap-{label}.json")

        def check_overlap(rc, out=out, label=label):
            if rc != 0:
                return f"exit {rc}, expected 0"
            if label == "squeeze":
                det = _read(out)["overlap_det"]
                want = 1.0 / math.sqrt(math.cosh(SQUEEZE_R))
                if _rel(det, want) > 1e-10:
                    return f"overlap_det {det!r}, 1/sqrt(cosh r) = {want!r}"
            return None

        ops.run("overlap", _cli(q, ["overlap", proj, sym, "--cutoff", str(cutoff),
                                    "--out", out]), check_overlap)
        out = os.path.join(inp["workdir"], f"report-implement-{label}.json")

        def check_implement(rc, out=out):
            if rc != 0:
                return f"exit {rc}, expected 0"
            rep = _read(out)
            moduli = [abs(complex(*c["raw"])) for c in rep["cocycle_checks"]]
            if not rep["continuity_ok"] or len(moduli) != 3 or \
                    max(abs(m - 1.0) for m in moduli) > 1e-4:
                return f"continuity_ok={rep['continuity_ok']}, cocycle moduli {moduli}"
            return None

        # the CLI's own cocycle samples use its default --seed 0
        ops.run("implement", _cli(q, ["implement", sym, proj, "--cutoff", str(cutoff),
                                      "--bruteforce", "--out", out]),
                check_implement)


# ---------------------------------------------------------------------------
# modular: `qfsp modular` on thermal forms
# ---------------------------------------------------------------------------

def setup_modular(q, seed: int, workdir: str, smoke: bool = False) -> dict:
    ser, qf = q.serialize, q.quasifree
    diag = q.phase_space.Presentation.DIAGONAL
    cases = [("one", [0.5], 10 if smoke else 30)]
    if not smoke:
        cases.append(("two", [0.3, 0.7], 8))
    out = []
    for label, nus, cutoff in cases:
        ps = q.phase_space.build_standard(len(nus), diag)
        path = _write(q, os.path.join(workdir, f"thermal-{label}.json"),
                      ser.encode_form(qf.thermal_form(ps, nus)))
        out.append((label, path, cutoff, nus))
    return {"workdir": workdir, "cases": out, "seed": seed}


def run_modular(q, inp: dict, ops: Ops):
    for label, path, cutoff, nus in inp["cases"]:
        out = os.path.join(inp["workdir"], f"report-modular-{label}.json")
        # H_S = log(S / (1 - S)) has eigenvalues +-log((1 + nu) / nu)
        want = sorted([math.log((1 + v) / v) for v in nus]
                      + [-math.log((1 + v) / v) for v in nus])

        def check(rc, out=out, want=want):
            if rc != 0:
                return f"exit {rc}, expected 0"
            got = sorted(_read(out)["H_S_spectrum"])
            if max(abs(g - w) for g, w in zip(got, want)) > 1e-10:
                return f"H_S spectrum {got}, closed form {want}"
            return None

        ops.run("modular", _cli(q, ["modular", path, "--cutoff", str(cutoff),
                                    "--seed", str(inp["seed"]), "--out", out]), check)


WORKLOADS = {
    "families": (setup_families, run_families),
    "one_particle": (setup_one_particle, run_one_particle),
    "implement": (setup_implement, run_implement),
    "modular": (setup_modular, run_modular),
}

# command labels that get their own per-pass wall time
COMMANDS = ("classify", "validate", "moments", "overlap", "implement", "modular",
            "pairs")
