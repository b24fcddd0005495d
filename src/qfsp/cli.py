"""Command line surface.

Commands: validate | moments | overlap | implement | classify | modular.
Structured output is JSON with complex numbers as [re, im]; per-mode series
go to CSV.  Exit codes: 0 pass/equivalent, 1 math-invalid, 2 parse,
3 inequivalent, 4 inconclusive, 5 insufficient cutoff.

Reports are byte-deterministic for a fixed (inputs, config, seed).
`classify` evaluates all blocks of a thermal_pair family in one batched
pass, and explicit families block by block, in the calling thread.
--threads (default QFSP_THREADS, else 1) is accepted and must be at least 1,
but the thread count changes nothing in any command, so reports are
byte-identical for every value.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ParseError, QfspError, TruncationError
from .classifier import (
    FamilyConfig,
    classify_family,
    family_from_json,
)
from .fock import build_fock, field_operator
from .implementers import (
    SymplecticMap,
    cocycle_sign,
    dP_distance,
    implement_T_apply,
    metaplectic_apply,
    polar,
    theta,
    validate_symplectic,
    vacuum_overlap,
)
from .linalg import hs_norm
from .modular import build_modular, kms_residual, tomita_residual
from .phase_space import validate_phase_space
from .quasifree import (
    QuasifreeForm,
    double,
    moment,
    transport_form,
    validate_form,
)
from .serialize import (
    decode_complex_matrix,
    decode_complex_vector,
    decode_form,
    decode_phase_space,
    dump_json,
    load_json,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_INEQUIVALENT = 3
EXIT_INCONCLUSIVE = 4
EXIT_CUTOFF = 5

MODULAR_MIN_CUTOFF = 8


@dataclass
class RunConfig:
    cutoff: int = 16
    tol: float = 1e-6
    seed: int = 0
    threads: int = 1
    out: str | None = None
    bruteforce: bool = False
    n_max: int | None = None
    thresholds: str | None = None

    def __post_init__(self):
        if self.tol <= 0:
            raise ParseError("tolerance must be positive")
        if self.cutoff < 4:
            raise ParseError("cutoff must be at least 4 for Fock-level commands")
        if self.threads < 1:
            raise ParseError("threads must be at least 1")


def _config_from_args(args) -> RunConfig:
    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("QFSP_THREADS", "1"))
    return RunConfig(
        cutoff=args.cutoff,
        tol=args.tol,
        seed=args.seed,
        threads=threads,
        out=args.out,
        bruteforce=args.bruteforce,
        n_max=getattr(args, "n_max", None),
        thresholds=getattr(args, "thresholds", None),
    )


def _emit(report: dict, config: RunConfig) -> None:
    text = dump_json(report, config.out)
    if config.out is None:
        sys.stdout.write(text + "\n")


def cmd_validate(paths, config: RunConfig) -> int:
    reports = []
    any_invalid = False
    for path in paths:
        data = load_json(path)
        if isinstance(data, dict) and "Sigma" in data:
            form = decode_form(data)
            rep = validate_form(form, tol=max(config.tol * 1e-4, 1e-12))
            kind = "quasifree_form"
            classification = rep.classification
        elif isinstance(data, dict) and "G" in data:
            ps = decode_phase_space(data)
            rep = validate_phase_space(ps, tol=max(config.tol * 1e-4, 1e-12))
            kind = "phase_space"
            classification = None
        else:
            raise ParseError(f"{path}: neither a phase space nor a form")
        reports.append({
            "file": path,
            "kind": kind,
            "valid": rep.valid,
            "classification": classification,
            "residuals": {k: float(v) for k, v in sorted(rep.residuals.items())},
        })
        any_invalid = any_invalid or not rep.valid
    _emit({"reports": reports}, config)
    return EXIT_INVALID if any_invalid else EXIT_OK


def cmd_moments(path, config: RunConfig) -> int:
    data = load_json(path)
    if not isinstance(data, dict) or "form" not in data or "vectors" not in data:
        raise ParseError("moments input needs keys 'form' and 'vectors'")
    form = decode_form(data["form"])
    vectors = [decode_complex_vector(v) for v in data["vectors"]]
    value = moment(form, vectors)
    n = len(vectors)
    from math import factorial

    count = (factorial(n) // (2 ** (n // 2) * factorial(n // 2))) if n % 2 == 0 else 0
    report = {
        "moment": [value.real, value.imag],
        "num_vectors": n,
        "pairing_count": count,
    }
    if config.bruteforce:
        oracle = _moment_bruteforce(form, vectors, config)
        report["bruteforce"] = [oracle.real, oracle.imag]
        report["difference"] = abs(value - oracle)
    _emit(report, config)
    if config.bruteforce and report["difference"] > config.tol * max(1.0, abs(value)):
        return EXIT_INVALID
    return EXIT_OK


def _moment_bruteforce(form: QuasifreeForm, vectors, config: RunConfig) -> complex:
    """Vacuum expectation of the field product on the doubled Fock model."""
    dd = double(form)
    cutoff = max(len(vectors) + 2, 4)
    fk = build_fock(dd.hat_form, cutoff)
    vec = fk.vacuum
    for f in reversed(vectors):
        vec = field_operator(fk, dd.embed(f)).matrix @ vec
    return complex(np.vdot(fk.vacuum, vec))


def _squeezing_tail_mass(fk, vec, margin: int = 4) -> float:
    mask = ~fk.sector_mask(fk.cutoff - margin)
    return float(np.linalg.norm(vec[mask]) ** 2)


def cmd_overlap(p_path, u_path, config: RunConfig) -> int:
    form = decode_form(load_json(p_path))
    u_mat = decode_complex_matrix(load_json(u_path))
    rep = validate_form(form)
    if not rep.valid or rep.classification != "BasisProjection":
        raise QfspError("overlap needs a valid basis-projection form")
    urep = validate_symplectic(form.space, u_mat, tol=max(config.tol, 1e-9))
    if not urep.valid:
        raise QfspError(f"matrix is not symplectic: {urep.residuals}")
    other = transport_form(form, u_mat)
    th = theta(form, other)
    th_vals = np.linalg.eigvalsh(form.calculus.to_hermitian(th))
    det_value = vacuum_overlap(form, other)
    fk = build_fock(form, config.cutoff)
    psi_t = implement_T_apply(fk, form, other, fk.vacuum)
    bruteforce = complex(np.vdot(fk.vacuum, psi_t))
    tail = _squeezing_tail_mass(fk, psi_t)
    report = {
        "overlap_det": det_value,
        "overlap_bruteforce": [bruteforce.real, bruteforce.imag],
        "difference": abs(det_value - bruteforce),
        "theta_spectrum": [float(v) for v in th_vals],
        "cutoff": config.cutoff,
        "truncation_tail_mass": tail,
    }
    _emit(report, config)
    if tail > 1e-3:
        return EXIT_CUTOFF
    return EXIT_OK if report["difference"] <= config.tol else EXIT_INVALID


def _real_symplectic_sample(fk, rng, scale: float = 0.4) -> SymplecticMap:
    """Random real-structured symplectic map (a real matrix exponential).

    The Hamiltonian is projected onto its purely imaginary part, so exp(iH)
    is a real matrix; products of these have real metaplectic cocycles.
    """
    from .sp_algebra import hamiltonian_projection, Hamiltonian
    import scipy.linalg as sla

    ps = fk.form.space
    raw = (rng.normal(size=(ps.dim, ps.dim))
           + 1j * rng.normal(size=(ps.dim, ps.dim))) * scale
    h = hamiltonian_projection(ps, raw)
    h_imag = Hamiltonian(0.5 * (h.op - np.conj(h.op)))
    return SymplecticMap(sla.expm(1j * h_imag.op).real.astype(complex))


def cmd_implement(u_path, p_path, config: RunConfig) -> int:
    form = decode_form(load_json(p_path))
    u_mat = decode_complex_matrix(load_json(u_path))
    rep = validate_form(form)
    if not rep.valid or rep.classification != "BasisProjection":
        raise QfspError("implement needs a valid basis-projection form")
    urep = validate_symplectic(form.space, u_mat, tol=max(config.tol, 1e-9))
    if not urep.valid:
        raise QfspError(f"matrix is not symplectic: {urep.residuals}")
    if config.cutoff < MODULAR_MIN_CUTOFF:
        raise TruncationError("implement needs --cutoff >= 8")
    u = SymplecticMap(u_mat)
    ps = form.space
    parts = polar(ps, u, form)
    eye = SymplecticMap(np.eye(ps.dim, dtype=complex))
    fk = build_fock(form, config.cutoff)
    psi = metaplectic_apply(fk, u, fk.vacuum)
    corner = form.s_op @ u.u @ (np.eye(ps.dim) - form.s_op)
    corner_hs = hs_norm(corner, form.gram)
    continuity_lhs = float(np.linalg.norm(psi - fk.vacuum) ** 2)
    continuity_rhs = 2.0 * (1.0 - np.exp(-0.25 * corner_hs))
    recompose = float(np.linalg.norm(parts.positive.u @ parts.rotation.u - u.u, 2))
    commute = float(np.linalg.norm(
        parts.rotation.u @ form.s_op - form.s_op @ parts.rotation.u, 2))
    rng = np.random.default_rng(config.seed)
    cocycles = []
    if config.bruteforce:
        for _ in range(3):
            u1 = _real_symplectic_sample(fk, rng)
            u2 = _real_symplectic_sample(fk, rng)
            est = cocycle_sign(fk, u1, u2)
            cocycles.append({
                "raw": [est.raw.real, est.raw.imag],
                "rounded": est.rounded,
            })
    report = {
        "d_P_from_identity": dP_distance(ps, u, eye, form),
        "corner_hs_norm": corner_hs,
        "polar_recompose_residual": recompose,
        "rotation_commutes_residual": commute,
        "continuity_lhs": continuity_lhs,
        "continuity_rhs": continuity_rhs,
        "continuity_ok": bool(continuity_lhs <= continuity_rhs + config.tol),
        "cocycle_checks": cocycles,
        "cutoff": config.cutoff,
    }
    _emit(report, config)
    tail = _squeezing_tail_mass(fk, psi)
    if tail > 1e-3:
        return EXIT_CUTOFF
    ok = report["continuity_ok"] and recompose <= 1e-8 and commute <= 1e-8
    ok = ok and all(abs(c["raw"][1]) <= 1e-4 for c in cocycles)
    return EXIT_OK if ok else EXIT_INVALID


def cmd_classify(family_path, config: RunConfig) -> int:
    data = load_json(family_path)
    if config.n_max is not None:
        data = dict(data)
        data["n_max"] = config.n_max
    family = family_from_json(data)
    thresholds = FamilyConfig()
    if config.thresholds:
        thresholds = FamilyConfig.from_dict(load_json(config.thresholds))
    try:
        verdict = classify_family(family, thresholds, threads=config.threads)
    except QfspError as exc:
        _emit({"error": str(exc)}, config)
        return EXIT_INVALID
    ev = verdict.evidence
    report = {
        "outcome": verdict.outcome,
        "n_max": family.n_max,
        "total": ev["total"],
        "fitted_slope": ev["fitted_slope"],
        "partial_sum_slope": ev["partial_sum_slope"],
        "tail_estimate": ev.get("tail_estimate"),
        "alpha_inf": ev["alpha_inf"],
        "beta_sup": ev["beta_sup"],
        "thresholds": ev["thresholds"],
    }
    _emit(report, config)
    if config.out:
        csv_path = (config.out[:-5] if config.out.endswith(".json")
                    else config.out) + ".csv"
        rows = zip(ev["k"], ev["t"], np.cumsum(ev["t"]).tolist(), ev["alpha"],
                   ev["beta"])
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("k,t_k,partial_sum,alpha_k,beta_k\n")
            fh.writelines(f"{k},{float(t)!r},{p!r},{float(a)!r},{float(b)!r}\n"
                          for k, t, p, a, b in rows)
    return verdict.exit_code()


def cmd_modular(s_path, config: RunConfig) -> int:
    form = decode_form(load_json(s_path))
    rep = validate_form(form)
    if not rep.valid:
        raise QfspError("modular needs a valid quasifree form")
    if config.cutoff < MODULAR_MIN_CUTOFF:
        raise TruncationError(
            f"modular needs --cutoff >= {MODULAR_MIN_CUTOFF}"
        )
    dd = double(form)
    fk = build_fock(dd.hat_form, config.cutoff)
    md = build_modular(dd, fk)
    h_vals = np.linalg.eigvalsh(form.calculus.to_hermitian(md.one_particle))
    # residual tolerances grow with exp(||H_S||/2): Delta^(1/2) amplifies by
    # that factor per particle pair
    scaled_tol = config.tol * float(np.exp(0.5 * np.abs(h_vals).max()))
    rng = np.random.default_rng(config.seed)
    tomita = []
    kms = []
    d = form.space.dim
    for _ in range(4):
        f = rng.normal(size=d) + 1j * rng.normal(size=d)
        g = rng.normal(size=d) + 1j * rng.normal(size=d)
        bf = field_operator(fk, dd.embed(f))
        bg = field_operator(fk, dd.embed(g))
        a = bf @ bg
        gf = form.space.conjugate(f)
        gg = form.space.conjugate(g)
        a_star = field_operator(fk, dd.embed(gg)) @ field_operator(fk, dd.embed(gf))
        tomita.append(tomita_residual(md, a, a_star))
        kms.append(kms_residual(md, field_operator(fk, dd.embed(gf)), bf))
    delta_fix = float(np.linalg.norm(md.delta_unitary(0.7) @ fk.vacuum - fk.vacuum))
    report = {
        "H_S_spectrum": [float(v) for v in h_vals],
        "tomita_residuals": [float(v) for v in tomita],
        "kms_residuals": [float(v) for v in kms],
        "delta_fixes_vacuum": delta_fix,
        "scaled_tolerance": scaled_tol,
        "cutoff": config.cutoff,
    }
    _emit(report, config)
    ok = all(v <= scaled_tol for v in tomita) and \
        all(v <= scaled_tol for v in kms) and delta_fix <= scaled_tol
    return EXIT_OK if ok else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfsp",
        description="Quasifree CCR states, Bogoliubov implementers and "
                    "their classification at finite dimension.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cutoff", type=int, default=16,
                       help="total particle cutoff for Fock computations")
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility, must be >= 1 "
                            "(default: QFSP_THREADS or 1); classify runs in "
                            "the calling thread, so the value changes no "
                            "report")
        p.add_argument("--out", type=str, default=None,
                       help="write the JSON report here instead of stdout")
        p.add_argument("--bruteforce", action="store_true",
                       help="enable slower oracle cross-checks")

    p = sub.add_parser("validate", help="validate phase space / form files")
    p.add_argument("paths", nargs="+")
    common(p)

    p = sub.add_parser("moments", help="quasifree n-point function")
    p.add_argument("input", help="JSON with keys 'form' and 'vectors'")
    common(p)

    p = sub.add_parser("overlap", help="vacuum overlap determinant vs Fock")
    p.add_argument("projection", help="basis-projection form JSON")
    p.add_argument("symplectic", help="symplectic matrix JSON")
    common(p)

    p = sub.add_parser("implement", help="polar parts, metaplectic checks")
    p.add_argument("symplectic", help="symplectic matrix JSON")
    p.add_argument("projection", help="basis-projection form JSON")
    common(p)

    p = sub.add_parser("classify", help="mode-family quasi-equivalence verdict")
    p.add_argument("family", help="family description JSON")
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--thresholds", type=str, default=None,
                   help="JSON file overriding verdict thresholds")
    common(p)

    p = sub.add_parser("modular", help="modular residual suite")
    p.add_argument("form", help="quasifree form JSON")
    common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "validate":
            return cmd_validate(args.paths, config)
        if args.command == "moments":
            return cmd_moments(args.input, config)
        if args.command == "overlap":
            return cmd_overlap(args.projection, args.symplectic, config)
        if args.command == "implement":
            return cmd_implement(args.symplectic, args.projection, config)
        if args.command == "classify":
            return cmd_classify(args.family, config)
        if args.command == "modular":
            return cmd_modular(args.form, config)
        parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except TruncationError as exc:
        sys.stderr.write(f"insufficient cutoff: {exc}\n")
        return EXIT_CUTOFF
    except QfspError as exc:
        sys.stderr.write(f"invalid: {exc}\n")
        return EXIT_INVALID
    return EXIT_OK  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
