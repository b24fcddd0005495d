"""Command line surface.

Commands: validate | moments | overlap | implement | classify | modular.
Structured output is JSON with complex numbers as [re, im]; per-mode series
go to CSV.  Exit codes: 0 pass/equivalent, 1 math-invalid, 2 parse,
3 inequivalent, 4 inconclusive, 5 insufficient cutoff.

Each command is declared once, in ``build_parser``, with the options it
reads and its positionals; any other option is a usage error with exit code
2.  ``RunConfig`` holds every default and checks every value.  A command
returns its report and exit code and prints nothing; ``main`` alone writes
the report, to stdout or to ``--out``.

Reports are byte-deterministic for a fixed (inputs, config, seed).
`classify` evaluates all blocks of a thermal_pair family in one batched
pass, and explicit families block by block, in the calling thread.
`classify --threads` (default 1) is accepted for compatibility and must be
at least 1; nothing reads it, so reports are byte-identical for every value.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from math import factorial

import numpy as np

from . import __version__
from .errors import InconclusiveError, ParseError, QfspError, TruncationError
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
    _metaplectic_apply,
    implement_T_apply,
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
from .sp_algebra import Hamiltonian, hamiltonian_projection

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_INEQUIVALENT = 3
EXIT_INCONCLUSIVE = 4
EXIT_CUTOFF = 5

# implement and modular check low sectors that need room below the cutoff
CHECK_MIN_CUTOFF = 8
# sectors within this many particles of the cutoff count as truncation tail
TAIL_MARGIN = 4
# above this truncation tail mass a Fock result needs a larger cutoff
TAIL_MASS_MAX = 1e-3
# entry scale of the random Hamiltonians behind the cocycle samples
SAMPLE_SCALE = 0.4


@dataclass
class RunConfig:
    cutoff: int = 16
    tol: float = 1e-6
    seed: int = 0
    out: str | None = None
    bruteforce: bool = False
    n_max: int | None = None
    thresholds: str | None = None
    threads: int = 1

    def __post_init__(self):
        if self.tol <= 0:
            raise ParseError("tolerance must be positive")
        if not np.isfinite(self.tol):
            raise ParseError("tolerance must be finite")
        if self.cutoff < 4:
            raise ParseError("cutoff must be at least 4 for Fock-level commands")
        if self.threads < 1:  # validated, but no command reads it
            raise ParseError("threads must be at least 1")


def cmd_validate(args, config: RunConfig) -> tuple[dict, int]:
    reports = []
    any_invalid = False
    for path in args.paths:
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
    return {"reports": reports}, EXIT_INVALID if any_invalid else EXIT_OK


def cmd_moments(args, config: RunConfig) -> tuple[dict, int]:
    data = load_json(args.input)
    if not isinstance(data, dict) or "form" not in data or "vectors" not in data:
        raise ParseError("moments input needs keys 'form' and 'vectors'")
    if not isinstance(data["vectors"], list):
        raise ParseError("'vectors' must be a list of vectors")
    form = decode_form(data["form"])
    vectors = [decode_complex_vector(v) for v in data["vectors"]]
    for k, v in enumerate(vectors):
        if len(v) != form.space.dim:
            raise ParseError(f"vector {k} has length {len(v)}, "
                             f"the space has dimension {form.space.dim}")
        if not np.isfinite(v).all():
            raise ParseError(f"vector {k} has non-finite entries")
    value = moment(form, vectors)
    n = len(vectors)
    count = (factorial(n) // (2 ** (n // 2) * factorial(n // 2))) if n % 2 == 0 else 0
    report = {
        "moment": [value.real, value.imag],
        "num_vectors": n,
        "pairing_count": count,
    }
    if config.bruteforce:
        oracle = _moment_bruteforce(form, vectors)
        report["bruteforce"] = [oracle.real, oracle.imag]
        report["difference"] = abs(value - oracle)
    if config.bruteforce and report["difference"] > config.tol * max(1.0, abs(value)):
        return report, EXIT_INVALID
    return report, EXIT_OK


def _moment_bruteforce(form: QuasifreeForm, vectors) -> complex:
    """Vacuum expectation of the field product on the doubled Fock model."""
    dd = double(form)
    cutoff = max(len(vectors) + 2, 4)
    fk = build_fock(dd.hat_form, cutoff)
    vec = fk.vacuum
    for f in reversed(vectors):
        vec = field_operator(fk, dd.embed(f)).apply(vec)
    return complex(np.vdot(fk.vacuum, vec))


def _squeezing_tail_mass(fk, vec) -> float:
    mask = ~fk.sector_mask(fk.cutoff - TAIL_MARGIN)
    return float(np.linalg.norm(vec[mask]) ** 2)


def _load_projection_and_map(args, config: RunConfig):
    """The basis-projection form and symplectic matrix of overlap/implement."""
    form = decode_form(load_json(args.projection))
    u_mat = decode_complex_matrix(load_json(args.symplectic))
    if len(u_mat) != form.space.dim:
        raise ParseError(f"symplectic matrix is {len(u_mat)}x{len(u_mat)}, "
                         f"the space has dimension {form.space.dim}")
    rep = validate_form(form)
    if not rep.valid or rep.classification != "BasisProjection":
        raise QfspError(f"{args.command} needs a valid basis-projection form")
    urep = validate_symplectic(form.space, u_mat, tol=max(config.tol, 1e-9))
    if not urep.valid:
        raise QfspError(f"matrix is not symplectic: {urep.residuals}")
    return form, u_mat


def cmd_overlap(args, config: RunConfig) -> tuple[dict, int]:
    form, u_mat = _load_projection_and_map(args, config)
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
    if tail > TAIL_MASS_MAX:
        return report, EXIT_CUTOFF
    return report, EXIT_OK if report["difference"] <= config.tol else EXIT_INVALID


def _real_symplectic_sample(fk, rng) -> SymplecticMap:
    """Random real-structured symplectic map (a real matrix exponential).

    The Hamiltonian is projected onto its purely imaginary part, so exp(iH)
    is a real matrix; products of these have real metaplectic cocycles.
    """
    import scipy.linalg as sla

    ps = fk.form.space
    raw = (rng.normal(size=(ps.dim, ps.dim))
           + 1j * rng.normal(size=(ps.dim, ps.dim))) * SAMPLE_SCALE
    h = hamiltonian_projection(ps, raw)
    h_imag = Hamiltonian(0.5 * (h.op - np.conj(h.op)))
    return SymplecticMap(sla.expm(1j * h_imag.op).real.astype(complex))


def cmd_implement(args, config: RunConfig) -> tuple[dict, int]:
    form, u_mat = _load_projection_and_map(args, config)
    if config.cutoff < CHECK_MIN_CUTOFF:
        raise TruncationError(f"implement needs --cutoff >= {CHECK_MIN_CUTOFF}")
    u = SymplecticMap(u_mat)
    ps = form.space
    parts = polar(ps, u, form)
    eye = SymplecticMap(np.eye(ps.dim, dtype=complex))
    fk = build_fock(form, config.cutoff)
    psi = _metaplectic_apply(fk, parts, fk.vacuum)
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
    if _squeezing_tail_mass(fk, psi) > TAIL_MASS_MAX:
        return report, EXIT_CUTOFF
    ok = report["continuity_ok"] and recompose <= 1e-8 and commute <= 1e-8
    ok = ok and all(abs(c["raw"][1]) <= 1e-4 for c in cocycles)
    return report, EXIT_OK if ok else EXIT_INVALID


def cmd_classify(args, config: RunConfig) -> tuple[dict, int]:
    data = load_json(args.family)
    if config.n_max is not None:
        data = dict(data)
        data["n_max"] = config.n_max
    family = family_from_json(data)
    thresholds = FamilyConfig()
    if config.thresholds:
        thresholds = FamilyConfig.from_dict(load_json(config.thresholds))
    try:
        verdict = classify_family(family, thresholds)
    except QfspError as exc:
        return {"error": str(exc)}, EXIT_INVALID
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
    if config.out:
        csv_path = (config.out[:-5] if config.out.endswith(".json")
                    else config.out) + ".csv"
        rows = zip(*(col.tolist() for col in (ev["k"], ev["t"], np.cumsum(ev["t"]),
                                               ev["alpha"], ev["beta"])))
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("k,t_k,partial_sum,alpha_k,beta_k\n")
            fh.writelines(f"{k},{t!r},{p!r},{a!r},{b!r}\n" for k, t, p, a, b in rows)
    return report, {"Equivalent": EXIT_OK, "Inequivalent": EXIT_INEQUIVALENT,
                    "Inconclusive": EXIT_INCONCLUSIVE}[verdict.outcome]


def cmd_modular(args, config: RunConfig) -> tuple[dict, int]:
    form = decode_form(load_json(args.form))
    rep = validate_form(form)
    if not rep.valid:
        raise QfspError("modular needs a valid quasifree form")
    if config.cutoff < CHECK_MIN_CUTOFF:
        raise TruncationError(f"modular needs --cutoff >= {CHECK_MIN_CUTOFF}")
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
        b_gf = field_operator(fk, dd.embed(form.space.conjugate(f)))
        a_star = field_operator(fk, dd.embed(form.space.conjugate(g))) @ b_gf
        tomita.append(tomita_residual(md, a, a_star))
        kms.append(kms_residual(md, b_gf, bf))
    delta_fix = float(np.linalg.norm(md.delta_power_apply(1j * 0.7, fk.vacuum)
                                     - fk.vacuum))
    report = {
        "H_S_spectrum": [float(v) for v in h_vals],
        "tomita_residuals": [float(v) for v in tomita],
        "kms_residuals": [float(v) for v in kms],
        "delta_fixes_vacuum": delta_fix,
        "scaled_tolerance": scaled_tol,
        "cutoff": config.cutoff,
    }
    ok = all(v <= scaled_tol for v in tomita) and \
        all(v <= scaled_tol for v in kms) and delta_fix <= scaled_tol
    return report, EXIT_OK if ok else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfsp",
        description="Quasifree CCR states, Bogoliubov implementers and "
                    "their classification at finite dimension.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # every option, keyed by flag; each command declares the ones it reads,
    # and an option left out is absent from the namespace, so RunConfig's
    # default applies
    options = {
        "--cutoff": {"type": int,
                     "help": "total particle cutoff for Fock computations"},
        "--tol": {"type": float},
        "--seed": {"type": int},
        "--out": {"help": "write the JSON report here instead of stdout"},
        "--bruteforce": {"action": "store_true",
                         "help": "enable slower oracle cross-checks"},
        "--n-max": {"dest": "n_max", "type": int},
        "--thresholds": {"help": "JSON file overriding verdict thresholds"},
        "--threads": {"type": int,
                      "help": "accepted for compatibility, must be >= 1 "
                              "(default 1); classify runs in the calling "
                              "thread, so the value changes no report"},
    }

    # each command once: handler, help, the options it reads, positionals
    commands = {
        "validate": (cmd_validate, "validate phase space / form files",
                     ("--tol", "--out"), {"paths": {"nargs": "+"}}),
        "moments": (cmd_moments, "quasifree n-point function",
                    ("--tol", "--out", "--bruteforce"),
                    {"input": {"help": "JSON with keys 'form' and 'vectors'"}}),
        "overlap": (cmd_overlap, "vacuum overlap determinant vs Fock",
                    ("--cutoff", "--tol", "--out"),
                    {"projection": {"help": "basis-projection form JSON"},
                     "symplectic": {"help": "symplectic matrix JSON"}}),
        "implement": (cmd_implement, "polar parts, metaplectic checks",
                      ("--cutoff", "--tol", "--seed", "--out", "--bruteforce"),
                      {"symplectic": {"help": "symplectic matrix JSON"},
                       "projection": {"help": "basis-projection form JSON"}}),
        "classify": (cmd_classify, "mode-family quasi-equivalence verdict",
                     ("--out", "--n-max", "--thresholds", "--threads"),
                     {"family": {"help": "family description JSON"}}),
        "modular": (cmd_modular, "modular residual suite",
                    ("--cutoff", "--tol", "--seed", "--out"),
                    {"form": {"help": "quasifree form JSON"}}),
    }
    for name, (run, help_text, flags, positionals) in commands.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        for dest, spec in positionals.items():
            p.add_argument(dest, **spec)
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if rest:  # the command's usage line lists the options it accepts
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        sub.choices[args.command].error(f"unrecognized arguments: {' '.join(rest)}")
    try:
        config = RunConfig(**{f.name: getattr(args, f.name)
                              for f in fields(RunConfig) if hasattr(args, f.name)})
        report, code = args.run(args, config)
        text = dump_json(report, config.out)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except TruncationError as exc:
        sys.stderr.write(f"insufficient cutoff: {exc}\n")
        return EXIT_CUTOFF
    except InconclusiveError as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return EXIT_INCONCLUSIVE
    except QfspError as exc:
        sys.stderr.write(f"invalid: {exc}\n")
        return EXIT_INVALID
    except OSError as exc:  # inputs are read by load_json, so this is --out or its CSV
        sys.stderr.write(f"cannot write {exc.filename}: {exc}\n")
        return EXIT_PARSE
    if config.out is None:
        sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
