"""Quasi-equivalence classification for pairs and mode families.

At finite dimension, the two decisive quantities are the norm-equivalence
constants (sharp Rayleigh bounds of the Gram pencil) and the squared
Hilbert-Schmidt size of the discriminant 1 - rho e^{-chi} e^{chi'} rho'.
A family verdict extrapolates the per-mode series; numerical convergence of
an infinite series is undecidable from a prefix, so the verdict is a
documented heuristic with Inconclusive as a first-class outcome.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InternalConsistencyError, InvalidArgumentError, ParseError
from .linalg import HERMITIZE_TOL, PIVOT_RATIO_MIN, pairwise_sum
from .phase_space import Presentation, build_standard
from .quasifree import (
    HALF_EIGENVALUE_TOL,
    QuasifreeForm,
    chi_values,
    double,
    require_half_free,
)
from .implementers import vacuum_overlap

__all__ = [
    "norm_equivalence_bounds",
    "discriminant",
    "hs_discriminant",
    "state_distance_lower_bound",
    "classify_pair",
    "PairReport",
    "ModeFamily",
    "FamilyConfig",
    "Verdict",
    "classify_family",
    "verdict_from_evidence",
    "family_from_json",
    "mode_expression",
]

INTERIOR_TOL = 1e-9


def norm_equivalence_bounds(form: QuasifreeForm, other: QuasifreeForm):
    """Sharp constants with alpha ||f||_S <= ||f||_S' <= beta ||f||_S.

    These are square roots of the extreme generalized eigenvalues of the
    pencil (G_S', G_S).
    """
    if form.space.dim != other.space.dim:
        raise InvalidArgumentError("forms live on different spaces")
    ga, gb = other.calculus.diag, form.calculus.diag
    if ga is not None and gb is not None:
        vals = np.sort(ga / gb)
    else:
        import scipy.linalg as sla

        vals = sla.eigvalsh(other.gram, form.gram)
    return float(np.sqrt(max(vals[0], 0.0))), float(np.sqrt(max(vals[-1], 0.0)))


def discriminant(form: QuasifreeForm, other: QuasifreeForm) -> np.ndarray:
    """1 - rho(S) e^{-chi(S)} e^{chi(S')} rho(S') on the common space.

    rho e^{-chi} and e^{chi} rho are single operator functions of S_op and
    S'_op, so each factor comes from one cached eigendecomposition.
    """
    for f in (form, other):
        require_half_free(f)
    eye = np.eye(form.space.dim)
    vals, vecs = form.s_eig
    chi_s = chi_values(vals[None])[0]
    left = form.calculus.fn_of_eig(
        vals, vecs, np.sign(2.0 * vals - 1.0) * np.exp(-chi_s))
    vals_o, vecs_o = other.s_eig
    chi_o = chi_values(vals_o[None])[0]
    right = other.calculus.fn_of_eig(
        vals_o, vecs_o, np.exp(chi_o) * np.sign(2.0 * vals_o - 1.0))
    return eye - left @ right


def hs_discriminant(form: QuasifreeForm, other: QuasifreeForm) -> float:
    """Squared Hilbert-Schmidt norm of the discriminant in the G_S metric."""
    m = discriminant(form, other)
    diag = form.calculus.diag
    if diag is not None:
        val = np.trace((m.conj().T * diag[None, :]) @ m / diag[:, None])
    else:
        gram = form.gram
        val = np.trace(np.linalg.solve(gram, m.conj().T @ gram @ m))
    return float(max(val.real, 0.0))


def state_distance_lower_bound(form: QuasifreeForm, other: QuasifreeForm) -> float:
    """2 (1 - det over the doubled range of (P P' P)^(-1/4)).

    Both spectra must lie strictly inside (0, 1); the determinant is the
    vacuum overlap of the two doubled forms, whose angle operator's cosh
    restricted to the doubled range reproduces P P' P.
    """
    for f in (form, other):
        vals, _ = f.s_eig
        if vals.min() < INTERIOR_TOL or vals.max() > 1.0 - INTERIOR_TOL:
            raise InvalidArgumentError(
                "state distance bound requires 0 < S < 1 on both sides"
            )
    hat, hat_other = double(form).hat_form, double(other).hat_form
    return 2.0 * (1.0 - vacuum_overlap(hat, hat_other))


@dataclass(frozen=True)
class PairReport:
    alpha: float
    beta: float
    hs_value: float
    hs_value_mirrored: float
    classification: str
    classification_other: str
    projection_mismatch: bool


def classify_pair(form: QuasifreeForm, other: QuasifreeForm) -> PairReport:
    """Single-pair report: norm constants, discriminant sizes and flags.

    At finite dimension both criteria always hold; a projection paired with
    a non-projection is flagged because the mode-family limit of such pairs
    always diverges.
    """
    alpha, beta = norm_equivalence_bounds(form, other)
    hs = hs_discriminant(form, other)
    hs_m = hs_discriminant(other, form)
    cls_a = "BasisProjection" if form.is_basis_projection() else "Mixed"
    cls_b = "BasisProjection" if other.is_basis_projection() else "Mixed"
    return PairReport(
        alpha=alpha,
        beta=beta,
        hs_value=hs,
        hs_value_mirrored=hs_m,
        classification=cls_a,
        classification_other=cls_b,
        projection_mismatch=cls_a != cls_b,
    )


@dataclass(frozen=True)
class FamilyConfig:
    divergence_threshold: float = 50.0
    convergence_tail: float = 1e-3
    alpha_min: float = 1e-3
    beta_max: float = 1e3
    slope_window_frac: float = 0.5
    min_fit_points: int = 4
    decay_margin: float = 0.05
    partial_slope_eps: float = 0.01
    fit_residual_max: float = 0.5

    @classmethod
    def from_dict(cls, data) -> "FamilyConfig":
        """Thresholds from a JSON object of finite real numbers."""
        if not isinstance(data, dict):
            raise ParseError("thresholds must be a JSON object")
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore
        bad = set(data) - set(known)
        if bad:
            raise ParseError(f"unknown threshold keys: {sorted(bad)}")
        for key, value in data.items():
            # a NaN fails the comparison; a huge int exceeds the float range
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not abs(value) <= sys.float_info.max:
                raise ParseError(f"threshold {key} must be a finite number; "
                                 f"got {value!r}")
        return cls(**data)


@dataclass(frozen=True)
class ModeFamily:
    """Sequence of independent per-mode form pairs.

    ``block(k)`` builds the pair of one mode.  ``stacked``, when given, maps
    an array of mode indices to the diagonals of the blocks' two-point
    matrices Sigma and Sigma', each stacked into an (n, d) array; it is for
    families whose blocks are diagonal forms on the standard Diagonal space,
    and lets classify_family evaluate them without building any form.
    ``block(k)`` must build the forms with those diagonals; a thermal_pair
    family's reads them from ``stacked``, so each block is defined once.
    """

    block: Callable[[int], tuple[QuasifreeForm, QuasifreeForm]]
    n_max: int
    stacked: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def pair(self, k: int):
        if not (1 <= k <= self.n_max):
            raise InvalidArgumentError("mode index out of range")
        return self.block(k)


@dataclass(frozen=True)
class Verdict:
    outcome: str  # Equivalent | Inequivalent | Inconclusive
    evidence: dict


def _loglog_slope(xs: np.ndarray, ys: np.ndarray):
    good = ys > 0
    if good.sum() < 2:
        return 0.0, 0.0, np.inf
    lx, ly = np.log(xs[good]), np.log(ys[good])
    a = np.vstack([np.ones_like(lx), lx]).T
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    resid = float(np.sqrt(np.mean((ly - a @ coef) ** 2)))
    return float(coef[1]), float(coef[0]), resid


def verdict_from_evidence(evidence: dict, config: FamilyConfig) -> Verdict:
    """Pure decision function over the collected per-mode evidence."""
    t = np.asarray(evidence["t"], dtype=float)
    alphas = np.asarray(evidence["alpha"], dtype=float)
    betas = np.asarray(evidence["beta"], dtype=float)
    n = len(t)
    total = pairwise_sum(t)
    partial = np.cumsum(t)
    ks = np.arange(1, n + 1, dtype=float)
    window = max(int(np.ceil(n * config.slope_window_frac)), 1)
    sl_t, icpt, fit_res = _loglog_slope(ks[-window:], t[-window:])
    sl_partial, _, _ = _loglog_slope(ks[-window:], np.maximum(partial[-window:], 0.0))
    evidence = dict(evidence)
    evidence.update({
        "total": float(total),
        "fitted_slope": sl_t,
        "fit_intercept": icpt,
        "fit_residual": fit_res,
        "partial_sum_slope": sl_partial,
        "alpha_inf": float(alphas.min()) if n else 1.0,
        "beta_sup": float(betas.max()) if n else 1.0,
        "thresholds": config.__dict__,
    })

    if n and (evidence["alpha_inf"] <= config.alpha_min
              or evidence["beta_sup"] >= config.beta_max):
        return Verdict("Inequivalent", evidence)
    if total > config.divergence_threshold and sl_partial > config.partial_slope_eps:
        return Verdict("Inequivalent", evidence)

    enough = window >= config.min_fit_points
    if enough and fit_res <= config.fit_residual_max and \
            sl_t < -1.0 - config.decay_margin:
        # integral tail bound for t_k ~ e^icpt k^slope beyond the prefix
        tail = np.exp(icpt) * n ** (sl_t + 1.0) / (-sl_t - 1.0)
        evidence["tail_estimate"] = float(tail)
        if tail < config.convergence_tail and total <= config.divergence_threshold:
            return Verdict("Equivalent", evidence)
    return Verdict("Inconclusive", evidence)


def classify_family(family: ModeFamily, config: FamilyConfig | None = None) -> Verdict:
    """Evaluate every block and reduce deterministically.

    Families with ``stacked`` blocks are evaluated in one batched pass, a
    bounded chunk of mode indices at a time; other families call the
    per-pair functions block by block, in the calling thread.  The evidence
    series ``k``, ``t``, ``alpha`` and ``beta`` are numpy arrays.  A failing
    block raises InvalidArgumentError naming the first such k, with the
    per-pair functions' failure on that block: the batched pass only finds
    the block, then evaluates it through ``block(k)``.
    """
    config = config or FamilyConfig()
    n = family.n_max
    if family.stacked is None:
        rows = np.array([_pair_evidence(family, k) for k in range(1, n + 1)],
                        dtype=float).reshape(n, 3).T
    else:
        rows = np.empty((3, n))
        # chunks bound the memory of the stacked temporaries
        for start in range(1, n + 1, _CHUNK_BLOCKS):
            ks = np.arange(start, min(start + _CHUNK_BLOCKS, n + 1))
            t, alpha, beta, bad = _diag_evidence(*family.stacked(ks))
            if bad.any():
                k = int(ks[bad.argmax()])
                _pair_evidence(family, k)  # raises the block's failure
                raise InternalConsistencyError(
                    f"block {k} failed the batched checks but passed the per-pair ones")
            rows[:, ks - 1] = t, alpha, beta
    t, alpha, beta = rows
    evidence = {"k": np.arange(1, n + 1), "t": t, "alpha": alpha, "beta": beta}
    return verdict_from_evidence(evidence, config)


def _pair_evidence(family: ModeFamily, k: int):
    try:
        f, g = family.pair(k)
        a, b = norm_equivalence_bounds(f, g)
        return hs_discriminant(f, g), a, b
    except Exception as exc:
        raise InvalidArgumentError(f"block {k} failed: {exc}") from exc


# Batched evidence of stacked families: for every block, what hs_discriminant
# and norm_equivalence_bounds compute for one pair.  The blocks have diagonal
# two-point matrices on the standard Diagonal space, whose conjugation swaps
# the two basis vectors of each mode, so their Gram matrices are diagonal
# too.  The arithmetic repeats the complex-dtype steps of the per-pair
# functions elementwise, so the results are bit-identical to theirs.  The
# checks only mark a block bad; classify_family takes the failure and its
# message from the per-pair functions.

_CHUNK_BLOCKS = 1 << 16


def _diag_form(sd):
    """Gram diagonal, its square root, the clamped S_op spectrum and the bad
    mask (non-finite Sigma, the checks of MetricCalculus, spectrum near 1/2)
    of forms with diagonal Sigma, the rows of ``sd``."""
    swap = np.arange(sd.shape[1]) ^ 1
    x = sd + np.conj(sd[:, swap])
    gram = (0.5 * (x + np.conj(x))).real
    root = np.sqrt(gram)
    pivots = root * root
    tilde = (root * (sd / gram)) / root
    # MetricCalculus.to_hermitian's residual test
    res = np.sqrt((np.abs(tilde - np.conj(tilde)) ** 2).sum(axis=1))
    scale = np.maximum(1.0, np.sqrt((np.abs(tilde) ** 2).sum(axis=1)))
    vals = np.clip((0.5 * (tilde + np.conj(tilde))).real, 0.0, 1.0)
    bad = (~np.isfinite(sd).all(axis=1) | ~(gram > 0.0).all(axis=1)
           | (pivots.min(axis=1) <= PIVOT_RATIO_MIN * pivots.max(axis=1))
           | ~(res <= HERMITIZE_TOL * scale)
           | (np.abs(vals - 0.5) < HALF_EIGENVALUE_TOL).any(axis=1))
    return gram, root, vals, bad


def _diag_evidence(sd, sd_o):
    """(t, alpha, beta, bad) for stacked blocks given by the diagonals of
    Sigma and Sigma'; ``bad`` marks the blocks that fail a check of the
    per-pair functions, whose t, alpha and beta mean nothing."""
    with np.errstate(all="ignore"):
        gram, root, vals, bad = _diag_form(sd)
        gram_o, root_o, vals_o, bad_o = _diag_form(sd_o)
        left = np.sign(2.0 * vals - 1.0) * np.exp(-chi_values(vals))
        right = np.exp(chi_values(vals_o)) * np.sign(2.0 * vals_o - 1.0)
        left = (left.astype(complex) / root) * root
        right = (right.astype(complex) / root_o) * root_o
        m = 1.0 - left * right
        t = (((np.conj(m) * gram) * m) / gram).sum(axis=1).real
        ratio = np.sort(gram_o / gram, axis=1)
        # max(x, 0.0) as the per-pair functions take it, signed zeros included
        t = np.where(0.0 > t, 0.0, t)
        alpha = np.sqrt(np.where(0.0 > ratio[:, 0], 0.0, ratio[:, 0]))
        beta = np.sqrt(np.where(0.0 > ratio[:, -1], 0.0, ratio[:, -1]))
    return t, alpha, beta, bad | bad_o


_BINARY_OPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
               ast.Div: np.divide, ast.Pow: np.power}
_ALLOWED_FUNCS = {"sqrt": np.sqrt, "log": np.log, "exp": np.exp, "abs": np.abs}


def _compile_node(node):
    """Validate one AST node and turn it into a function of the k array."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        try:
            value = float(node.value)
        except OverflowError:  # integer literal beyond the float range
            value = float("inf")
        return lambda k: value
    if isinstance(node, ast.Name) and node.id == "k":
        return lambda k: k
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        op = _BINARY_OPS[type(node.op)]
        left, right = _compile_node(node.left), _compile_node(node.right)
        return lambda k: op(left(k), right(k))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand = _compile_node(node.operand)
        if isinstance(node.op, ast.UAdd):
            return operand
        return lambda k: np.negative(operand(k))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _ALLOWED_FUNCS and len(node.args) == 1 \
            and not node.keywords:
        fn = _ALLOWED_FUNCS[node.func.id]
        arg = _compile_node(node.args[0])
        return lambda k: fn(arg(k))
    raise ParseError(f"disallowed construct in expression: {ast.dump(node)}")


def mode_expression(text: str) -> Callable:
    """Compile the restricted per-mode parameter language.

    Numbers, the variable k, + - * / **, unary minus and sqrt/log/exp/abs;
    anything else is a parse error.  The result takes a scalar k, giving a
    float, or an array of k, giving an array of the same shape.  Both run
    the same numpy operations, so each element equals the scalar value bit
    for bit.  Poles and domain errors give inf or nan rather than raising.
    """
    try:
        tree = ast.parse(str(text), mode="eval")
    except SyntaxError as exc:
        raise ParseError(f"bad expression {text!r}: {exc}") from exc
    body = _compile_node(tree.body)

    def evaluate(k):
        ks = np.asarray(k, dtype=float)
        with np.errstate(all="ignore"):
            vals = body(ks.reshape(-1))
        vals = np.broadcast_to(np.asarray(vals, dtype=float), (ks.size,))
        if ks.ndim == 0:
            return float(vals[0])
        return vals.reshape(ks.shape).copy()

    return evaluate


def _sinh_squared(tau: np.ndarray) -> np.ndarray:
    """sinh(tau)**2 elementwise, bit-identical to the scalar ``np.sinh(t)**2``
    that has always rounded the thermal occupations, so that classify
    reports stay byte-identical.

    A numpy float64 scalar squares through the C library's pow, which
    differs from x*x in the last bit for about one value in a thousand; the
    builtin pow calls the same C function but raises beyond the float range,
    so values from 1.3e154 up keep x*x (from 1.35e154 on both give inf).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.sinh(tau)
        out = s * s
    small = np.abs(s) < 1.3e154
    vals = s[small].tolist()
    out[small] = np.fromiter(map(pow, vals, [2.0] * len(vals)), float, len(vals))
    return out


def family_from_json(data: dict) -> ModeFamily:
    """Build a ModeFamily from its JSON description.

    Either {"generator": {"kind": "thermal_pair", "tau": expr,
    "tau_prime": expr}, "n_max": n} or {"generator": {"kind": "explicit",
    "blocks": [...]}, "n_max": n} with per-block serialized form pairs.
    """
    try:
        gen = data["generator"]
        n_max = int(data["n_max"])
        kind = gen["kind"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed family description: {exc}") from exc
    if n_max < 1:
        raise ParseError("n_max must be positive")
    if kind == "thermal_pair":
        tau = mode_expression(gen.get("tau", "0"))
        tau_p = mode_expression(gen.get("tau_prime", "0"))
        space = build_standard(1, Presentation.DIAGONAL)

        def stacked(ks: np.ndarray):
            # the diagonals (1 + nu, nu) of one-mode thermal_form Sigmas
            return tuple(np.stack([1.0 + nu, nu], axis=1).astype(complex)
                         for nu in (_sinh_squared(tau(ks)), _sinh_squared(tau_p(ks))))

        def block(k: int):
            return tuple(QuasifreeForm(space, np.diag(sd[0]))
                         for sd in stacked(np.array([k])))

        return ModeFamily(block=block, n_max=n_max, stacked=stacked)
    if kind == "explicit":
        from .serialize import decode_form

        blocks = gen.get("blocks")
        if not isinstance(blocks, list) or len(blocks) < n_max:
            raise ParseError("explicit family needs at least n_max blocks")
        decoded = []
        for i, entry in enumerate(blocks[:n_max]):
            if not isinstance(entry, dict) or \
                    not {"space", "Sigma", "Sigma_prime"} <= set(entry):
                raise ParseError(f"explicit block {i} needs keys space, Sigma, Sigma_prime")
            try:
                decoded.append(tuple(decode_form({"space": entry["space"],
                                                  "Sigma": entry[key]})
                                     for key in ("Sigma", "Sigma_prime")))
            except ParseError as exc:
                raise ParseError(f"explicit block {i}: {exc}") from exc
        return ModeFamily(block=lambda k: decoded[k - 1], n_max=n_max)
    raise ParseError(f"unknown family kind {kind!r}")
