"""The defaulted parameters of the library and the CLI options are pinned.

Each one is an option that tests and benchmarks must cover.  Those kept
here are set by some caller or carry data; a value that no caller sets is a
named module constant instead (``THETA_CLAMP_TOL``, ``RANK_TOL``, ...).
Each CLI command accepts only the options it reads.
"""

import argparse
import ast
from pathlib import Path

import qfsp
from qfsp.cli import build_parser

KEPT = {
    "classifier.classify_family(config)",
    "cli.main(argv)",
    "errors.DegenerateInputError.__init__(vector)",
    "errors.SpectralSingularityError.__init__(eigenvalue)",
    "fock.FockOperator.__init__(antilinear)",
    "fock.TruncatedFock._quadratic(const)",
    "fock.exponential_vector(parity)",
    "fock.factorization_check(rng)",
    "implementers.cocycle_sign(sector)",
    "implementers.validate_symplectic(tol)",
    "linalg.MetricCalculus.eigh(check)",
    "linalg.MetricCalculus.to_hermitian(check)",
    "phase_space.validate_phase_space(tol)",
    "quasifree.QuasifreeForm.is_basis_projection(tol)",
    "quasifree.validate_form(tol)",
    "serialize.dump_json(path)",
    "sp_algebra.random_hamiltonian(scale)",
    "sp_algebra.validate_hamiltonian(tol)",
}


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defaulted(node, prefix):
    """'<qualified function>(<parameter>)' for every parameter with a default."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, _FUNCTIONS + (ast.ClassDef,)):
            yield from _defaulted(child, prefix)
            continue
        name = f"{prefix}.{child.name}"
        if isinstance(child, _FUNCTIONS):
            args = child.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None]
            yield from (f"{name}({a.arg})" for a in with_default)
        yield from _defaulted(child, name)


def test_defaulted_parameters_are_pinned():
    found = []
    for path in sorted(Path(qfsp.__file__).parent.glob("*.py")):
        found += _defaulted(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(found) == sorted(KEPT)


COMMAND_OPTIONS = {
    "validate": {"--tol", "--out"},
    "moments": {"--tol", "--out", "--bruteforce"},
    "overlap": {"--cutoff", "--tol", "--out"},
    "implement": {"--cutoff", "--tol", "--seed", "--out", "--bruteforce"},
    "classify": {"--out", "--n-max", "--thresholds", "--threads"},
    "modular": {"--cutoff", "--tol", "--seed", "--out"},
}


COMMAND_POSITIONALS = {
    "validate": ["paths"],
    "moments": ["input"],
    "overlap": ["projection", "symplectic"],
    "implement": ["symplectic", "projection"],
    "classify": ["family"],
    "modular": ["form"],
}


def test_command_options_are_pinned():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {name: {flag for action in p._actions if action.dest != "help"
                    for flag in action.option_strings}
             for name, p in sub.choices.items()}
    assert found == COMMAND_OPTIONS  # 21 settable values
    positionals = {name: [a.dest for a in p._actions if not a.option_strings]
                   for name, p in sub.choices.items()}
    assert positionals == COMMAND_POSITIONALS  # in the order argv gives them
