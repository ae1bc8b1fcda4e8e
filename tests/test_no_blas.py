"""The program makes no BLAS or LAPACK call.

The first such call of a process allocates OpenBLAS's buffers, which stay
for the whole run and raise its peak memory.  The only linear algebra the
program needs is the 2x2 algebra of L_B (``heun.build_matrix_B`` and
``heun.det_relation_residual``, in closed form) and sums over nodes,
samples and coefficients, each a two-operand ``np.einsum`` without
``optimize`` (numpy's own loops).  The tests may call LAPACK: here it
referees the closed form.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import heun_monodromy
from heun_monodromy import ModelParams, solve_phase
from heun_monodromy.circle import phi_on_circle, psi_on_circle
from heun_monodromy.gauss import EPS
from heun_monodromy.heun import BASIS_COEFFS, apply_B_and_dot, build_E, build_matrix_B
from heun_monodromy.heunpoly import NumericQuad, diagonal
from tests.conftest import GOLDENS

#: Calls that numpy hands to BLAS.
BLAS_CALLS = {"dot", "matmul", "tensordot", "inner", "vdot"}


def _blas_sites(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, form) of every use of ``linalg``, of the ``@`` operator, of a
    call in BLAS_CALLS and of an ``einsum`` given ``optimize`` (which may
    hand its contractions to BLAS)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append((node.lineno, "linalg"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            if any("linalg" in name for name in names):
                found.append((node.lineno, "linalg"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_CALLS:
                found.append((node.lineno, name))
            elif name == "einsum" and any(kw.arg == "optimize" for kw in node.keywords):
                found.append((node.lineno, "einsum(optimize=...)"))
    return sorted(found)


def test_the_guard_sees_every_form():
    sample = ast.parse(
        "import numpy.linalg\n"
        "from numpy import linalg\n"
        "x = np.linalg.solve(a, b)\n"
        "y = a @ b\n"
        "y @= b\n"
        "z = a.dot(b) + np.matmul(a, b) + np.tensordot(a, b) + np.inner(a, b)\n"
        "w = np.vdot(a, b) + np.einsum('ij,jk->ik', a, b, optimize=True)\n"
        "v = np.einsum('ij,jk->ik', a, b)\n")
    assert _blas_sites(sample) == [
        (1, "linalg"), (2, "linalg"), (3, "linalg"), (4, "@"), (5, "@"), (6, "dot"),
        (6, "inner"), (6, "matmul"), (6, "tensordot"), (7, "einsum(optimize=...)"), (7, "vdot")]


def test_the_program_calls_no_blas_or_lapack():
    package = Path(heun_monodromy.__file__).resolve().parent
    found = {module.name: _blas_sites(ast.parse(module.read_text()))
             for module in sorted(package.glob("*.py"))}
    assert {name: sites for name, sites in found.items() if sites} == {}


@pytest.mark.parametrize("point", GOLDENS + ((6.0, 1.5, 0.4, 0.0), (1.0, 0.3, 0.3, 0.5)),
                         ids=["G1", "G2", "ell6", "hyperbolic"])
def test_closed_form_matrix_B_meets_lapack(point):
    # build_matrix_B solves V X = Y with V^-1 = [[d, -b], [-c, a]] / (ad - bc);
    # np.linalg.solve (LU with partial pivoting) solves the same system.  Both
    # have forward error within a small multiple of cond(V) * EPS relative to
    # X, so they agree to 8 cond(V) EPS max|X|
    ell, mu, omega, phi0 = point
    params = ModelParams(ell=ell, mu=mu, omega=omega)
    path = solve_phase(params, phi0, tol=1e-12)
    hb = build_E(phi_on_circle(path), psi_on_circle(path))
    nq = NumericQuad(diagonal(int(ell)), params)
    images, images_dot = apply_B_and_dot(hb, nq, 0.0, coeffs=BASIS_COEFFS)
    b0 = hb.at(0.0)
    V = np.array([[b0.E(+1)[0], b0.E(-1)[0]], [b0.Eprime(+1)[0], b0.Eprime(-1)[0]]])
    Y = np.stack((images[:, 0], images_dot[:, 0] / (1j * omega)))
    reference = np.linalg.solve(V, Y)
    matrix = build_matrix_B(hb, nq)
    bound = 8.0 * np.linalg.cond(V) * EPS * np.max(np.abs(reference))
    assert np.max(np.abs(matrix - reference)) <= bound
