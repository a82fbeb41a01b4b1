"""Energies and inner products: one numpy-only reduction, on every path to an output.

signals._dot is the one inner product and signals.finite_energy the one
energy. The source must reach no BLAS routine, whose sums depend on the
library's build and thread count, apart from the calls named in
BLAS_EXEMPT, and the verifiers built on the two must be scale-free.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import oracles
from streams import collect, drop
from tfekit import (
    BandSpec,
    NoiseSpec,
    Signal,
    dft_decompose,
    fmd_decompose,
    gen_noise,
)

SOURCE = Path(__file__).resolve().parents[1] / "src" / "tfekit"
# each of these reaches BLAS, as a numpy function or an array method;
# np.convolve through np.correlate, whose float64 loop is cblas_ddot
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "convolve", "correlate"}
# (file, function, call) -> why that function's calls may reach BLAS
BLAS_EXEMPT = {
    ("fmd.py", "_causal", "np.convolve()"):
        "causal-fir's one-pass filter: every BLAS-free form measured slower "
        "(a sliding-window einsum, overlap-save) and changes its bytes, which "
        "depend on the BLAS kernel, though not on the thread count",
}


def _dotted(node) -> str:
    """'np.linalg.norm' for the expression np.linalg.norm; '' for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return ""


def blas_uses(source) -> list[str]:
    """Each BLAS-bound call, `@` operator or optimized einsum in `source`, with its line.

    `source` is text, or a node of its parsed tree, such as one function.
    """
    found = []
    for node in ast.walk(ast.parse(source) if isinstance(source, str) else source):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name.rsplit(".", 1)[-1] in BLAS_NAMES or ".linalg." in f".{name}.":
                found.append(f"{line}: {name}()")
            if name.endswith("einsum") and any(k.arg == "optimize" for k in node.keywords):
                found.append(f"{line}: {name}(optimize=...)")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{line}: @")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if "linalg" in node.module or any(a.name in BLAS_NAMES for a in node.names):
                found.append(f"{line}: from {node.module} import ...")
    return found


def test_blas_check_finds_each_form():
    # a check that cannot fail shows nothing: each form below must be caught
    source = ("import numpy as np\n"
              "from numpy.linalg import norm\n"
              "from numpy import vdot\n"
              "a = np.dot(x, y)\n"
              "b = x.dot(y)\n"
              "c = np.linalg.norm(x)\n"
              "d = x @ y\n"
              "d @= y\n"
              "e = np.einsum('i,i->', x, y, optimize=True)\n"
              "f = np.matmul(x, y) + np.inner(x, y) + np.tensordot(x, y, 1)\n"
              "g = np.einsum('i,i->', x, y)\n"
              "h = np.convolve(x, y) + np.correlate(x, y)\n")
    assert sorted(blas_uses(source)) == sorted([
        "2: from numpy.linalg import ...", "3: from numpy import ...", "4: np.dot()",
        "5: x.dot()", "6: np.linalg.norm()", "7: @", "8: @", "9: np.einsum(optimize=...)",
        "10: np.matmul()", "10: np.inner()", "10: np.tensordot()",
        "12: np.convolve()", "12: np.correlate()"])


def exempt_uses(path) -> list[str]:
    """The uses in `path` that BLAS_EXEMPT allows, as blas_uses words them."""
    allowed = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef):
            calls = {call for file, function, call in BLAS_EXEMPT
                     if (file, function) == (path.name, node.name)}
            allowed += [use for use in blas_uses(node) if use.split(": ", 1)[1] in calls]
    return allowed


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_blas_in_the_package(path):
    found = blas_uses(path.read_text())
    for use in exempt_uses(path):
        found.remove(use)
    assert found == []


def test_exemptions_name_calls_that_exist():
    # an exemption whose call is gone would hide the next one made there
    exempt = [use for path in SOURCE.glob("*.py") for use in exempt_uses(path)]
    assert len(exempt) == 2 and all(use.endswith("np.convolve()") for use in exempt), exempt


def _scaled(x: Signal, k: int) -> Signal:
    return Signal(np.ldexp(x.samples, k), x.sample_rate)


@pytest.mark.parametrize("k", [-400, 400])
class TestVerifiersScaleFree:
    """x and x * 2^k give bit-identical figures: every energy stays a normal float.

    A norm product taken as sqrt(e_i * e_l) would overflow or underflow
    here, at 2^(4k), and report 0 for every pair.
    """

    x = gen_noise(NoiseSpec(seed=19, mean=0.5, length=4096), 1000.0)

    @pytest.mark.parametrize("method", ["fmd-a", "fmd-b"])
    def test_linoep(self, k, method):
        cutoffs = BandSpec(bands=6).ladder(1000.0)
        # the backward figure, on the same two reductions
        want = oracles.verify_linoep(collect(fmd_decompose, self.x, cutoffs, order=64,
                                             method=method)[1])
        got = oracles.verify_linoep(collect(fmd_decompose, _scaled(self.x, k), cutoffs, order=64,
                                            method=method)[1])
        assert want.max_tail_cross > 0
        assert got.tail_cross.tobytes() == want.tail_cross.tobytes()
        assert got.energy_ratio == want.energy_ratio

    @pytest.mark.parametrize("method", ["fmd-a", "fmd-b"])
    def test_tail_bound(self, k, method):
        cutoffs = BandSpec(bands=6).ladder(1000.0)

        def bound(x):
            return fmd_decompose(x, cutoffs, drop, order=64, method=method).report

        want, got = bound(self.x), bound(_scaled(self.x, k))
        assert want.max_tail_cross > 0
        assert got.tail_cross.tobytes() == want.tail_cross.tobytes()
        assert got.energy_ratio == want.energy_ratio

    def test_orthogonality(self, k):
        plan = BandSpec(bands=6).plan(len(self.x), 1000.0)
        want = dft_decompose(self.x, plan, drop).report
        got = dft_decompose(_scaled(self.x, k), plan, drop).report
        assert want.max_normalized_cross > 0
        assert got == want
