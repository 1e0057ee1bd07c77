"""The benchmark's tracer wraps program functions by module and name.

``perfbench/tracing.py`` lists them in ``WRAPS``; a name the program no
longer has is skipped there and its metrics read null.  This test reads
that list as plain data, without importing or changing the benchmark, and
requires every listed name to exist, so a rename or deletion of a traced
function fails here and not only in the benchmark's own tests.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wraps():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPS in {TRACING}")


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in _wraps()])
def test_wrapped_name_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"


def test_basis_batches_carry_one_regime(monkeypatch):
    # the tracer counts segment_basis.evals.<regime> from the first argument
    # of each transfer.basis_eval call, so a batch of sloped segments must
    # still be one Segment with one Regime; a deep_sin row (sin, k 0.01,
    # J 100, kappaL 1e5) must reach the forbidden sloped regime
    from mazersim import transfer
    from mazersim.grid import ModeShape
    from mazersim.mazer import MazerParams, event_probabilities
    from mazersim.segment_basis import Regime

    regimes = []
    basis_eval = transfer.basis_eval

    def counting(seg, x):
        regimes.append(seg.regime)
        return basis_eval(seg, x)

    monkeypatch.setattr(transfer, "basis_eval", counting)
    event_probabilities(MazerParams.for_shape(
        ModeShape.SIN_FUNDAMENTAL, 0.01, 1.0e5, 100))
    assert all(isinstance(r, Regime) for r in regimes)
    # one batch per sloped regime per branch solve
    assert 1 <= regimes.count(Regime.SLOPE_FORBIDDEN) <= 2
    assert regimes.count(Regime.SLOPE_ALLOWED) <= 2
