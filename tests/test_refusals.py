"""Refusals of bad arguments, one case per guard, each with its error type and message."""

import pytest

from altdet import instances
from altdet.errors import BudgetError, DimensionError
from altdet.exact import Matrix, Polynomial, poly_det
from altdet.instances import SplitMix64, instance_to_doc, random_matrix_tuple, random_spinor_instance
from altdet.onn import ColorfulInstance, colorful_form, latin_squares
from altdet.perms import Shape
from altdet.svrtan import Choice

CASES = {
    "matrix-resample-cap": (
        lambda: random_matrix_tuple(Shape.of(2), SplitMix64(1)),
        BudgetError, "no nonsingular 2x2 draw within 0 tries",
    ),
    "edge-resample-cap": (
        lambda: random_spinor_instance(2, SplitMix64(1)),
        BudgetError, "no nonsingular edge basis within 0 tries",
    ),
    "doc-of-non-instance": (lambda: instance_to_doc(object()), TypeError, "not an instance: object"),
    "latin-squares-order-0": (lambda: list(latin_squares(0)), DimensionError, "Latin squares need order >= 1"),
    "colorful-instance-3-of-2x2": (
        lambda: ColorfulInstance(Shape.of(2, 2, 2), (Matrix.identity(2),) * 3),
        DimensionError, "colorful instances need n matrices of size n, got (2, 2, 2)",
    ),
    "colorful-form-0": (lambda: colorful_form(0), DimensionError, "colorful forms need n >= 1"),
    "empty-polynomial": (lambda: Polynomial(()), DimensionError, "polynomial needs a coefficient tuple"),
    "poly-det-of-none": (lambda: poly_det([]), DimensionError, "poly_det needs at least one polynomial"),
    "choice-negative-edges": (lambda: Choice(0, -1), DimensionError, "edge count must be >= 0"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_guard_refuses(name, monkeypatch):
    call, error, message = CASES[name]
    monkeypatch.setattr(instances, "RESAMPLE_CAP", 0)
    colorful_form.cache_clear()
    for _ in range(2):  # a refusal is not remembered: the second call refuses again
        with pytest.raises(error) as refused:
            call()
        assert message in str(refused.value)
    # the colorful constructor's cache holds no refused order
    assert colorful_form.cache_info().currsize == 0
