"""Built-in scalar functions selectable by name from experiment configs.

Each builder turns a parameter dict into a :class:`CylinderFunction`;
the same entries serve as integrands and as density payloads.  Keeping
the registry closed (no expression language) keeps configs testable.
"""

from __future__ import annotations

import numpy as np

from .action import gaussian_regularizer, quadratic_action
from .cylinder import CylinderFunction
from .errors import NonpositiveWidth, ValidationError

__all__ = ["FUNCTION_NAMES", "build_function"]


def _coordinate(params: dict) -> CylinderFunction:
    idx = int(params.get("index", 1))
    if idx < 1:
        raise ValidationError("function.index must be >= 1 (coordinates are 1-based)")
    return CylinderFunction(idx, lambda x: x[:, idx - 1], label=f"x{idx}")


def _coordinate_product(params: dict) -> CylinderFunction:
    rank = int(params.get("rank", 2))
    if rank < 1:
        raise ValidationError("function.rank must be >= 1")
    return CylinderFunction(
        rank, lambda x: np.prod(x[:, :rank], axis=1), label=f"x1..x{rank} product"
    )


def _polynomial(params: dict) -> CylinderFunction:
    coeffs = params.get("coeffs")
    if not coeffs:
        raise ValidationError("function.coeffs is required for 'polynomial'")
    idx = int(params.get("index", 1))
    if idx < 1:
        raise ValidationError("function.index must be >= 1")
    c = np.asarray([float(v) for v in coeffs])

    def poly(x, c=c, idx=idx):
        return np.polynomial.polynomial.polyval(x[:, idx - 1], c)

    return CylinderFunction(idx, poly, label=f"poly{list(c)} of x{idx}")


def _cosine(params: dict) -> CylinderFunction:
    idx = int(params.get("index", 1))
    freq = float(params.get("frequency", 1.0))
    if idx < 1:
        raise ValidationError("function.index must be >= 1")
    return CylinderFunction(
        idx, lambda x: np.cos(freq * x[:, idx - 1]), label=f"cos({freq} x{idx})"
    )


def _gaussian(params: dict) -> CylinderFunction:
    widths = params.get("widths", [1.0])
    ws = [float(w) for w in widths]
    try:
        reg = gaussian_regularizer(ws)
    except NonpositiveWidth as exc:
        raise ValidationError("function.widths must be nonempty and positive") from exc
    return CylinderFunction(reg.rank, reg.value, label=f"gaussian{ws}")


def _quadratic_form(params: dict) -> CylinderFunction:
    if "matrix" not in params:
        raise ValidationError("function.matrix is required for 'quadratic-form'")
    action = quadratic_action(
        params["matrix"], params.get("linear"), float(params.get("constant", 0.0))
    )
    return CylinderFunction(action.rank, action, label="quadratic form")


_BUILDERS = {
    "coordinate": _coordinate,
    "coordinate-product": _coordinate_product,
    "polynomial": _polynomial,
    "cosine": _cosine,
    "gaussian": _gaussian,
    "quadratic-form": _quadratic_form,
}

FUNCTION_NAMES = tuple(sorted(_BUILDERS))


def build_function(spec: dict, field: str = "function") -> CylinderFunction:
    """Build the named function from its config entry; raises
    ``ValidationError`` naming the offending field."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{field} must be an object with a 'name'")
    name = spec.get("name")
    if name not in _BUILDERS:
        raise ValidationError(
            f"{field}.name {name!r} is not a registered function "
            f"(choose from {', '.join(FUNCTION_NAMES)})"
        )
    try:
        return _BUILDERS[name](spec)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{field}: {exc}") from exc
