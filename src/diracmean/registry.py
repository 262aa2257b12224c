"""Built-in scalar functions selectable by name from experiment configs,
and the typed-value checks that every config section shares.

Each builder turns a parameter dict into a :class:`CylinderFunction`;
the same entries serve as integrands and as density payloads.  Keeping
the registry closed (no expression language) keeps configs testable.
"""

from __future__ import annotations

import math

import numpy as np

from .action import gaussian_regularizer, quadratic_action
from .cylinder import CylinderFunction
from .errors import DiracMeanError, ValidationError

__all__ = ["FUNCTION_NAMES", "build_function"]


def _fail(field: str, message: str):
    raise ValidationError(f"{field}: {message}")


def _as_int(value, field: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(field, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(field, f"must be >= {minimum}, got {value}")
    return value


def _as_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(field, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        _fail(field, "must be finite")
    return float(value)


def _as_list(value, field: str) -> list:
    if not isinstance(value, list):
        _fail(field, f"expected a list, got {value!r}")
    return value


def _built(field: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a library error re-raised as a
    ``ValidationError`` naming ``field``."""
    try:
        return build(*args, **kwargs)
    except ValidationError:
        raise
    except (DiracMeanError, TypeError, ValueError) as exc:
        raise ValidationError(f"{field}: {exc}") from exc


def _coordinate(params: dict, field: str) -> CylinderFunction:
    idx = _as_int(params.get("index", 1), f"{field}.index", 1)
    return CylinderFunction(idx, lambda x: x[:, idx - 1], label=f"x{idx}")


def _coordinate_product(params: dict, field: str) -> CylinderFunction:
    rank = _as_int(params.get("rank", 2), f"{field}.rank", 1)
    return CylinderFunction(
        rank, lambda x: np.prod(x[:, :rank], axis=1), label=f"x1..x{rank} product"
    )


def _polynomial(params: dict, field: str) -> CylinderFunction:
    coeffs = _as_list(params.get("coeffs"), f"{field}.coeffs")
    if not coeffs:
        _fail(f"{field}.coeffs", "must not be empty")
    idx = _as_int(params.get("index", 1), f"{field}.index", 1)
    c = np.asarray([_as_number(v, f"{field}.coeffs") for v in coeffs])

    def poly(x, c=c, idx=idx):
        return np.polynomial.polynomial.polyval(x[:, idx - 1], c)

    return CylinderFunction(idx, poly, label=f"poly{list(c)} of x{idx}")


def _cosine(params: dict, field: str) -> CylinderFunction:
    idx = _as_int(params.get("index", 1), f"{field}.index", 1)
    freq = _as_number(params.get("frequency", 1.0), f"{field}.frequency")
    return CylinderFunction(
        idx, lambda x: np.cos(freq * x[:, idx - 1]), label=f"cos({freq} x{idx})"
    )


def _gaussian(params: dict, field: str) -> CylinderFunction:
    ws = [_as_number(w, f"{field}.widths")
          for w in _as_list(params.get("widths", [1.0]), f"{field}.widths")]
    reg = _built(f"{field}.widths", gaussian_regularizer, ws)
    return CylinderFunction(reg.rank, reg.value, label=f"gaussian{ws}")


def _quadratic_form(params: dict, field: str) -> CylinderFunction:
    if "matrix" not in params:
        _fail(f"{field}.matrix", "is required for 'quadratic-form'")
    constant = _as_number(params.get("constant", 0.0), f"{field}.constant")
    action = quadratic_action(params["matrix"], params.get("linear"), constant)
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
        _fail(field, "expected an object with a 'name'")
    name = spec.get("name")
    if name not in FUNCTION_NAMES:
        _fail(f"{field}.name",
              f"{name!r} is not a registered function (choose from {', '.join(FUNCTION_NAMES)})")
    return _built(field, _BUILDERS[name], spec, field)
