"""Built-in scalar functions selectable by name from experiment configs,
and the wrapper that names a config field in a library call's error.

Each builder turns a parameter dict into a :class:`CylinderFunction`;
the same entries serve as integrands and as density payloads.  Keeping
the registry closed (no expression language) keeps configs testable.
"""

from __future__ import annotations

import numpy as np

from .action import quadratic_action
from .cylinder import CylinderFunction
from .errors import DiracMeanError, ValidationError, as_count, as_number
from .seq import normal_quantiles

__all__ = ["FUNCTION_NAMES", "build_function"]


def _as_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(field, f"expected a list, got {value!r}")
    return value


def _require_keys(obj: dict, allowed: set[str], field: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ValidationError(field, f"unknown keys {sorted(extra)} (allowed: {sorted(allowed)})")


def _built(field: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a library call, with its error re-raised
    as a ``ValidationError`` naming the config ``field`` once: the library
    argument's name is dropped where it is the field's last part, names the
    key under ``field`` where it was passed by keyword, and leads the
    message otherwise."""
    try:
        return build(*args, **kwargs)
    except ValidationError as exc:
        if exc.field == field.rsplit(".", 1)[-1]:
            raise ValidationError(field, exc.message) from exc
        if exc.field in kwargs:
            raise ValidationError(f"{field}.{exc.field}", exc.message) from exc
        raise ValidationError(field, f"{exc.field} {exc.message}") from exc
    except (DiracMeanError, TypeError, ValueError) as exc:
        raise ValidationError(field, str(exc)) from exc


def _coordinate(params: dict, field: str) -> CylinderFunction:
    idx = as_count(f"{field}.index", params.get("index", 1), 1)
    return CylinderFunction(idx, lambda x: x[:, idx - 1], label=f"x{idx}")


def _coordinate_product(params: dict, field: str) -> CylinderFunction:
    rank = as_count(f"{field}.rank", params.get("rank", 2), 1)
    return CylinderFunction(
        rank, lambda x: np.prod(x[:, :rank], axis=1), label=f"x1..x{rank} product"
    )


def _polynomial(params: dict, field: str) -> CylinderFunction:
    coeffs = _as_list(params.get("coeffs"), f"{field}.coeffs")
    if not coeffs:
        raise ValidationError(f"{field}.coeffs", "must not be empty")
    idx = as_count(f"{field}.index", params.get("index", 1), 1)
    c = np.asarray([as_number(f"{field}.coeffs", v) for v in coeffs])

    def poly(x, c=c, idx=idx):
        return np.polynomial.polynomial.polyval(x[:, idx - 1], c)

    return CylinderFunction(idx, poly, label=f"poly{list(c)} of x{idx}")


def _cosine(params: dict, field: str) -> CylinderFunction:
    idx = as_count(f"{field}.index", params.get("index", 1), 1)
    freq = as_number(f"{field}.frequency", params.get("frequency", 1.0))
    return CylinderFunction(
        idx, lambda x: np.cos(freq * x[:, idx - 1]), label=f"cos({freq} x{idx})"
    )


def _gaussian(params: dict, field: str) -> CylinderFunction:
    ws = _as_list(params.get("widths", [1.0]), f"{field}.widths")
    reg = _built(f"{field}.widths", normal_quantiles, ws)
    rank = len(reg.widths)
    # The family's density reads every column, so it is handed only its own.
    return CylinderFunction(rank, lambda x: reg.density(x[:, :rank]),
                            label=f"gaussian{list(reg.widths)}")


def _quadratic_form(params: dict, field: str) -> CylinderFunction:
    if "matrix" not in params:
        raise ValidationError(f"{field}.matrix", "is required for 'quadratic-form'")
    constant = as_number(f"{field}.constant", params.get("constant", 0.0))
    action = _built(field, quadratic_action, params["matrix"], params.get("linear"), constant)
    return CylinderFunction(action.rank, action, label="quadratic form")


# Each builder with the keys it reads besides ``name``.
_BUILDERS = {
    "coordinate": (_coordinate, {"index"}),
    "coordinate-product": (_coordinate_product, {"rank"}),
    "polynomial": (_polynomial, {"coeffs", "index"}),
    "cosine": (_cosine, {"index", "frequency"}),
    "gaussian": (_gaussian, {"widths"}),
    "quadratic-form": (_quadratic_form, {"matrix", "linear", "constant"}),
}

FUNCTION_NAMES = tuple(sorted(_BUILDERS))


def build_function(spec: dict, field: str = "function") -> CylinderFunction:
    """Build the named function from its config entry; raises
    ``ValidationError`` naming the offending field."""
    if not isinstance(spec, dict):
        raise ValidationError(field, "expected an object with a 'name'")
    name = spec.get("name")
    if name not in FUNCTION_NAMES:
        raise ValidationError(
            f"{field}.name",
            f"{name!r} is not a registered function (choose from {', '.join(FUNCTION_NAMES)})")
    build, keys = _BUILDERS[name]
    _require_keys(spec, {"name"} | keys, field)
    return build(spec, field)
