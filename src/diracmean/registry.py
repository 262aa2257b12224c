"""Config sections turned into library objects, one kind table per section.

A section (a source, quantile family, policy, action, regularizer or
function entry) names its kind; its table maps each kind to the builder
that builds it with the library constructor a run uses, and to the keys
that builder reads.  Closed tables (no expression language) keep configs
testable; ``cli`` owns the modes, the cross-key rules and the output.
"""

from __future__ import annotations

import cmath

import numpy as np

from .action import quadratic_action
from .cylinder import CylinderFunction
from .errors import DiracMeanError, ValidationError, as_count, as_number, as_numbers
from .seq import (
    REAL_PRODUCT,
    UNIT_CUBE,
    box_quantiles,
    convergent_source,
    halton_source,
    normal_quantiles,
    pseudorandom_source,
    pullback_source,
    uniform_quantiles,
    weyl_source,
)
from .weights import boltzmann_policy, constant_policy, density_policy, oscillatory_policy

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


def _widths(spec: dict, field: str) -> tuple[float, ...]:
    """The ``widths`` of a config entry, 1.0 where left out, checked as
    ``normal_quantiles`` checks them; an error names ``field.widths``."""
    return as_numbers(f"{field}.widths", spec.get("widths", 1.0), 0.0)


def _section(name: str, spec, field: str):
    """The ``(echo, object)`` of section ``name``'s config ``spec`` at
    ``field``, built by the row its kind picks; ``ValidationError`` naming
    the field where the kind or a key is not the row's."""
    tag, default, table = _SECTIONS[name]
    if not isinstance(spec, dict):
        raise ValidationError(field, f"expected an object with a {tag!r}")
    kind = spec.get(tag, default)
    if not isinstance(kind, str) or kind not in table:
        raise ValidationError(f"{field}.{tag}", f"{kind!r} is not one of {list(table)}")
    build, keys = table[kind]
    _require_keys(spec, {tag} | keys, field)
    return build(spec, field)


def _from_count(kind: str, key: str, build, least: int | None = None):
    """The row of a source built from the one count ``key``, 0 where left out."""

    def row(spec: dict, field: str):
        count = as_count(f"{field}.{key}", spec.get(key, 0), least)
        return {"kind": kind, key: count}, build(count)

    return row, {key}


def _weyl(spec: dict, field: str):
    out = {"kind": "weyl", "offset": as_count(f"{field}.offset", spec.get("offset", 0), 0)}
    if spec.get("alphas") is not None:
        out["alphas"] = [str(a) for a in _as_list(spec["alphas"], f"{field}.alphas")]
    return out, _built(f"{field}.alphas", weyl_source, out.get("alphas"), out["offset"])


def _convergent(spec: dict, field: str):
    src = _built(field, convergent_source, target=spec.get("target", 0.0),
                 rate=spec.get("rate", 0.5), offset=spec.get("offset", 1.0))

    def echo(name):
        """The checked value, a list where the config gave one."""
        checked = getattr(src, name)
        return list(checked) if isinstance(spec.get(name), list) else checked[0]

    return {"kind": "convergent", "target": echo("target"), "rate": src.rate,
            "offset": echo("offset")}, src


def _pullback(spec: dict, field: str):
    base_spec = spec.get("base")
    if isinstance(base_spec, dict) and base_spec.get("kind") == "pullback":
        # ``pullback_source``'s refusal, made before the descent into the
        # base, so that no depth of nesting recurses.
        raise ValidationError(f"{field}.base",
                              f"must have a {UNIT_CUBE} codomain, got {REAL_PRODUCT}")
    base_echo, base = _section("source", base_spec, f"{field}.base")
    quantiles, family = _section("quantiles", spec.get("quantiles", {"family": "normal"}),
                                 f"{field}.quantiles")
    out = {"kind": "pullback", "base": base_echo, "quantiles": quantiles}
    return out, _built(f"{field}.base", pullback_source, base, family)


def _family(name: str, build):
    """The row of a family built from its ``widths``."""

    def row(spec: dict, field: str):
        widths = _widths(spec, field)
        return {"family": name, "widths": list(widths)}, build(widths)

    return row, {"widths"}


def _quadratic(spec: dict, field: str):
    """The ``matrix``, ``linear`` and ``constant`` of an action or a
    quadratic-form entry, as ``summary.json`` echoes them, and their action."""
    if "matrix" not in spec:
        raise ValidationError(f"{field}.matrix", "is required")
    out = {"kind": "quadratic", "matrix": spec["matrix"]}
    if spec.get("linear") is not None:
        out["linear"] = spec["linear"]
    out["constant"] = as_number(f"{field}.constant", spec.get("constant", 0.0))
    return out, _built(field, quadratic_action, out["matrix"], out.get("linear"), out["constant"])


def _density(spec: dict, field: str):
    fn = build_function(spec.get("function"), f"{field}.function")
    return {"kind": "density", "function": spec["function"]}, density_policy(fn.eval_block, fn.rank)


def _of_action(spec: dict, field: str):
    out = {"kind": spec["kind"]}
    out["action"], act = _section("action", spec.get("action"), f"{field}.action")
    if spec["kind"] == "boltzmann":
        return out, boltzmann_policy(act)
    out["index_phase"] = as_number(f"{field}.index_phase", spec.get("index_phase", 0.0))
    return out, oscillatory_policy(act, out["index_phase"])


# Functions serve as integrands and as density payloads; each is echoed as
# the config gave it.


def _coordinate(params: dict, field: str):
    idx = as_count(f"{field}.index", params.get("index", 1), 1)
    return params, CylinderFunction(idx, lambda x: x[:, idx - 1], label=f"x{idx}",
                                    gaussian_mean=lambda mean, cov: mean[idx - 1])


def _product_mean(mean: list, cov: list, rank: int) -> complex:
    """``E[x_1 ... x_rank]`` under a Gaussian of this mean and covariance,
    by Isserlis' theorem with a mean: ``E[x_i g] = mu_i E[g] + sum_j
    cov_ij E[dg/dx_j]`` on the smallest index i left, memoized on the
    set of indices left (a bitmask), at most ``2**rank`` of them."""
    memo = {0: 1.0}

    def left(s: int) -> complex:
        if s not in memo:
            i = (s & -s).bit_length() - 1
            rest = s & (s - 1)
            total = mean[i] * left(rest)
            others = rest
            while others:
                j = (others & -others).bit_length() - 1
                total += cov[i][j] * left(rest & ~(1 << j))
                others &= others - 1
            memo[s] = total
        return memo[s]

    return left((1 << rank) - 1)


def _coordinate_product(params: dict, field: str):
    rank = as_count(f"{field}.rank", params.get("rank", 2), 1)
    return params, CylinderFunction(
        rank, lambda x: np.prod(x[:, :rank], axis=1), label=f"x1..x{rank} product",
        gaussian_mean=lambda mean, cov: _product_mean(mean, cov, rank))


def _polynomial(params: dict, field: str):
    coeffs = _as_list(params.get("coeffs"), f"{field}.coeffs")
    if not coeffs:
        raise ValidationError(f"{field}.coeffs", "must not be empty")
    idx = as_count(f"{field}.index", params.get("index", 1), 1)
    c = np.asarray([as_number(f"{field}.coeffs", v) for v in coeffs])

    def poly(x, c=c, idx=idx):
        return np.polynomial.polynomial.polyval(x[:, idx - 1], c)

    def poly_mean(mean, cov, c=c.tolist(), k=idx - 1):
        # The raw moments m_n of the coordinate's Gaussian marginal:
        # m_n = mu m_{n-1} + (n - 1) var m_{n-2}.
        mu, var = mean[k], cov[k][k]
        moments = [1.0, mu]
        for n in range(2, len(c)):
            moments.append(mu * moments[-1] + (n - 1) * var * moments[-2])
        return sum(cn * m for cn, m in zip(c, moments))

    return params, CylinderFunction(idx, poly, label=f"poly{c.tolist()} of x{idx}",
                                    gaussian_mean=poly_mean)


def _cosine(params: dict, field: str):
    idx = as_count(f"{field}.index", params.get("index", 1), 1)
    freq = as_number(f"{field}.frequency", params.get("frequency", 1.0))

    def cos_mean(mean, cov):
        # The real part of the characteristic function, continued to a
        # complex mean and variance.
        return cmath.exp(-freq * freq * cov[idx - 1][idx - 1] / 2) * cmath.cos(freq * mean[idx - 1])

    return params, CylinderFunction(
        idx, lambda x: np.cos(freq * x[:, idx - 1]), label=f"cos({freq} x{idx})",
        gaussian_mean=cos_mean)


def _gaussian(params: dict, field: str):
    reg = normal_quantiles(_widths(params, field))
    rank = len(reg.widths)
    # The family's density reads every column, so it is handed only its own.
    return params, CylinderFunction(rank, lambda x: reg.density(x[:, :rank]),
                                    label=f"gaussian{list(reg.widths)}")


def _quadratic_form(params: dict, field: str):
    action = _quadratic(params, field)[1]
    matrix, linear = action.matrix.tolist(), action.linear.tolist()

    def form_mean(mean, cov):
        # tr(B Sigma) / 2 + mu.B.mu / 2 + b'.mu + c', summed row by row.
        total = action.constant
        for i, (row, b) in enumerate(zip(matrix, linear)):
            total += sum(bij * (cov[j][i] + mean[i] * mean[j]) for j, bij in enumerate(row)) / 2
            total += b * mean[i]
        return total

    return params, CylinderFunction(action.rank, action, label="quadratic form",
                                    gaussian_mean=form_mean)


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
    return _section("function", spec, field)[1]


# Each section's kind key, the kind where that key is left out (``None``:
# the key is required), and its table: each kind's builder, ``(spec, field)
# -> (echo, object)``, with the keys it reads besides the kind.
_SECTIONS = {
    "source": ("kind", None, {
        "halton": _from_count("halton", "offset", halton_source, 0),
        "weyl": (_weyl, {"alphas", "offset"}),
        "pseudorandom": _from_count("pseudorandom", "seed", pseudorandom_source),
        "convergent": (_convergent, {"target", "rate", "offset"}),
        "pullback": (_pullback, {"base", "quantiles"}),
    }),
    "quantiles": ("family", None, {
        "uniform": (lambda spec, field: ({"family": "uniform"}, uniform_quantiles()), set()),
        "normal": _family("normal", normal_quantiles),
        "uniform-box": _family("uniform-box", box_quantiles),
    }),
    "regularizer": ("family", "gaussian", {"gaussian": _family("gaussian", normal_quantiles)}),
    "action": ("kind", "quadratic", {"quadratic": (_quadratic, {"matrix", "linear", "constant"})}),
    "policy": ("kind", None, {
        "constant": (lambda spec, field: ({"kind": "constant"}, constant_policy()), set()),
        "density": (_density, {"function"}),
        "boltzmann": (_of_action, {"action"}),
        "oscillatory": (_of_action, {"action", "index_phase"}),
    }),
    "function": ("name", None, _BUILDERS),
    "density": ("name", None, _BUILDERS),
}
