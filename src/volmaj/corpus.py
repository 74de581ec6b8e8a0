"""Worked examples wired for end-to-end runs and cross-checked tests.

Each entry bundles whatever pieces the example has: a discrete problem,
an integral majorant, an algebraic majorant, and closed forms that the
test suite uses as independent oracles.  Entries without a problem are
majorant-only demonstrations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebraic_majorant import LyapunovSpec
from .errors import SpecValidationError
from .integral_majorant import MajorantSpec
from .problem import DenseOperator, KernelStage, TridiagonalOperator, VolterraProblem

__all__ = [
    "CorpusEntry",
    "corpus_names",
    "corpus_build",
    "corpus_params",
    "corpus_param_types",
    "power_family",
    "sine_bvp",
    "linear_majorant",
    "sqrt_pole",
    "interior_points",
    "second_difference_operator",
    "bvp_divided_differences",
]


@dataclass(frozen=True, eq=False)
class CorpusEntry:
    name: str
    params: dict
    problem: VolterraProblem | None
    majorant: MajorantSpec | None
    lyapunov: LyapunovSpec | None
    closed_forms: dict
    notes: str
    default_t_end: float | None = None


def power_family(p: float = 2.0) -> CorpusEntry:
    """Scalar equation u(t) = integral of p * sign(u) |u|^((p-1)/p).

    The main solution is identically zero, yet t^p and every shifted
    copy max(t - c, 0)^p solve the equation too, so uniqueness fails
    while the zero bound stays exact: its rate vanishes at zero, so the
    bound is exactly 0 and exists globally.  The exponent is (p-1)/p so
    that t^p satisfies the equation identically; with p/(p-1) in its
    place t^p would not solve it.
    """
    e = (p - 1.0) / p

    def growth(s: np.ndarray, v: np.ndarray) -> np.ndarray:
        return p * np.copysign(np.abs(v) ** e, v)

    def kernel(t: np.ndarray, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        return growth(s[:, 0], u[..., 0, :])

    def outer(t: np.ndarray, integrals: tuple, u: np.ndarray) -> np.ndarray:
        return u - integrals[0]

    problem = VolterraProblem(
        dim=1,
        # free of t: one prefix sum per sweep
        stages=(KernelStage(1, kernel, terms=((None, (growth,)),)),),
        outer=outer,
        operator=DenseOperator([[1.0]]),
        inv_norm_bound=1.0,
        name=f"power_family(p={p:g})",
    )
    majorant = MajorantSpec(
        f=f"{p!r}*w",
        gamma=f"z^{e!r}",  # only met on z >= 0
        upper_solution=f"t^{p!r}",
        name=f"power_family(p={p:g}) majorant",
    )

    def shifted(c: float) -> Callable[[float], float]:
        return lambda t: max(t - c, 0.0) ** p

    return CorpusEntry(
        name="power_family",
        params={"p": p},
        problem=problem,
        majorant=majorant,
        lyapunov=None,
        closed_forms={
            "zero": lambda t: 0.0,
            "monomial": lambda t: t**p,
            "shifted": shifted,
        },
        notes=(
            "non-unique scalar equation; rate vanishes at zero, so the"
            " bound stays exactly zero for all time and certifies the zero"
            " main solution"
        ),
        default_t_end=1.0,
    )


def interior_points(m: int) -> np.ndarray:
    if m < 3:
        raise SpecValidationError(f"need at least 3 interior points, got {m}")
    h = 1.0 / (m + 1)
    return np.arange(1, m + 1) * h


def second_difference_operator(m: int) -> TridiagonalOperator:
    """Divided second differences on m interior points of [0, 1] with
    zero boundary values."""
    h = 1.0 / (m + 1)
    scale = 1.0 / (h * h)
    return TridiagonalOperator(
        np.full(m - 1, scale), np.full(m, -2.0 * scale), np.full(m - 1, scale)
    )


def sine_bvp(m: int = 21) -> CorpusEntry:
    """Boundary value problem coupled to a quadratic memory integral.

    The divided second difference of u at each interior point x equals
    t - integral of sin(t - s + x) u(s, x)^2; the scalar bound solves
    z = t + integral of z^2 and equals tan t up to pi/2.
    """
    x = interior_points(m)
    op = second_difference_operator(m)
    a_matrix = op.matrix()

    def kernel(t: np.ndarray, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        # the sine factor is shared by every trajectory of the stack
        return np.sin(t[:, None] - s + x) * u[..., 0, :] ** 2

    # sin(t - s + x) = sin(t + x) cos s - cos(t + x) sin s: two prefix sums
    terms = (
        (lambda t: np.sin(t[:, None] + x), (lambda s, u: np.cos(s)[:, None] * u**2,)),
        (lambda t: -np.cos(t[:, None] + x), (lambda s, u: np.sin(s)[:, None] * u**2,)),
    )

    def outer(t: np.ndarray, integrals: tuple, u: np.ndarray) -> np.ndarray:
        # matmul, not u @ a_matrix.T: it keeps each node's sum in the
        # order of a_matrix @ u
        return np.matmul(a_matrix, u[..., None])[..., 0] + integrals[0] - t[:, None]

    problem = VolterraProblem(
        dim=m,
        stages=(KernelStage(1, kernel, terms),),
        outer=outer,
        operator=op,
        inv_norm_bound=1.0,
        name=f"sine_bvp(m={m})",
    )
    majorant = MajorantSpec(
        f="w + t",
        gamma="z*z",
        upper_solution="tan(t)",
        name=f"sine_bvp(m={m}) majorant",
    )

    # the derived slope, (t*r) + (t*r), is 2*t*r bit for bit unless t*r
    # is subnormal
    lyapunov = LyapunovSpec(
        f="t*r*r + t",
        inv_norm_bound=1.0,
        r_max=10.0,
        t_max=5.0,
        name=f"sine_bvp(m={m}) algebraic majorant",
    )

    def branch(t: float) -> float:
        if t == 0.0:
            return 0.0
        return (1.0 - math.sqrt(1.0 - 4.0 * t * t)) / (2.0 * t)

    return CorpusEntry(
        name="sine_bvp",
        params={"m": m},
        problem=problem,
        majorant=majorant,
        lyapunov=lyapunov,
        closed_forms={
            "bound": math.tan,
            "branch": branch,
            "tangency": (1.0, 0.5),
        },
        notes=(
            "vector problem with an oscillatory memory kernel; the scalar"
            " bound tan t certifies existence strictly inside [0, pi/2)"
        ),
        default_t_end=0.4,
    )


def linear_majorant(a: float = 1.0, b: float = 1.0) -> CorpusEntry:
    """Majorant-only entry z = b + integral of a*z, bound b * exp(a t).

    With b = 0 the rate vanishes at the origin, so the bound stays
    exactly 0 and exists globally.
    """
    majorant = MajorantSpec(
        f=f"w + {b!r}",
        gamma=f"{a!r}*z",
        upper_solution=f"{b!r}*exp({a!r}*t)",
        name=f"linear_majorant(a={a:g}, b={b:g})",
    )
    return CorpusEntry(
        name="linear_majorant",
        params={"a": a, "b": b},
        problem=None,
        majorant=majorant,
        lyapunov=None,
        closed_forms={"bound": lambda t: b * math.exp(a * t)},
        notes="globally existing linear bound" if b != 0.0 else (
            "degenerate linear bound: the rate vanishes at zero, so the"
            " bound starts at zero and stays there for all time"
        ),
        default_t_end=1.0,
    )


def sqrt_pole() -> CorpusEntry:
    """Majorant-only entry whose rate 1/sqrt(1 - w) has a pole at w = 1.

    The bound stays below 1 while its slope escapes, so this is the
    slope-escape case; the horizon is the integral of sqrt(1 - w) from
    0 to 1, exactly 2/3.
    """
    majorant = MajorantSpec(
        f="w",
        gamma="1/sqrt(1 - z)",
        pole=1.0,
        upper_solution="1 - (1 - 1.5*t)^(2/3)",
        z_max=0.999,
        omega_max=0.999,
        name="sqrt_pole majorant",
    )
    return CorpusEntry(
        name="sqrt_pole",
        params={},
        problem=None,
        majorant=majorant,
        lyapunov=None,
        closed_forms={
            "bound": lambda t: 1.0 - (1.0 - 1.5 * t) ** (2.0 / 3.0),
            "horizon": 2.0 / 3.0,
        },
        notes="slope escapes at a finite rate pole while the bound stays"
        " below 1; horizon 2/3",
    )


_BUILDERS: dict[str, Callable[..., CorpusEntry]] = {
    "linear_majorant": linear_majorant,
    "power_family": power_family,
    "sine_bvp": sine_bvp,
    "sqrt_pole": sqrt_pole,
}

# entry -> parameter -> (type, accepted range); a range is (description,
# predicate), and the builders above rely on it having been checked
_PARAMS: dict[str, dict[str, tuple[type, tuple[str, Callable]]]] = {
    "linear_majorant": {
        "a": (float, ("finite and > 0", lambda v: math.isfinite(v) and v > 0)),
        "b": (float, ("finite and >= 0", lambda v: math.isfinite(v) and v >= 0)),
    },
    "power_family": {
        "p": (float, ("finite and > 1", lambda v: math.isfinite(v) and v > 1)),
    },
    "sine_bvp": {"m": (int, ("at least 3", lambda v: v >= 3))},
    "sqrt_pole": {},
}


def corpus_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def corpus_params(name: str) -> dict[str, tuple[type, tuple[str, Callable]]]:
    """Each parameter's type and accepted range (description, predicate)."""
    if name not in _PARAMS:
        raise SpecValidationError(f"unknown corpus entry {name!r}")
    return dict(_PARAMS[name])


def corpus_param_types(name: str) -> dict[str, type]:
    return {key: kind for key, (kind, _) in corpus_params(name).items()}


def corpus_build(name: str, params: dict | None = None) -> CorpusEntry:
    if name not in _BUILDERS:
        raise SpecValidationError(
            f"unknown corpus entry {name!r}; available: {', '.join(corpus_names())}"
        )
    declared = _PARAMS[name]
    kwargs = {}
    for key, raw in (params or {}).items():
        if key not in declared:
            raise SpecValidationError(
                f"corpus entry {name!r} takes no parameter {key!r}"
            )
        kind, (description, accepts) = declared[key]
        try:
            value = kind(raw)
        except (TypeError, ValueError):
            raise SpecValidationError(
                f"parameter {key!r} of {name!r} must be {kind.__name__},"
                f" got {raw!r}"
            ) from None
        if not accepts(value):
            raise SpecValidationError(
                f"parameter {key!r} of {name!r} must be {description},"
                f" got {value!r}"
            )
        kwargs[key] = value
    return _BUILDERS[name](**kwargs)


def bvp_divided_differences(
    values: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-time-node size, slope, and curvature of a grid function with
    zero boundary values: max |u|, max |du| / h, max |d2u| / h^2."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise SpecValidationError("expected (time nodes, space points) values")
    padded = np.zeros((values.shape[0], values.shape[1] + 2))
    padded[:, 1:-1] = values
    d0 = np.max(np.abs(values), axis=1) if values.size else np.zeros(len(values))
    first = np.diff(padded, axis=1) / h
    d1 = np.max(np.abs(first), axis=1)
    second = np.diff(padded, n=2, axis=1) / (h * h)
    d2 = np.max(np.abs(second), axis=1)
    return d0, d1, d2
