"""Pieces shared by the workload modules: jobs, outcomes and input text.

Every workload module exposes ``TOLERANCE`` (the relative tolerance against
recorded reference numbers) and ``generate(seed, workdir)``, which returns
the pass's list of :class:`Job` objects.  Generators draw only
from ``numpy.random.default_rng(seed)`` and hand the program plain inputs:
expression text, coefficients, domains and config files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Outcome:
    """What a job's result is judged on.

    ``verdict`` is compared exactly with the recorded one; each entry of
    ``numbers`` is compared with its recorded value within the workload's
    relative tolerance plus the entry's own absolute floor in ``atol``.
    ``errors`` lists failed oracle checks (independent closed forms and the
    stated acceptance tolerances).
    """

    verdict: str
    numbers: dict = field(default_factory=dict)
    atol: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    digest: str | None = None

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def within(self, name: str, got: float, want: float, tol: float) -> None:
        """Record an oracle check ``|got - want| <= tol``."""
        if not (abs(got - want) <= tol):
            self.errors.append(f"{name}: got {got!r}, want {want!r} within {tol:g}")

    def below(self, name: str, got: float, limit: float) -> None:
        if not (got <= limit):
            self.errors.append(f"{name}: {got!r} exceeds {limit:g}")


@dataclass
class Job:
    """One closed-loop request: ``run(state)`` is timed, ``check`` is not.

    ``state`` is a dict shared by the jobs of one pass, so that a check job
    can use the surface an earlier job synthesized.
    """

    name: str
    run: Callable[[dict], object]
    check: Callable[[object], Outcome]


def _decimal(x: float) -> str:
    """|x| as an unsigned decimal literal with at most 15 fraction digits."""
    return f"{abs(x):.15f}".rstrip("0").rstrip(".") or "0"


def num(x: float) -> str:
    """A real constant in the expression grammar (unsigned decimals only)."""
    return f"(-{_decimal(x)})" if x < 0 else _decimal(x)


def cnum(c: complex) -> str:
    """A complex constant as grammar text, e.g. ``(0.5-0.25*i)``."""
    c = complex(c)
    head = f"-{_decimal(c.real)}" if c.real < 0 else _decimal(c.real)
    return f"({head}{'-' if c.imag < 0 else '+'}{_decimal(c.imag)}*i)"


def parsed_value(c: complex) -> complex:
    """The value ``cnum(c)`` denotes, so oracles use the program's exact inputs."""
    c = complex(c)
    return complex((-1.0 if c.real < 0 else 1.0) * float(_decimal(c.real)),
                   (-1.0 if c.imag < 0 else 1.0) * float(_decimal(c.imag)))


def poly_text(coeffs) -> str:
    """Horner-form text of a polynomial, highest degree first."""
    out = cnum(coeffs[0])
    for c in coeffs[1:]:
        out = f"({out}*z+{cnum(c)})"
    return out


def unit(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def max_rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Largest error relative to the largest reference magnitude."""
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(np.asarray(got) - want))) / max(scale, 1e-300)
