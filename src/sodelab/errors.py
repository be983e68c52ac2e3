"""Exception taxonomy shared across the package.

Every failure mode that callers are expected to catch has its own class; the
CLI maps any :class:`SodelabError` to exit code 1 and argument/config problems
to exit code 2.
"""

from __future__ import annotations


class SodelabError(Exception):
    """Base class for all domain errors raised by this package."""


# --- expression layer ---------------------------------------------------


class ExprSyntaxError(SodelabError):
    """Source text does not match the expression grammar."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownIdentifierError(ExprSyntaxError):
    """Identifier is neither a declared coordinate nor a known function."""

    def __init__(self, name: str, position: int) -> None:
        super().__init__(f"unknown identifier '{name}'", position)
        self.name = name


class UnboundVariableError(SodelabError):
    """Evaluation environment is missing a coordinate value."""


class EvaluationDomainError(SodelabError):
    """Evaluation hit a singular point (log/sqrt domain, division by zero)."""


class NonFiniteConstantError(SodelabError):
    """A tree holds an inf or nan constant, which the grammar has no text for."""


class ExpressionDepthError(SodelabError):
    """A tree or its text is nested too deeply to parse, evaluate, compile, differentiate,
    substitute or print."""


# --- sampling / domains --------------------------------------------------


class DomainSamplingError(SodelabError):
    """A sampling region is empty or swallowed by its excluded set."""


# --- bundle construction -------------------------------------------------


class ChartDimensionError(SodelabError):
    """Carrier dimension cannot host a tangent-bundle chart (odd, or wrong n)."""


class DegenerateBaseError(SodelabError):
    """dQ^1 ^ ... ^ dQ^n vanishes somewhere on the sampled domain."""


class FunctionalDependenceError(SodelabError):
    """Base and velocity functions fail to form an independent chart."""


class FixedPointOnBaseError(SodelabError):
    """The field vanishes identically on the sampled domain."""


class NonInvertibleChartError(SodelabError):
    """Numerical chart inversion failed to converge."""


# --- conformal rescaling -------------------------------------------------


class SignChangeError(SodelabError):
    """A conformal factor vanishes or changes sign on the sampled domain."""


# --- dynamics ------------------------------------------------------------


class NotPeriodicError(SodelabError):
    """No return to the start was found within the time horizon."""


# --- kepler --------------------------------------------------------------


class PositiveEnergyError(SodelabError):
    """Energy-shell operations require a negative (bound) energy."""


# --- motions -------------------------------------------------------------


class CardinalityMismatchError(SodelabError):
    """Motion families cannot be matched one-to-one: different sizes."""


class FrequencyMismatchError(SodelabError):
    """A matched motion pair exceeds the frequency mismatch tolerance."""
