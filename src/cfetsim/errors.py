"""Exception types shared across the package."""

import math


class CfetSimError(Exception):
    """Base class for all package errors."""


class ConfigurationError(CfetSimError):
    """Invalid run configuration or input parameters."""


POSITIVE = (lambda v: 0 < v < math.inf, "must be positive and finite")


def check_rules(rules: dict, values: dict, error=ConfigurationError):
    """Raise `error("<key> <rule>, got <value>")` for the first key of `rules`, a
    table of key -> (test, rule), whose value in `values` fails; absent keys pass."""
    for key, (test, rule) in rules.items():
        if key in values and not test(values[key]):
            raise error(f"{key} {rule}, got {values[key]}")


class GeometryError(CfetSimError):
    """Region construction or routing failure."""


class RefinementError(GeometryError):
    """Requested mesh resolution cannot resolve a region sanely."""


class IntegrityError(GeometryError):
    """A labeled conductor is not a single face-connected component."""


class RegionNotFoundError(GeometryError):
    """A named region or label does not exist on the grid."""


class MaterialError(CfetSimError):
    """Unknown material or invalid material property."""


class SingularSystemError(CfetSimError):
    """The assembled linear system has no unique solution."""


class ConvergenceError(CfetSimError):
    """Iterative solver did not reach the requested tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class CouplingDivergenceError(ConvergenceError):
    """Electro-thermal fixed-point loop failed to settle."""


class CalibrationError(CfetSimError):
    """A calibration stage could not reach its target."""

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


class ConnectivityError(CfetSimError):
    """Terminals do not lie on one connected conductor."""


class ComparisonError(CfetSimError):
    """Two netlists share no element names, or a shared one has a zero base value."""


class NetlistError(CfetSimError):
    """Malformed netlist or floating node."""


class TransientFailureError(CfetSimError):
    """Newton iteration failed even at the minimum step size."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class MeasurementError(CfetSimError):
    """A waveform lacks the crossings needed for the measurement."""
