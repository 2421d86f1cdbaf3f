"""Exception hierarchy shared by all sawkit modules."""


class SawkitError(Exception):
    """Base class for all errors raised by sawkit."""


class MaterialError(SawkitError):
    """Invalid material parameters (stability or range violation)."""


class MaterialDbError(SawkitError):
    """Material database file could not be parsed or validated."""


class DegeneratePointError(SawkitError):
    """Defective partial-wave eigensystem at an isolated (omega, k).

    Callers should retry with k perturbed by one part in 1e9.
    """


class NoModeError(SawkitError):
    """No surface mode found in the scanned velocity window.

    ``window`` is the (floor, ceiling) of the scan in m/s.  ``min_abs_det``
    is the smallest |det Y| over the scan at the failing frequency, where Y
    is the 3x3 surface-traction matrix that ``boundary_matrix`` returns; it
    vanishes at a mode, so a value far from zero says none was near.
    """

    def __init__(self, message, window=None, min_abs_det=None):
        super().__init__(message)
        self.window = window
        self.min_abs_det = min_abs_det


class CurveError(SawkitError):
    """Mode search failed at one or more frequencies of a curve."""

    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


class FormatError(SawkitError):
    """Malformed CSV or structured-text input."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class SynthesisError(SawkitError):
    """Waveform synthesis could not be carried out as requested."""


class ExtractionError(SawkitError):
    """Spectral peak extraction failed (no usable fundamental)."""


class FitError(SawkitError):
    """Invalid fit problem definition."""


class ConfigError(SawkitError):
    """Run configuration file missing, unreadable, or inconsistent."""
