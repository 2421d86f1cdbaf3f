"""Exception hierarchy shared by all sawkit modules."""


class SawkitError(Exception):
    """Base class for all errors raised by sawkit."""


class MaterialError(SawkitError):
    """Invalid material parameters (stability or range violation)."""


class MaterialDbError(SawkitError):
    """Material database file could not be parsed or validated."""


class DegeneratePointError(SawkitError):
    """Defective partial-wave eigensystem at an isolated (omega, k).

    Callers should retry with k perturbed by one part in 1e9.  A fit raises
    it too where an entry of its Jacobian is not finite, the pole indicator
    being undefined at some point of its stencils even after the nudge; the
    message then names those points' indices and frequencies in MHz.
    """


class StackJoinError(SawkitError):
    """Stacks that cannot share one batched indicator evaluation.

    They differ in layer count, or their medium at one depth has a closed
    form in some of them only.
    """


class CurveError(SawkitError):
    """No surface mode in the search window at one or more frequencies of a curve.

    ``indices`` lists the failing frequencies' positions in the curve; the
    message names them, their frequencies in MHz and the (floor, ceiling)
    velocity window in m/s.
    """

    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


class FormatError(SawkitError):
    """Malformed CSV or structured-text input."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class SynthesisError(SawkitError):
    """Waveform synthesis could not be carried out as requested; ``argument``
    names the argument at fault where one alone is (``"sample_rate"``)."""

    def __init__(self, message, argument=None):
        super().__init__(message)
        self.argument = argument


class ExtractionError(SawkitError):
    """Spectral peak extraction failed (no usable fundamental)."""


class FitError(SawkitError):
    """Invalid fit problem definition; ``param`` names the free parameter at
    fault, if one is, and ``reason`` is the message without it."""

    def __init__(self, reason, param=None):
        super().__init__(reason if param is None else f"{param!r}: {reason}")
        self.reason, self.param = reason, param


class ConfigError(SawkitError):
    """Run configuration file missing, unreadable, or inconsistent."""
