"""SAW dispersion modeling, narrowband signal analysis, and film-parameter fitting."""

from .errors import (
    ConfigError,
    CurveError,
    DegeneratePointError,
    ExtractionError,
    FitError,
    FormatError,
    MaterialDbError,
    MaterialError,
    SawkitError,
    SynthesisError,
)
from .materials import (
    CubicMaterial,
    ElasticTensor,
    IsotropicMaterial,
    Layer,
    LayerStack,
    MaterialDb,
    PropagationGeometry,
    builtin_material_db,
    load_material_db,
    mix_density,
    mix_young_modulus,
    sige_material,
    stiffness_from_cubic,
    stiffness_from_isotropic,
)
from .dispersion import (
    BoundaryMatrix,
    DispersionCurve,
    PartialWaveSet,
    boundary_matrix,
    dispersion_curve,
    partial_waves,
    rayleigh_velocity_isotropic,
    read_dispersion_csv,
    surface_green_g33,
    velocity_window,
    write_dispersion_csv,
)
from .signal import (
    CalibrationResult,
    HarmonicPeak,
    MaskSpec,
    PeakPickResult,
    Spectrum,
    Waveform,
    calibrate_projection_ratio,
    pick_harmonic_peaks,
    read_waveform_csv,
    spectrum,
    synthesize_slope_signal,
    vph_points,
    write_waveform_csv,
)
from .inversion import (
    FitProblem,
    FitResult,
    FreeParam,
    IdentifiabilityReport,
    SiGeCoupling,
    apply_coupling,
    fit_parameters,
    format_fit_report,
    identifiability_report,
    residuals,
    write_estimates_csv,
)

__version__ = "0.1.0"
