"""Convergence-rate analysis of best-constant average consensus on
asymmetric regular networks (rings, r-nearest rings, tori).

The public surface mirrors the pipeline: build a model (topology),
take its spectrum (spectral), solve the best-constant design (design),
simulate and verify it (simulate), and sweep parameter grids
(analysis).
"""

from .analysis import (
    FigureDataset,
    SweepRow,
    figure_dataset,
    rows_to_csv,
    rows_to_jsonl,
    sweep,
    write_figure,
)
from .design import (
    ConsensusDesign,
    ReconciledRate,
    ReconciliationTag,
    closed_design,
    closed_form_R,
    design_export_dict,
    design_pipeline,
    minimax_h,
    solve_h_pair,
)
from .errors import (
    ConsensusSpectraError,
    DegenerateError,
    DivergenceError,
    ParameterError,
    UnsupportedParityError,
)
from .simulate import (
    SimulationTrace,
    TrialResult,
    report_to_json,
    run_consensus,
    splitmix64,
    trace_to_csv,
    uniform_vector,
    verify_consensus,
)
from .spectral import (
    ComplexEigenvalue,
    Spectrum,
    SpectrumSource,
    circulant_spectrum,
    closed_values,
    factor_extremal_pair,
    full_spectrum,
    spectrum_to_csv,
    spectrum_to_json,
)
from .topology import (
    Kind,
    NetworkModel,
    format_model,
    parse_model,
    r_nearest_ring,
    ring,
    torus,
)

__version__ = "0.1.0"
