"""Stochastic phase-space simulation of driven Kerr lattices with quantum input.

The package simulates lossy bosonic lattices with on-site Kerr nonlinearity
in the positive-P representation (exact stochastic sampling on a doubled
phase space), injects nonclassical input states through a cascade coupling,
and trains linear readouts on the resulting occupation features.  A
matrix-free Taylor propagator of the Fock-space master equation serves as
the exact cross-check for small systems.
"""

from .errors import (PPLatticeError, ConfigError, NumericsError,
                     TruncationError, DivergenceError)
from .model import (LatticeShape, ReservoirSpec, build_reservoir,
                    load_reservoir, shape_for_modes, lattice_edges,
                    spectral_radius)
from .sampler import (StateSpec, PhaseSampleSet, coherent_state,
                      thermal_state, squeezed_state, cat_state, sample_state,
                      sample_coherent, sample_thermal, sample_squeezed_vacuum,
                      sample_cat, vacuum_samples, load_samples,
                      estimate_moment, mean_occupation)
from .dynamics import (Schedule, PhaseSamplePair, TrajectoryRecord,
                       StabilityScan, build_single_mode, evolve_trajectory,
                       run_ensemble, stability_scan)
from .observables import (OccupationSeries, FeatureRecord, occupation,
                          steady_occupations, feature_vector)
from .oracle import (FockDensityMatrix, MasterSeries, WignerGrid, destroy,
                     vacuum_density, build_state_fock, expect_occupation,
                     evolve_master, wigner_grid)
from .learn import (Hyperparams, ReadoutModel, Dataset, TrainingCurves,
                    Metrics, softmax, cross_entropy, train_classifier,
                    train_regressor, evaluate, generate_dataset, CLASS_NAMES)

__version__ = "0.1.0"
