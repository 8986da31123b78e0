"""canm: simulation, discovery, and estimation for confounded additive-noise
models with jointly Gaussian noise."""

from .errors import IdentifiabilityError, NumericalError, SingularFitError, UsageError
from .graph import Dag, random_dag, shd, topological_order
from .graph import transitive_closure, transitive_reduction
from .scm import (
    AceEstimate,
    ConfoundedAnm,
    InterventionalDataset,
    LazyDataset,
    NoiseSpec,
    StructuralFunction,
    anm_sampler,
    random_anm,
    sample,
    true_ace_exact,
    true_ace_oracle,
)
from .setsys import SeparatingSetSystem, strongly_separating
from .independence import (
    IndependenceVerdict,
    data_ci_test,
    oracle_ci_test,
    test_independence,
)
from .discovery import (
    DiscoveryResult,
    SufficiencyReport,
    check_sufficiency,
    core_intervention_plan,
    learn_observable_graph,
    learn_transitive_closure,
)
from .estimation import (
    AceQuery,
    EstimatedModel,
    FittedEquation,
    KnnEquation,
    ace,
    conditional_ace,
    estimate_noise_cov,
    fit_model,
    fit_outcome_equation,
    fit_treatment_equation,
)

__version__ = "0.1.0"
