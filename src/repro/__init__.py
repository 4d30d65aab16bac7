"""repro: robust measurement-based admission control.

A complete reproduction of Grossglauser & Tse, *A Framework for Robust
Measurement-Based Admission Control* (SIGCOMM 1997 / UCB ERL M98/17):

* :mod:`repro.core` -- the paper's contribution: the Gaussian admission
  criterion, memoryless and exponential-memory estimators, the
  certainty-equivalent / adjusted-target controllers, baselines.
* :mod:`repro.theory` -- every analytic result (Props 3.1/3.3, eqns (21),
  (30)-(41)), plus the robust-target inversion.
* :mod:`repro.traffic` -- RCBR, Markov-fluid, on-off, trace and synthetic
  LRD video sources.
* :mod:`repro.processes` -- OU, fGn, generic stationary Gaussian sampling,
  Monte-Carlo boundary crossing.
* :mod:`repro.simulation` -- event-driven and vectorized engines, the
  paper's measurement/termination protocol, impulsive-load Monte Carlo.
* :mod:`repro.experiments` -- one module per figure/result of the paper.

Quickstart::

    from repro import SimulationConfig, simulate, paper_rcbr_source

    source = paper_rcbr_source(correlation_time=1.0)
    result = simulate(SimulationConfig(
        source=source, capacity=100.0, holding_time=1000.0,
        p_ce=1e-3, memory=10.0, max_time=2e4, seed=7,
    ))
    print(result.overflow_probability)
"""

import importlib

#: Re-exported name -> the subpackage that defines it.  Resolved lazily
#: (PEP 562) so that importing one subpackage -- a shard process imports
#: only ``repro.service`` and the decision path -- does not load the
#: simulators, the theory and the scipy modules behind them.
_EXPORTS = {
    "AdmissionCriterion": "repro.core",
    "CertaintyEquivalentController": "repro.core",
    "ExponentialMemoryEstimator": "repro.core",
    "MemorylessEstimator": "repro.core",
    "PerfectKnowledgeController": "repro.core",
    "admissible_flow_count": "repro.core",
    "critical_time_scale": "repro.core",
    "make_estimator": "repro.core",
    "q_function": "repro.core",
    "q_inverse": "repro.core",
    "recommended_memory": "repro.core",
    "SimulationConfig": "repro.simulation",
    "SimulationResult": "repro.simulation",
    "simulate": "repro.simulation",
    "ContinuousLoadModel": "repro.theory",
    "adjusted_ce_alpha": "repro.theory",
    "adjusted_ce_target": "repro.theory",
    "ce_overflow_probability": "repro.theory",
    "overflow_probability": "repro.theory",
    "overflow_probability_separation": "repro.theory",
    "paper_rcbr_source": "repro.traffic",
    "starwars_like_source": "repro.traffic",
}

__version__ = "1.0.0"

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    """Resolve a re-exported name, or a subpackage, on first use."""
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(importlib.import_module(module), name)
        globals()[name] = value
        return value
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
