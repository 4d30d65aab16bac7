"""Assembly of class-aware gateways (shared by CLI, scenarios and tests).

One call wires the whole multi-class stack for a set of links:

* per-class traffic sources (:func:`~repro.classes.policy.make_class_source`)
  behind one :class:`~repro.classes.feed.ClassedSourceFeed` per link,
* a :class:`~repro.runtime.link.ManagedLink` per link whose
  ``class_policies`` turn on the Section 5.4
  :class:`~repro.core.estimators.ClassAwareEstimator` filter bank and the
  per-class eqn-42 criteria (:class:`~repro.classes.bank.ClassBank`),
* an :class:`~repro.runtime.gateway.AdmissionGateway` over them.

The link-level *pooled* parameters (used for the homogeneous fallback
path and the degraded-mode inversion) are derived from the policy
mixture: the per-flow mean and CV of the stationary admitted population
when every class fills its capacity share, the strictest class ``p_q``,
and the slowest class correlation time.
"""

from __future__ import annotations

import math

from repro.classes.feed import ClassedSourceFeed
from repro.classes.policy import (
    ClassPolicySet,
    default_class_policies,
    make_class_source,
)
from repro.core.memory import critical_time_scale
from repro.errors import ParameterError
from repro.runtime.gateway import AdmissionGateway
from repro.runtime.link import ManagedLink
from repro.runtime.metrics import MetricsRegistry

__all__ = ["mixture_parameters", "build_classed_gateway"]


def mixture_parameters(
    policies: ClassPolicySet, *, capacity: float
) -> dict[str, float]:
    """Pooled per-flow statistics of the policy mixture at full shares.

    With each class filling its capacity share, class ``k`` carries
    ``n_k = share_k * capacity / mu_k`` flows; the pooled per-flow moments
    are the ``n_k``-weighted mixture of the class marginals.  Returns
    ``{"n", "mean", "cv", "correlation_time", "p_q"}`` where ``p_q`` is
    the strictest class target (the pooled fallback criterion must not be
    laxer than any class's own) and ``correlation_time`` the slowest
    class time-scale (the conservative choice for the degraded-mode
    inversion).
    """
    if capacity <= 0.0:
        raise ParameterError("capacity must be positive")
    counts = {
        class_id: policy.share * capacity / policy.mean_rate
        for class_id, policy in policies.items()
    }
    total = sum(counts.values())
    mean = capacity / total  # sum_k n_k mu_k = sum_k share_k c = c
    second = 0.0
    for class_id, policy in policies.items():
        weight = counts[class_id] / total
        second += weight * (policy.sigma**2 + policy.mean_rate**2)
    var = max(second - mean * mean, 0.0)
    return {
        "n": total,
        "mean": mean,
        "cv": math.sqrt(var) / mean,
        "correlation_time": max(
            policy.correlation_time for _, policy in policies.items()
        ),
        "p_q": min(policy.p_q for _, policy in policies.items()),
    }


def build_classed_gateway(
    policies: ClassPolicySet | None = None,
    *,
    links: int = 1,
    capacity: float = 400.0,
    holding_time: float = 500.0,
    memory: float | None = None,
    feed_period: float | None = None,
    placement="least-loaded",
    seed: int = 0,
    stale_fraction: float = 1.0,
    adjust: bool = False,
    registry: MetricsRegistry | None = None,
    tracer=None,
    profiler=None,
) -> tuple[AdmissionGateway, ClassPolicySet]:
    """Build a multi-class gateway; returns ``(gateway, policies)``.

    ``policies`` defaults to the video/data/voice roster
    (:func:`~repro.classes.policy.default_class_policies`).  With
    ``adjust=True`` every class's eqn-15 adjusted ``alpha`` is
    pre-inverted (:meth:`ClassPolicySet.with_adjusted_alphas`) so the
    *healthy* per-class criterion already compensates estimation error --
    the robust configuration the overload scenario gates on; the default
    leaves the healthy criterion at the plain per-class ``p_q`` target
    (the configuration whose single-class special case is byte-identical
    to a classless link).  ``memory`` defaults to the paper's rule
    ``T_m = T_h_tilde`` at the mixture system size and ``feed_period`` to
    ``memory / 4``; per-link feeds are seeded ``seed*1000 + i`` exactly
    like the classless :class:`~repro.runtime.spec.GatewaySpec`.  The
    returned policy set is the one actually installed (post-adjustment).
    """
    if links < 1:
        raise ParameterError("need at least one link")
    if policies is None:
        policies = default_class_policies()
    mixture = mixture_parameters(policies, capacity=capacity)
    if memory is None:
        memory = critical_time_scale(holding_time, mixture["n"])
    if memory <= 0.0:
        raise ParameterError("class-aware links require memory > 0")
    if feed_period is None:
        feed_period = max(memory / 4.0, 1e-3)
    if adjust:
        policies = policies.with_adjusted_alphas(
            capacity=capacity, holding_time=holding_time, memory=memory
        )
    sources = {
        class_id: make_class_source(policy)
        for class_id, policy in policies.items()
    }
    registry = registry if registry is not None else MetricsRegistry()
    built: list[ManagedLink] = []
    for i in range(links):
        feed = ClassedSourceFeed(sources, feed_period, seed=seed * 1000 + i)
        built.append(
            ManagedLink.build(
                f"link{i}",
                capacity=capacity,
                holding_time=holding_time,
                feed=feed,
                p_q=mixture["p_q"],
                snr=mixture["cv"],
                correlation_time=mixture["correlation_time"],
                mean_rate=mixture["mean"],
                memory=memory,
                stale_fraction=stale_fraction,
                registry=registry,
                tracer=tracer,
                profiler=profiler,
                class_policies=policies,
            )
        )
    gateway = AdmissionGateway(
        built,
        placement=placement,
        registry=registry,
        tracer=tracer,
        profiler=profiler,
    )
    return gateway, policies
