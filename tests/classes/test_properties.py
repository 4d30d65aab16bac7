"""Satellite properties of the class subsystem.

* A Hypothesis property that pins the per-class eqn-(42) guarantee: on a
  mixed two-class workload every admitted classed flow leaves its class
  in a state whose Gaussian overflow probability -- evaluated at the
  estimate the controller actually used -- stays at or below that
  class's own ``p_q``.
* A differential test: a gateway carrying one unadjusted class is
  byte-identical, decision digest and all, to today's classless gateway
  -- multi-class support must cost existing deployments nothing.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classes.factory import build_classed_gateway, mixture_parameters
from repro.classes.feed import ClassedSourceFeed
from repro.classes.policy import ClassPolicy, ClassPolicySet, make_class_source
from repro.core.gaussian import q_function, q_inverse
from repro.core.memory import critical_time_scale
from repro.runtime.feed import SourceFeed
from repro.runtime.gateway import AdmissionGateway
from repro.runtime.link import ManagedLink
from repro.runtime.metrics import MetricsRegistry
from repro.service.server import digest_record

CAPACITY = 60.0
HOLDING_TIME = 120.0


def two_class_set(p_q1, p_q2, snr1, snr2, share) -> ClassPolicySet:
    # Pre-inverted plain alphas keep scipy's root-finder out of the
    # hypothesis loop; alpha = Q^-1(p_q) makes the healthy criterion the
    # exact eqn-(42) target the property asserts against.
    return ClassPolicySet([
        ClassPolicy(
            name="a", p_q=p_q1, mean_rate=2.0, snr=snr1,
            correlation_time=1.0, share=share, alpha=q_inverse(p_q1),
        ),
        ClassPolicy(
            name="b", p_q=p_q2, mean_rate=0.8, snr=snr2,
            correlation_time=0.5, share=1.0 - share, alpha=q_inverse(p_q2),
        ),
    ])


class TestPerClassConformanceProperty:
    @given(
        p_q1=st.floats(1e-3, 0.1),
        p_q2=st.floats(1e-3, 0.1),
        snr1=st.floats(0.05, 0.8),
        snr2=st.floats(0.05, 0.8),
        share=st.floats(0.25, 0.75),
        seed=st.integers(0, 2**16),
        arrivals=st.lists(
            st.sampled_from(["a", "b"]), min_size=10, max_size=80
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_admitted_state_respects_the_class_p_q(
        self, p_q1, p_q2, snr1, snr2, share, seed, arrivals
    ):
        """Every classed admit decided on a measured target leaves class
        ``k`` with ``Q((c_k - n_k mu_k) / (sqrt(n_k) sigma_k)) <= p_q_k``.

        The occupancy after an accept is at most the controller's real-
        valued target, where the Gaussian overflow equals ``Q(alpha_k) =
        p_q_k`` exactly; fewer flows can only be safer.  This is the
        per-class ``p_f <= p_q`` criterion guarantee, checked at the
        estimate the controller actually used -- no Monte-Carlo noise.
        """
        policies = two_class_set(p_q1, p_q2, snr1, snr2, share)
        sources = {
            class_id: make_class_source(policy)
            for class_id, policy in policies.items()
        }
        feed = ClassedSourceFeed(sources, 0.5, seed=seed)
        link = ManagedLink.build(
            "link0",
            capacity=CAPACITY,
            holding_time=HOLDING_TIME,
            feed=feed,
            p_q=min(p_q1, p_q2),
            snr=max(snr1, snr2),
            correlation_time=1.0,
            mean_rate=mixture_parameters(policies, capacity=CAPACITY)["mean"],
            memory=8.0,
            registry=MetricsRegistry(),
            class_policies=policies,
        )
        bank = link.class_bank
        n_k = {"a": 0, "b": 0}
        for i, cls in enumerate(arrivals):
            decision = link.admit(0.6 * (i + 1), flow_class=cls)
            if not decision.admitted:
                continue
            n_k[cls] += 1
            if decision.reason != "target":
                continue  # bootstrap admits carry no measured target
            mu, sigma = decision.mu_hat, decision.sigma_hat
            if not (mu > 0.0 and sigma > 0.0):
                continue
            class_id = policies.class_id(cls)
            cap_k = bank.capacity_of(class_id)
            p_q = policies.policy(cls).p_q
            overflow = q_function(
                (cap_k - n_k[cls] * mu) / (math.sqrt(n_k[cls]) * sigma)
            )
            assert overflow <= p_q * (1.0 + 1e-9), (
                f"class {cls}: admitted into Q={overflow:.3e} > "
                f"p_q={p_q:.3e} at n_k={n_k[cls]}, mu={mu}, sigma={sigma}"
            )


class TestSingleClassDifferentialDigest:
    """One unadjusted class == today's classless gateway, byte for byte."""

    def single_policy(self) -> ClassPolicySet:
        return ClassPolicySet([
            ClassPolicy(
                name="only", p_q=1e-2, mean_rate=1.0, snr=0.3,
                correlation_time=1.0, share=1.0, source_kind="rcbr",
            ),
        ])

    def drive(self, gateway, flow_class) -> str:
        sha = hashlib.sha256()
        t = 0.0
        live = []
        for i in range(120):
            t += 0.25
            flow = f"f{i}"
            decision = gateway.admit(flow, t, flow_class)
            sha.update(digest_record(flow, decision))
            if decision.admitted:
                live.append(flow)
            if i % 7 == 3 and live:
                gateway.depart(live.pop(0), t)
        return sha.hexdigest()

    def drive_bursts(self, gateway, flow_class) -> str:
        """The same comparison through ``admit_many``/``depart_many``."""
        sha = hashlib.sha256()
        t = 0.0
        live = []
        for i in range(40):
            t += 1.0
            flows = [f"b{i}.{j}" for j in range(1 + (i * 7) % 9)]
            decisions = gateway.admit_many(flows, t, flow_class)
            for flow, decision in zip(flows, decisions):
                sha.update(digest_record(flow, decision))
                if decision.admitted:
                    live.append(flow)
            leaving = live[: (i * 3) % 5]
            if leaving:
                gateway.depart_many(leaving, t)
                del live[: len(leaving)]
        return sha.hexdigest()

    def twins(self):
        """A one-class classed gateway and its classless twin."""
        policies = self.single_policy()
        policy = policies.policy("only")
        seed = 11
        classed, installed = build_classed_gateway(
            policies,
            links=1,
            capacity=CAPACITY,
            holding_time=HOLDING_TIME,
            seed=seed,
        )
        assert installed.policy("only").alpha is None

        # The classless twin, assembled exactly like the factory does it
        # (same memory rule, feed period, seed and pooled parameters).
        mixture = mixture_parameters(policies, capacity=CAPACITY)
        memory = critical_time_scale(HOLDING_TIME, mixture["n"])
        registry = MetricsRegistry()
        feed = SourceFeed(
            make_class_source(policy),
            period=max(memory / 4.0, 1e-3),
            seed=seed * 1000,
        )
        link = ManagedLink.build(
            "link0",
            capacity=CAPACITY,
            holding_time=HOLDING_TIME,
            feed=feed,
            p_q=mixture["p_q"],
            snr=mixture["cv"],
            correlation_time=mixture["correlation_time"],
            mean_rate=mixture["mean"],
            memory=memory,
            registry=registry,
        )
        classless = AdmissionGateway(
            [link], placement="least-loaded", registry=registry
        )
        return classed, classless

    def test_digest_matches_the_classless_twin(self):
        classed, classless = self.twins()
        assert self.drive(classed, "only") == self.drive(classless, None)

    def test_burst_digest_matches_the_classless_twin(self):
        classed, classless = self.twins()
        assert self.drive_bursts(classed, "only") == self.drive_bursts(
            classless, None
        )

    def test_twin_classed_gateways_decide_identically(self):
        """Two classed gateways built from the same config are twins --
        the property journal replay and follower promotion rest on."""
        build = lambda: build_classed_gateway(
            self.single_policy(), links=1, capacity=CAPACITY,
            holding_time=HOLDING_TIME, seed=11,
        )[0]
        assert self.drive(build(), "only") == self.drive(build(), "only")
