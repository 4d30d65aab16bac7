"""Golden digest of the classed burst path.

A seeded drive of class-pure ``admit_many`` bursts and classless
``depart_many`` bursts over ``build_classed_gateway(links=4,
adjust=True)`` -- the gateway and traffic shape of the
``served-burst-classed`` benchmark workload, in process and at a fixed
seed.  The decision digest is committed below, so any change to how a
classed burst is decided (per-class estimate, capacity share, adjusted
eqn-(42) target, accept-prefix walk, occupancy accounting) fails here.
"""

import hashlib
import random

import pytest

from repro.classes.factory import build_classed_gateway, mixture_parameters
from repro.classes.policy import default_class_policies
from repro.runtime.observability import digest_record

GOLDEN_DIGEST = (
    "dfd333ced401df9d1fe3cbc31174bddd3ecca84a4103d129834a09e055be3195"
)

SEED = 7
LINKS = 4
CAPACITY = 400.0
HOLDING_TIME = 500.0
#: Offered load over the gateway's nominal flow capacity.
LOAD = 1.1
#: Mean arrivals per burst window.
BURST = 64
WINDOWS = 90


def drive(seed: int = SEED):
    """Run the seeded burst schedule; returns (digest, per-class counts)."""
    policies = default_class_policies()
    gateway, _ = build_classed_gateway(
        policies, links=LINKS, capacity=CAPACITY, holding_time=HOLDING_TIME,
        adjust=True, seed=seed,
    )
    # Classes arrive in proportion to the flows each carries when it
    # fills its capacity share.
    weights = {
        policy.name: policy.share * CAPACITY / policy.mean_rate
        for _, policy in policies.items()
    }
    names = list(weights)
    flows = LINKS * mixture_parameters(policies, capacity=CAPACITY)["n"]
    rate = LOAD * flows / HOLDING_TIME
    window = BURST / rate

    rng = random.Random(seed)
    sha = hashlib.sha256()
    counts = {name: {"admitted": 0, "rejected": 0} for name in names}
    ends: dict[str, float] = {}
    arrival = rng.expovariate(rate)
    seq = 0
    for w in range(1, WINDOWS + 1):
        now = w * window
        leaving = sorted(f for f, end in ends.items() if end <= now)
        if leaving:
            gateway.depart_many(leaving, now)
            for flow in leaving:
                del ends[flow]
        bursts: dict[str, list[str]] = {name: [] for name in names}
        while arrival <= now:
            cls = rng.choices(names, weights=[weights[n] for n in names])[0]
            bursts[cls].append(f"c{seq}")
            seq += 1
            arrival += rng.expovariate(rate)
        for cls in names:
            burst = bursts[cls]
            if not burst:
                continue
            for flow, decision in zip(
                burst, gateway.admit_many(burst, now, cls)
            ):
                sha.update(digest_record(flow, decision))
                if decision.admitted:
                    counts[cls]["admitted"] += 1
                    ends[flow] = now + rng.expovariate(1.0 / HOLDING_TIME)
                else:
                    counts[cls]["rejected"] += 1
    return sha.hexdigest(), counts


@pytest.fixture(scope="module")
def golden_run():
    return drive()


class TestClassedBurstGolden:
    def test_matches_committed_digest(self, golden_run):
        digest, _ = golden_run
        assert digest == GOLDEN_DIGEST, (
            "classed burst decisions changed: the digest diverged from "
            "the committed golden value"
        )

    def test_drive_exercises_every_class(self, golden_run):
        _, counts = golden_run
        for name, c in counts.items():
            assert c["admitted"] > 0, name
            assert c["rejected"] > 0, name
