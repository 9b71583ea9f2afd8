"""The elastic classes the workloads deploy.

They live at module level so that ``@cpu_bound`` calls can rebuild
their implementation object inside a spawned worker process, which
imports the class by its module path.
"""

from __future__ import annotations

import hashlib
import time

from repro import ElasticObject
from repro.apps.common import ThroughputScaledService
from repro.rmi.cpu import cpu_bound


class Echo(ElasticObject):
    """Returns its argument: every microsecond is per-call overhead."""

    def __init__(self) -> None:
        super().__init__()
        self.set_min_pool_size(4)
        self.set_max_pool_size(4)

    def echo(self, text: str) -> str:
        return text


class StepService(ThroughputScaledService):
    """A 10 ms blocking handler that scales by its own rate vote.

    ``change_pool_size`` is the inherited fine-grained vote: the pool's
    measured call rate over the last burst interval divided by what one
    member serves at the target utilization.  No rate hint is written to
    the store, so the vote sees only calls the pool actually served.
    Each member runs four dispatch threads, so one member serves at most
    400 calls/s of this handler.
    """

    SERVICE_S = 0.010
    CAPACITY_PER_MEMBER = 300.0
    TARGET_UTILIZATION = 0.85
    BURST_INTERVAL_S = 0.25
    MIN_SIZE = 2
    MAX_SIZE = 8

    def __init__(self) -> None:
        super().__init__()
        self.set_min_pool_size(self.MIN_SIZE)
        self.set_max_pool_size(self.MAX_SIZE)
        self.set_burst_interval(self.BURST_INTERVAL_S)

    def work(self, token: int) -> int:
        time.sleep(self.SERVICE_S)
        return token

    @classmethod
    def needed(cls, rate: float) -> int:
        """Pool size the vote aims for at ``rate``, within the limits."""
        return max(cls.MIN_SIZE, min(cls.MAX_SIZE, cls().desired_members(rate)))


class HashService(ElasticObject):
    """sha256 of a byte payload, computed in a worker process."""

    def __init__(self) -> None:
        super().__init__()
        self.set_min_pool_size(2)
        self.set_max_pool_size(2)

    @cpu_bound
    def digest(self, blob: bytes) -> str:
        return hashlib.sha256(blob).hexdigest()
