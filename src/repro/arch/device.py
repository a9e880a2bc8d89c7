"""FPGA device models.

The temporal partitioner only needs two facts about the reconfigurable device:
its resource capacity ``R_max`` (the paper uses CLB count) and the time it
takes to load a new configuration, ``CT``.  The HLS estimator additionally
needs to know the device family so it can pick the right component
characterisation, and the achievable clock range so it can validate the user's
clock constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..errors import ArchitectureError
from ..units import as_integer, ns


@dataclass(frozen=True)
class ResourceVector:
    """A bag of named FPGA resources (CLBs, function generators, DSP blocks...).

    The paper's model uses a single resource type (CLBs) but notes that
    "similar equations can be added if multiple resource types exist"; the
    partitioner therefore works with arbitrary named resources.  Amounts
    are integers: a ``bool`` or ``float`` raises :class:`ArchitectureError`
    and a numpy integer is stored as a plain ``int``.
    """

    amounts: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for amount in self.amounts.values():
            if type(amount) is not int or amount < 0:
                break
        else:
            return  # plain non-negative ints: the common case
        amounts = {
            name: as_integer(amount, f"resource {name!r} amount", ArchitectureError)
            for name, amount in self.amounts.items()
        }
        for name, amount in amounts.items():
            if amount < 0:
                raise ArchitectureError(
                    f"resource {name!r} has negative amount {amount}"
                )
        object.__setattr__(self, "amounts", amounts)

    def get(self, name: str, default: int = 0) -> int:
        """Amount of resource *name*, or *default* if not present."""
        return self.amounts.get(name, default)

    def __getitem__(self, name: str) -> int:
        return self.amounts.get(name, 0)

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        names = set(self.amounts) | set(other.amounts)
        return ResourceVector({n: self[n] + other[n] for n in names})

    @classmethod
    def total(cls, vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        """The sum of *vectors*, equal to ``sum(vectors, ResourceVector({}))``:
        each kind is added up in plain ints, and one vector is built at
        the end rather than one per addition."""
        amounts: Dict[str, int] = {}
        for vector in vectors:
            for name, amount in vector.amounts.items():
                amounts[name] = amounts.get(name, 0) + amount
        return cls(amounts)

    def __mul__(self, factor: int) -> "ResourceVector":
        return ResourceVector({n: a * factor for n, a in self.amounts.items()})

    __rmul__ = __mul__

    def fits_within(self, capacity: "ResourceVector") -> bool:
        """Whether every resource amount is within *capacity*."""
        return all(self[name] <= capacity[name] for name in self.amounts)

    def dominant_utilization(self, capacity: "ResourceVector") -> float:
        """Largest per-resource utilisation fraction against *capacity*.

        Returns ``inf`` when a resource is used that *capacity* does not
        provide at all.
        """
        worst = 0.0
        for name, amount in self.amounts.items():
            if amount == 0:
                continue
            available = capacity[name]
            if available == 0:
                return float("inf")
            worst = max(worst, amount / available)
        return worst

    def names(self):
        """Resource names present in this vector."""
        return tuple(sorted(self.amounts))

    def as_dict(self) -> Dict[str, int]:
        """A plain-dict copy of the resource amounts."""
        return dict(self.amounts)


#: Conventional name of the paper's single resource type.
CLB = "clb"


def clbs(count: int) -> ResourceVector:
    """Convenience constructor for a CLB-only resource vector."""
    return ResourceVector({CLB: count})


@dataclass(frozen=True)
class FpgaDevice:
    """A single SRAM-based FPGA that can be run-time reconfigured.

    Parameters
    ----------
    name:
        Human-readable device name, e.g. ``"XC4044"``.
    family:
        Device family used by the component library to pick characterisation
        data, e.g. ``"xc4000"`` or ``"xc6200"``.
    capacity:
        Resource capacity :class:`ResourceVector`; the paper's ``R_max``.
    reconfiguration_time:
        Full-device reconfiguration time ``CT`` in seconds.
    min_clock_period / max_clock_period:
        The achievable clock-period range in seconds.  Designs requesting a
        clock outside this range are rejected by the estimator.
    """

    name: str
    family: str
    capacity: ResourceVector
    reconfiguration_time: float
    min_clock_period: float = ns(10)
    max_clock_period: float = ns(1000)

    def __post_init__(self) -> None:
        if self.reconfiguration_time < 0:
            raise ArchitectureError(
                f"reconfiguration time must be non-negative, got "
                f"{self.reconfiguration_time}"
            )
        if self.min_clock_period <= 0 or self.max_clock_period <= 0:
            raise ArchitectureError("clock periods must be positive")
        if self.min_clock_period > self.max_clock_period:
            raise ArchitectureError(
                "min_clock_period must not exceed max_clock_period"
            )
        if not self.capacity.amounts:
            raise ArchitectureError(f"device {self.name!r} declares no resources")

    @property
    def clb_count(self) -> int:
        """CLB capacity (0 when the device uses a different resource type)."""
        return self.capacity[CLB]

    def supports_clock_period(self, period: float) -> bool:
        """Whether a clock period (seconds) is achievable on this device."""
        return self.min_clock_period <= period <= self.max_clock_period

    def with_reconfiguration_time(self, reconfiguration_time: float) -> "FpgaDevice":
        """A copy of this device with a different reconfiguration time.

        Used by the reconfiguration-overhead sweeps (e.g. the paper's XC6000
        conjecture, which re-evaluates the same design at CT = 500 us).
        """
        return FpgaDevice(
            name=self.name,
            family=self.family,
            capacity=self.capacity,
            reconfiguration_time=reconfiguration_time,
            min_clock_period=self.min_clock_period,
            max_clock_period=self.max_clock_period,
        )

    def describe(self) -> str:
        """One-line human readable summary."""
        resources = ", ".join(
            f"{amount} {name}" for name, amount in sorted(self.capacity.amounts.items())
        )
        return (
            f"{self.name} ({self.family}): {resources}, "
            f"CT={self.reconfiguration_time * 1e3:.3f} ms"
        )


def make_device(
    name: str,
    clb_capacity: int,
    reconfiguration_time: float,
    family: str = "generic",
    min_clock_period: float = ns(10),
    max_clock_period: float = ns(1000),
    extra_resources: Optional[Dict[str, int]] = None,
) -> FpgaDevice:
    """Build an :class:`FpgaDevice` from scalar parameters.

    This is the most common entry point for users defining a custom device:

    >>> dev = make_device("MyFPGA", clb_capacity=1200, reconfiguration_time=0.05)
    >>> dev.clb_count
    1200
    """
    amounts = {CLB: clb_capacity}
    if extra_resources:
        amounts.update(extra_resources)
    return FpgaDevice(
        name=name,
        family=family,
        capacity=ResourceVector(amounts),
        reconfiguration_time=reconfiguration_time,
        min_clock_period=min_clock_period,
        max_clock_period=max_clock_period,
    )
