"""The design space: points and their deterministic enumeration.

A :class:`DesignPoint` names one candidate design along the five axes the
paper's evaluation walks by hand: the workload (plus its parameterisation),
the target system, the reconfiguration time, the temporal partitioner, and
the FDH/IDH sequencing strategy.  A :class:`SearchSpace` is the cartesian
product of chosen values along those axes, with a *mixed-radix index* so the
space enumerates deterministically (``point_at(i)``), samples reproducibly
from a seeded RNG, and steps to neighbours for the local-search strategies.

Every point carries a content fingerprint (sha256 over a canonical JSON
form, floats bit-exact via ``float.hex``) — the key the run store and the
Pareto front use, stable across processes and interpreter invocations.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import ExplorationError
from ..partition.registry import check_partitioner

#: Version tag baked into every point/space fingerprint; bump when the
#: canonical form (or the meaning of a stored record) changes.
SPACE_VERSION = 1

#: Sentinel system name meaning "the workload's own default system".
WORKLOAD_DEFAULT_SYSTEM = "workload-default"


def _canonical_value(value: object) -> object:
    """JSON-stable form of an axis value (floats bit-exact)."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, (int, str)):
        return value
    return repr(value)


@dataclass(frozen=True)
class DesignPoint:
    """One candidate design: a coordinate along every search axis.

    ``params`` is a sorted tuple of ``(name, value)`` pairs so the point is
    hashable and its canonical form is insertion-order independent; use
    :meth:`create` to build one from a plain mapping.
    """

    workload: str
    params: Tuple[Tuple[str, object], ...] = ()
    system: str = WORKLOAD_DEFAULT_SYSTEM
    ct: Optional[float] = None  # reconfiguration time in seconds; None = system default
    partitioner: str = "ilp"
    sequencing: str = "idh"

    @classmethod
    def create(
        cls,
        workload: str,
        params: Optional[Mapping[str, object]] = None,
        system: str = WORKLOAD_DEFAULT_SYSTEM,
        ct: Optional[float] = None,
        partitioner: str = "ilp",
        sequencing: str = "idh",
    ) -> "DesignPoint":
        """Build a point from a plain parameter mapping (sorted internally)."""
        pairs = tuple(sorted((params or {}).items()))
        return cls(
            workload=workload,
            params=pairs,
            system=system,
            ct=ct,
            partitioner=partitioner,
            sequencing=sequencing,
        )

    def params_dict(self) -> Dict[str, object]:
        """The parameterisation as a plain dict."""
        return dict(self.params)

    def canonical_dict(self) -> Dict[str, object]:
        """Canonical (sorted, JSON-stable, bit-exact) form of this point."""
        return {
            "version": SPACE_VERSION,
            "workload": self.workload,
            "params": [[key, _canonical_value(value)] for key, value in self.params],
            "system": self.system,
            "ct": None if self.ct is None else float(self.ct).hex(),
            "partitioner": self.partitioner,
            "sequencing": self.sequencing,
        }

    def fingerprint(self) -> str:
        """Stable sha256 hex digest of the canonical form."""
        encoded = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    def to_json_dict(self) -> Dict[str, object]:
        """Plain-JSON form for the run store (round-trips via :meth:`from_json_dict`)."""
        return {
            "workload": self.workload,
            "params": [[key, value] for key, value in self.params],
            "system": self.system,
            "ct": self.ct,
            "partitioner": self.partitioner,
            "sequencing": self.sequencing,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "DesignPoint":
        """Rebuild a point from its :meth:`to_json_dict` form."""
        try:
            return cls.create(
                workload=str(data["workload"]),
                params={str(key): value for key, value in data.get("params", [])},
                system=str(data.get("system", WORKLOAD_DEFAULT_SYSTEM)),
                ct=data.get("ct"),  # type: ignore[arg-type]
                partitioner=str(data.get("partitioner", "ilp")),
                sequencing=str(data.get("sequencing", "idh")),
            )
        except (KeyError, TypeError, AttributeError) as error:
            raise ExplorationError(f"malformed design-point record: {error}") from error

    @property
    def label(self) -> str:
        """Compact human-readable identifier."""
        parts = [self.workload]
        if self.params:
            rendered = ",".join(f"{key}={value}" for key, value in self.params)
            parts[0] = f"{self.workload}[{rendered}]"
        if self.system != WORKLOAD_DEFAULT_SYSTEM:
            parts.append(self.system)
        if self.ct is not None:
            parts.append(f"ct={self.ct * 1e3:g}ms")
        parts.append(self.partitioner)
        parts.append(self.sequencing)
        return "/".join(parts)


@dataclass(frozen=True)
class SearchSpace:
    """The cartesian product of axis values, with deterministic indexing.

    Axes (in index order, slowest-varying first): workload variants, target
    systems, reconfiguration times, partitioners, sequencing strategies.
    ``workloads`` pairs each workload name with one parameterisation; a
    swept workload contributes one entry per variant.
    """

    workloads: Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...]
    systems: Tuple[str, ...] = (WORKLOAD_DEFAULT_SYSTEM,)
    ct_values: Tuple[Optional[float], ...] = (None,)
    partitioners: Tuple[str, ...] = ("ilp",)
    sequencings: Tuple[str, ...] = ("idh",)
    #: Per-axis value lists in index order, derived once in __post_init__.
    _axes: Tuple[Tuple[object, ...], ...] = field(
        default=(), repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name, values in (
            ("workloads", self.workloads),
            ("systems", self.systems),
            ("ct_values", self.ct_values),
            ("partitioners", self.partitioners),
            ("sequencings", self.sequencings),
        ):
            if not values:
                raise ExplorationError(f"search-space axis {name!r} must not be empty")
            if len(set(values)) != len(values):
                raise ExplorationError(
                    f"search-space axis {name!r} contains duplicate values"
                )
        # A bad partitioner or sequencing would only surface as failed
        # records once the run is under way, so both are caught here.
        from ..fission.strategies import SequencingStrategy

        for partitioner in self.partitioners:
            check_partitioner(partitioner, ExplorationError)
        known = {strategy.value for strategy in SequencingStrategy}
        unknown = [value for value in self.sequencings if value not in known]
        if unknown:
            raise ExplorationError(
                f"unknown sequencing strategies {unknown}; known: {sorted(known)}"
            )
        object.__setattr__(
            self,
            "_axes",
            (
                tuple(self.workloads),
                tuple(self.systems),
                tuple(self.ct_values),
                tuple(self.partitioners),
                tuple(self.sequencings),
            ),
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def for_workloads(
        cls,
        names: Sequence[str],
        variants: bool = False,
        systems: Sequence[str] = (WORKLOAD_DEFAULT_SYSTEM,),
        ct_values: Sequence[Optional[float]] = (None,),
        partitioners: Sequence[str] = ("ilp",),
        sequencings: Sequence[str] = ("idh",),
    ) -> "SearchSpace":
        """Build a space over registered workloads (optionally their sweeps)."""
        from ..workloads import get_workload

        axis: List[Tuple[str, Tuple[Tuple[str, object], ...]]] = []
        for name in names:
            workload = get_workload(name)
            if variants:
                for variant in workload.variants():
                    axis.append((workload.name, tuple(sorted(variant.params.items()))))
            else:
                axis.append(
                    (workload.name, tuple(sorted(workload.default_params.items())))
                )
        return cls(
            workloads=tuple(axis),
            systems=tuple(systems),
            ct_values=tuple(ct_values),
            partitioners=tuple(partitioners),
            sequencings=tuple(sequencings),
        )

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of distinct points in the space."""
        total = 1
        for axis in self._axes:
            total *= len(axis)
        return total

    def __len__(self) -> int:
        return self.size

    def point_at(self, index: int) -> DesignPoint:
        """The point at mixed-radix *index* (0-based, deterministic)."""
        if not 0 <= index < self.size:
            raise ExplorationError(f"point index {index} outside 0..{self.size - 1}")
        coordinates: List[int] = []
        remainder = index
        for axis in reversed(self._axes):
            coordinates.append(remainder % len(axis))
            remainder //= len(axis)
        coordinates.reverse()
        return self._point_from_coordinates(coordinates)

    def _point_from_coordinates(self, coordinates: Sequence[int]) -> DesignPoint:
        workload_name, params = self.workloads[coordinates[0]]
        return DesignPoint(
            workload=workload_name,
            params=params,
            system=self.systems[coordinates[1]],
            ct=self.ct_values[coordinates[2]],
            partitioner=self.partitioners[coordinates[3]],
            sequencing=self.sequencings[coordinates[4]],
        )

    def coordinates_of(self, point: DesignPoint) -> Tuple[int, ...]:
        """Per-axis indices of *point* (raising when not in the space)."""
        try:
            return (
                self.workloads.index((point.workload, point.params)),
                self.systems.index(point.system),
                self.ct_values.index(point.ct),
                self.partitioners.index(point.partitioner),
                self.sequencings.index(point.sequencing),
            )
        except ValueError:
            raise ExplorationError(
                f"design point {point.label!r} is not in this search space"
            )

    def index_of(self, point: DesignPoint) -> int:
        """The mixed-radix index of *point*."""
        index = 0
        for coordinate, axis in zip(self.coordinates_of(point), self._axes):
            index = index * len(axis) + coordinate
        return index

    def enumerate(self) -> Iterator[DesignPoint]:
        """Every point, in deterministic index order."""
        for index in range(self.size):
            yield self.point_at(index)

    # ------------------------------------------------------------------
    # Sampling and neighbourhoods
    # ------------------------------------------------------------------

    def random_point(self, rng: random.Random) -> DesignPoint:
        """One uniformly sampled point (reproducible given the RNG state)."""
        return self.point_at(rng.randrange(self.size))

    def neighbours(
        self, point: DesignPoint, rng: random.Random, count: int = 1
    ) -> List[DesignPoint]:
        """Up to *count* distinct single-axis mutations of *point*.

        Ordered numeric axes (the reconfiguration times) step to an adjacent
        value; categorical axes jump to a uniformly chosen different value.
        A point whose every axis is singleton has no neighbours.
        """
        coordinates = list(self.coordinates_of(point))
        mutable = [i for i, axis in enumerate(self._axes) if len(axis) > 1]
        if not mutable:
            return []
        seen = {tuple(coordinates)}
        found: List[DesignPoint] = []
        attempts = 0
        limit = max(16, 8 * count)
        while len(found) < count and attempts < limit:
            attempts += 1
            axis_index = rng.choice(mutable)
            axis = self._axes[axis_index]
            candidate = list(coordinates)
            if axis_index == 2:  # CT axis: ordered, step to an adjacent value
                step = rng.choice((-1, 1))
                candidate[axis_index] = min(
                    len(axis) - 1, max(0, coordinates[axis_index] + step)
                )
            else:
                candidate[axis_index] = rng.randrange(len(axis))
            key = tuple(candidate)
            if key in seen:
                continue
            seen.add(key)
            found.append(self._point_from_coordinates(candidate))
        return found

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def canonical_dict(self) -> Dict[str, object]:
        """Canonical (JSON-stable) description of the whole space."""
        return {
            "version": SPACE_VERSION,
            "workloads": [
                [name, [[key, _canonical_value(value)] for key, value in params]]
                for name, params in self.workloads
            ],
            "systems": list(self.systems),
            "ct_values": [
                None if ct is None else float(ct).hex() for ct in self.ct_values
            ],
            "partitioners": list(self.partitioners),
            "sequencings": list(self.sequencings),
        }

    def fingerprint(self) -> str:
        """Stable sha256 hex digest of the canonical space description."""
        encoded = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    def to_json_dict(self) -> Dict[str, object]:
        """Plain-JSON form of the space (round-trips via :meth:`from_json_dict`).

        Unlike :meth:`canonical_dict` (fingerprint material, floats as hex)
        this keeps values as native JSON so a remote worker can rebuild the
        exact space — Python's JSON float round-trip is exact, so the
        rebuilt space has an identical :meth:`fingerprint`.
        """
        return {
            "workloads": [
                [name, [[key, value] for key, value in params]]
                for name, params in self.workloads
            ],
            "systems": list(self.systems),
            "ct_values": list(self.ct_values),
            "partitioners": list(self.partitioners),
            "sequencings": list(self.sequencings),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "SearchSpace":
        """Rebuild a space from its :meth:`to_json_dict` form."""
        try:
            return cls(
                workloads=tuple(
                    (
                        str(name),
                        tuple((str(key), value) for key, value in params),
                    )
                    for name, params in data["workloads"]  # type: ignore[union-attr]
                ),
                systems=tuple(str(system) for system in data["systems"]),  # type: ignore[union-attr]
                ct_values=tuple(
                    None if ct is None else float(ct)
                    for ct in data["ct_values"]  # type: ignore[union-attr]
                ),
                partitioners=tuple(
                    str(name) for name in data["partitioners"]  # type: ignore[union-attr]
                ),
                sequencings=tuple(
                    str(name) for name in data["sequencings"]  # type: ignore[union-attr]
                ),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ExplorationError(
                f"malformed search-space record: {error}"
            ) from error

    def describe(self) -> str:
        """One-line human readable summary."""
        return (
            f"search space of {self.size} points: {len(self.workloads)} workload "
            f"variant(s) x {len(self.systems)} system(s) x {len(self.ct_values)} "
            f"CT value(s) x {len(self.partitioners)} partitioner(s) x "
            f"{len(self.sequencings)} sequencing(s)"
        )
