"""Resource schema and vector algebra.

A :class:`ResourceSchema` names the resource dimensions tracked by a
cluster (e.g. CPU, RAM, disk).  All demand and capacity quantities in the
library are dense ``float64`` vectors whose components follow the order of
the schema, which keeps the hot paths (load accounting, objective deltas)
as plain NumPy arithmetic with no per-dimension Python dispatch.

The default schema, :data:`DEFAULT_SCHEMA`, matches the resources that a
search-engine shard stresses: CPU at peak query load, resident memory for
the hot index portion, and disk for the postings files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro._validation import as_demand_array

__all__ = ["ResourceSchema", "DEFAULT_SCHEMA", "CAPACITY_ATOL", "dominates", "safe_ratio"]

#: Absolute tolerance of every capacity comparison: placement feasibility
#: (``ClusterState.is_within_capacity``, ``fits``, ``overloaded_machines``,
#: ``Objective.is_feasible``, :func:`dominates`) and the migration
#: planner's transient check, so no layer accepts a placement or plan
#: another rejects.
CAPACITY_ATOL = 1e-9


@dataclass(frozen=True)
class ResourceSchema:
    """An ordered, immutable set of resource dimension names.

    Examples
    --------
    >>> schema = ResourceSchema(("cpu", "ram"))
    >>> schema.dims
    2
    >>> schema.index("ram")
    1
    >>> schema.vector({"ram": 2.0, "cpu": 1.0})
    array([1., 2.])
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("ResourceSchema requires at least one dimension")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate resource names: {self.names!r}")
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))

    @property
    def dims(self) -> int:
        """Number of resource dimensions."""
        return len(self.names)

    def index(self, name: str) -> int:
        """Position of dimension *name* within vectors of this schema."""
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown resource {name!r}; schema has {self.names}") from None

    def vector(self, values: Mapping[str, float] | Sequence[float] | float) -> np.ndarray:
        """Build a demand/capacity vector in schema order.

        Accepts a mapping of ``{name: quantity}`` (missing names default to
        zero), a sequence already in schema order, or a scalar broadcast to
        every dimension.
        """
        if isinstance(values, Mapping):
            unknown = set(values) - set(self.names)
            if unknown:
                raise KeyError(f"unknown resources {sorted(unknown)!r}; schema has {self.names}")
            arr = np.array([float(values.get(n, 0.0)) for n in self.names], dtype=np.float64)
            return as_demand_array("values", arr, self.dims)
        if np.isscalar(values):
            return np.full(self.dims, float(values), dtype=np.float64)  # type: ignore[arg-type]
        return as_demand_array("values", values, self.dims)

    def as_mapping(self, vec: np.ndarray) -> dict[str, float]:
        """Inverse of :meth:`vector`: label a vector's components."""
        vec = as_demand_array("vec", vec, self.dims)
        return {name: float(v) for name, v in zip(self.names, vec, strict=True)}

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return self.dims


#: Default three-dimensional schema used throughout the experiments.
DEFAULT_SCHEMA = ResourceSchema(("cpu", "ram", "disk"))


def dominates(a: np.ndarray, b: np.ndarray, *, atol: float = CAPACITY_ATOL) -> bool:
    """True when vector *a* >= *b* component-wise (within *atol*).

    Used for capacity checks: a machine with headroom ``h`` can accept a
    shard with demand ``r`` iff ``dominates(h, r)``.
    """
    return bool(np.all(np.asarray(a) - np.asarray(b) >= -atol))


def safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Element-wise ``num / den`` with 0/0 -> 0 and x/0 -> inf for x > 0.

    Utilization of a zero-capacity dimension is defined as 0 when unused
    and infinite when any demand lands on it, which makes such placements
    trivially worst-ranked rather than crashing.
    """
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros(np.broadcast_shapes(num.shape, den.shape), dtype=np.float64)
    num_b = np.broadcast_to(num, out.shape)
    den_b = np.broadcast_to(den, out.shape)
    nonzero = den_b > 0
    out[nonzero] = num_b[nonzero] / den_b[nonzero]
    out[(~nonzero) & (num_b > 0)] = np.inf
    return out
