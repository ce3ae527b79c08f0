"""Memoized assignments and the bounded cache behind them.

Faithful, loyal, and weighted-loyal assignments all memoize the pre-order
``≤ψ`` per knowledge base — syntax irrelevance makes the model set (or,
for weighted bases, the weight function) a perfect cache key.  They
differ only in their builders, so they are one class here,
:class:`Assignment`, over one LRU-bounded mapping with
``functools.lru_cache``-style statistics, surfaced through
``cache_info()`` on the assignments, the operators built from them, and
the E9 bench harness.  ``LoyalAssignment``, ``FaithfulAssignment`` and
``WeightedLoyalAssignment`` are its names in the paper's vocabulary.

Caches are thread-safe: lookups, insertions, and evictions run under a
per-cache lock, while builders run *outside* it (two threads missing the
same key may both build — builders are pure, so last-write-wins is
harmless — but the LRU bound and the counters stay exact).

A cache constructed with a ``name`` additionally surfaces its traffic
through the observability registry when one is active
(:mod:`repro.obs`): counters ``cache.<name>.hits`` / ``.misses`` /
``.evictions``.  ``cache_info()`` is unchanged and always available —
the registry is a second, aggregatable view, not a replacement.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, NamedTuple, Optional, TypeVar

from repro import obs
from repro.orders.preorder import TotalPreorder

__all__ = ["Assignment", "AssignmentCache", "CacheInfo", "DEFAULT_CACHE_SIZE"]

#: The bound on memoized pre-orders per assignment (and the default bound
#: of an :class:`AssignmentCache`).  Pre-orders are lazy, so an entry
#: costs only its computed keys; 256 knowledge bases is generous for
#: interactive sessions while keeping worst-case memory flat.
DEFAULT_CACHE_SIZE = 256


V = TypeVar("V")


class CacheInfo(NamedTuple):
    """A snapshot of cache statistics (shape follows ``functools.lru_cache``,
    plus an eviction counter)."""

    hits: int
    misses: int
    evictions: int
    maxsize: Optional[int]
    currsize: int


class AssignmentCache:
    """A bounded LRU mapping from hashable keys to built values.

    ``maxsize=None`` disables the bound (the pre-refactor behaviour, kept
    for callers that genuinely want unbounded memoization).

    >>> cache = AssignmentCache(maxsize=2)
    >>> cache.get_or_build("a", lambda key: key.upper())
    'A'
    >>> cache.get_or_build("a", lambda key: key.upper())
    'A'
    >>> cache.cache_info()
    CacheInfo(hits=1, misses=1, evictions=0, maxsize=2, currsize=1)
    """

    __slots__ = (
        "_data",
        "_maxsize",
        "_hits",
        "_misses",
        "_evictions",
        "_lock",
        "name",
    )

    def __init__(
        self,
        maxsize: Optional[int] = DEFAULT_CACHE_SIZE,
        name: Optional[str] = None,
    ):
        if maxsize is not None and maxsize <= 0:
            raise ValueError(f"cache maxsize must be positive or None, got {maxsize}")
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self._maxsize = maxsize
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._lock = threading.Lock()
        #: Observability name; ``cache.<name>.*`` counters when set.
        self.name = name

    def _publish(self, registry, hits: int = 0, misses: int = 0, evictions: int = 0):
        prefix = f"cache.{self.name}"
        if hits:
            registry.counter(f"{prefix}.hits").inc(hits)
        if misses:
            registry.counter(f"{prefix}.misses").inc(misses)
        if evictions:
            registry.counter(f"{prefix}.evictions").inc(evictions)

    def get_or_build(self, key: Hashable, builder: Callable[..., V]) -> V:
        """Return the cached value for ``key``, building (and caching) it
        via ``builder(key)`` on a miss.  Hits refresh LRU recency.

        The builder runs outside the cache lock, so concurrent misses on
        the same key may build twice; builders are pure, so either result
        is correct and the bound/counters stay exact.
        """
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
            else:
                self._hits += 1
                self._data.move_to_end(key)
                registry = obs.active()
                if registry is not None and self.name is not None:
                    self._publish(registry, hits=1)
                return value  # type: ignore[return-value]
        value = builder(key)
        evicted = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if self._maxsize is not None:
                while len(self._data) > self._maxsize:
                    self._data.popitem(last=False)
                    self._evictions += 1
                    evicted += 1
        registry = obs.active()
        if registry is not None and self.name is not None:
            self._publish(registry, misses=1, evictions=evicted)
        return value  # type: ignore[return-value]

    def cache_info(self) -> CacheInfo:
        """Current hit/miss/eviction counters and occupancy."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                maxsize=self._maxsize,
                currsize=len(self._data),
            )

    def clear(self) -> None:
        """Drop all entries and reset the statistics."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def __repr__(self) -> str:
        return f"AssignmentCache({self.cache_info()!r})"


class Assignment:
    """A function from knowledge bases to total pre-orders, memoized.

    Wraps a ψ ↦ ≤ψ builder and caches its pre-orders in a bounded
    :class:`AssignmentCache` keyed by the knowledge base itself — a model
    set, or a weighted base's weight function — so equivalent knowledge
    bases receive the identical pre-order by construction (faithfulness
    condition 3, loyalty condition 1).  The remaining conditions are
    properties of the builder, audited by ``check_faithful`` /
    ``check_loyal``.

    The memo holds at most :data:`DEFAULT_CACHE_SIZE` pre-orders.
    Assignments pickle as their recipe (builder and name); the memo cache
    stays home, because a worker rebuilds what it needs and lazy
    pre-orders can hold large key tables.  That is what lets the audit
    engines send operators to process-pool workers.
    """

    def __init__(self, builder: Callable[..., TotalPreorder], name: str):
        self._builder = builder
        self._cache = AssignmentCache(name=f"assignment.{name}")
        self.name = name

    @property
    def builder(self) -> Callable[..., TotalPreorder]:
        """The underlying ψ ↦ ≤ψ builder (the audit engines inspect its
        batching metadata: ``kind``, ``metric``, ``rank``)."""
        return self._builder

    def __getstate__(self):
        return {"builder": self._builder, "name": self.name}

    def __setstate__(self, state):
        self.__init__(state["builder"], state["name"])

    def order_for(self, knowledge_base) -> TotalPreorder:
        """The pre-order ``≤ψ`` for a knowledge base."""
        return self._cache.get_or_build(knowledge_base, self._builder)

    def cache_info(self) -> CacheInfo:
        """Hit/miss/eviction statistics of the memoized pre-orders."""
        return self._cache.cache_info()

    def cache_clear(self) -> None:
        """Drop all memoized pre-orders."""
        self._cache.clear()

    def __call__(self, knowledge_base) -> TotalPreorder:
        return self.order_for(knowledge_base)

    def __repr__(self) -> str:
        return f"Assignment({self.name!r})"
