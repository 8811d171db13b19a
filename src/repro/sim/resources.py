"""The bounded FIFO store: the kernel's one shared-resource primitive.

It follows the simpy put/get event protocol: ``store.put(item)`` and
``store.get()`` return events that processes yield on; the kernel
resolves them as capacity/items become available, in FIFO request
order.  The compute node's executor keeps the same handshake without
the request events (:mod:`repro.cluster.node`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .events import NORMAL, PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Environment

__all__ = ["StorePut", "StoreGet", "Store"]


class StorePut(Event):
    """Request to put *item* into a store."""

    __slots__ = ("item", "store")

    def __init__(self, store: "Store", item: Any) -> None:
        # Inlined Event.__init__ — put/get requests are allocated on
        # every store operation.
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.item = item
        self.store = store
        store._put_queue.append(self)
        store._trigger_events()

    def cancel(self) -> None:
        """Withdraw an unfulfilled put request."""
        if not self.triggered and self in self.store._put_queue:
            self.store._put_queue.remove(self)


class StoreGet(Event):
    """Request to take one item from a store."""

    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.store = store
        store._get_queue.append(self)
        store._trigger_events()

    def cancel(self) -> None:
        """Withdraw an unfulfilled get request."""
        if not self.triggered and self in self.store._get_queue:
            self.store._get_queue.remove(self)


class Store:
    """FIFO store of arbitrary items with optional capacity bound."""

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self.items: list[Any] = []
        self._put_queue: list[StorePut] = []
        self._get_queue: list[StoreGet] = []

    @property
    def capacity(self) -> float:
        """Maximum number of items the store holds."""
        return self._capacity

    @property
    def level(self) -> int:
        """Number of items currently stored."""
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Request to add *item*; returns the request event."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Request to remove the oldest item; returns the request event."""
        return StoreGet(self)

    def _trigger_events(self) -> None:
        # Alternate put/get fulfillment until neither side can progress.
        # It runs on every put/get, so succeed() is inlined.
        items = self.items
        capacity = self._capacity
        put_queue = self._put_queue
        get_queue = self._get_queue
        env = self.env
        progressed = True
        while progressed:
            progressed = False
            while put_queue:
                head = put_queue[0]
                if head._value is not PENDING or len(items) >= capacity:
                    break
                items.append(head.item)
                head._value = None  # succeed(); _ok is already True
                env._normal.append((env._now, NORMAL, next(env._eid), head))
                put_queue.pop(0)
                progressed = True
            while get_queue:
                head = get_queue[0]
                if head._value is not PENDING or not items:
                    break
                head._value = items.pop(0)  # succeed(item)
                env._normal.append((env._now, NORMAL, next(env._eid), head))
                get_queue.pop(0)
                progressed = True
