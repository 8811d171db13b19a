"""Discrete-event simulation kernel (in-tree simpy substitute).

The kernel provides:

- :class:`Environment` — clock, event calendar, one run loop;
- :class:`Event`, :class:`Timeout`, :class:`AnyOf`, :class:`AllOf` —
  synchronization primitives;
- :class:`Call` — a kernel entry that calls one function, for parties
  driven by callbacks instead of a process;
- :class:`Process` — generator-based simulated processes with interrupts;
- :class:`Store` — a bounded FIFO store with put/get request events;
- :class:`RandomStreams` — reproducible named RNG streams.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> def clock(env, out):
...     while env.now < 3:
...         out.append(env.now)
...         yield env.timeout(1)
>>> ticks = []
>>> _ = env.process(clock(env, ticks))
>>> env.run()
>>> ticks
[0.0, 1.0, 2.0]
"""

from .._lazy import lazy_exports

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Call",
    "Condition",
    "ConditionValue",
    "AnyOf",
    "AllOf",
    "PENDING",
    "NORMAL",
    "URGENT",
    "Process",
    "ProcessGenerator",
    "Interrupt",
    "EmptySchedule",
    "SimulationError",
    "StopSimulation",
    "Store",
    "RandomStreams",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core": ("Environment", "NORMAL", "URGENT"),
        ".events": (
            "AllOf",
            "AnyOf",
            "Call",
            "Condition",
            "ConditionValue",
            "Event",
            "PENDING",
            "Timeout",
        ),
        ".exceptions": (
            "EmptySchedule",
            "Interrupt",
            "SimulationError",
            "StopSimulation",
        ),
        ".process": ("Process", "ProcessGenerator"),
        ".resources": ("Store",),
        ".rng": ("RandomStreams",),
    },
)
