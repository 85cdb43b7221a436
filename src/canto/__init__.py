"""CAN-bus timing laboratory.

Deterministic simulation of cyclic CAN traffic, offset-allocation
algorithms that maximize inter-frame spacing, and a time-covert
authentication channel that hides truncated MAC bits in frame delays.
"""

from canto.frame_model import CanId, FrameSpec, frame_bit_length, max_stuff_bits, transmission_time_us
from canto.scheduler import Schedule, ScheduleQuality
from canto.clock_model import ClockModel, Jitter
from canto.incanta import CovertConfig, Verifier, covert_delay, adversary_advantage, ecu_success
from canto.bus_sim import BusConfig, NodeConfig, Trace, simulate, busload
from canto.analysis import blahut_arimoto

__version__ = "0.1.0"

__all__ = [
    "CanId", "FrameSpec", "frame_bit_length", "max_stuff_bits", "transmission_time_us",
    "Schedule", "ScheduleQuality",
    "ClockModel", "Jitter",
    "CovertConfig", "Verifier", "covert_delay", "adversary_advantage", "ecu_success",
    "BusConfig", "NodeConfig", "Trace", "simulate", "busload",
    "blahut_arimoto",
    "__version__",
]
