"""Warp states.

A warp is the primary execution unit: 32 scalar threads in SIMT lockstep.
Each warp executes a pre-generated *trace* of ops, held as flat columns
(:mod:`repro.workloads.trace`).  An op bundles the compute cycles
leading up to one (coalesced) memory instruction with the byte addresses
the instruction touches.  The simulator advances a warp op-by-op; a warp
stalls when any page it touches is not resident in GPU memory (Section
2.2: "A warp is stalled once it generates a page fault").  Warp state
itself lives in struct-of-arrays form (:mod:`repro.gpu.warp_soa`).
"""

from __future__ import annotations

import enum

from repro.lifecycle import WARP_LIFECYCLE


class WarpState(enum.Enum):
    READY = "ready"          # runnable, next op not yet scheduled
    RUNNING = "running"      # op event in flight
    STALLED = "stalled"      # waiting on one or more page faults
    SUSPENDED = "suspended"  # block context-switched out (TO)
    FINISHED = "finished"


# The declared machine is the single source of truth for warp states;
# this enum (and the warp store's integer codes) must mirror it exactly.
assert tuple(s.value for s in WarpState) == WARP_LIFECYCLE.states
