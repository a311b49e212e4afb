"""Distance replacement: choosing which block leaves a d-group.

Distance replacement is the paper's second decoupling (§2.2): it picks
a *frame* within a d-group whose occupant will be demoted one group
outward — it never evicts from the cache.  The selection pool is the
whole d-group (thousands of frames), which is why the paper evaluates
random selection against true LRU (§5.3.1): random is hardware-trivial
and the promotion policy repairs its mistakes.

:class:`DistanceReplacer` keeps one victim selector per (d-group,
region); regions are the §2.4.3 pointer-restriction granularity and
collapse to one per d-group in the default fully-flexible design.

State is flat and indexed by dense frame number.  Each d-group owns a
``frame -> position`` list (-1 = untracked) shared by its regions'
selectors, since a frame belongs to exactly one region.  The selectors
make the same choices, step for step, as the generic policies of
:mod:`repro.common.lru` they replace: the same swap-remove key order,
the same RNG draws, the same clock sweep, the same recency order (the
tests check this against those policies).  Snapshots are tuples of
lists, so prewarm restore is a handful of slice copies.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import DeterministicRNG
from repro.nurapid.config import DistanceReplacementKind


class _SwapRemoveFrames:
    """One region's tracked frames: a swap-remove key list.

    Positions live in the d-group's shared ``frame -> position`` list.
    """

    __slots__ = ("keys", "pos")

    def __init__(self, pos: List[int]) -> None:
        self.keys: List[int] = []
        self.pos = pos

    def insert(self, frame: int) -> None:
        if self.pos[frame] >= 0:
            raise SimulationError(f"duplicate insert of frame {frame}")
        self.pos[frame] = len(self.keys)
        self.keys.append(frame)

    def insert_many(self, frames: Sequence[int]) -> None:
        pos = self.pos
        for at, frame in enumerate(frames, len(self.keys)):
            if pos[frame] >= 0:
                raise SimulationError(f"duplicate insert of frame {frame}")
            pos[frame] = at
        self.keys.extend(frames)

    def _check(self, frame: int) -> None:
        if self.pos[frame] < 0:
            raise SimulationError(f"touch of untracked frame {frame}")

    def remove(self, frame: int) -> None:
        pos = self.pos
        at = pos[frame]
        if at < 0:
            raise SimulationError(f"remove of untracked frame {frame}")
        pos[frame] = -1
        keys = self.keys
        last = keys.pop()
        if last != frame:
            keys[at] = last
            pos[last] = at

    def __len__(self) -> int:
        return len(self.keys)


class _RandomFrames(_SwapRemoveFrames):
    """Uniform-random victim, drawn from this selector's own stream.

    A peeked victim is held until its frame is touched or removed.
    """

    __slots__ = ("rng", "pending")

    def __init__(self, pos: List[int], rng: DeterministicRNG) -> None:
        super().__init__(pos)
        self.rng = rng
        #: Peeked victim frame, -1 = none.
        self.pending = -1

    def touch(self, frame: int) -> None:
        self._check(frame)
        # Random selection ignores recency, but a touch cancels a
        # previously peeked victim choice.
        if self.pending == frame:
            self.pending = -1

    def remove(self, frame: int) -> None:
        super().remove(frame)
        if self.pending == frame:
            self.pending = -1

    def victim(self) -> int:
        keys = self.keys
        if not keys:
            raise SimulationError("victim() on an empty d-group region")
        pending = self.pending
        if pending < 0 or self.pos[pending] < 0:
            pending = self.pending = keys[self.rng.randint(0, len(keys) - 1)]
        return pending

    def state(self) -> tuple:
        return (list(self.keys), self.pending)

    def load(self, state: tuple) -> None:
        keys, self.pending = state
        self.keys[:] = keys


class _ApproxLRUFrames(_SwapRemoveFrames):
    """One-bit clock (second chance), reference bits per frame."""

    __slots__ = ("ref", "hand")

    def __init__(self, pos: List[int], ref: List[int]) -> None:
        super().__init__(pos)
        self.ref = ref
        self.hand = 0

    def insert(self, frame: int) -> None:
        super().insert(frame)
        self.ref[frame] = 1

    def insert_many(self, frames: Sequence[int]) -> None:
        super().insert_many(frames)
        for frame in frames:
            self.ref[frame] = 1

    def touch(self, frame: int) -> None:
        self._check(frame)
        self.ref[frame] = 1

    def remove(self, frame: int) -> None:
        super().remove(frame)
        self.ref[frame] = 0
        if self.hand >= len(self.keys):
            self.hand = 0

    def victim(self) -> int:
        keys = self.keys
        if not keys:
            raise SimulationError("victim() on an empty d-group region")
        ref = self.ref
        # Sweep at most two full revolutions: the first may clear every
        # reference bit, the second must then find a clear one.
        for _ in range(2 * len(keys)):
            frame = keys[self.hand]
            if ref[frame]:
                ref[frame] = 0
                self.hand = (self.hand + 1) % len(keys)
            else:
                return frame
        return keys[self.hand]

    def state(self) -> tuple:
        return (list(self.keys), self.hand)

    def load(self, state: tuple) -> None:
        keys, self.hand = state
        self.keys[:] = keys


class _LRUFrames:
    """True LRU over one region's frames, in dict insertion order.

    Most recently used frames live at the back, so the victim is the
    first key; every operation is O(1).
    """

    __slots__ = ("order",)

    def __init__(self) -> None:
        self.order: Dict[int, None] = {}

    def insert(self, frame: int) -> None:
        if frame in self.order:
            raise SimulationError(f"duplicate insert of frame {frame}")
        self.order[frame] = None

    def insert_many(self, frames: Sequence[int]) -> None:
        order = self.order
        before = len(order)
        order.update(dict.fromkeys(frames))
        if len(order) != before + len(frames):
            raise SimulationError("duplicate frame in insert_many")

    def touch(self, frame: int) -> None:
        try:
            del self.order[frame]
        except KeyError:
            raise SimulationError(f"touch of untracked frame {frame}") from None
        self.order[frame] = None

    def remove(self, frame: int) -> None:
        try:
            del self.order[frame]
        except KeyError:
            raise SimulationError(f"remove of untracked frame {frame}") from None

    def victim(self) -> int:
        try:
            return next(iter(self.order))
        except StopIteration:
            raise SimulationError("victim() on an empty d-group region") from None

    def state(self) -> Dict[int, None]:
        return dict(self.order)

    def load(self, state: Dict[int, None]) -> None:
        self.order.clear()
        self.order.update(state)

    def __len__(self) -> int:
        return len(self.order)


class DistanceReplacer:
    """Victim selection over frames, per d-group and region."""

    def __init__(
        self,
        frames_per_dgroup: Sequence[int],
        n_regions: int,
        kind: DistanceReplacementKind,
        rng: DeterministicRNG,
    ) -> None:
        n_dgroups = len(frames_per_dgroup)
        if n_dgroups <= 0 or n_regions <= 0:
            raise ConfigurationError("d-group and region counts must be positive")
        self.n_dgroups = n_dgroups
        self.n_regions = n_regions
        self.kind = kind
        #: Per d-group, frame -> position in its region's key list.
        self._pos: List[List[int]] = [[-1] * n for n in frames_per_dgroup]
        #: Per d-group, frame -> clock reference bit (approx-LRU only).
        self._ref: List[List[int]] = (
            [[0] * n for n in frames_per_dgroup]
            if kind is DistanceReplacementKind.APPROX_LRU
            else []
        )
        self._policies = [
            [self._make(g, rng.spawn(f"dg{g}/r{r}")) for r in range(n_regions)]
            for g in range(n_dgroups)
        ]

    def _make(self, dgroup: int, rng: DeterministicRNG):
        kind = self.kind
        if kind is DistanceReplacementKind.RANDOM:
            return _RandomFrames(self._pos[dgroup], rng)
        if kind is DistanceReplacementKind.APPROX_LRU:
            return _ApproxLRUFrames(self._pos[dgroup], self._ref[dgroup])
        if kind is DistanceReplacementKind.LRU:
            return _LRUFrames()
        raise ConfigurationError(f"unknown distance replacement {kind!r}")

    def _policy(self, dgroup: int, region: int):
        if not 0 <= dgroup < self.n_dgroups:
            raise ConfigurationError(f"d-group {dgroup} out of range")
        if not 0 <= region < self.n_regions:
            raise ConfigurationError(f"region {region} out of range")
        return self._policies[dgroup][region]

    def insert(self, dgroup: int, region: int, frame: int) -> None:
        """Track a newly occupied frame (as most recently used)."""
        self._policy(dgroup, region).insert(frame)

    def insert_many(self, dgroup: int, region: int, frames: List[int]) -> None:
        """Track ``frames`` in order; equivalent to ``insert`` per frame."""
        self._policy(dgroup, region).insert_many(frames)

    def remove(self, dgroup: int, region: int, frame: int) -> None:
        """Stop tracking a frame whose occupant left the d-group."""
        self._policy(dgroup, region).remove(frame)

    def touch(self, dgroup: int, region: int, frame: int) -> None:
        """Record a hit on a frame's occupant."""
        self._policy(dgroup, region).touch(frame)

    def select_victim(self, dgroup: int, region: int) -> int:
        """Choose the frame whose occupant will be demoted.

        The frame stays tracked; the cache moves occupants around and
        then calls :meth:`remove`/:meth:`insert` to reflect the moves.
        """
        return self._policy(dgroup, region).victim()

    def tracked(self, dgroup: int, region: int) -> int:
        """Occupied-frame count seen by the selector (invariant checks)."""
        return len(self._policy(dgroup, region))

    def touchers(self) -> List[List[object]]:
        """Bound ``touch`` per (d-group, region), for the hit path.

        Valid for the replacer's lifetime: :meth:`restore` mutates the
        selectors in place.
        """
        return [[policy.touch for policy in row] for row in self._policies]

    def snapshot(self) -> tuple:
        """Copy of the tracking state (never the RNG streams)."""
        return (
            [list(pos) for pos in self._pos],
            [list(ref) for ref in self._ref],
            [[policy.state() for policy in row] for row in self._policies],
        )

    def restore(self, snapshot: tuple) -> None:
        """Install a :meth:`snapshot` in place (copying it).

        Each selector keeps its own identically seeded RNG stream, which
        a snapshot taken before any draw leaves untouched.
        """
        pos_lists, ref_lists, states = snapshot
        for live, saved in zip(self._pos, pos_lists):
            live[:] = saved
        for live, saved in zip(self._ref, ref_lists):
            live[:] = saved
        for row, saved_row in zip(self._policies, states):
            for policy, state in zip(row, saved_row):
                policy.load(state)
