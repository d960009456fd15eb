"""Collision auditing (Appendix B.1).

The detection algorithms assume the hash is collision-free.  The paper adds
an optional mode that stores a copy of every transferred payload and checks,
for each hash value, that all payloads mapping to it are identical.  This is
exactly what :class:`CollisionAuditor` does; it is used by the hash-quality
tests and can be attached to the collector for paranoid runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hashing.base import BytesLike, Hasher, as_bytes


@dataclass(frozen=True)
class CollisionRecord:
    """Two distinct payloads that hashed to the same value."""

    hash_value: int
    first_payload: bytes
    second_payload: bytes

    def __post_init__(self) -> None:
        if self.first_payload == self.second_payload:
            raise ValueError("a collision requires two distinct payloads")


@dataclass
class CollisionAuditor:
    """Stores payload copies keyed by hash value and reports collisions.

    This trades "extremely high memory overhead" (the paper's words) for
    certainty: when enabled, every unique payload is retained.  Identical
    payloads are deduplicated, so repeated transfers of the same data — the
    common case in the traces we audit — do not grow memory further.
    """

    hasher: Hasher
    _payloads: dict[int, bytes] = field(default_factory=dict, init=False, repr=False)
    collisions: list[CollisionRecord] = field(default_factory=list, init=False)
    observed: int = field(default=0, init=False)
    stored_bytes: int = field(default=0, init=False)

    def observe(self, data: BytesLike, seed: int = 0) -> int:
        """Hash a payload, recording it for collision checking.

        Returns the hash value so the auditor can be used as a drop-in
        wrapper around the hasher.
        """
        payload = as_bytes(data)
        value = self.hasher.hash_bytes(payload, seed)
        self.observed += 1
        existing = self._payloads.get(value)
        if existing is None:
            self._payloads[value] = payload
            self.stored_bytes += len(payload)
        elif existing != payload:
            self.collisions.append(
                CollisionRecord(hash_value=value, first_payload=existing, second_payload=payload)
            )
        return value

    @property
    def num_unique_payloads(self) -> int:
        return len(self._payloads)

    @property
    def num_collisions(self) -> int:
        return len(self.collisions)

    def is_collision_free(self) -> bool:
        return not self.collisions

    def report(self) -> dict:
        return {
            "hasher": self.hasher.name,
            "observed": self.observed,
            "unique_payloads": self.num_unique_payloads,
            "stored_bytes": self.stored_bytes,
            "collisions": self.num_collisions,
        }
