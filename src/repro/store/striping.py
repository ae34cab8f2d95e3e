"""Chunk placement policies.

The manager stripes a new file's chunks across benefactors.  Round-robin is
the paper's default; local-first prefers a benefactor co-located with the
requesting client (the L-SSD configurations), falling back to round-robin
for chunks beyond the local contribution.
"""

from __future__ import annotations

import abc

from repro.errors import ReplicationError, StoreError
from repro.store.benefactor import Benefactor


class StripingPolicy(abc.ABC):
    """Chooses a benefactor for each chunk of a new file."""

    @abc.abstractmethod
    def place(
        self,
        benefactors: list[Benefactor],
        num_chunks: int,
        chunk_size: int,
        client: str,
    ) -> list[Benefactor]:
        """A benefactor per chunk index, honouring available space."""

    def place_replicas(
        self,
        benefactors: list[Benefactor],
        num_chunks: int,
        chunk_size: int,
        client: str,
        replication: int = 2,
    ) -> list[list[Benefactor]]:
        """Replica groups per chunk index: ``replication`` *distinct*
        benefactors each, the policy-preferred one first.

        Capacity is accounted per replica — every copy of a chunk debits
        its benefactor's budget.  ``replication=1`` degenerates to
        exactly :meth:`place` (the seed's bit-identical behaviour).  The
        greedy placement in chunk order is kept whenever it fits; when it
        runs out of room, every chunk goes where the most room is left,
        which fits whenever any placement does.
        """
        if replication <= 1:
            return [[b] for b in self.place(benefactors, num_chunks, chunk_size, client)]
        online = [b for b in benefactors if b.online]
        n_online = len(online)
        if n_online < replication:
            raise ReplicationError(
                f"replication={replication} needs that many distinct online "
                f"benefactors, only {n_online} available"
            )
        primaries = self.place(benefactors, num_chunks, chunk_size, client)
        # Each budget is ``available // chunk_size``, read off the two
        # fields: no property frame per benefactor on every file creation.
        budgets = {
            b.name: (b.contribution - b._reserved) // chunk_size for b in online
        }
        # Greedy, in chunk order: charge each primary, then its replicas
        # round-robin.  A replica of an early chunk can take the slot a
        # later chunk's primary was placed in; the pass then stops.
        placement: list[list[Benefactor]] = []
        cursor = 0
        for primary in primaries:
            if budgets[primary.name] <= 0:
                break
            budgets[primary.name] -= 1
            replicas = [primary]
            chosen = {primary.name}
            for _ in range(replication - 1):
                for _attempt in range(n_online):
                    candidate = online[cursor % n_online]
                    cursor += 1
                    if candidate.name in chosen or budgets[candidate.name] <= 0:
                        continue
                    budgets[candidate.name] -= 1
                    replicas.append(candidate)
                    chosen.add(candidate.name)
                    break
                else:
                    break  # no room for this replica
            else:
                placement.append(replicas)
                continue
            break
        else:
            return placement
        # A benefactor holds at most one copy of a chunk, so the copies fit
        # iff ``sum(min(room, chunks)) >= chunks * replication``; putting
        # each chunk on the benefactors with the most room left keeps that
        # true chunk by chunk, so this finds a placement whenever one
        # exists.  The policy's primary wins a tie and leads its group
        # when it is in it.
        budgets = {
            b.name: (b.contribution - b._reserved) // chunk_size for b in online
        }
        placement = []
        for index, primary in enumerate(primaries):
            ranked = sorted(
                [primary] + [b for b in online if b is not primary],
                key=lambda b: -budgets[b.name],
            )
            group = ranked[:replication]
            if budgets[group[-1].name] <= 0:
                raise ReplicationError(
                    f"aggregate store full: cannot place chunk {index} of "
                    f"{num_chunks} at replication={replication} on distinct "
                    f"benefactors"
                )
            for benefactor in group:
                budgets[benefactor.name] -= 1
            if primary in group:
                group = [primary] + [b for b in group if b is not primary]
            placement.append(group)
        return placement


def _spread(
    candidates: list[Benefactor], num_chunks: int, chunk_size: int
) -> list[Benefactor]:
    """Round-robin over ``candidates``, skipping full benefactors."""
    budgets = {
        b.name: (b.contribution - b._reserved) // chunk_size for b in candidates
    }
    n_candidates = len(candidates)
    placement: list[Benefactor] = []
    cursor = 0
    for _ in range(num_chunks):
        for _attempt in range(n_candidates):
            benefactor = candidates[cursor % n_candidates]
            cursor += 1
            if budgets[benefactor.name] > 0:
                budgets[benefactor.name] -= 1
                placement.append(benefactor)
                break
        else:
            raise StoreError(
                f"aggregate store full: cannot place chunk {len(placement)} "
                f"of {num_chunks}"
            )
    return placement


class RoundRobinStriping(StripingPolicy):
    """Stripe chunks across all online benefactors in turn."""

    def place(
        self,
        benefactors: list[Benefactor],
        num_chunks: int,
        chunk_size: int,
        client: str,
    ) -> list[Benefactor]:
        online = [b for b in benefactors if b.online]
        if not online:
            raise StoreError("no online benefactors")
        return _spread(online, num_chunks, chunk_size)


class LocalFirstStriping(StripingPolicy):
    """Place as much as possible on the client's own node, then spread."""

    def place(
        self,
        benefactors: list[Benefactor],
        num_chunks: int,
        chunk_size: int,
        client: str,
    ) -> list[Benefactor]:
        online = [b for b in benefactors if b.online]
        if not online:
            raise StoreError("no online benefactors")
        local = [b for b in online if b.name == client]
        placement: list[Benefactor] = []
        if local:
            budget = (local[0].contribution - local[0]._reserved) // chunk_size
            placement.extend(local[0] for _ in range(min(budget, num_chunks)))
        remaining = num_chunks - len(placement)
        if remaining:
            # The local benefactor is full by now: the rest go elsewhere.
            others = [b for b in online if b.name != client]
            placement.extend(_spread(others, remaining, chunk_size))
        return placement
