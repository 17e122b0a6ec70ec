"""Sharded serving is the one service: this module keeps its old names.

:class:`~repro.service.service.SchedulerService` already partitions
jobs by network into shards (see :func:`shard_key`), so
``ShardedSchedulerService`` is the same class object under the name
earlier code imported — not a subclass, so attributes read from its
``__dict__`` are the service's own.
"""

from .service import SchedulerService, shard_key

__all__ = ["ShardedSchedulerService", "shard_key"]

ShardedSchedulerService = SchedulerService
