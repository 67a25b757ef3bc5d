from .binlog import (max_lsn, read_ddl_events, read_epoch, safe_frontier,
                     transaction_feed,
                     shard_frontiers)
from .branch import (branch_info, create_branch, delete_branch, lake_diff,
                     merge_branch)
from .lake import (ChangefeedConsumer, LakeEnricher, compact_lake,
                   compact_upto, consistent_epoch, consumer_groups,
                   enrich_with_lake, export_changefeed_envelopes, fsck,
                   lake_lookup,
                   lake_stats, maintain_group_counts,
                   read_changefeed, read_changefeed_full, read_lake,
                   read_demux_consistent, read_lake_at, read_lineage,
                   read_partition_state, replicate_lake, snapshot_diff)
from .producer import BinlogProducer, read_produced_events
from .secondary import SecondaryIndex
from .sink import (SinkConnector, pruned_fragments, read_range,
                   write_partitioned)

__all__ = ["ChangefeedConsumer", "SinkConnector", "compact_lake", "compact_upto",
           "consumer_groups", "branch_info", "create_branch",
           "delete_branch", "lake_diff", "merge_branch",
           "LakeEnricher", "enrich_with_lake", "export_changefeed_envelopes",
           "fsck", "max_lsn", "read_ddl_events", "read_epoch", "safe_frontier",
           "shard_frontiers", "lake_lookup", "lake_stats",
           "maintain_group_counts",
           "pruned_fragments", "read_changefeed",
           "read_changefeed_full", "read_lake",
           "read_lake_at", "read_lineage", "read_partition_state",
           "read_range", "replicate_lake", "SecondaryIndex",
           "snapshot_diff", "write_partitioned", "consistent_epoch",
           "read_demux_consistent", "BinlogProducer", "read_produced_events",
           "transaction_feed"]
