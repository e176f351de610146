//! Live shard migration: move a partition to a new owner while serving.
//!
//! A move is one ordered stream, served by the source's migration plane
//! (`begin_migration` / `migration_tail` / `end_migration`) and driven from
//! the client side:
//!
//! 1. **Arm and census.** The source takes the partition's `(src, etype)`
//!    keys once, sorted (the census, `C` keys), and journals every
//!    first-hand op touching the partition from now on. Stream positions
//!    below `C` are census keys; position `C + s` is journal op `s`.
//! 2. **Drop the target's copy.** Whatever the target holds of the
//!    partition — an earlier move's leftover, or the current replica's,
//!    which best-effort fan-out may have left missing deletes — would
//!    bring deleted edges back if the stream's inserts merged into it. A
//!    member refuses to drop a partition it owns, and to arm one it does
//!    not, so a driver with a stale map fails before it touches data.
//! 3. **Stream** census pages into the target over the replica channel (no
//!    fan-out from the target): whole keys, each as its rows at the time
//!    the page is read. The source keeps serving; writes race the copy but
//!    land in the journal.
//! 4. **Drain** the journal from position `C` in rounds until a round
//!    comes back empty — the copies have converged up to in-flight writes.
//! 5. **Promote**: bump the map epoch with the target as owner and the
//!    source as replica, and install it — *target first* (so a relay
//!    from a staler server can never bounce back), then the rest of the
//!    fleet, then this client. A join announces its widened roster the
//!    same way, joiner first, through the same helper.
//! 6. **Final drain + disarm**: tail rounds run until one comes back
//!    empty, catching every write that landed on the source between the
//!    last pre-promote drain and its map install (those are journaled;
//!    post-install writes relay to the target directly, and
//!    replica-channel echoes are never journaled, so the loop terminates
//!    once every server holds the promoted map). `end_migration` then
//!    disarms the journal and returns the stream's end position — and the
//!    move fails loudly if that is past the last drained position, rather
//!    than silently dropping an acked write.
//!
//! Reading a key's rows when its page is served rather than at the arm
//! changes no final state: every key created or changed after the arm is
//! in the journal, every streamed op is idempotent, and the journal
//! replays after the census.
//!
//! The source and target connections, like every other, come from the
//! client's roster; a joiner is dialed the first time its announcement
//! needs it.
//!
//! Replica-channel retries are absorbed by the target, and a failure after
//! the arm disarms the journal, so a failed migration is safe to re-run.
//! The source keeps its copy as the partition's replica — clients still
//! routing on the old epoch read correct data until they learn the new
//! map.
//!
//! Only one migration driver may run at a time. A driver routing on a
//! stale map fails and installs nothing — at the arm if the partition has
//! moved since, otherwise at its first install — but two that promote
//! from the same map and race can split the fleet.

use crate::cluster::FleetCluster;
use crate::map::{PartitionMap, ServerEntry};
use platod2gl_graph::Error;
use platod2gl_obs::current_trace_context;
use platod2gl_rpc::RemoteCluster;
use platod2gl_server::GraphService;
use std::net::ToSocketAddrs;

/// Convergence drain rounds before promoting regardless (the post-promote
/// final drain still catches the remainder).
const MAX_TAIL_ROUNDS: usize = 10;
/// Cap on post-promote drain rounds. Once every server holds the promoted
/// map nothing new is journaled (first-hand writes relay to the target,
/// replica echoes are not journaled), so hitting this cap means writes
/// are still racing the drain and the move must fail rather than drop
/// them.
const MAX_FINAL_DRAIN_ROUNDS: usize = 64;

/// What one partition move did.
#[derive(Clone, Copy, Debug, Default)]
pub struct MigrationReport {
    /// The migrated partition.
    pub partition: u32,
    /// Edges streamed in census pages.
    pub edges_streamed: u64,
    /// Census pages shipped.
    pub chunks: usize,
    /// Journal-tail ops replayed onto the target.
    pub tail_ops: usize,
    /// Total ops the source journaled while armed.
    pub journaled: u64,
    /// Map epoch after the promote.
    pub epoch: u64,
}

/// What a server join did: the identity it was assigned and each
/// partition move rendezvous ranking demanded.
#[derive(Clone, Debug, Default)]
pub struct JoinReport {
    /// The stable id assigned to the joining server.
    pub server_id: u64,
    /// One report per migrated partition.
    pub moved: Vec<MigrationReport>,
}

impl FleetCluster {
    /// Move one partition to the server with `target_server_id`, live.
    /// Serving continues throughout; see the module docs for the state
    /// machine and why no write is lost.
    pub fn migrate_partition(
        &self,
        partition: u32,
        target_server_id: u64,
    ) -> Result<MigrationReport, Error> {
        let map = self.map();
        if partition >= map.num_partitions() {
            return Err(Error::invalid_config("partition out of range"));
        }
        let tgt_idx = map
            .index_of(target_server_id)
            .ok_or_else(|| Error::invalid_config("target server not in roster"))?;
        let src_idx = map.owner_index(partition);
        if src_idx == tgt_idx {
            return Err(Error::invalid_config("target already owns the partition"));
        }
        let src = self.conn(&map, src_idx)?;
        let tgt = self.conn(&map, tgt_idx)?;

        // Every RPC of the move (census pages, tail drains, map
        // installs) runs under one span, so the whole migration stitches
        // into a single cross-server trace. Inherit an ambient trace if
        // the caller opened one; otherwise derive a deterministic id from
        // the epoch being superseded and the partition.
        let _mig_span = match current_trace_context() {
            Some(_) => self.registry().span("fleet.migrate"),
            None => self.registry().span_traced(
                "fleet.migrate",
                0xF1EE_0000_0000_0000 | (u64::from(partition) << 32) | (map.epoch() & 0xFFFF_FFFF),
            ),
        };

        // 1. Arm the source: it takes the census and journals from here on.
        // Any later failure disarms it (best effort) before the error
        // returns: an armed journal keeps buffering the partition's ops and
        // refuses every later migration.
        let census = src.begin_migration(partition, map.num_partitions())?;
        let (mut report, drained, promoted) = self
            .move_armed(&map, partition, census, tgt_idx, &src, &tgt)
            .inspect_err(|_| {
                let _ = src.end_migration(partition);
            })?;
        let end = src.end_migration(partition)?;
        report.journaled = end.saturating_sub(census);
        if end > drained {
            // Ops raced the disarm itself — impossible once every server
            // routes on the promoted map, so surface it instead of
            // silently losing acked writes.
            return Err(Error::Corrupt {
                what: format!(
                    "partition {partition} journaled {} op(s) after the final drain",
                    end - drained
                ),
            });
        }
        self.install_local(promoted);
        Ok(report)
    }

    /// Steps 2–6 of a move whose source is armed with a census of
    /// `census` keys: drop the target's stale copy, stream, drain, promote
    /// and final-drain. Returns the report so far, the stream position
    /// drained up to and the promoted map; the caller disarms.
    fn move_armed(
        &self,
        map: &PartitionMap,
        partition: u32,
        census: u64,
        tgt_idx: u32,
        src: &RemoteCluster,
        tgt: &RemoteCluster,
    ) -> Result<(MigrationReport, u64, PartitionMap), Error> {
        // 2. Drop whatever copy the target holds; the stream rebuilds it.
        tgt.drop_partition(partition, map.num_partitions())?;

        // 3. Stream the census pages.
        let mut report = MigrationReport {
            partition,
            ..MigrationReport::default()
        };
        let mut from = 0u64;
        while from < census {
            let (ops, next) = src.migration_tail(partition, from)?;
            if !ops.is_empty() {
                tgt.apply_replica_updates(&ops)?;
            }
            report.edges_streamed += ops.len() as u64;
            report.chunks += 1;
            from = next;
        }

        // 4. Drain the journal until a round comes back empty.
        for _ in 0..MAX_TAIL_ROUNDS {
            let (ops, next) = src.migration_tail(partition, from)?;
            from = next;
            if ops.is_empty() {
                break;
            }
            report.tail_ops += ops.len();
            tgt.apply_replica_updates(&ops)?;
        }

        // 5. Promote and install: target first, then the fleet, then us.
        let promoted = map.promote(partition, tgt_idx)?;
        self.announce(&promoted, map.servers()[tgt_idx as usize].id)?;
        report.epoch = promoted.epoch();

        // 6. Final drain until an empty round; the caller disarms. Every
        // server now holds the promoted map, so the journal only still
        // carries writes that landed before a server's install — a finite
        // set; an empty round proves the target has every acked write.
        let mut rounds = 0usize;
        loop {
            let (ops, next) = src.migration_tail(partition, from)?;
            from = next;
            if ops.is_empty() {
                break;
            }
            rounds += 1;
            if rounds > MAX_FINAL_DRAIN_ROUNDS {
                return Err(Error::Corrupt {
                    what: format!(
                        "partition {partition} migration final drain did not converge \
                         in {MAX_FINAL_DRAIN_ROUNDS} rounds; restart the migration"
                    ),
                });
            }
            report.tail_ops += ops.len();
            tgt.apply_replica_updates(&ops)?;
        }
        Ok((report, from, promoted))
    }

    /// Bring a freshly-started server into the fleet under the identity it
    /// was booted with: announce the widened roster (epoch bump, ownership
    /// unchanged), then live-migrate every partition rendezvous ranking
    /// hands it. Training through this call sees zero failed batches.
    ///
    /// `new_id` must match the `server_id` the node at `addr` was created
    /// with — the node recognizes its own writes (vs ops to relay) by
    /// finding that id in the installed map.
    pub fn join_and_migrate(&self, addr: &str, new_id: u64) -> Result<JoinReport, Error> {
        let resolved = addr
            .to_socket_addrs()?
            .next()
            .map(|a| a.to_string())
            .unwrap_or_else(|| addr.to_string());
        let map = self.map();
        if map.index_of(new_id).is_some() {
            return Err(Error::invalid_config("joining server id already in roster"));
        }
        let (staged, moves) = map.with_server(ServerEntry {
            id: new_id,
            addr: resolved,
        })?;
        // The joining server learns the roster (and its own place in it)
        // first, then the incumbents, then this client.
        self.announce(&staged, new_id)?;
        self.install_local(staged);

        let mut joined = JoinReport {
            server_id: new_id,
            moved: Vec::with_capacity(moves.len()),
        };
        for p in moves {
            joined.moved.push(self.migrate_partition(p, new_id)?);
        }
        Ok(joined)
    }

    /// Install `map` on every server it names: `first` (a migration's
    /// target, or a joiner) before the rest, so by the time any member
    /// routes to `first` under the new map, `first` already holds it and
    /// a relay cannot bounce back. Any failed install fails the
    /// announcement, and so does a server already past `map`'s epoch (this
    /// client promoted from a stale map); the caller installs the map on
    /// this client after.
    fn announce(&self, map: &PartitionMap, first: u64) -> Result<(), Error> {
        let bytes = map.encode();
        let servers = map.servers().iter();
        let head = servers.clone().filter(|e| e.id == first);
        for entry in head.chain(servers.filter(|e| e.id != first)) {
            let resident = self
                .roster
                .conn(entry)?
                .install_fleet_map(map.epoch(), &bytes)?;
            if resident != map.epoch() {
                return Err(Error::invalid_config(format!(
                    "server {} is at map epoch {resident}, past the announced {}",
                    entry.id,
                    map.epoch()
                )));
            }
        }
        Ok(())
    }
}
