//! The fleet's admin-plane view: [`FleetIntrospect`] for [`FleetCluster`].
//!
//! `AdminServer::bind_fleet` serves `/healthz` and `/debug/partitions`
//! off this implementation. Each snapshot probes every roster member once
//! and fetches per-partition key counts from reachable servers, so the
//! rendered table is live — an operator watching a migration sees owners
//! flip and key counts drain in real time.

use crate::cluster::FleetCluster;
use platod2gl_admin::{FleetIntrospect, FleetPartitionView, FleetServerView, FleetSnapshot};
use platod2gl_obs::{ObsSnapshot, Registry, SpanRecord};
use platod2gl_server::GraphService;
use std::sync::Arc;

impl FleetIntrospect for FleetCluster {
    fn fleet_snapshot(&self) -> FleetSnapshot {
        let map = self.map();
        let mut servers = Vec::with_capacity(map.servers().len());
        let mut key_counts: Vec<Option<Vec<u64>>> = Vec::with_capacity(map.servers().len());
        for entry in map.servers() {
            let conn = self.roster.conn(entry).ok();
            let reachable = conn.as_ref().is_some_and(|c| c.probe().is_ok());
            key_counts.push(if reachable {
                conn.map(|c| c.partition_key_counts(map.num_partitions()))
            } else {
                None
            });
            servers.push(FleetServerView {
                id: entry.id,
                addr: entry.addr.clone(),
                reachable,
            });
        }
        let partitions = (0..map.num_partitions())
            .map(|p| {
                let owner_idx = map.owner_index(p) as usize;
                let replica_idx = map.replica_index(p).map(|r| r as usize);
                FleetPartitionView {
                    partition: p,
                    owner: map.servers()[owner_idx].id,
                    replica: replica_idx.map(|r| map.servers()[r].id),
                    owner_up: servers[owner_idx].reachable,
                    replica_up: replica_idx.is_some_and(|r| servers[r].reachable),
                    keys: key_counts[owner_idx]
                        .as_ref()
                        .map_or(0, |counts| counts[p as usize]),
                }
            })
            .collect();
        FleetSnapshot {
            epoch: map.epoch(),
            num_partitions: map.num_partitions(),
            servers,
            partitions,
        }
    }

    fn registry(&self) -> &Arc<Registry> {
        GraphService::registry(self)
    }

    fn fleet_trace(&self, trace_id: u64) -> Vec<(String, Vec<SpanRecord>)> {
        FleetCluster::fleet_trace(self, trace_id)
    }

    fn fleet_obs(&self) -> Vec<(String, ObsSnapshot)> {
        FleetCluster::fleet_obs(self)
    }
}
