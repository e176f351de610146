//! The fleet's routing state, kept once for the client and every member.
//!
//! A [`Roster`] holds the newest [`PartitionMap`] it has been handed and
//! one [`RemoteCluster`] per server id. [`crate::FleetCluster`] keeps its
//! routing in one, and so does every [`crate::FleetNode`]; both route
//! every request through [`Roster::conn`].
//!
//! A connection is dialed the first time a caller asks for that server,
//! and the dial (a TCP connect plus a probe round trip) runs outside any
//! lock: a slow or dead peer holds up only the callers that need it. A
//! failed dial is not remembered, so a member that comes back is reached
//! again on the next request. Two callers racing to dial the same server
//! both dial; the first to finish is kept.

use crate::map::{PartitionMap, ServerEntry};
use platod2gl_graph::Error;
use platod2gl_rpc::{ClientConfig, RemoteCluster};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// The newest partition map plus a lazily dialed connection per server.
pub(crate) struct Roster {
    /// Connection config for every server this roster dials.
    cfg: ClientConfig,
    map: RwLock<Option<Arc<PartitionMap>>>,
    /// Connections keyed by stable server id.
    conns: RwLock<HashMap<u64, Arc<RemoteCluster>>>,
}

impl Roster {
    /// An empty roster: no map, no connections.
    pub(crate) fn new(cfg: ClientConfig) -> Self {
        Self {
            cfg,
            map: RwLock::new(None),
            conns: RwLock::new(HashMap::new()),
        }
    }

    /// The newest installed map; `None` until the first install.
    pub(crate) fn map(&self) -> Option<Arc<PartitionMap>> {
        self.map.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Adopt `map` if it is newer than the resident one. Epoch-monotonic:
    /// an install at or below the resident epoch is a no-op. Returns the
    /// epoch now in effect and whether `map` was adopted.
    pub(crate) fn install(&self, map: PartitionMap) -> (u64, bool) {
        let mut slot = self.map.write().unwrap_or_else(|e| e.into_inner());
        match slot.as_ref() {
            Some(cur) if cur.epoch() >= map.epoch() => (cur.epoch(), false),
            _ => {
                let epoch = map.epoch();
                *slot = Some(Arc::new(map));
                (epoch, true)
            }
        }
    }

    /// The connection to `server`, dialed at its address on first use.
    pub(crate) fn conn(&self, server: &ServerEntry) -> Result<Arc<RemoteCluster>, Error> {
        let known = self
            .conns
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&server.id)
            .cloned();
        if let Some(conn) = known {
            return Ok(conn);
        }
        let dialed = Arc::new(RemoteCluster::connect(server.addr.as_str(), self.cfg)?);
        let mut conns = self.conns.write().unwrap_or_else(|e| e.into_inner());
        Ok(Arc::clone(conns.entry(server.id).or_insert(dialed)))
    }
}

#[cfg(test)]
mod tests {
    use super::Roster;
    use crate::map::{PartitionMap, ServerEntry};
    use platod2gl_rpc::{ClientConfig, GraphServiceServer};
    use platod2gl_server::{Cluster, ClusterConfig};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn roster_of(addrs: &[String]) -> PartitionMap {
        let servers = addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| ServerEntry {
                id: i as u64 + 1,
                addr: addr.clone(),
            })
            .collect();
        PartitionMap::build(servers, 8).expect("valid roster")
    }

    #[test]
    fn install_is_epoch_monotonic_and_reports_adoption() {
        let roster = Roster::new(ClientConfig::default());
        let map = roster_of(&["127.0.0.1:1".into(), "127.0.0.1:2".into()]);
        let promoted = map.promote(0, 1 - map.owner_index(0)).expect("promotes");
        assert_eq!(roster.install(map.clone()), (1, true));
        assert_eq!(roster.install(map.clone()), (1, false));
        assert_eq!(roster.install(promoted.clone()), (2, true));
        assert_eq!(roster.install(map), (2, false), "an older map is ignored");
        assert_eq!(roster.map().as_deref(), Some(&promoted));
    }

    /// A peer that accepts TCP but never answers holds its dial for the
    /// whole probe timeout; a dial to a live peer in the meantime must not
    /// wait behind it.
    #[test]
    fn a_slow_dial_does_not_hold_up_other_peers() {
        let silent = TcpListener::bind("127.0.0.1:0").expect("bind");
        let cluster = Arc::new(Cluster::new(
            ClusterConfig::builder()
                .num_shards(1)
                .build()
                .expect("valid config"),
        ));
        let live = GraphServiceServer::bind("127.0.0.1:0", cluster).expect("bind");
        let map = roster_of(&[
            silent.local_addr().expect("addr").to_string(),
            live.local_addr().to_string(),
        ]);
        let roster = Arc::new(Roster::new(
            ClientConfig::default().request_timeout(Duration::from_secs(1)),
        ));

        let slow_done = Arc::new(AtomicBool::new(false));
        let slow = {
            let (roster, map, done) = (Arc::clone(&roster), map.clone(), Arc::clone(&slow_done));
            std::thread::spawn(move || {
                let dialed = roster.conn(&map.servers()[0]);
                done.store(true, Ordering::SeqCst);
                dialed.is_err()
            })
        };
        std::thread::sleep(Duration::from_millis(100));
        roster.conn(&map.servers()[1]).expect("live peer dials");
        assert!(
            !slow_done.load(Ordering::SeqCst),
            "the live dial finished only after the silent peer's probe timed out"
        );
        assert!(
            slow.join().expect("dial thread"),
            "a silent peer fails its dial"
        );
        live.shutdown();
    }
}
