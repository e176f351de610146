//! The fleet partition map: versioned, rendezvous-hashed vertex routing.
//!
//! A [`PartitionMap`] answers "which server owns this vertex" for every
//! client and server in a fleet. Vertices hash onto a fixed keyspace of
//! partitions ([`platod2gl_server::partition_for`]); partitions map onto
//! servers by highest-random-weight (rendezvous) hashing, so adding the
//! N+1th server moves only the ~1/(N+1) of partitions whose top-ranked
//! server changed — no global reshuffle, which is what makes live
//! migration incremental.
//!
//! The map carries a monotone **epoch**. Every routing-relevant change —
//! a server joining the roster, a partition promoted to a new owner —
//! bumps it, and installs everywhere are epoch-gated
//! ([`PartitionMap::decode`] + the service's `install_fleet_map`), so a
//! stale map can never overwrite a newer one and clients detect staleness
//! by comparing epochs.

use platod2gl_graph::cursor::{put_str, put_u32, put_u64, Reader, WireError};
use platod2gl_graph::{splitmix64, Error, VertexId};
use platod2gl_server::partition_for;

/// Decode guard rails: a corrupt or hostile map payload must not drive
/// huge allocations.
const MAX_SERVERS: usize = 4096;
const MAX_MAP_PARTITIONS: u32 = 1 << 20;
const MAX_ADDR_BYTES: usize = 1024;

/// One server in the fleet roster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerEntry {
    /// Stable server id — the replication/routing identity. Never reused.
    pub id: u64,
    /// Dialable address (`host:port`) of the server's graph service.
    pub addr: String,
}

/// The versioned routing table of a fleet: servers, partition owners,
/// partition replicas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionMap {
    epoch: u64,
    num_partitions: u32,
    servers: Vec<ServerEntry>,
    /// Owner server *index* (into `servers`) per partition.
    owners: Vec<u32>,
    /// Replica server index per partition; `None` in a one-server fleet.
    replicas: Vec<Option<u32>>,
}

/// Rendezvous score of a server for a partition. Ties broken by id in
/// [`rank_servers`], so the assignment is a pure function of the roster.
fn hrw_score(server_id: u64, partition: u32) -> u64 {
    splitmix64(splitmix64(server_id ^ 0x8163_995d_a9c1_77c3) ^ u64::from(partition))
}

/// Server indices ranked best-first for one partition.
fn rank_servers(servers: &[ServerEntry], partition: u32) -> Vec<u32> {
    let mut ranked: Vec<u32> = (0..servers.len() as u32).collect();
    ranked.sort_by_key(|&i| {
        let s = &servers[i as usize];
        std::cmp::Reverse((hrw_score(s.id, partition), s.id))
    });
    ranked
}

fn corrupt(what: &str) -> Error {
    Error::Corrupt {
        what: what.to_string(),
    }
}

impl PartitionMap {
    /// Build the epoch-1 map for an initial roster: owner is the
    /// top-ranked server per partition, replica the runner-up.
    pub fn build(servers: Vec<ServerEntry>, num_partitions: u32) -> Result<Self, Error> {
        if servers.is_empty() {
            return Err(Error::invalid_config("fleet roster is empty"));
        }
        if servers.len() > MAX_SERVERS {
            return Err(Error::invalid_config("fleet roster too large"));
        }
        if num_partitions == 0 || num_partitions > MAX_MAP_PARTITIONS {
            return Err(Error::invalid_config("num_partitions must be in 1..=2^20"));
        }
        let mut ids: Vec<u64> = servers.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != servers.len() {
            return Err(Error::invalid_config("duplicate server id in roster"));
        }
        let mut owners = Vec::with_capacity(num_partitions as usize);
        let mut replicas = Vec::with_capacity(num_partitions as usize);
        for p in 0..num_partitions {
            let ranked = rank_servers(&servers, p);
            owners.push(ranked[0]);
            replicas.push(ranked.get(1).copied());
        }
        Ok(Self {
            epoch: 1,
            num_partitions,
            servers,
            owners,
            replicas,
        })
    }

    /// The map's version; every routing-relevant change bumps it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Size of the partition keyspace.
    pub fn num_partitions(&self) -> u32 {
        self.num_partitions
    }

    /// The server roster, index order.
    pub fn servers(&self) -> &[ServerEntry] {
        &self.servers
    }

    /// Roster index of the server with this id.
    pub fn index_of(&self, server_id: u64) -> Option<u32> {
        self.servers
            .iter()
            .position(|s| s.id == server_id)
            .map(|i| i as u32)
    }

    /// Partition of a vertex under this map's keyspace.
    pub fn partition_of(&self, v: VertexId) -> u32 {
        partition_for(v, self.num_partitions)
    }

    /// Owner server index of a partition.
    pub fn owner_index(&self, partition: u32) -> u32 {
        self.owners[partition as usize]
    }

    /// Replica server index of a partition, if the fleet has one.
    pub fn replica_index(&self, partition: u32) -> Option<u32> {
        self.replicas[partition as usize]
    }

    /// Owner server index of a vertex (partition hash + owner lookup).
    pub fn owner_of(&self, v: VertexId) -> u32 {
        self.owner_index(self.partition_of(v))
    }

    /// Add a server to the roster **without moving any data**: owners and
    /// replicas are unchanged, the epoch bumps (membership is
    /// routing-relevant — clients must learn the new address), and the
    /// returned partition list is what rendezvous ranking says *should*
    /// move to the new server. Migration promotes them one at a time.
    pub fn with_server(&self, entry: ServerEntry) -> Result<(Self, Vec<u32>), Error> {
        if self.servers.iter().any(|s| s.id == entry.id) {
            return Err(Error::invalid_config("server id already in roster"));
        }
        if self.servers.len() + 1 > MAX_SERVERS {
            return Err(Error::invalid_config("fleet roster too large"));
        }
        let mut servers = self.servers.clone();
        servers.push(entry);
        let new_idx = (servers.len() - 1) as u32;
        let moves: Vec<u32> = (0..self.num_partitions)
            .filter(|&p| rank_servers(&servers, p)[0] == new_idx)
            .collect();
        Ok((
            Self {
                epoch: self.epoch + 1,
                num_partitions: self.num_partitions,
                servers,
                owners: self.owners.clone(),
                replicas: self.replicas.clone(),
            },
            moves,
        ))
    }

    /// Hand a partition to a new owner. The old owner becomes the
    /// replica — it keeps its copy, so clients still routing on the old
    /// epoch read correct data — and the epoch bumps.
    pub fn promote(&self, partition: u32, new_owner: u32) -> Result<Self, Error> {
        if partition >= self.num_partitions {
            return Err(Error::invalid_config("partition out of range"));
        }
        if new_owner as usize >= self.servers.len() {
            return Err(Error::invalid_config("owner index out of range"));
        }
        let old = self.owners[partition as usize];
        if old == new_owner {
            return Err(Error::invalid_config("server already owns partition"));
        }
        let mut next = self.clone();
        next.owners[partition as usize] = new_owner;
        next.replicas[partition as usize] = Some(old);
        next.epoch = self.epoch + 1;
        Ok(next)
    }

    /// Serialize for the MapReply/MapInstall wire frames.
    ///
    /// Layout (all little-endian):
    /// `epoch u64 | num_partitions u32 | num_servers u32 |
    ///  servers (id u64, addr_len u32, addr bytes) |
    ///  owners u32 × P | replicas (present u8 [, idx u32]) × P`
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.num_partitions as usize * 9);
        put_u64(&mut out, self.epoch);
        put_u32(&mut out, self.num_partitions);
        put_u32(&mut out, self.servers.len() as u32);
        for s in &self.servers {
            put_u64(&mut out, s.id);
            put_str(&mut out, &s.addr);
        }
        for &o in &self.owners {
            put_u32(&mut out, o);
        }
        for r in &self.replicas {
            match r {
                Some(i) => {
                    out.push(1);
                    put_u32(&mut out, *i);
                }
                None => out.push(0),
            }
        }
        out
    }

    /// Parse and validate an encoded map. Every structural invariant is
    /// checked — index ranges, UTF-8 addresses, exact length — so a
    /// corrupt install can never poison routing.
    pub fn decode(bytes: &[u8]) -> Result<Self, Error> {
        let short = |_: WireError| corrupt("partition map truncated");
        let mut r = Reader::new(bytes);
        let epoch = r.u64().map_err(short)?;
        let num_partitions = r.u32().map_err(short)?;
        if num_partitions == 0 || num_partitions > MAX_MAP_PARTITIONS {
            return Err(corrupt("partition map: bad partition count"));
        }
        let num_servers = r.u32().map_err(short)? as usize;
        if num_servers == 0 || num_servers > MAX_SERVERS {
            return Err(corrupt("partition map: bad server count"));
        }
        let mut servers = Vec::with_capacity(num_servers);
        for _ in 0..num_servers {
            let id = r.u64().map_err(short)?;
            let alen = r.u32().map_err(short)? as usize;
            if alen > MAX_ADDR_BYTES {
                return Err(corrupt("partition map: address too long"));
            }
            let addr = std::str::from_utf8(r.take(alen).map_err(short)?)
                .map_err(|_| corrupt("partition map: address not UTF-8"))?
                .to_string();
            servers.push(ServerEntry { id, addr });
        }
        let mut ids: Vec<u64> = servers.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != servers.len() {
            return Err(corrupt("partition map: duplicate server id"));
        }
        let mut owners = Vec::with_capacity(num_partitions as usize);
        for _ in 0..num_partitions {
            let o = r.u32().map_err(short)?;
            if o as usize >= num_servers {
                return Err(corrupt("partition map: owner index out of range"));
            }
            owners.push(o);
        }
        let mut replicas = Vec::with_capacity(num_partitions as usize);
        for &owner in &owners {
            match r.u8().map_err(short)? {
                0 => replicas.push(None),
                1 => {
                    let replica = r.u32().map_err(short)?;
                    if replica as usize >= num_servers {
                        return Err(corrupt("partition map: replica index out of range"));
                    }
                    if replica == owner {
                        return Err(corrupt("partition map: replica equals owner"));
                    }
                    replicas.push(Some(replica));
                }
                _ => return Err(corrupt("partition map: bad replica flag")),
            }
        }
        if !r.is_empty() {
            return Err(corrupt("partition map: trailing bytes"));
        }
        Ok(Self {
            epoch,
            num_partitions,
            servers,
            owners,
            replicas,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roster(n: u64) -> Vec<ServerEntry> {
        (0..n)
            .map(|i| ServerEntry {
                id: i + 1,
                addr: format!("127.0.0.1:{}", 7000 + i),
            })
            .collect()
    }

    #[test]
    fn build_assigns_every_partition_an_owner_and_distinct_replica() {
        let map = PartitionMap::build(roster(3), 64).expect("valid");
        assert_eq!(map.epoch(), 1);
        for p in 0..64 {
            let o = map.owner_index(p);
            assert!((o as usize) < 3);
            let r = map.replica_index(p).expect("3-server fleet has replicas");
            assert_ne!(o, r);
        }
        // Deterministic: rebuilding the same roster yields the same map.
        assert_eq!(map, PartitionMap::build(roster(3), 64).expect("valid"));
    }

    #[test]
    fn one_server_fleet_has_no_replicas() {
        let map = PartitionMap::build(roster(1), 16).expect("valid");
        for p in 0..16 {
            assert_eq!(map.owner_index(p), 0);
            assert_eq!(map.replica_index(p), None);
        }
    }

    #[test]
    fn with_server_bumps_epoch_but_moves_no_owners() {
        let map = PartitionMap::build(roster(3), 64).expect("valid");
        let (staged, moves) = map
            .with_server(ServerEntry {
                id: 9,
                addr: "127.0.0.1:7999".into(),
            })
            .expect("joins");
        assert_eq!(staged.epoch(), map.epoch() + 1);
        assert_eq!(staged.servers().len(), 4);
        for p in 0..64 {
            assert_eq!(staged.owner_index(p), map.owner_index(p));
        }
        assert!(!moves.is_empty(), "a joining server should attract work");
        // Every move target is the new server under rendezvous ranking.
        for &p in &moves {
            assert_eq!(rank_servers(staged.servers(), p)[0], 3);
        }
    }

    #[test]
    fn promote_hands_over_ownership_and_demotes_old_owner_to_replica() {
        let map = PartitionMap::build(roster(2), 8).expect("valid");
        let p = 3;
        let old = map.owner_index(p);
        let new = 1 - old;
        let next = map.promote(p, new).expect("promotes");
        assert_eq!(next.epoch(), map.epoch() + 1);
        assert_eq!(next.owner_index(p), new);
        assert_eq!(next.replica_index(p), Some(old));
        assert!(map.promote(p, old).is_err(), "no-op promote rejected");
        assert!(map.promote(99, 0).is_err());
        assert!(map.promote(p, 7).is_err());
    }

    #[test]
    fn encode_decode_round_trips_and_rejects_corruption() {
        let map = PartitionMap::build(roster(3), 32)
            .expect("valid")
            .promote(0, {
                let base = PartitionMap::build(roster(3), 32).expect("valid");
                (base.owner_index(0) + 1) % 3
            })
            .expect("promotes");
        let bytes = map.encode();
        assert_eq!(PartitionMap::decode(&bytes).expect("round-trips"), map);
        // Truncation at every prefix either errors or (never) parses whole.
        for cut in 0..bytes.len() {
            assert!(PartitionMap::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // Out-of-range owner index.
        let mut bad = bytes.clone();
        let owners_at = 8
            + 4
            + 4
            + map
                .servers()
                .iter()
                .map(|s| 12 + s.addr.len())
                .sum::<usize>();
        bad[owners_at..owners_at + 4].copy_from_slice(&99u32.to_le_bytes());
        assert!(PartitionMap::decode(&bad).is_err());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(PartitionMap::decode(&long).is_err());
    }
}
