//! Request dispatch: what a frame means, away from any socket.
//!
//! The event loop funnels every decoded frame through [`dispatch`]: one
//! CRC-valid `(kind, payload)` in, one encoded reply `(kind, payload)`
//! out. Each arm names the payload type its kind carries
//! (`decode::<X>(payload)?`) and replies with `encode(&value)`; the reply
//! kind is [`FrameKind::reply`]. Nothing in here touches a socket, so the
//! loop is free to answer inline or to hand a frame to an offload thread
//! and write completions out of order under their request ids.
//!
//! Telemetry flows through the *service's* registry: `rpc.server.*`
//! counters, the request-latency histogram, and slow update batches
//! recorded with the client's trace id so `GET /debug/slow` works across
//! the wire.

use crate::codec::{
    decode, encode, ErrorReply, FrameError, FrameKind, HealthReply, MapInstall, MapReply,
    MigrateAction, MigrateCtl, SampleBatch, TailFetch, TailReply, TxnApply, TxnReply, UpdateBatch,
};
use platod2gl_graph::{GraphTxn, TxnError};
use platod2gl_obs::{Counter, Histogram, Registry, SlowOpRecord, SpanGuard, TraceContext};
use platod2gl_server::{route_for, GraphService, SampleResponse};
use rand::RngCore;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Feeds the wire-shipped seed to [`GraphService::sample_one`], which by
/// contract draws exactly one `u64` — the same derivation the in-process
/// path performs, so remote draws are bit-identical to local ones.
pub(crate) struct SeedRng(pub u64);

impl RngCore for SeedRng {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    fn next_u64(&mut self) -> u64 {
        let s = self.0;
        // A second draw would break the determinism contract; feeding a
        // derived value keeps it *defined* rather than a repeat.
        self.0 = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        s
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Pre-resolved `rpc.server.*` handles, shared by every connection (and
/// every offload thread) of one server.
pub(crate) struct ServerMetrics {
    pub registry: Arc<Registry>,
    pub frames: Arc<Counter>,
    pub sample_requests: Arc<Counter>,
    pub update_ops: Arc<Counter>,
    pub txn_ops: Arc<Counter>,
    pub errors: Arc<Counter>,
    pub deadline_expired: Arc<Counter>,
    pub request_lat: Arc<Histogram>,
    // Latency anatomy: where a request's server-resident time actually
    // goes. `poll_wait` is loop idle/readiness time; `queue_wait` is frame
    // receipt → handler start; `service_time` is the handler itself;
    // `write_stall` is reply bytes parked behind a pushed-back socket.
    // queue + service are echoed to clients.
    pub poll_wait: Arc<Histogram>,
    pub queue_wait: Arc<Histogram>,
    pub service_time: Arc<Histogram>,
    pub write_stall: Arc<Histogram>,
}

impl ServerMetrics {
    pub fn new(registry: Arc<Registry>) -> Self {
        Self {
            frames: registry.counter("rpc.server.frames"),
            sample_requests: registry.counter("rpc.server.sample_requests"),
            update_ops: registry.counter("rpc.server.update_ops"),
            txn_ops: registry.counter("rpc.server.txn_ops"),
            errors: registry.counter("rpc.server.errors"),
            deadline_expired: registry.counter("rpc.server.deadline_expired"),
            request_lat: registry.histogram("rpc.server.request_ns"),
            poll_wait: registry.histogram("rpc.server.poll_wait_ns"),
            queue_wait: registry.histogram("rpc.server.queue_wait_ns"),
            service_time: registry.histogram("rpc.server.service_ns"),
            write_stall: registry.histogram("rpc.server.write_stall_ns"),
            registry,
        }
    }
}

/// Open the server-side root span for one request: a *remote* root linked
/// to the caller's span when the frame carried trace context, a plain
/// local root otherwise. The span sits on the handling thread's ambient
/// stack for the duration of the arm, so any nested work — including a
/// fleet node's fan-out to replicas through its own `RemoteCluster` —
/// inherits the trace and stitches into one cross-process tree.
fn request_span<'r>(
    registry: &'r Registry,
    name: &'static str,
    ctx: Option<TraceContext>,
) -> SpanGuard<'r> {
    match ctx {
        Some(c) => registry.span_remote(name, c.trace_id, c.parent_span),
        None => registry.span(name),
    }
}

/// Serve one CRC-valid frame: decode the payload, run it against the
/// service, encode the reply — under [`FrameKind::reply`] when served, as
/// an [`ErrorReply`] when refused. `started` is the frame's receipt time —
/// batch deadlines are measured from it. `Err` means the payload failed
/// record-level decoding; the connection cannot be trusted past that and
/// the caller closes it.
pub(crate) fn dispatch<S: GraphService + ?Sized>(
    service: &S,
    m: &ServerMetrics,
    kind: FrameKind,
    payload: &[u8],
    started: Instant,
) -> Result<(FrameKind, Vec<u8>), FrameError> {
    m.frames.inc();
    // Data-plane kinds open their root span *after* decoding (the frame
    // carries the trace context); everything else gets a plain local span.
    let _ctl_span = match kind {
        FrameKind::SampleBatch
        | FrameKind::UpdateBatch
        | FrameKind::ReplicaBatch
        | FrameKind::TxnApply
        | FrameKind::ReplicaTxn => None,
        _ => Some(m.registry.span("rpc.server.request")),
    };
    // A control-plane refusal carries the service's own words.
    let refuse = |e: platod2gl_graph::Error| ErrorReply::bad_request(e.to_string());
    let served: Result<Vec<u8>, ErrorReply> = match kind {
        FrameKind::SampleBatch => {
            let batch: SampleBatch = decode(payload)?;
            let _span = request_span(&m.registry, "rpc.server.sample", batch.ctx);
            m.sample_requests.add(batch.requests.len() as u64);
            let deadline = Duration::from_millis(u64::from(batch.deadline_ms));
            let mut responses = Vec::with_capacity(batch.requests.len());
            for (req, seed) in &batch.requests {
                // A lapsed deadline refuses the request without consulting
                // the shard.
                if batch.deadline_ms > 0 && started.elapsed() >= deadline {
                    m.deadline_expired.inc();
                    let shard = route_for(req.vertex, service.num_shards());
                    responses.push(SampleResponse::degraded(req, shard));
                    continue;
                }
                responses.push(service.sample_one(req, &mut SeedRng(*seed)));
            }
            Ok(encode(&responses))
        }
        FrameKind::UpdateBatch | FrameKind::ReplicaBatch => {
            let batch: UpdateBatch = decode(payload)?;
            let _span = request_span(&m.registry, "rpc.server.update", batch.ctx);
            m.update_ops.add(batch.ops.len() as u64);
            // The replica channel applies through the replication entry
            // point, which never re-forwards (loop prevention).
            let outcome = if kind == FrameKind::ReplicaBatch {
                service.apply_replica_updates(&batch.ops)
            } else {
                service.apply_updates(&batch.ops)
            };
            let elapsed = started.elapsed();
            let slow = m.registry.slow_log();
            if slow.is_slow(elapsed) {
                slow.record(SlowOpRecord {
                    op: "rpc.update_batch".into(),
                    trace_id: batch.trace_id(),
                    detail: format!("ops={}", batch.ops.len()),
                    duration_ns: elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
                    spans: Vec::new(),
                });
            }
            match outcome {
                Ok(report) => Ok(encode(&report)),
                Err(e) => Err(ErrorReply::from(&e)),
            }
        }
        FrameKind::TxnApply | FrameKind::ReplicaTxn => {
            let apply: TxnApply = decode(payload)?;
            let _span = request_span(&m.registry, "rpc.server.txn", apply.ctx);
            m.txn_ops.add(apply.ops.len() as u64);
            let mut txn = GraphTxn::new(apply.txn_id);
            for op in apply.ops {
                txn.push(op);
            }
            // Every outcome — commit, rejection, store error — is a
            // well-formed TxnReply, so the client can always tell a served
            // verdict from a transport failure (only the latter is
            // retried, with the same txn id).
            let outcome = if kind == FrameKind::ReplicaTxn {
                service.apply_replica_txn(&txn)
            } else {
                service.apply_txn(&txn)
            };
            Ok(encode(&match outcome {
                Ok(receipt) => TxnReply::Committed(receipt),
                Err(TxnError::Rejected { txn_id, violations }) => {
                    m.errors.inc();
                    TxnReply::Rejected { txn_id, violations }
                }
                Err(TxnError::Store(e)) => {
                    m.errors.inc();
                    TxnReply::StoreError(ErrorReply::from(&e))
                }
            }))
        }
        FrameKind::HealthProbe => {
            decode::<()>(payload)?;
            Ok(encode(&HealthReply {
                graph_version: service.graph_version(),
                healths: service.shard_healths(),
            }))
        }
        FrameKind::HealRequest => {
            let shard = decode::<u32>(payload)? as usize;
            let drained = if shard < service.num_shards() {
                service.heal(shard) as u64
            } else {
                0
            };
            Ok(encode(&drained))
        }
        FrameKind::MapFetch => {
            decode::<()>(payload)?;
            let (epoch, bytes) = match service.fleet_map_bytes() {
                Some((epoch, bytes)) => (epoch, Some(bytes)),
                None => (0, None),
            };
            Ok(encode(&MapReply { epoch, bytes }))
        }
        FrameKind::MapInstall => {
            let install: MapInstall = decode(payload)?;
            service
                .install_fleet_map(install.epoch, &install.bytes)
                .map(|effective| encode(&effective))
                .map_err(refuse)
        }
        FrameKind::MigrateCtl => {
            let ctl: MigrateCtl = decode(payload)?;
            let outcome = match ctl.action {
                MigrateAction::Begin => service.begin_migration(ctl.partition, ctl.num_partitions),
                MigrateAction::End => service.end_migration(ctl.partition),
                MigrateAction::Drop => service.drop_partition(ctl.partition, ctl.num_partitions),
            };
            outcome.map(|value| encode(&value)).map_err(refuse)
        }
        FrameKind::TailFetch => {
            let fetch: TailFetch = decode(payload)?;
            service
                .migration_tail(fetch.partition, fetch.from)
                .map(|(ops, next)| encode(&TailReply { next, ops }))
                .map_err(refuse)
        }
        FrameKind::PartitionStats => {
            let num_partitions: u32 = decode(payload)?;
            Ok(encode(&service.partition_key_counts(num_partitions)))
        }
        // Introspection reads served straight from the server's registry:
        // the admin plane pulls per-trace span subtrees and registry
        // snapshots (span ring excluded) from every fleet member through
        // these.
        FrameKind::SpanExport => {
            let trace_id: u64 = decode(payload)?;
            Ok(encode(&m.registry.trace_spans(trace_id)))
        }
        FrameKind::ObsExport => {
            decode::<()>(payload)?;
            Ok(encode(&m.registry.snapshot()))
        }
        // Reply kinds arriving at a server are a protocol violation (the
        // connection stays open — the reply names the offense).
        kind => Err(ErrorReply::bad_request(format!(
            "unexpected client frame {kind:?}"
        ))),
    };
    let reply = match served {
        Ok(bytes) => (kind.reply(), bytes),
        Err(refusal) => {
            m.errors.inc();
            (FrameKind::ErrorReply, encode(&refusal))
        }
    };
    m.request_lat.record(started.elapsed());
    Ok(reply)
}
