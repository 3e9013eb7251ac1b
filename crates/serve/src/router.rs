//! The multi-tenant routing front-end (ISSUE 9).
//!
//! A [`Router`] multiplexes many (tenant → model × graph) pairs, each
//! its own [`Server`], with hot attach/detach, per-tenant admission
//! quotas, and latency-SLO accounting layered on the per-server
//! [`flexgraph_obs::LatencyHistogram`]. Tenants are fully isolated:
//! every server owns its graph, feature store, cache, batcher, and
//! snapshot chain, so one tenant's traffic cannot perturb another's
//! bits — `tests/serve_multi_tenant.rs` proves any interleaving of N
//! tenants' requests yields per-tenant transcripts bitwise equal to
//! running each tenant alone.
//!
//! The registry is a `BTreeMap`, and every *_all operation walks it in
//! ascending tenant order — multi-tenant transcripts and trace
//! emissions are deterministic by construction.

use crate::batcher::Request;
use crate::server::{Response, Server};
use crate::ServeError;
use flexgraph_obs::TenantServeRecord;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};

/// Tenant identifier.
pub type TenantId = u64;

/// Per-tenant admission and latency policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantQuota {
    /// Max admissions per trace window (0 = unlimited). Submissions
    /// beyond the quota are refused with [`ServeError::QuotaExceeded`]
    /// before they reach the server's queue.
    pub window_quota: u64,
    /// Virtual-time latency SLO (0 = none). Responses slower than this
    /// are still delivered, but counted as SLO violations in the
    /// tenant's trace window.
    pub slo_vt: u64,
}

#[derive(Default)]
struct TenantWindow {
    admitted: u64,
    quota_rejected: u64,
    slo_violations: u64,
}

struct TenantState {
    server: Server,
    quota: TenantQuota,
    win: Mutex<TenantWindow>,
}

impl TenantState {
    /// SLO-accounts a slice of response latencies.
    fn account_latencies(&self, latencies: impl Iterator<Item = u64>) {
        if self.quota.slo_vt == 0 {
            return;
        }
        let violations = latencies.filter(|&l| l > self.quota.slo_vt).count() as u64;
        if violations > 0 {
            self.win.lock().expect("tenant window").slo_violations += violations;
        }
    }
}

/// A batch closed by the router but not yet executed — the unit the
/// replicated tier ships to remote workers. The checkpoint version is
/// pinned here, at close time, so a rolling swap never mixes versions
/// within a batch no matter which replica executes which shard.
pub struct ClosedBatch {
    /// Owning tenant.
    pub tenant: TenantId,
    /// The version every request of this batch is pinned to.
    pub version: u64,
    /// The tenant's virtual clock when the batch closed — per-request
    /// latency is `close_vt − submitted_vt`, fixed before dispatch, so
    /// transcripts are invariant to replica count and fault schedules.
    pub close_vt: u64,
    /// The batched requests, in submission order.
    pub requests: Vec<Request>,
}

/// The multi-tenant routing front-end.
#[derive(Default)]
pub struct Router {
    tenants: RwLock<BTreeMap<TenantId, Arc<TenantState>>>,
}

impl Router {
    /// An empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hot-attaches a tenant. The server arrives fully built (graph,
    /// features, config, snapshot); the router adds quota/SLO policy.
    pub fn attach(
        &self,
        tenant: TenantId,
        server: Server,
        quota: TenantQuota,
    ) -> Result<(), ServeError> {
        let mut reg = self.tenants.write().expect("tenant registry");
        if reg.contains_key(&tenant) {
            return Err(ServeError::TenantExists { tenant });
        }
        reg.insert(
            tenant,
            Arc::new(TenantState {
                server,
                quota,
                win: Mutex::new(TenantWindow::default()),
            }),
        );
        Ok(())
    }

    /// Hot-detaches a tenant, draining its queue first so no admitted
    /// request is lost: the drained responses are returned alongside
    /// the tenant's final (SLO-accounted) trace window.
    pub fn detach(
        &self,
        tenant: TenantId,
    ) -> Result<(Vec<Response>, TenantServeRecord), ServeError> {
        let state = self.state(tenant)?;
        let responses = state.server.flush()?;
        state.account_latencies(responses.iter().map(|r| r.latency_vt));
        let record = Self::take_tenant_window(tenant, &state);
        self.tenants
            .write()
            .expect("tenant registry")
            .remove(&tenant);
        Ok((responses, record))
    }

    /// Attached tenants, ascending.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.tenants
            .read()
            .expect("tenant registry")
            .keys()
            .copied()
            .collect()
    }

    /// Whether a tenant is attached.
    pub fn contains(&self, tenant: TenantId) -> bool {
        self.tenants
            .read()
            .expect("tenant registry")
            .contains_key(&tenant)
    }

    fn state(&self, tenant: TenantId) -> Result<Arc<TenantState>, ServeError> {
        self.tenants
            .read()
            .expect("tenant registry")
            .get(&tenant)
            .cloned()
            .ok_or(ServeError::UnknownTenant { tenant })
    }

    /// Submits a request for one tenant, enforcing its window quota
    /// before the server's own queue/vertex checks.
    pub fn submit(&self, tenant: TenantId, vertex: u32) -> Result<u64, ServeError> {
        let state = self.state(tenant)?;
        {
            let mut win = state.win.lock().expect("tenant window");
            if state.quota.window_quota > 0 && win.admitted >= state.quota.window_quota {
                win.quota_rejected += 1;
                return Err(ServeError::QuotaExceeded {
                    tenant,
                    quota: state.quota.window_quota,
                });
            }
        }
        let id = state.server.submit(vertex)?;
        state.win.lock().expect("tenant window").admitted += 1;
        Ok(id)
    }

    /// Advances one tenant's virtual clock.
    pub fn tick(&self, tenant: TenantId, ticks: u64) -> Result<(), ServeError> {
        self.state(tenant)?.server.tick(ticks);
        Ok(())
    }

    /// Polls one tenant (executes its next due batch locally),
    /// SLO-accounting the responses.
    pub fn poll(&self, tenant: TenantId) -> Result<Vec<Response>, ServeError> {
        let state = self.state(tenant)?;
        let responses = state.server.poll()?;
        state.account_latencies(responses.iter().map(|r| r.latency_vt));
        Ok(responses)
    }

    /// Flushes one tenant's queue, SLO-accounting the responses.
    pub fn flush(&self, tenant: TenantId) -> Result<Vec<Response>, ServeError> {
        let state = self.state(tenant)?;
        let responses = state.server.flush()?;
        state.account_latencies(responses.iter().map(|r| r.latency_vt));
        Ok(responses)
    }

    /// Hot checkpoint swap for one tenant; returns the new version.
    pub fn swap_checkpoint(&self, tenant: TenantId, bytes: &[u8]) -> Result<u64, ServeError> {
        self.state(tenant)?.server.swap_checkpoint(bytes)
    }

    /// The version one tenant's next batch would pin.
    pub fn current_version(&self, tenant: TenantId) -> Result<u64, ServeError> {
        Ok(self.state(tenant)?.server.current_version())
    }

    /// Runs `f` against a tenant's server (escape hatch for the tier
    /// and tests — e.g. building reference snapshots).
    pub fn with_server<T>(
        &self,
        tenant: TenantId,
        f: impl FnOnce(&Server) -> T,
    ) -> Result<T, ServeError> {
        Ok(f(&self.state(tenant)?.server))
    }

    fn states(&self) -> Vec<(TenantId, Arc<TenantState>)> {
        self.tenants
            .read()
            .expect("tenant registry")
            .iter()
            .map(|(&t, s)| (t, s.clone()))
            .collect()
    }

    /// Closes every due batch across all tenants (ascending id order,
    /// draining each tenant until no batch is due) **without executing**
    /// — the replicated tier's dispatch source. Each batch pins the
    /// tenant's current checkpoint version.
    pub fn close_due(&self) -> Vec<ClosedBatch> {
        self.close_with(|s| s.next_batch())
    }

    /// Unconditionally closes every queued batch across all tenants.
    pub fn close_all(&self) -> Vec<ClosedBatch> {
        self.close_with(|s| s.drain_batch())
    }

    fn close_with(
        &self,
        next: impl Fn(&Server) -> Option<(Vec<Request>, u64)>,
    ) -> Vec<ClosedBatch> {
        let mut out = Vec::new();
        for (tenant, state) in self.states() {
            let version = state.server.current_version();
            while let Some((requests, close_vt)) = next(&state.server) {
                out.push(ClosedBatch {
                    tenant,
                    version,
                    close_vt,
                    requests,
                });
            }
        }
        out
    }

    /// Window accounting for a batch of one tenant that executed
    /// remotely (replicated tier): batch size, the remote cache counter
    /// deltas, and per-request latencies (SLO-accounted here).
    pub fn note_remote_batch(
        &self,
        tenant: TenantId,
        batch_len: usize,
        hits: u64,
        misses: u64,
        latencies: &[u64],
    ) -> Result<(), ServeError> {
        let state = self.state(tenant)?;
        state
            .server
            .note_remote_batch(batch_len, hits, misses, latencies);
        state.account_latencies(latencies.iter().copied());
        Ok(())
    }

    /// Window accounting for a remotely-shed batch.
    pub fn note_remote_shed(&self, tenant: TenantId, batch_len: usize) -> Result<(), ServeError> {
        self.state(tenant)?.server.note_remote_shed(batch_len);
        Ok(())
    }

    fn take_tenant_window(tenant: TenantId, state: &TenantState) -> TenantServeRecord {
        let serve = state.server.take_window();
        let mut win = state.win.lock().expect("tenant window");
        let rec = TenantServeRecord {
            tenant,
            slo_vt: state.quota.slo_vt,
            slo_violations: win.slo_violations,
            quota_rejected: win.quota_rejected,
            serve,
        };
        *win = TenantWindow::default();
        rec
    }

    /// A copy of one tenant's current (un-emitted) window.
    pub fn window_stats(&self, tenant: TenantId) -> Result<TenantServeRecord, ServeError> {
        let state = self.state(tenant)?;
        let win = state.win.lock().expect("tenant window");
        Ok(TenantServeRecord {
            tenant,
            slo_vt: state.quota.slo_vt,
            slo_violations: win.slo_violations,
            quota_rejected: win.quota_rejected,
            serve: state.server.window_stats(),
        })
    }

    /// Emits every tenant's window as a `tser` trace line (ascending
    /// tenant order; no-op lines without an active session), resetting
    /// windows and per-window quotas. Returns the emitted records.
    pub fn emit_trace_windows(&self) -> Vec<TenantServeRecord> {
        let mut out = Vec::new();
        for (tenant, state) in self.states() {
            let rec = Self::take_tenant_window(tenant, &state);
            flexgraph_obs::emit_tenant_serve(&rec);
            out.push(rec);
        }
        out
    }
}
