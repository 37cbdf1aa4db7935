//! The global traffic control loop (Algorithm 1) as one pure planning step.
//!
//! Every control interval the caller collects a [`TrafficSnapshot`] and
//! asks [`plan`] what to do. With no hot shard or worker the answer is
//! [`Plan::None`]. When the cluster is out of headroom
//! (`Σ f(D_k) > α Σ c(D_k)`) only more workers help
//! ([`Plan::ScaleCluster`]). Otherwise the balancer produces a new routing
//! table ([`Plan::Rebalance`]). The replicated controller in
//! `logstore-core` commits that table through its Raft log; the Figure
//! 12–14 harnesses install it directly.

use crate::balancer::Balancer;
use crate::monitor::{detect_hotspots, TrafficSnapshot};
use crate::routing::RoutingTable;
use logstore_types::Result;

/// Tuning knobs of the control loop.
#[derive(Debug, Clone)]
pub struct FlowControlConfig {
    /// High watermark for shard/worker load (the paper's α, e.g. 0.85).
    pub alpha: f64,
    /// Maximum traffic of one tenant a single shard should carry — the
    /// per-edge capacity `f_max` of the flow network and the divisor of
    /// `CalculateAddRoutesNum`.
    pub per_tenant_shard_limit: u64,
}

impl Default for FlowControlConfig {
    fn default() -> Self {
        FlowControlConfig { alpha: 0.85, per_tenant_shard_limit: 100_000 }
    }
}

/// What one control tick decided, as reported to callers.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlAction {
    /// No hot spots; nothing changed.
    None,
    /// Traffic was rebalanced; the new table was produced.
    Rebalanced {
        /// Route edges before the plan.
        routes_before: usize,
        /// Route edges after the plan.
        routes_after: usize,
    },
    /// The cluster is saturated; more workers are needed.
    ScaleCluster {
        /// Total offered traffic.
        demand: u64,
        /// `α ×` total worker capacity.
        usable_capacity: u64,
    },
}

/// The outcome of [`plan`]: a [`ControlAction`] plus, for a rebalance, the
/// table that replaces the current one.
#[derive(Debug, Clone)]
pub enum Plan {
    /// No hot spots; keep the current table.
    None,
    /// The cluster is saturated; more workers are needed.
    ScaleCluster {
        /// Total offered traffic.
        demand: u64,
        /// `α ×` total worker capacity.
        usable_capacity: u64,
    },
    /// Install this routing table.
    Rebalance(RoutingTable),
}

impl Plan {
    /// The caller-facing summary of this plan against the table it replaces.
    pub fn action(&self, current: &RoutingTable) -> ControlAction {
        match self {
            Plan::None => ControlAction::None,
            Plan::ScaleCluster { demand, usable_capacity } => {
                ControlAction::ScaleCluster { demand: *demand, usable_capacity: *usable_capacity }
            }
            Plan::Rebalance(table) => ControlAction::Rebalanced {
                routes_before: current.route_count(),
                routes_after: table.route_count(),
            },
        }
    }
}

/// One control tick (Algorithm 1 lines 9–29): hotspot detection, then
/// nothing, a scale-out request, or the balancer's new table. A balancer
/// failure is returned to the caller; the current table stays in force.
pub fn plan(
    snapshot: &TrafficSnapshot,
    current: &RoutingTable,
    config: &FlowControlConfig,
    balancer: &dyn Balancer,
) -> Result<Plan> {
    if detect_hotspots(snapshot, config.alpha).is_empty() {
        return Ok(Plan::None);
    }
    let demand = snapshot.total_traffic();
    let usable_capacity = (snapshot.total_worker_capacity() as f64 * config.alpha) as u64;
    if demand > usable_capacity {
        // Line 25: only adding workers can help.
        return Ok(Plan::ScaleCluster { demand, usable_capacity });
    }
    Ok(Plan::Rebalance(balancer.rebalance(snapshot, current, config)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::MaxFlowBalancer;
    use logstore_types::{ShardId, TenantId, WorkerId};

    fn config() -> FlowControlConfig {
        FlowControlConfig { alpha: 0.85, per_tenant_shard_limit: 100 }
    }

    /// Tenant 1 homed on shard 0 of a 2-worker × 2-shard cluster.
    fn table() -> RoutingTable {
        let mut t = RoutingTable::new();
        t.set_routes(TenantId(1), vec![(ShardId(0), 1.0)]).unwrap();
        t
    }

    fn snapshot(hot: bool, demand: u64) -> TrafficSnapshot {
        let mut s = TrafficSnapshot::default();
        for p in 0..4u32 {
            s.shard_capacity.insert(ShardId(p), 100);
            s.shard_to_worker.insert(ShardId(p), WorkerId(p / 2));
        }
        for w in 0..2u32 {
            s.worker_capacity.insert(WorkerId(w), 200);
        }
        s.tenant_traffic.insert(TenantId(1), demand);
        if hot {
            s.shard_load.insert(ShardId(0), demand);
            s.shard_tenants.insert(ShardId(0), vec![(TenantId(1), demand)]);
            s.worker_load.insert(WorkerId(0), demand);
        }
        s
    }

    #[test]
    fn cold_tick_is_noop() {
        let p = plan(&snapshot(false, 10), &table(), &config(), &MaxFlowBalancer).unwrap();
        assert!(matches!(p, Plan::None), "got {p:?}");
        assert_eq!(p.action(&table()), ControlAction::None);
    }

    #[test]
    fn hot_tick_rebalances() {
        let current = table();
        let p = plan(&snapshot(true, 250), &current, &config(), &MaxFlowBalancer).unwrap();
        let ControlAction::Rebalanced { routes_before, routes_after } = p.action(&current) else {
            panic!("expected rebalance, got {p:?}");
        };
        assert_eq!(routes_before, 1);
        assert!(routes_after >= 3);
        let Plan::Rebalance(next) = p else { unreachable!() };
        // Reads must consult old and new shards during switch-over.
        let reads = next.read_shards(&current, TenantId(1));
        assert!(reads.contains(&ShardId(0)));
        assert!(reads.len() >= 3);
    }

    #[test]
    fn saturation_escalates_to_scaling() {
        let p = plan(&snapshot(true, 1000), &table(), &config(), &MaxFlowBalancer).unwrap();
        let ControlAction::ScaleCluster { demand, usable_capacity } = p.action(&table()) else {
            panic!("expected scale-out, got {p:?}");
        };
        assert_eq!(demand, 1000);
        assert_eq!(usable_capacity, 340); // 0.85 * 400
    }
}
