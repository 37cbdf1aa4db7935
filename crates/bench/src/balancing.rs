//! Shared driver for the load-balancing experiments (Figures 12–14).
//!
//! Reproduces the paper's setup: 1000 tenants with Zipfian(θ) traffic over
//! a homogeneous cluster, initially placed by consistent hashing, then
//! (optionally) rebalanced by the greedy or max-flow controller. Outcomes
//! are produced by the queueing simulator in `logstore_flow::sim`.

use logstore_flow::balancer::{Balancer, GreedyBalancer, MaxFlowBalancer};
use logstore_flow::sim::{build_snapshot, simulate, ClusterTopology, SimConfig, SimResult};
use logstore_flow::{plan, ConsistentHashRing, FlowControlConfig, Plan, RoutingTable};
use logstore_types::TenantId;
use logstore_workload::WorkloadSpec;
use std::collections::HashMap;

/// Which traffic-control policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// No flow control (the collapse baseline of Fig 12).
    None,
    /// Algorithm 2.
    Greedy,
    /// Algorithm 3.
    MaxFlow,
}

impl Policy {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::None => "none",
            Policy::Greedy => "greedy",
            Policy::MaxFlow => "max-flow",
        }
    }
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct BalanceExperiment {
    /// Cluster shape.
    pub topology: ClusterTopology,
    /// Tenant population + skew.
    pub spec: WorkloadSpec,
    /// Total offered traffic (log entries / s).
    pub total_rate: u64,
    /// Flow-control knobs.
    pub flow: FlowControlConfig,
    /// Simulator knobs.
    pub sim: SimConfig,
    /// Max control ticks before declaring convergence.
    pub max_ticks: usize,
}

impl BalanceExperiment {
    /// The paper-like default: 6 workers × 4 shards (24 worker processes),
    /// 1000 tenants, offered load ≈ α × cluster capacity.
    pub fn paper_like(theta: f64) -> Self {
        let topology = ClusterTopology::homogeneous(6, 4, 100_000);
        let total_capacity: u64 = topology.worker_capacity.values().sum();
        BalanceExperiment {
            topology,
            spec: WorkloadSpec::paper(theta),
            total_rate: (total_capacity as f64 * 0.75) as u64,
            flow: FlowControlConfig { alpha: 0.85, per_tenant_shard_limit: 100_000 },
            sim: SimConfig::default(),
            max_ticks: 10,
        }
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// State with the initial (hash-only) placement.
    pub before: SimResult,
    /// State after the policy converged (same as `before` for `None`).
    pub after: SimResult,
    /// Route edges after convergence.
    pub routes: usize,
    /// Control ticks actually executed.
    pub ticks: usize,
}

/// Algorithm 1 lines 4–7: initial placement by consistent hashing with
/// 100% weight.
fn ring_routes(tenants: &[TenantId], ring: &ConsistentHashRing) -> RoutingTable {
    let mut routes = RoutingTable::new();
    for &t in tenants {
        if let Some(shard) = ring.assign(t) {
            routes.set_routes(t, vec![(shard, 1.0)]).expect("a single full-weight route is valid");
        }
    }
    routes
}

/// Runs one (θ, policy) cell.
pub fn run(exp: &BalanceExperiment, policy: Policy) -> Outcome {
    let rates: HashMap<TenantId, u64> = exp.spec.tenant_rates(exp.total_rate);
    let tenants = exp.spec.tenant_ids();
    let ring = ConsistentHashRing::new(&exp.topology.shards());

    let balancer: &dyn Balancer = match policy {
        Policy::Greedy => &GreedyBalancer,
        _ => &MaxFlowBalancer,
    };
    let mut routes = ring_routes(&tenants, &ring);

    let before = simulate(&routes, &rates, &exp.topology, &exp.sim);
    if policy == Policy::None {
        return Outcome { after: before.clone(), before, routes: routes.route_count(), ticks: 0 };
    }

    let mut ticks = 0;
    let mut last = before.clone();
    for _ in 0..exp.max_ticks {
        let snapshot = build_snapshot(&last, &rates, &exp.topology);
        let next = plan(&snapshot, &routes, &exp.flow, balancer).expect("control tick");
        ticks += 1;
        let idle = matches!(next, Plan::None);
        if let Plan::Rebalance(table) = next {
            routes = table;
        }
        last = simulate(&routes, &rates, &exp.topology, &exp.sim);
        if idle {
            break;
        }
    }
    Outcome { before, after: last, routes: routes.route_count(), ticks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore_flow::monitor::load_stddev;
    use logstore_types::ShardId;

    #[test]
    fn initial_placement_uses_the_ring() {
        let ring = ConsistentHashRing::new(&[ShardId(0), ShardId(1)]);
        let tenants: Vec<TenantId> = (0..10).map(TenantId).collect();
        let routes = ring_routes(&tenants, &ring);
        assert_eq!(routes.tenant_count(), 10);
        for &t in &tenants {
            let only = routes.routes(t).unwrap();
            assert_eq!(only.len(), 1);
            assert_eq!((only[0].shard, only[0].weight), (ring.assign(t).unwrap(), 1.0));
        }
    }

    #[test]
    fn skewed_workload_collapses_without_control_and_recovers_with_it() {
        let exp = BalanceExperiment::paper_like(0.99);
        let none = run(&exp, Policy::None);
        let maxflow = run(&exp, Policy::MaxFlow);
        let offered = exp.total_rate as f64;
        assert!(
            (none.after.throughput as f64) < offered * 0.9,
            "uncontrolled skew should shed load: {} of {offered}",
            none.after.throughput
        );
        assert!(
            (maxflow.after.throughput as f64) > offered * 0.99,
            "max-flow should reach the offered rate: {} of {offered}",
            maxflow.after.throughput
        );
        assert!(
            maxflow.after.avg_latency_ms * 10.0 < none.after.avg_latency_ms,
            "latency {} vs {}",
            maxflow.after.avg_latency_ms,
            none.after.avg_latency_ms
        );
    }

    #[test]
    fn uniform_workload_needs_no_intervention() {
        let exp = BalanceExperiment::paper_like(0.0);
        let none = run(&exp, Policy::None);
        let maxflow = run(&exp, Policy::MaxFlow);
        // Already balanced: throughput equals offered rate both ways.
        let offered = exp.total_rate as f64;
        assert!(none.after.throughput as f64 > offered * 0.95);
        assert!(maxflow.after.throughput as f64 > offered * 0.95);
    }

    #[test]
    fn maxflow_reduces_stddev_at_high_skew() {
        let exp = BalanceExperiment::paper_like(0.99);
        let outcome = run(&exp, Policy::MaxFlow);
        let before = load_stddev(&outcome.before.shard_load);
        let after = load_stddev(&outcome.after.shard_load);
        assert!(after < before / 2.0, "shard stddev before {before:.0} after {after:.0}");
    }

    #[test]
    fn maxflow_uses_fewer_routes_than_greedy_at_scale() {
        // The Fig 12(c) aggregate claim over the full 1000-tenant population.
        let exp = BalanceExperiment::paper_like(0.99);
        let greedy = run(&exp, Policy::Greedy);
        let maxflow = run(&exp, Policy::MaxFlow);
        assert!(
            maxflow.routes <= greedy.routes,
            "max-flow {} routes vs greedy {}",
            maxflow.routes,
            greedy.routes
        );
        // And both keep throughput near the offered rate.
        let offered = exp.total_rate as f64;
        assert!(greedy.after.throughput as f64 > offered * 0.9);
        assert!(maxflow.after.throughput as f64 > offered * 0.9);
    }
}
