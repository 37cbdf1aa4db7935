//! Global traffic control: multi-tenant load balancing as a flow network.
//!
//! The paper's §4 models the assignment of tenant write traffic to shards
//! and workers as a single-source/single-sink flow network
//! (`S → tenants → shards → workers → T`) and balances it with a max-flow
//! computation (Dinic's algorithm), falling back to adding routes when the
//! achievable max flow cannot carry the offered load, and to cluster
//! scale-out when the whole system is saturated. A greedy balancer
//! (Algorithm 2) serves as the baseline.
//!
//! Modules:
//!
//! * [`network`] — Dinic max-flow over integer capacities.
//! * [`consistent`] — the consistent-hash ring used for initial placement.
//! * [`routing`] — weighted tenant→shard routing tables.
//! * [`monitor`] — traffic snapshots and hotspot detection.
//! * [`balancer`] — the greedy (Alg 2) and max-flow (Alg 3) planners.
//! * [`controller`] — the control loop (Alg 1) as one pure step,
//!   [`plan`], shared by the replicated controller and the figure
//!   harnesses.
//! * [`ctrl`] — the replicated controller's deterministic state machine
//!   (commands applied through the Raft log).
//! * [`backpressure`] — bounded queues implementing the BFC mechanism (§4.2).
//! * [`sim`] — a queueing-theoretic traffic simulator used by tests and the
//!   Figure 12–14 harnesses.

#![forbid(unsafe_code)]

pub mod backpressure;
pub mod balancer;
pub mod consistent;
pub mod controller;
pub mod ctrl;
pub mod monitor;
pub mod network;
pub mod routing;
pub mod sim;

pub use backpressure::{BfcQueue, BfcQueueConfig};
pub use balancer::{Balancer, GreedyBalancer, MaxFlowBalancer};
pub use consistent::ConsistentHashRing;
pub use controller::{plan, ControlAction, FlowControlConfig, Plan};
pub use ctrl::{ControlState, CtrlCmd};
pub use monitor::{HotspotReport, TrafficSnapshot};
pub use network::FlowNetwork;
pub use routing::RoutingTable;
