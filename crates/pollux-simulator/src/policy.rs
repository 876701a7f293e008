//! The scheduling-policy interface, re-exported from the shared
//! control-plane core.
//!
//! A policy is invoked at every scheduling interval with read-only
//! views of all active (non-finished) jobs. It returns the allocation
//! matrix to apply; optionally it can also resize the cluster (cloud
//! auto-scaling). The types live in `pollux-control` so the live
//! `ClusterService` drives the very same interface; the simulator
//! builds its views with [`crate::SimJob::policy_view`].

pub use pollux_control::{
    AdmissionPolicy, Admitted, ConsolidatedPlacement, NoPreemption, PlacementPolicy, PreemptAll,
    PreemptionPolicy, RowSink, StagedScheduler,
};
pub use pollux_control::{PolicyJobView, SchedulingPolicy};
