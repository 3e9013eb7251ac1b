//! ADB integration test (ISSUE 4 satellite): on a deliberately skewed
//! partitioning, feeding *measured* epoch telemetry into the controller
//! drives the balance factor under `balance_threshold` within
//! `max_steps`, and the applied plan is the one with the smallest
//! induced-graph cut among the generated candidates.

use flexgraph_dist::adb::AdbController;
use flexgraph_dist::balance::{
    choose_plan, fit_cost_function, generate_plans, induced_graph, root_products, CostSample,
};
use flexgraph_dist::{distributed_epoch, make_shards, DistConfig};
use flexgraph_graph::gen::rmat;
use flexgraph_graph::{Partitioning, VertexId};
use flexgraph_hdg::build::from_direct_neighbors;
use flexgraph_hdg::Hdg;
use flexgraph_obs::TraceEpoch;

const K: usize = 3;

/// A partitioning that piles ~70% of the vertices onto partition 0.
fn skewed_partitioning(n: usize) -> Partitioning {
    let assignment: Vec<u32> = (0..n)
        .map(|v| {
            if v * 10 < n * 7 {
                0
            } else {
                1 + (v % (K - 1)) as u32
            }
        })
        .collect();
    Partitioning::new(assignment, K)
}

/// Runs one instrumented epoch over the partitioning and returns its
/// telemetry (the measured running log).
fn measure_epoch(ds: &flexgraph_graph::gen::Dataset, part: &Partitioning) -> (TraceEpoch, Hdg) {
    let n = ds.graph.num_vertices();
    let shards = make_shards(n, &ds.features, part, |r| {
        from_direct_neighbors(&ds.graph, r.to_vec())
    });
    let report = distributed_epoch(&ds.graph, &shards, &DistConfig::default());
    let global_hdg = from_direct_neighbors(&ds.graph, (0..n as VertexId).collect());
    (report.telemetry, global_hdg)
}

/// Per-vertex measured cost vector out of the trace.
fn measured_costs(trace: &TraceEpoch, n: usize) -> Vec<f64> {
    (0..n as u32)
        .map(|v| trace.root_cost(v).expect("every vertex attributed") as f64)
        .collect()
}

#[test]
fn measured_costs_drive_balance_under_threshold() {
    let ds = rmat(10, 8, 4, 8, 97, "adb-measured");
    let n = ds.graph.num_vertices();
    let part = skewed_partitioning(n);
    let (trace, hdg) = measure_epoch(&ds, &part);

    let dim = ds.feature_dim();
    let mut ctl = AdbController::new();
    ctl.balance_threshold = 1.1;
    ctl.max_steps = 16;
    let ingested = ctl.record_measured_epoch(&hdg, dim, &trace);
    assert_eq!(ingested, n, "one measured sample per root");

    let costs = measured_costs(&trace, n);
    let before = ctl.balance_factor(&part, &costs);
    assert!(
        before > ctl.balance_threshold,
        "the skewed partitioning must start imbalanced (factor {before})"
    );

    let after_part = ctl
        .maybe_rebalance(&ds.graph, &hdg, dim, &part)
        .expect("imbalanced input must produce a plan");
    let after = ctl.balance_factor(&after_part, &costs);
    assert!(
        after <= ctl.balance_threshold,
        "measured costs must balance within max_steps: {before} -> {after}"
    );
}

#[test]
fn applied_plan_has_the_smallest_induced_cut() {
    let ds = rmat(9, 8, 4, 8, 98, "adb-cut");
    let n = ds.graph.num_vertices();
    let part = skewed_partitioning(n);
    let (trace, hdg) = measure_epoch(&ds, &part);
    let dim = ds.feature_dim();

    // A one-step controller applies exactly one plan; replicate its
    // decision pipeline (fit → estimate → generate → min-cut choice)
    // and check both arrive at the same partitioning.
    let mut ctl = AdbController::new();
    ctl.balance_threshold = 1.05;
    ctl.max_steps = 1;
    ctl.record_measured_epoch(&hdg, dim, &trace);
    let controller_choice = ctl
        .maybe_rebalance(&ds.graph, &hdg, dim, &part)
        .expect("skew must trigger a move");

    let products = root_products(&hdg, dim);
    let samples: Vec<CostSample> = products
        .into_iter()
        .enumerate()
        .map(|(r, p)| CostSample {
            products: p,
            cost: trace.root_cost(hdg.root_id(r)).unwrap() as f64,
        })
        .collect();
    let est: Vec<f64> = root_products(&hdg, dim)
        .iter()
        .map(|p| fit_cost_function(&samples).estimate(p))
        .collect();
    let plans = generate_plans(&ds.graph, &part, &est, ctl.plans_per_step);
    assert!(!plans.is_empty());
    let ind = induced_graph(n, &[&hdg]);
    let chosen = choose_plan(&ind, &part, &plans).expect("plans exist");
    let manual = chosen.apply(&part);
    assert_eq!(
        controller_choice.assignment, manual.assignment,
        "controller must apply the minimum-cut plan"
    );

    // And that plan really has the smallest cut among the candidates.
    let min_cut = plans
        .iter()
        .map(|pl| pl.apply(&part).edge_cut(&ind))
        .min()
        .unwrap();
    assert_eq!(manual.edge_cut(&ind), min_cut);
}

#[test]
fn measured_and_proxy_costs_agree_on_ranking() {
    // The deterministic work units are an affine function of the same
    // per-root structure a closed-form proxy (leaf entries × feature dim
    // plus a per-root constant) uses, so both must rank partitions
    // identically even though their scales differ.
    let ds = rmat(9, 6, 3, 8, 99, "adb-rank");
    let n = ds.graph.num_vertices();
    let part = skewed_partitioning(n);
    let (trace, hdg) = measure_epoch(&ds, &part);
    let measured = measured_costs(&trace, n);
    let dim = ds.feature_dim();
    let proxy: Vec<f64> = (0..hdg.num_roots())
        .map(|r| 5.0 + (hdg.leaves_of_root(r) * dim) as f64)
        .collect();

    let load = |costs: &[f64]| {
        let mut l = vec![0.0f64; K];
        for (v, &p) in part.assignment.iter().enumerate() {
            l[p as usize] += costs[v];
        }
        l
    };
    let lm = load(&measured);
    let lp = load(&proxy);
    let rank = |l: &[f64]| {
        let mut idx: Vec<usize> = (0..l.len()).collect();
        idx.sort_by(|&a, &b| l[a].partial_cmp(&l[b]).unwrap());
        idx
    };
    assert_eq!(rank(&lm), rank(&lp), "load ranking must agree");
}
