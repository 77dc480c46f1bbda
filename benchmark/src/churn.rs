//! `xmark-churn`: alternating single-edge IDREF insert and delete through
//! `UpdateEngine` on XMark(c=1), the regime of the paper's Figure 11 and
//! Table 2. Split/merge maintenance of the 1-index and A(2) does almost
//! all of the work; indexes are built only during set-up.

use std::time::Instant;

use xsi_workload::{generate_xmark, EdgePool, XmarkParams};

use crate::common::{median, passes, Checks, Config, Metrics, Outcome, PerStretch, Samples, Stop};
use crate::speed::Speed;
use crate::update::{Direct, Indexed, TracedLegs};

/// Share of IDREF edges moved into the insert/delete pool (the paper's 20 %).
const POOL_FRACTION: f64 = 0.2;
/// Updates per pass; each pass starts from a freshly generated graph.
const PASS_UPDATES: u64 = 10_000;
/// Updates between two samples of the machine's speed in the untraced
/// run: about a quarter of a second, short enough that the samples follow
/// the host's load (see `speed.rs`).
const STRETCH_UPDATES: u64 = 2_000;

struct State {
    ix: Indexed,
    pool: EdgePool,
    generate_s: f64,
    build_s: f64,
    direct: Option<Direct>,
}

fn setup(cfg: &Config, seed: u64, direct: bool) -> State {
    let t = Instant::now();
    let mut g = generate_xmark(&XmarkParams::new(cfg.scale.churn_xmark, 1.0, seed));
    let pool = EdgePool::extract(&mut g, POOL_FRACTION, seed);
    let generate_s = t.elapsed().as_secs_f64();
    let (ix, direct, build_s) = Indexed::build(g, direct);
    State {
        ix,
        pool,
        generate_s,
        build_s,
        direct,
    }
}

/// Runs `n` alternating inserts and deletes.
fn churn(
    s: &mut State,
    n: u64,
    lat: &mut Samples,
    checks: &mut Checks,
    tl: &mut Option<TracedLegs>,
) {
    TracedLegs::attach(tl, s.direct.take());
    for i in 0..n {
        let insert = i.is_multiple_of(2);
        let edge = if insert {
            s.pool.next_insert()
        } else {
            s.pool.next_delete()
        };
        let Some(edge) = checks.op("edge pool", edge.ok_or("pool exhausted")) else {
            continue;
        };
        if let Some(ns) = s.ix.edge_update(insert, edge, checks, tl) {
            lat.push(ns);
        }
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut checks = Checks::new(cfg.corrupt);
    let mut metrics = Metrics::default();
    let mut extra = Metrics::default();
    let mut setups = Vec::new();
    // Index memory at the end of each pass.
    let mut mib = Vec::new();
    let mut lat = Samples::default();

    if !cfg.trace {
        let mut stretches = PerStretch::default();
        let mut speed = Speed::new();
        speed.sample();
        let (_, s) = passes(
            cfg.seed,
            Stop::After(cfg.budget),
            &mut setups,
            |seed| setup(cfg, seed, false),
            |s| {
                for _ in 0..PASS_UPDATES / STRETCH_UPDATES {
                    let mut stretch = Samples::default();
                    churn(s, STRETCH_UPDATES, &mut stretch, &mut checks, &mut None);
                    speed.sample();
                    stretches.add(&stretch);
                    lat.extend(&stretch);
                }
                let (one, ak) = s.ix.index_mib();
                mib.push(one + ak);
            },
        );
        let quality = s.ix.final_checks(&mut checks);
        let scales = speed.scales();
        metrics.set("setup_s", median(&setups) * median(&scales), "s");
        metrics.set("ops_per_s", stretches.per_s(&scales), "1/s");
        metrics.set("op_us_p50", stretches.p50_us(&scales), "us");
        metrics.set("op_us_p99", stretches.p99_us(&scales), "us");
        metrics.set("index_mib", median(&mib), "MiB");
        extra.set("update_us_p50", stretches.p50_us(&scales), "us");
        extra.set("update_us_p99", stretches.p99_us(&scales), "us");
        extra.set("updates_per_s", stretches.per_s(&scales), "1/s");
        extra.set("quality_1index", quality, "ratio");
        speed.report(&mut extra);
        extra.set("dnodes", s.ix.engine.graph().node_count() as f64, "count");
        extra.set("dedges", s.ix.engine.graph().edge_count() as f64, "count");
        extra.set("update_samples", lat.len() as f64, "count");
        return Outcome {
            checks,
            metrics,
            extra,
        };
    }

    // Traced run: untraced passes for half the budget, then the same
    // passes again with spans and the direct leg.
    let (n, _) = passes(
        cfg.seed,
        Stop::After(cfg.budget / 2),
        &mut setups,
        |seed| setup(cfg, seed, false),
        |s| churn(s, PASS_UPDATES, &mut lat, &mut checks, &mut None),
    );
    let untraced_ns = lat.sum();
    let mut tl = None;
    let (_, s) = passes(
        cfg.seed,
        Stop::Count(n),
        &mut setups,
        |seed| setup(cfg, seed, true),
        |s| {
            churn(
                s,
                PASS_UPDATES,
                &mut Samples::default(),
                &mut checks,
                &mut tl,
            )
        },
    );
    s.ix.final_checks(&mut checks);
    let tl = tl.expect("traced passes build the traced legs");
    tl.report(&mut metrics, &s.ix, untraced_ns);
    metrics.set("setup.generate_s", s.generate_s, "s");
    metrics.set("setup.build_s", s.build_s, "s");
    Outcome {
        checks,
        metrics,
        extra,
    }
}
