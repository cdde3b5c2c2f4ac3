//! Join planning from statistics: what a DBMS does when the join inputs are
//! intermediate results rather than base relations (paper §3.2.3).
//!
//! The planner never sees the full inputs — only sampled grid histograms.
//! From those it estimates input cardinality, join selectivity and the PBSM
//! partition count, then runs the join and compares its guesses with
//! reality.
//!
//! ```text
//! cargo run --release --example planning
//! ```

use spatial_join_suite::estimate::{
    estimate_join_cardinality, recommended_partitions, GridHistogram,
};
use spatial_join_suite::{Algorithm, JoinError, JoinStats, Kpe, SpatialJoin};

fn main() -> Result<(), JoinError> {
    let roads = datagen::sized(&datagen::la_rr_config(23), 0.1).generate();
    let streets = datagen::sized(&datagen::la_st_config(23), 0.1).generate();
    let mem = 512 * 1024;

    // The planner's view: 2% reservoir samples.
    let sample = (roads.len() / 50).max(64);
    let hr = GridHistogram::build_sampled(&roads, 32, sample, 1);
    let hs = GridHistogram::build_sampled(&streets, 32, sample, 2);

    let est_card = estimate_join_cardinality(&hr, &hs);
    let est_p = recommended_partitions(&hr, &hs, Kpe::ENCODED_SIZE, mem, 1.2);
    println!("planner (from {sample}-record samples):");
    println!("  estimated |R|, |S| : {:.0}, {:.0}", hr.cardinality, hs.cardinality);
    println!("  estimated |R ⋈ S|  : {est_card:.0}");
    println!("  recommended P      : {est_p}");
    println!("  occupancy R / S    : {:.2} / {:.2}", hr.occupancy(), hs.occupancy());

    // Reality.
    let run = SpatialJoin::new(Algorithm::pbsm_rpm(mem)).try_run(&roads, &streets)?;
    let JoinStats::Pbsm(stats) = &run.stats else {
        unreachable!()
    };
    println!();
    println!("reality:");
    println!("  |R ⋈ S|            : {}", run.pairs.len());
    println!("  P actually used    : {}", stats.partitions);
    println!(
        "  estimate error     : {:.1}x",
        est_card / run.pairs.len().max(1) as f64
    );
    assert_eq!(est_p, stats.partitions, "planner and executor must agree");
    Ok(())
}
