//! Figure 12: the internal join algorithm for S³J's tiny partitions —
//! nested loops vs list plane sweep (and the trie, which the paper dropped
//! from the plot for being far worse).

use bench::{banner, cal_st, median_run, paper_mem, s3j_cfg};
use s3j::try_s3j_join;
use storage::{JoinError, RunControl, SimDisk};
use sweep::InternalAlgo;

fn main() -> Result<(), JoinError> {
    banner(
        "Figure 12",
        "S3J (replicated) with different internal algorithms, J5",
        "plane sweep only slightly faster than nested loops (partitions are \
         tiny); the trie's overhead makes it far slower than both",
    );
    let cal = cal_st();
    println!(
        "{:<10} | {:>12} {:>12} {:>12}",
        "paper-M MB", "nested s", "sweep s", "trie s"
    );
    for mb in [5.0, 10.0, 15.0, 25.0, 40.0, 60.0, 80.0] {
        let mem = paper_mem(mb);
        let run = |internal: InternalAlgo| {
            median_run(
                || {
                    let disk = SimDisk::with_default_model();
                    let mut cfg = s3j_cfg(mem, true);
                    cfg.internal = internal;
                    try_s3j_join(&disk, cal, cal, &cfg, &RunControl::none(), &mut |_, _| {})
                },
                |st| st.cost.total_seconds(),
            )
        };
        let nested = run(InternalAlgo::NestedLoops)?;
        let sweep = run(InternalAlgo::PlaneSweepList)?;
        let trie = run(InternalAlgo::PlaneSweepTrie)?;
        assert_eq!(nested.results, sweep.results);
        assert_eq!(nested.results, trie.results);
        println!(
            "{:<10} | {:>12.1} {:>12.1} {:>12.1}",
            mb,
            nested.cost.total_seconds(),
            sweep.cost.total_seconds(),
            trie.cost.total_seconds()
        );
    }
    Ok(())
}
