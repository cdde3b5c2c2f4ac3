//! Figure 5: PBSM total runtime on J5 as a function of available memory,
//! sweep-line status as a list vs as an interval trie.

use bench::{banner, cal_st, median_run, paper_mem, pbsm_cfg};
use pbsm::{try_pbsm_join, Dedup};
use storage::{JoinError, RunControl, SimDisk};
use sweep::InternalAlgo;

fn main() -> Result<(), JoinError> {
    banner(
        "Figure 5",
        "PBSM runtime on J5 vs available memory, list vs trie status",
        "below ~25MB (≈30% of input) the list is slightly faster; beyond, \
         the trie wins and the list's runtime *increases* with memory",
    );
    let cal = cal_st();
    println!(
        "{:<10} {:>5} | {:>12} {:>12} | {:>11} {:>11} | {:>10} {:>10}",
        "paper-M MB", "P", "list tot s", "trie tot s", "list cpu s", "trie cpu s", "list io s", "trie io s"
    );
    for mb in [5.0, 10.0, 15.0, 25.0, 40.0, 60.0, 80.0] {
        let mem = paper_mem(mb);
        let run = |internal: InternalAlgo| {
            median_run(
                || {
                    let disk = SimDisk::with_default_model();
                    let cfg = pbsm_cfg(mem, internal, Dedup::ReferencePoint);
                    try_pbsm_join(&disk, cal, cal, &cfg, &RunControl::none(), &mut |_, _| {})
                },
                |st| st.cost.total_seconds(),
            )
        };
        let list = run(InternalAlgo::PlaneSweepList)?;
        let trie = run(InternalAlgo::PlaneSweepTrie)?;
        assert_eq!(list.results, trie.results);
        println!(
            "{:<10} {:>5} | {:>12.1} {:>12.1} | {:>11.1} {:>11.1} | {:>10.1} {:>10.1}",
            mb,
            list.partitions,
            list.cost.total_seconds(),
            trie.cost.total_seconds(),
            list.cost.scaled_cpu_seconds(),
            trie.cost.scaled_cpu_seconds(),
            list.cost.io_seconds(),
            trie.cost.io_seconds()
        );
    }
    Ok(())
}
