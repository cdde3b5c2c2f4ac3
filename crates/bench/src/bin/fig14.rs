//! Figure 14: the headline comparison — S³J vs PBSM(list) vs PBSM(trie) on
//! J5 as a function of available memory.

use bench::{banner, cal_st, median_run, paper_mem, pbsm_cfg, s3j_cfg};
use pbsm::{pbsm_join, Dedup};
use s3j::s3j_join;
use storage::SimDisk;
use sweep::InternalAlgo;

fn main() {
    banner(
        "Figure 14",
        "S3J vs PBSM(list) vs PBSM(trie) on J5 vs available memory",
        "S3J best at small memory, PBSM(list) best at medium, PBSM(trie) \
         best at large; overall PBSM(trie) wins by ~2x on average",
    );
    let cal = cal_st();
    println!(
        "{:<10} | {:>11} {:>12} {:>12}",
        "paper-M MB", "S3J tot s", "PBSM-L tot", "PBSM-T tot"
    );
    for mb in [2.5, 5.0, 10.0, 15.0, 25.0, 40.0, 60.0, 80.0] {
        let mem = paper_mem(mb);
        let s3 = median_run(
            || {
                let disk = SimDisk::with_default_model();
                s3j_join(&disk, cal, cal, &s3j_cfg(mem, true), &mut |_, _| {})
            },
            |st| st.cost.total_seconds(),
        );
        let run_pbsm = |internal: InternalAlgo| {
            median_run(
                || {
                    let disk = SimDisk::with_default_model();
                    pbsm_join(
                        &disk,
                        cal,
                        cal,
                        &pbsm_cfg(mem, internal, Dedup::ReferencePoint),
                        &mut |_, _| {},
                    )
                },
                |st| st.cost.total_seconds(),
            )
        };
        let list = run_pbsm(InternalAlgo::PlaneSweepList);
        let trie = run_pbsm(InternalAlgo::PlaneSweepTrie);
        assert_eq!(s3.results, list.results);
        println!(
            "{:<10} | {:>11.1} {:>12.1} {:>12.1}",
            mb,
            s3.cost.total_seconds(),
            list.cost.total_seconds(),
            trie.cost.total_seconds()
        );
    }
}
