//! Figure 13: S³J vs PBSM(list) vs PBSM(trie) for `LA_RR(p) ⋈ LA_ST(p)`,
//! p = 1..10, at the paper's M = 2.5 MB. Coverage (and with it PBSM's
//! replication and everyone's result size) grows with p².

use bench::{banner, join_inputs, paper_mem, pbsm_cfg, s3j_cfg};
use pbsm::{try_pbsm_join, Dedup};
use s3j::try_s3j_join;
use storage::{JoinError, RunControl, SimDisk};
use sweep::InternalAlgo;

fn main() -> Result<(), JoinError> {
    banner(
        "Figure 13",
        "S3J vs PBSM(list) vs PBSM(trie) on LA_RR(p) x LA_ST(p), M=2.5MB",
        "small p: both PBSM variants similar, S3J clearly slower; large p: \
         S3J catches PBSM(list), PBSM(trie) remains the clear winner",
    );
    let mem = paper_mem(2.5);
    println!(
        "{:<4} {:>10} | {:>11} {:>12} {:>12} | {:>9}",
        "p", "results", "S3J tot s", "PBSM-L tot", "PBSM-T tot", "PBSM repl"
    );
    for p in 1..=10u32 {
        let (r, s) = join_inputs(p);
        let s3 = {
            let disk = SimDisk::with_default_model();
            let cfg = s3j_cfg(mem, true);
            try_s3j_join(&disk, &r, &s, &cfg, &RunControl::none(), &mut |_, _| {})?
        };
        let run_pbsm = |internal: InternalAlgo| {
            let disk = SimDisk::with_default_model();
            try_pbsm_join(
                &disk,
                &r,
                &s,
                &pbsm_cfg(mem, internal, Dedup::ReferencePoint),
                &RunControl::none(),
                &mut |_, _| {},
            )
        };
        let list = run_pbsm(InternalAlgo::PlaneSweepList)?;
        let trie = run_pbsm(InternalAlgo::PlaneSweepTrie)?;
        assert_eq!(s3.results, list.results);
        assert_eq!(s3.results, trie.results);
        println!(
            "{:<4} {:>10} | {:>11.1} {:>12.1} {:>12.1} | {:>9.2}",
            p,
            s3.results,
            s3.cost.total_seconds(),
            list.cost.total_seconds(),
            trie.cost.total_seconds(),
            list.replication_rate(r.len() + s.len())
        );
    }
    Ok(())
}
