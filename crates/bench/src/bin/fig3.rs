//! Figure 3: PBSM duplicate removal — original sort phase (PD) vs the
//! Reference Point Method (RP), joins J1–J4 at the paper's M = 2.5 MB.
//!
//! 3a: I/O cost, showing the sort phase's overhead on top of the shared
//!     partition/join I/O, growing with the result size.
//! 3b: total runtime, PD vs RP.

use bench::{banner, join_inputs, paper_mem, pbsm_cfg};
use pbsm::{pbsm_join, Dedup};
use storage::{Phase, SimDisk};
use sweep::InternalAlgo;

fn main() {
    banner(
        "Figure 3",
        "PBSM: sort-phase dedup (PD) vs Reference Point Method (RP), J1-J4, M=2.5MB",
        "RP avoids the dedup I/O entirely; the PD overhead grows with the \
         result set (J1→J4); RP is considerably faster overall",
    );
    let mem = paper_mem(2.5);
    println!(
        "{:<5} {:>10} | {:>12} {:>12} {:>12} | {:>10} {:>10}",
        "join", "results", "base io u", "PD dedup u", "RP dedup u", "PD tot s", "RP tot s"
    );
    for p in 1..=4u32 {
        let (r, s) = join_inputs(p);
        let run = |dedup: Dedup| {
            let disk = SimDisk::with_default_model();
            let cfg = pbsm_cfg(mem, InternalAlgo::PlaneSweepList, dedup);
            pbsm_join(&disk, &r, &s, &cfg, &mut |_, _| {})
        };
        let pd = run(Dedup::SortPhase);
        let rp = run(Dedup::ReferencePoint);
        assert_eq!(pd.results, rp.results, "dedup strategies disagree");
        let base_io = rp.cost.model.units(
            &rp.cost[Phase::Partition]
                .io
                .plus(&rp.cost[Phase::Repartition].io)
                .plus(&rp.cost[Phase::Join].io),
        );
        let pd_dedup = pd.cost.model.units(&pd.cost[Phase::Dedup].io);
        let rp_dedup = rp.cost.model.units(&rp.cost[Phase::Dedup].io);
        println!(
            "{:<5} {:>10} | {:>12.0} {:>12.0} {:>12.0} | {:>10.1} {:>10.1}",
            format!("J{p}"),
            rp.results,
            base_io,
            pd_dedup,
            rp_dedup,
            pd.cost.total_seconds(),
            rp.cost.total_seconds()
        );
    }
}
