//! Table 2: the joins J1–J5 — result counts and selectivity.

use bench::{banner, cal_st, join_inputs, paper_mem};
use spatialjoin::{Algorithm, JoinError, SpatialJoin};

fn main() -> Result<(), JoinError> {
    banner(
        "Table 2",
        "the spatial joins of the experiments",
        "J1: 85,854 results (sel 5.06e-6) … J4: 1,195,527 (7.05e-5); \
         J5 (CAL_ST self join): 9,784,072 (2.74e-6)",
    );
    println!(
        "{:<6} {:<22} {:>12} {:>14}",
        "join", "R ⋈ S", "results", "selectivity"
    );
    let join = SpatialJoin::new(Algorithm::pbsm_rpm(paper_mem(16.0)));
    for p in 1..=4u32 {
        let (r, s) = join_inputs(p);
        let (n, _) = join.try_count(&r, &s)?;
        let sel = n as f64 / (r.len() as f64 * s.len() as f64);
        println!(
            "{:<6} {:<22} {:>12} {:>14.2e}",
            format!("J{p}"),
            format!("LA_RR({p}) ⋈ LA_ST({p})"),
            n,
            sel
        );
    }
    let cal = cal_st();
    let join5 = SpatialJoin::new(Algorithm::pbsm_rpm(paper_mem(40.0)));
    let (n, _) = join5.try_count(cal, cal)?;
    let sel = n as f64 / (cal.len() as f64 * cal.len() as f64);
    println!(
        "{:<6} {:<22} {:>12} {:>14.2e}",
        "J5",
        "CAL_ST ⋈ CAL_ST",
        n,
        sel
    );
    Ok(())
}
