//! Parallel scaling: PBSM and S³J at 1/2/4/8 worker threads × 1/4 simulated
//! I/O channels on the synthetic LA_RR ⋈ LA_ST workload.
//!
//! Threads cut the *measured compute* of the join phase; channels cut the
//! *simulated disk time* (partition/level files overlap across channels
//! while shared files stay serial), so `total_model_s` responds to both
//! axes while the result counters stay bit-identical everywhere.
//!
//! Emits one JSON row per (algorithm, threads, channels) point on stdout
//! (JSON Lines, first row is run metadata), so the output can be captured
//! directly:
//!
//! ```text
//! cargo run --release --bin scaling > results/scaling.json
//! ```
//!
//! Human-readable context goes to stderr. `join_phase_s` is the measured
//! compute time of the join phase — on the parallel path that is the
//! max-over-workers on-CPU time (plus, for S³J, the coordinator's discovery
//! scan), i.e. what the phase costs on dedicated cores; on an unloaded
//! multicore host the pool barrier realises the same number as wall time.
//! `wall_s` is the raw end-to-end wall clock of the whole call on *this*
//! host, which cannot drop below the sequential time when the host has
//! fewer cores than workers.

use std::time::Instant;

use bench::{la_rr, la_st, paper_mem, pbsm_cfg, s3j_cfg, scale};
use pbsm::{pbsm_join, Dedup};
use s3j::s3j_join;
use storage::{DiskModel, Phase, SimDisk};
use sweep::InternalAlgo;

const THREAD_POINTS: [usize; 4] = [1, 2, 4, 8];
const CHANNEL_POINTS: [usize; 2] = [1, 4];

fn disk(channels: usize) -> SimDisk {
    SimDisk::new(DiskModel {
        channels,
        ..Default::default()
    })
}

struct Point {
    join_phase_s: f64,
    total_model_s: f64,
    wall_s: f64,
    results: u64,
}

fn main() {
    let r = la_rr();
    let s = la_st();
    // Tighter budget than the paper's usual 5 MB so PBSM forms enough
    // partitions (~13 at full scale) to keep 8 workers busy — with 2-3
    // partitions the speedup curve would just measure the task count.
    let mem = paper_mem(0.5);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!(
        "scaling: LA_RR ({}) ⋈ LA_ST ({}), M = {mem} bytes, scale {}, host cores {cores}",
        r.len(),
        s.len(),
        scale()
    );
    println!(
        "{{\"meta\":{{\"workload\":\"la_rr x la_st\",\"r\":{},\"s\":{},\"mem_bytes\":{mem},\
         \"scale\":{},\"host_cores\":{cores},\
         \"join_phase_s\":\"max-over-workers on-CPU compute of the join phase\"}}}}",
        r.len(),
        s.len(),
        scale()
    );

    for (algo, run) in [
        (
            "pbsm",
            Box::new(|threads: usize, channels: usize| {
                let mut cfg = pbsm_cfg(mem, InternalAlgo::PlaneSweepList, Dedup::ReferencePoint);
                cfg.threads = threads;
                let disk = disk(channels);
                let t0 = Instant::now();
                let st = pbsm_join(&disk, r, s, &cfg, &mut |_, _| {});
                Point {
                    join_phase_s: st.cost[Phase::Join].cpu,
                    total_model_s: st.cost.total_seconds(),
                    wall_s: t0.elapsed().as_secs_f64(),
                    results: st.results,
                }
            }) as Box<dyn Fn(usize, usize) -> Point>,
        ),
        (
            "s3j",
            Box::new(|threads: usize, channels: usize| {
                let mut cfg = s3j_cfg(mem, true);
                cfg.threads = threads;
                let disk = disk(channels);
                let t0 = Instant::now();
                let st = s3j_join(&disk, r, s, &cfg, &mut |_, _| {});
                Point {
                    join_phase_s: st.cost[Phase::Join].cpu,
                    total_model_s: st.cost.total_seconds(),
                    wall_s: t0.elapsed().as_secs_f64(),
                    results: st.results,
                }
            }),
        ),
    ] {
        let mut base: Option<Point> = None;
        for channels in CHANNEL_POINTS {
            for threads in THREAD_POINTS {
                let p = run(threads, channels);
                let baseline = base.as_ref().unwrap_or(&p);
                let speedup = baseline.join_phase_s / p.join_phase_s.max(1e-12);
                let model_speedup = baseline.total_model_s / p.total_model_s.max(1e-12);
                assert_eq!(
                    p.results, baseline.results,
                    "{algo} results drift at {threads} threads, {channels} channels"
                );
                println!(
                    "{{\"algo\":\"{algo}\",\"threads\":{threads},\"channels\":{channels},\
                     \"join_phase_s\":{:.4},\"join_phase_speedup\":{:.2},\
                     \"total_model_s\":{:.2},\"total_model_speedup\":{:.2},\"wall_s\":{:.3},\
                     \"results\":{}}}",
                    p.join_phase_s, speedup, p.total_model_s, model_speedup, p.wall_s, p.results
                );
                eprintln!(
                    "{algo:>5} threads={threads} channels={channels}: join phase {:.3}s \
                     ({speedup:.2}x), model total {:.2}s ({model_speedup:.2}x), wall {:.2}s",
                    p.join_phase_s, p.total_model_s, p.wall_s
                );
                if base.is_none() {
                    base = Some(p);
                }
            }
        }
    }
}
