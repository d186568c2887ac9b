//! Criterion benchmark behind Fig. 15: offline solve time of Flexile's
//! decomposition vs the monolithic IP, per topology.

use criterion::{criterion_group, criterion_main, Criterion};
use flexile_bench::{two_class_setup, ExpConfig};
use flexile_core::{solve_flexile, solve_ip, FlexileOptions};
use flexile_lp::MipOptions;
use std::hint::black_box;
use std::time::Duration;

fn cfg() -> ExpConfig {
    ExpConfig { max_pairs: Some(12), max_scenarios: 10, ..Default::default() }
}

fn bench_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("offline/flexile");
    group.sample_size(10);
    for name in ["Sprint", "B4", "IBM"] {
        let (inst, set) = two_class_setup(name, &cfg());
        group.bench_function(name, |b| {
            b.iter(|| {
                solve_flexile(
                    black_box(&inst),
                    &set,
                    &FlexileOptions { threads: 4, ..Default::default() },
                )
                .penalty
            })
        });
    }
    group.finish();
}

fn bench_ip(c: &mut Criterion) {
    let mut group = c.benchmark_group("offline/ip");
    group.sample_size(10);
    for name in ["Sprint", "B4"] {
        let (inst, set) = two_class_setup(name, &cfg());
        group.bench_function(name, |b| {
            b.iter(|| {
                solve_ip(
                    black_box(&inst),
                    &set,
                    &MipOptions {
                        max_nodes: 2_000,
                        time_limit: Duration::from_secs(30),
                        ..Default::default()
                    },
                )
                .penalty
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decomposition, bench_ip);
criterion_main!(benches);
