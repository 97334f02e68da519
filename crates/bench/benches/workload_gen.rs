//! Criterion micro-benchmarks: instruction-stream generation throughput
//! per archetype (the simulator must never be generator-bound) and trace
//! decode throughput (replay must never be I/O-format-bound).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use workloads::trace_io::{read_binary, read_text, write_binary, write_text};
use workloads::{extended_suite, primary_suite};

fn bench_archetypes(c: &mut Criterion) {
    let suite = extended_suite();
    let mut group = c.benchmark_group("trace_gen");
    group.throughput(Throughput::Elements(10_000));
    for name in ["applu", "art-1", "mcf", "parser", "ammp", "crafty"] {
        let bench = suite.iter().find(|b| b.name == name).unwrap().clone();
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut total = 0u64;
                for inst in bench.spec.generator().take(10_000) {
                    total ^= inst.pc;
                }
                black_box(total)
            });
        });
    }
    // Late in a stack-distance stream: 1.5M instructions in, `parser`'s
    // live set is thousands of blocks deep, so the cost of a
    // re-reference at depth shows. One generator keeps running across
    // iterations, so every timed instruction is a late one.
    let parser = suite.iter().find(|b| b.name == "parser").unwrap();
    let mut late = parser.spec.generator();
    late.nth(1_500_000);
    group.bench_function("parser-late", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for inst in late.by_ref().take(10_000) {
                total ^= inst.pc;
            }
            black_box(total)
        });
    });
    group.finish();
}

fn bench_suite_construction(c: &mut Criterion) {
    c.bench_function("extended_suite_construction", |b| {
        b.iter(|| black_box(extended_suite()).len())
    });
}

/// Decode throughput for both interchange formats over a representative
/// 10k-instruction capture.
fn bench_trace_decode(c: &mut Criterion) {
    let n = 10_000usize;
    let bench = primary_suite()
        .iter()
        .find(|b| b.name == "mcf")
        .unwrap()
        .clone();
    let insts: Vec<_> = bench.spec.generator().take(n).collect();

    let mut binary = Vec::new();
    write_binary(&mut binary, insts.iter().cloned()).unwrap();
    let mut text = Vec::new();
    write_text(&mut text, insts.iter().cloned()).unwrap();

    let mut group = c.benchmark_group("trace_decode");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("binary", |b| {
        b.iter(|| {
            let decoded = read_binary(binary.as_slice()).unwrap();
            black_box(decoded.len())
        });
    });
    group.bench_function("text", |b| {
        b.iter(|| {
            let decoded = read_text(text.as_slice()).unwrap();
            black_box(decoded.len())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_archetypes,
    bench_suite_construction,
    bench_trace_decode
);
criterion_main!(benches);
