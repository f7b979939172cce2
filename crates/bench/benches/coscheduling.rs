//! Criterion benches for the coupled simulator end-to-end: how fast a
//! coupled day of the ANL workload simulates under each scheme combination,
//! and the protocol overhead per coordination call.

use cosched_bench::harness;
use cosched_core::{CoupledConfig, CoupledSimulation, SchemeCombo};
use cosched_proto::{frame, Request, Response};
use cosched_workload::JobId;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_coupled_day(c: &mut Criterion) {
    let mut group = c.benchmark_group("coupled_simulation_3days");
    group.sample_size(10);
    for combo in [None, Some(SchemeCombo::HH), Some(SchemeCombo::YY)] {
        let label = combo.map_or("baseline".to_string(), |c| c.label());
        group.bench_with_input(BenchmarkId::from_parameter(label), &combo, |b, &combo| {
            b.iter_batched(
                || harness::anl_load_traces(1, 3, 0.5),
                |traces| {
                    let config = combo.map_or_else(CoupledConfig::anl_baseline, CoupledConfig::anl);
                    black_box(CoupledSimulation::new(config, traces).run().events)
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_protocol_framing(c: &mut Criterion) {
    let req = Request::GetMateStatus {
        job: JobId(123_456),
    };
    c.bench_function("protocol/encode_decode_roundtrip", |b| {
        b.iter(|| {
            let wire = frame::encode(&req);
            let mut dec = frame::FrameDecoder::new();
            dec.extend(&wire);
            let back: Request = dec.next().unwrap().unwrap();
            black_box(back)
        })
    });
    let resp = Response::Started(true);
    c.bench_function("protocol/encode_response", |b| {
        b.iter(|| black_box(frame::encode(&resp)))
    });
}

criterion_group!(benches, bench_coupled_day, bench_protocol_framing);
criterion_main!(benches);
