//! Wall-clock microbenchmarks for the code layer (companion to table E1):
//! encoding and decoding throughput of beep / distance / Kautz–Singleton
//! codes at paper-like parameters.

use beep_bits::{superimpose, BitVec};
use beep_codes::{
    BeepCode, BeepCodeParams, DistanceCode, DistanceCodeParams, KautzSingleton, MessageDecoder,
    SetDecoder,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode");
    for (a, k, cc) in [(16usize, 8usize, 3usize), (32, 16, 3), (64, 32, 3)] {
        let params = BeepCodeParams::new(a, k, cc).unwrap();
        let code = BeepCode::with_seed(params, 1);
        let mut rng = StdRng::seed_from_u64(2);
        group.bench_function(
            format!("beep a={a} k={k} c={cc} (len {})", params.length()),
            |b| {
                b.iter_batched(
                    || BitVec::random_uniform(a, &mut rng),
                    |r| black_box(code.encode(&r)),
                    BatchSize::SmallInput,
                );
            },
        );
    }
    let dist = DistanceCode::with_seed(DistanceCodeParams::new(32, 9).unwrap(), 1);
    let mut rng = StdRng::seed_from_u64(3);
    group.bench_function("distance B=32 c=9", |b| {
        b.iter_batched(
            || BitVec::random_uniform(32, &mut rng),
            |m| black_box(dist.encode(&m)),
            BatchSize::SmallInput,
        );
    });
    let ks = KautzSingleton::new(32, 16).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    group.bench_function(
        format!("kautz-singleton a=32 k=16 (len {})", ks.params().length()),
        |b| {
            b.iter_batched(
                || BitVec::random_uniform(32, &mut rng),
                |m| black_box(ks.encode(&m)),
                BatchSize::SmallInput,
            );
        },
    );
    group.finish();
}

fn bench_decoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode");
    let params = BeepCodeParams::new(32, 16, 3).unwrap();
    let code = BeepCode::with_seed(params, 1);
    let mut rng = StdRng::seed_from_u64(5);
    let members: Vec<BitVec> = (0..16)
        .map(|_| BitVec::random_uniform(32, &mut rng))
        .collect();
    let sup = superimpose(
        members
            .iter()
            .map(|r| code.encode(r))
            .collect::<Vec<_>>()
            .iter(),
    )
    .unwrap()
    .flipped_with_noise(0.1, &mut rng);
    let decoder = SetDecoder::new(&code, 0.1);
    group.bench_function("set-decode 16 members + 16 decoys (noisy)", |b| {
        let decoys: Vec<BitVec> = (0..16)
            .map(|_| BitVec::random_uniform(32, &mut rng))
            .collect();
        b.iter(|| {
            let mut accepted = 0;
            for r in members.iter().chain(&decoys) {
                if decoder.accepts(black_box(r), &sup) {
                    accepted += 1;
                }
            }
            black_box(accepted)
        });
    });

    let dist = DistanceCode::with_seed(DistanceCodeParams::new(16, 18).unwrap(), 1);
    let msg_decoder = MessageDecoder::new(&dist);
    let truth = BitVec::random_uniform(16, &mut rng);
    let received = dist.encode(&truth).flipped_with_noise(0.1, &mut rng);
    let candidates: Vec<BitVec> = std::iter::once(truth)
        .chain((0..63).map(|_| BitVec::random_uniform(16, &mut rng)))
        .collect();
    group.bench_function("message-decode 64 candidates (noisy)", |b| {
        b.iter(|| {
            black_box(
                msg_decoder
                    .decode_candidates(&received, candidates.iter())
                    .unwrap(),
            )
        });
    });
    // Same received string and candidates, decoded against a codebook
    // built once outside the timed loop (how a simulated round decodes).
    let codebook = msg_decoder.codebook(&candidates);
    group.bench_function("message-decode 64 candidates (codebook)", |b| {
        b.iter(|| black_box(codebook.decode(&received).unwrap()));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_encoding, bench_decoding
}
criterion_main!(benches);
