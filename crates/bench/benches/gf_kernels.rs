//! Benchmarks of the GF(256) kernel behind the coded gossip codecs: the
//! product-table multiply, [`gf_axpy`] at the row lengths the decoders
//! actually touch, end-to-end decoder fills at each supported generation
//! size for the dense and sparse encoders, and the encode of a full-rank
//! decoder at generations 8 and 32. `Decoder::encode` and `insert` run
//! the row kernel tier this CPU has (`RowKernel::detect`: GFNI, AVX2 or
//! the product table), printed before the rows; `gf_axpy` is always the
//! product table. (The Russian-peasant scalar rows the table was first
//! measured against are recorded in `BENCH_ab_pr14.json`.)

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pdht_gossip::codec::{gf_axpy, gf_mul, CoeffVec, Decoder, RowKernel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Row lengths exercised by the axpy benchmarks: a generation-8 coefficient
/// row, the mean `[c..g]` slice a triangular encode or elimination folds at
/// generation 32, a whole generation-32 row, and a payload-sized row (the
/// chunk length a wire implementation would fold per packet).
const ROW_LENS: [usize; 4] = [8, 16, 32, 1024];

fn rand_bytes(rng: &mut SmallRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.random::<u8>()).collect()
}

fn bench_mul(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(0x6f_0001);
    let pairs: Vec<(u8, u8)> =
        (0..4096).map(|_| (rng.random::<u8>(), rng.random::<u8>())).collect();
    c.bench_function("gf/mul_table_4096", |b| {
        b.iter(|| {
            let mut acc = 0u8;
            for &(x, y) in &pairs {
                acc ^= gf_mul(x, y);
            }
            black_box(acc)
        })
    });
}

fn bench_axpy(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(0x6f_0002);
    // Every nonzero multiplier, visited per iteration: row elimination
    // picks a fresh `f` per pivot, so each call lands on a different
    // product-table row.
    let fs: Vec<u8> = (1..=255u8).collect();
    for len in ROW_LENS {
        let src = rand_bytes(&mut rng, len);
        let mut dst = rand_bytes(&mut rng, len);
        c.bench_function(&format!("gf/axpy_{len}x255"), |b| {
            b.iter(|| {
                for &f in &fs {
                    gf_axpy(&mut dst, &src, f);
                }
                black_box(dst[0])
            })
        });
    }
}

fn bench_decoder_fill(c: &mut Criterion) {
    println!("decoder row kernel: {:?}", RowKernel::detect());
    for g in [8usize, 16, 32] {
        let source = Decoder::full(g);
        for sparse in [false, true] {
            let label = if sparse { "sparse" } else { "dense" };
            c.bench_function(&format!("gf/decoder_fill_g{g}_{label}"), |b| {
                let mut rng = SmallRng::seed_from_u64(0x6f_0003);
                b.iter(|| {
                    let mut sink = Decoder::empty(g);
                    // 4g packets bound the fill even when sparse draws go
                    // badly; typical fills finish in little more than g.
                    for _ in 0..4 * g {
                        if sink.is_complete() {
                            break;
                        }
                        let pkt = if sparse {
                            source.encode_sparse(&mut rng)
                        } else {
                            source.encode(&mut rng)
                        };
                        sink.insert(pkt);
                    }
                    black_box(sink.rank())
                })
            });
        }
    }
}

fn bench_encode(c: &mut Criterion) {
    // A full-rank decoder with dense echelon rows: the sender a coded wave
    // draws most of its packets from once the generation has spread. G = 8
    // is `loaded_mix`'s generation, G = 32 `gossip_coded`'s.
    for g in [8usize, 32] {
        let mut rng = SmallRng::seed_from_u64(0x6f_0004);
        let mut sender = Decoder::empty(g);
        while !sender.is_complete() {
            let mut v = CoeffVec::zero(g);
            v.as_mut_slice().iter_mut().for_each(|b| *b = rng.random());
            sender.insert(v);
        }
        c.bench_function(&format!("gf/encode_g{g}_full_rank"), |b| {
            b.iter(|| black_box(sender.encode(&mut rng)))
        });
    }
}

criterion_group!(benches, bench_mul, bench_axpy, bench_decoder_fill, bench_encode);
criterion_main!(benches);
