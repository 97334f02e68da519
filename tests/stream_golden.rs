//! Stream goldens: a 64-bit digest of the first instructions of every
//! `extended_suite()` benchmark, pinned so that any change to the
//! instruction generators — sampler, word consumption order, pattern
//! state — shows up as a named benchmark with a changed digest.
//!
//! The digest covers every field of every instruction: pc, kind,
//! address, branch direction and target, and both dependency distances.
//! A failure prints the fresh digests, so when a change to the streams is
//! deliberate, copy them into the tables and record the cause in
//! CHANGES.md.

use workloads::{extended_suite, Inst, InstKind};

/// Instructions digested per benchmark.
const INSTS: usize = 20_000;

/// Instructions digested for the late-stream check.
const LATE_INSTS: usize = 1_500_000;

/// One round of a splitmix-style finaliser over `h ^ v`. The xor-shifts
/// carry high product bits back down, so a change in any input bit
/// (including the `deps` bytes) reaches every output bit.
fn mix(h: u64, v: u64) -> u64 {
    let mut z = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn digest(insts: impl Iterator<Item = Inst>) -> u64 {
    insts.fold(0, |mut h, i| {
        h = mix(h, i.pc);
        let (tag, a, b) = match i.kind {
            InstKind::IntAlu => (0, 0, 0),
            InstKind::IntMul => (1, 0, 0),
            InstKind::IntDiv => (2, 0, 0),
            InstKind::FpAdd => (3, 0, 0),
            InstKind::FpDiv => (4, 0, 0),
            InstKind::Load { addr } => (5, addr, 0),
            InstKind::Store { addr } => (6, addr, 0),
            InstKind::Branch { taken, target } => (7, u64::from(taken), target),
        };
        h = mix(
            h,
            tag | u64::from(i.deps[0]) << 8 | u64::from(i.deps[1]) << 16,
        );
        h = mix(h, a);
        mix(h, b)
    })
}

/// `(benchmark, digest of its first INSTS instructions)`, in suite order.
const GOLDEN: &[(&str, u64)] = &[
    ("ammp", 0x8b724c0d14610350),
    ("applu", 0xa06d091b29a3d233),
    ("art-1", 0x070ccebcc432bc5f),
    ("art-2", 0x582e11f34c776f93),
    ("bzip2", 0x1232d86bed60a9e3),
    ("equake", 0x4049b6bfe813feca),
    ("facerec", 0x94c5b95cc4f45adc),
    ("fma3d", 0xb0739fc17217e181),
    ("ft", 0xe6a1f75c2355301f),
    ("gap", 0x02a9707ce941b8be),
    ("gcc-1", 0x1a77998989b99bab),
    ("gcc-2", 0x2d3c6d2e9ec513a2),
    ("lucas", 0xff4517c99cf702e3),
    ("mcf", 0xd9ec536f1a646262),
    ("mgrid", 0x7c33d6b8de45e882),
    ("parser", 0x554a149a51739e2f),
    ("swim", 0x2d3900124ec8ccd3),
    ("tiff2rgba", 0x0462da0c40b3c820),
    ("twolf", 0x475ec6fe01346532),
    ("unepic", 0x51b70e01a6ddbba3),
    ("vpr-1", 0x12f8a41ea97a20e9),
    ("vpr-2", 0x48858e5e86ea09da),
    ("wupwise", 0x4f2536b8ca4bd809),
    ("x11quake-1", 0x57b715ed5c4ecb54),
    ("x11quake-2", 0x820b404a1039be9f),
    ("xanim", 0xf1f0d458270b901d),
    ("gzip-1", 0xbf157213a06135dd),
    ("gzip-2", 0x812b367e95c0ea1b),
    ("crafty", 0x89d7895cb9a43520),
    ("eon", 0x94f3e6a3f6fa55e9),
    ("perlbmk-1", 0xc3410d30b4798643),
    ("perlbmk-2", 0xbbc463b6d4906b80),
    ("vortex-1", 0xafd3ed5dd30f6534),
    ("vortex-2", 0x42b08ab9c6b3e57c),
    ("wupwise-2", 0x533e36deeb8d95b0),
    ("mesa", 0xc13b94965ba0267e),
    ("galgel", 0xf53c297ab346662d),
    ("sixtrack", 0x124bcbe0cb897164),
    ("apsi", 0xe2c1026e3da18f8e),
    ("mgrid-2", 0xc51d3b9a4b09d552),
    ("applu-2", 0x9fb309d2de38bdb6),
    ("equake-2", 0xce8d90667d42adcf),
    ("adpcm-enc", 0x591b887f2f819a75),
    ("adpcm-dec", 0xbd3f348412399921),
    ("epic", 0x30f82415623e1f58),
    ("g721-enc", 0x7f1b083d77bb9e7e),
    ("g721-dec", 0xc81a4b3a3e4e42fb),
    ("ghostscript", 0x33aee1cc66e5c0a8),
    ("gsm-enc", 0xac8259f8632386f9),
    ("gsm-dec", 0xa1147476c62d094b),
    ("jpeg-enc", 0xf84bfdc3be7413a6),
    ("jpeg-dec", 0xf20b7836497d0312),
    ("mpeg2-enc", 0x3fa868784ae63d9f),
    ("mpeg2-dec", 0x590cee832576dd78),
    ("pegwit", 0x55253c99e152be92),
    ("pgp", 0xf61749be5fb89a69),
    ("rasta", 0x0c55bc751ef461cf),
    ("basicmath", 0xa27edca22056761b),
    ("bitcount", 0x50747767835bf9f2),
    ("qsort", 0x42f58e67b1f70f38),
    ("susan", 0xef3597f88127d5c7),
    ("dijkstra", 0xd5c6b09747718bcc),
    ("patricia", 0x7da73e9107762c1a),
    ("stringsearch", 0xfa5a0ce3f056523a),
    ("blowfish", 0x083077267a6191a6),
    ("rijndael", 0xc5d29b423f6ffa75),
    ("sha", 0xc5cc701e41513669),
    ("crc32", 0x9aeb2a73c7b6f8d6),
    ("fft-mi", 0x375d5e01fc0e3298),
    ("lame", 0xf6de1671f74cd9dd),
    ("typeset", 0xe4be5d465305fa23),
    ("mummer", 0xb0e4fc45a92c960f),
    ("tigr", 0x9ee13dd92d8e2547),
    ("fasta", 0x523281d6b996cbf6),
    ("clustalw", 0xf76fa633b031ee66),
    ("hmmer", 0xd7c03c50a7499d5d),
    ("blastp", 0x84147e3deec9cdba),
    ("phylip", 0x7d30618843b96c46),
    ("anagram", 0x1569c39bf0b1738b),
    ("bc", 0x8fc7e65950c44b82),
    ("ks", 0x8aa7e1c6662cf76e),
    ("yacr2", 0xc60d177c2a3b7989),
    ("bh", 0x22756a9b21b6c57c),
    ("bisort", 0xb4203de6f6e4f32a),
    ("em3d", 0xc993b0c56f100e32),
    ("health", 0xedffcc9269fbffa0),
    ("mst", 0x908393ecf8a9bded),
    ("perimeter", 0xce923d1bed90f79b),
    ("power", 0xa2bec335ea765ff2),
    ("treeadd", 0xd8d563f2fcadcbb5),
    ("tsp", 0x9c426851af94b754),
    ("voronoi", 0x0f93a9ba5e3315b5),
    ("doom", 0x8a1487b8126dfb33),
    ("quake2", 0x577229df8012da21),
    ("unreal", 0xbafff31ddcb0f56b),
    ("povray", 0x123b43d1d43e5405),
    ("tachyon", 0xb3262817c1b84ba4),
    ("raytrace", 0xbb3f1742dae473ac),
    ("glquake", 0x8f975b7bca61081e),
    ("descent", 0x118792f58786586c),
];

/// `(benchmark, digest of its first LATE_INSTS instructions)` for two
/// stack-distance benchmarks: `basicmath`, whose 512-block live set fills
/// after ~0.9M instructions so blocks retire, and `parser`, whose
/// 10,240-block stack grows deep.
const LATE_GOLDEN: [(&str, u64); 2] = [
    ("basicmath", 0xa3ca3451ba1f2e24),
    ("parser", 0xbe71dce173c8f27c),
];

#[test]
fn every_benchmark_stream_matches_its_golden_digest() {
    let suite = extended_suite();
    let fresh: Vec<(String, u64)> = suite
        .iter()
        .map(|b| (b.name.clone(), digest(b.spec.generator().take(INSTS))))
        .collect();
    let names: Vec<&str> = fresh.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = GOLDEN.iter().map(|(n, _)| *n).collect();
    let table: String = fresh
        .iter()
        .map(|(n, d)| format!("    ({n:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        names, pinned,
        "the suite's benchmarks changed; fresh digests:\n{table}"
    );
    let diffs: Vec<String> = fresh
        .iter()
        .zip(GOLDEN)
        .filter(|((_, d), (_, g))| d != g)
        .map(|((n, d), (_, g))| format!("{n}: golden {g:#018x}, now {d:#018x}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "stream digests changed:\n{}",
        diffs.join("\n")
    );
}

#[test]
fn late_stream_matches_its_golden_digest() {
    let suite = extended_suite();
    let fresh: Vec<u64> = LATE_GOLDEN
        .iter()
        .map(|(name, _)| {
            let b = suite.iter().find(|b| b.name == *name).expect("benchmark");
            digest(b.spec.generator().take(LATE_INSTS))
        })
        .collect();
    for ((name, golden), d) in LATE_GOLDEN.iter().zip(fresh) {
        assert_eq!(d, *golden, "{name}: late-stream digest changed");
    }
}

#[test]
fn digest_sees_every_field() {
    let base = Inst {
        pc: 0x40_0000,
        kind: InstKind::Branch {
            taken: false,
            target: 0x40_0040,
        },
        deps: [3, 0],
    };
    let variants = [
        Inst {
            pc: 0x40_0004,
            ..base
        },
        Inst {
            deps: [4, 0],
            ..base
        },
        Inst {
            deps: [3, 1],
            ..base
        },
        Inst {
            kind: InstKind::Branch {
                taken: true,
                target: 0x40_0040,
            },
            ..base
        },
        Inst {
            kind: InstKind::Branch {
                taken: false,
                target: 0x40_0080,
            },
            ..base
        },
        Inst {
            kind: InstKind::Load { addr: 0x40_0040 },
            ..base
        },
    ];
    let d0 = digest(std::iter::once(base));
    for v in variants {
        let d = digest(std::iter::once(v));
        assert_ne!(d, d0, "{v:?}");
        // Low bits change too, not only the high ones.
        assert_ne!(d & 0xFFFF, d0 & 0xFFFF, "{v:?}");
    }
}
