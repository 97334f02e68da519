//! Digests pinned from the simulator for the default seed (0), in
//! [`crate::cells::BENCHES`] order. Regenerate with `--pin` after a
//! deliberate model change, and record the cause.

use crate::cells::CellStats;

pub struct Golden {
    /// Functional cell, adaptive 8-bit L2.
    pub func: CellStats,
    /// Timed cell, adaptive 8-bit L2.
    pub timed: CellStats,
    pub lru_cycles: u64,
    /// L2 misses of each organisation of [`crate::cells::orgs`].
    pub org_misses: [u64; 6],
    /// Belady/OPT misses on the captured trace.
    pub opt_misses: u64,
}

const fn cell(l2_hits: u64, l2_misses: u64, imit_a: u64, imit_b: u64, cycles: u64) -> CellStats {
    CellStats {
        l2_hits,
        l2_misses,
        imit_a,
        imit_b,
        cycles,
    }
}

pub const GOLDEN: [Golden; 5] = [
    // ammp
    Golden {
        func: cell(129418, 61360, 33346, 19822, 0),
        timed: cell(129418, 61360, 33346, 19822, 8911326),
        lru_cycles: 8844846,
        org_misses: [60314, 76714, 61360, 61360, 63488, 62959],
        opt_misses: 47990,
    },
    // art-1
    Golden {
        func: cell(122026, 67616, 5162, 54262, 0),
        timed: cell(122026, 67616, 5162, 54262, 9046619),
        lru_cycles: 10601648,
        org_misses: [81473, 64575, 67616, 67616, 68028, 79545],
        opt_misses: 64544,
    },
    // mcf
    Golden {
        func: cell(147972, 361652, 62818, 290642, 0),
        timed: cell(147972, 361652, 62818, 290642, 53317457),
        lru_cycles: 58236463,
        org_misses: [398914, 358919, 361652, 361652, 362296, 327133],
        opt_misses: 312898,
    },
    // parser
    Golden {
        func: cell(104095, 9546, 3816, 1928, 0),
        timed: cell(104095, 9546, 3816, 1928, 3574891),
        lru_cycles: 3589909,
        org_misses: [9643, 9844, 9546, 9546, 9643, 6257],
        opt_misses: 5061,
    },
    // crafty
    Golden {
        func: cell(116071, 10373, 915, 5109, 0),
        timed: cell(116071, 10373, 915, 5109, 3669082),
        lru_cycles: 3796614,
        org_misses: [11233, 10394, 10373, 10373, 10445, 8297],
        opt_misses: 6731,
    },
];
