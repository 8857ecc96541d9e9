//! The generated datasets, pinned bit for bit: one FNV-1a digest over
//! every column of `sports_table` and `neighbors_table` at three seeds and
//! two sizes, read through `Table::column` (which makes a deferred column
//! on its first read). A generator change that moves a single value — a
//! draw taken out of order, padding drawn from another point of the RNG
//! stream — fails here.

use lts_data::neighbors::{neighbors_table, NeighborsConfig};
use lts_data::sports::{sports_table, SportsConfig};
use lts_table::{Column, Table};

/// FNV-1a over every column's name and its values' bit patterns, in
/// schema order.
fn digest(table: &Table) -> u64 {
    let mut bytes = Vec::new();
    for (i, field) in table.schema().fields().iter().enumerate() {
        bytes.extend_from_slice(field.name.as_bytes());
        match table.column(i).unwrap() {
            Column::Float(v) => v
                .iter()
                .for_each(|x| bytes.extend_from_slice(&x.to_bits().to_le_bytes())),
            Column::Int(v) => v
                .iter()
                .for_each(|x| bytes.extend_from_slice(&x.to_le_bytes())),
            other => panic!("no generator makes a {} column", other.data_type()),
        }
    }
    lts_core::fnv1a(&bytes)
}

/// `(seed, rows, digest)`.
const SPORTS: [(u64, usize, u64); 6] = [
    (1, 100, 0xadd9_aedd_c066_c10e),
    (7, 100, 0x6444_d9c2_f552_c8a1),
    (41, 100, 0xa90b_15b8_ebb1_64ce),
    (1, 8_000, 0xc530_c1d5_76f0_e8a8),
    (7, 8_000, 0xf51d_3319_981e_6999),
    (41, 8_000, 0x3c3e_3140_061a_c794),
];

/// `(seed, rows, digest)` of the 41-feature table.
const NEIGHBORS: [(u64, usize, u64); 6] = [
    (1, 100, 0x1e91_e738_6a2d_5552),
    (7, 100, 0xb38f_7921_6873_34e3),
    (41, 100, 0x7f74_b7e0_fd22_beef),
    (1, 8_000, 0x9713_68ac_400a_8ff1),
    (7, 8_000, 0x322a_bdf0_4079_1311),
    (41, 8_000, 0x224d_3ff5_58d2_5182),
];

/// `(seed, rows, digest)` of the table with no padding (`features: 2`).
const NEIGHBORS_UNPADDED: (u64, usize, u64) = (7, 8_000, 0xa1f6_9615_c44b_46ac);

#[test]
fn generated_tables_repeat_bit_for_bit() {
    let mut got = Vec::new();
    for (seed, rows, _) in SPORTS {
        got.push(digest(&sports_table(&SportsConfig { rows, seed }).unwrap()));
    }
    let neighbors = |seed, rows, features| {
        let config = NeighborsConfig {
            rows,
            features,
            seed,
        };
        digest(&neighbors_table(&config).unwrap())
    };
    for (seed, rows, _) in NEIGHBORS {
        got.push(neighbors(seed, rows, 41));
    }
    let (seed, rows, _) = NEIGHBORS_UNPADDED;
    got.push(neighbors(seed, rows, 2));
    let want: Vec<u64> = SPORTS
        .iter()
        .chain(&NEIGHBORS)
        .chain([&NEIGHBORS_UNPADDED])
        .map(|c| c.2)
        .collect();
    let hex = |v: &[u64]| v.iter().map(|d| format!("{d:#018x}")).collect::<Vec<_>>();
    assert_eq!(hex(&got), hex(&want));
}
