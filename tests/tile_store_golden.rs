//! Golden-bytes test: the tile-store files both builders write, byte for
//! byte.
//!
//! The table below was recorded at the commit before every blocked layout
//! took its cell geometry (bounds, cell ids, the cell of a coordinate) from
//! one checked type. It pins what no round-trip test can: the on-disk cell
//! order, the table's offsets and lengths, and each tile's entry order —
//! mode-0 fiber order from `create_from_coo`, input order from
//! `build_from_tnsb`. Grid `[1,1,1]` is one tile, `[3,2,2]` leaves tiles of
//! unequal extent, and `[4,4,4]` leaves some cells empty.
//!
//! A change that *means* to alter the format re-records the table from the
//! failure messages, which print the new hash.

use std::path::PathBuf;
use tenblock::tensor::gen::{clustered_tensor, powerlaw_tensor, ClusteredConfig, PowerLawConfig};
use tenblock::tensor::io_bin::write_bin_file;
use tenblock::tensor::{CooTensor, TileStore};

const GRIDS: [[usize; 3]; 3] = [[1, 1, 1], [3, 2, 2], [4, 4, 4]];

/// `(tensor, grid, create_from_coo hash, build_from_tnsb hash)`: FNV-1a of
/// the file bytes.
const GOLDEN: [(&str, [usize; 3], u64, u64); 6] = [
    (
        "clustered",
        [1, 1, 1],
        0xbcf4ba3d93b8d284,
        0xab04db28ca66d498,
    ),
    (
        "clustered",
        [3, 2, 2],
        0x75c45ce7c7c5c134,
        0xa45dd13c5062a9dc,
    ),
    (
        "clustered",
        [4, 4, 4],
        0x7af18ebbf80295bd,
        0xd0533dc4a3551a9d,
    ),
    (
        "powerlaw",
        [1, 1, 1],
        0xe474cedcacb2c763,
        0x0963a50378b8487b,
    ),
    (
        "powerlaw",
        [3, 2, 2],
        0xb3bbd94044853f5a,
        0x745a03ad70c6aa96,
    ),
    (
        "powerlaw",
        [4, 4, 4],
        0xa93aa387bfd23853,
        0x45c1572cd25f56f7,
    ),
];

/// The two tensors of `kernel_golden`.
fn tensors() -> [(&'static str, CooTensor); 2] {
    [
        (
            "clustered",
            clustered_tensor(&ClusteredConfig::new([70, 50, 40], 4_000), 20180521),
        ),
        (
            "powerlaw",
            powerlaw_tensor(&PowerLawConfig::new([90, 45, 20], 4_000), 20180522),
        ),
    ]
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tenblock_tile_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn tile_store_files_reproduce_the_recorded_bytes() {
    let dir = scratch_dir();
    let mut rows = GOLDEN.iter();
    let mut failures = Vec::new();
    for (tname, x) in &tensors() {
        let v1 = dir.join(format!("{tname}.tnsb"));
        write_bin_file(x, &v1).unwrap();
        for grid in GRIDS {
            let &(gt, gg, want_coo, want_tnsb) = rows.next().expect("one row per tensor and grid");
            assert_eq!((gt, gg), (*tname, grid), "table order");
            let direct = dir.join(format!("{tname}-{grid:?}-coo.tnsb"));
            let streamed = dir.join(format!("{tname}-{grid:?}-v1.tnsb"));
            TileStore::create_from_coo(x, grid, &direct).unwrap();
            TileStore::build_from_tnsb(&v1, grid, &streamed).unwrap();
            for (route, path, want) in [
                ("create_from_coo", &direct, want_coo),
                ("build_from_tnsb", &streamed, want_tnsb),
            ] {
                let got = fnv1a(&std::fs::read(path).unwrap());
                if got != want {
                    failures.push(format!(
                        "{tname} {grid:?} {route}: file bytes hash to {got:#018x}, \
                         recorded {want:#018x}"
                    ));
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
