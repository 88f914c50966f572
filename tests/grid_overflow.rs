//! A grid whose cell count does not fit `usize` is a typed error on every
//! route that takes a grid from outside the process: the kernel registry,
//! a tile-store header, and the v1 → tile-store conversion. None of them
//! allocates per cell first, and none leaves a file behind.

use std::path::PathBuf;
use tenblock::core::{try_build_kernel, KernelConfig, KernelError, KernelKind};
use tenblock::tensor::io_bin::{write_bin_file, write_header, BinError, BinHeader, VERSION_TILES};
use tenblock::tensor::{CooTensor, TileStore};

/// `SIDE^3 = 2^66` cells: each count fits its axis, the product wraps.
const SIDE: usize = 1 << 22;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tenblock_grid_overflow_{}_{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_too_many_cells(err: BinError) {
    match err {
        BinError::Format(msg) => assert!(msg.contains("more cells than usize holds"), "{msg}"),
        BinError::Io(e) => panic!("expected a format error, got I/O: {e}"),
    }
}

#[test]
fn the_kernel_registry_refuses_it() {
    let x = CooTensor::empty([SIDE; 3]);
    let cfg = KernelConfig {
        grid: [SIDE; 3],
        ..Default::default()
    };
    for kind in KernelKind::ALL {
        assert_eq!(
            try_build_kernel(kind, &x, 0, &cfg).err(),
            Some(KernelError::GridTooLarge { grid: [SIDE; 3] }),
            "{kind:?}"
        );
    }
}

#[test]
fn a_tile_store_header_declaring_it_is_refused() {
    let dir = scratch_dir("open");
    let path = dir.join("crafted.tnsb");
    let mut bytes = Vec::new();
    let header = BinHeader {
        version: VERSION_TILES,
        dims: vec![SIDE; 3],
        nnz: 0,
    };
    write_header(&mut bytes, &header).unwrap();
    for _ in 0..3 {
        bytes.extend_from_slice(&(SIDE as u32).to_le_bytes());
    }
    bytes.extend_from_slice(&0u64.to_le_bytes()); // no tiles
    std::fs::write(&path, &bytes).unwrap();
    assert_too_many_cells(TileStore::open(&path).unwrap_err());
    assert_too_many_cells(TileStore::validate_bytes(&bytes).unwrap_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn building_a_store_over_it_is_refused() {
    let dir = scratch_dir("build");
    let v1 = dir.join("src.tnsb");
    let dst = dir.join("dst.tnsb");
    write_bin_file(&CooTensor::empty([SIDE; 3]), &v1).unwrap();
    assert_too_many_cells(TileStore::build_from_tnsb(&v1, [SIDE; 3], &dst).unwrap_err());
    assert!(!dst.exists(), "a refused build leaves no store");
    let direct = dir.join("direct.tnsb");
    let err = TileStore::create_from_coo(&CooTensor::empty([SIDE; 3]), [SIDE; 3], &direct);
    assert_too_many_cells(err.unwrap_err());
    assert!(!direct.exists(), "a refused build leaves no store");
    std::fs::remove_dir_all(&dir).ok();
}
