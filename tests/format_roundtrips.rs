//! Format round-trip properties: COO -> SPLATT -> COO and COO -> .tns ->
//! COO preserve every nonzero, for every orientation. The `.tns` reader
//! gives the same result however its input arrives: at once, or a few
//! bytes per read.

use proptest::prelude::*;
use std::io::Read;
use tenblock::tensor::coo::perm_for_mode;
use tenblock::tensor::{io, CooTensor, Entry, SplattTensor};

/// A reader handing out 1 to 7 bytes per call.
struct ShortReads<'a> {
    data: &'a [u8],
    calls: usize,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        let n = (1 + self.calls % 7).min(out.len()).min(self.data.len());
        let (head, tail) = self.data.split_at(n);
        out[..n].copy_from_slice(head);
        self.data = tail;
        Ok(n)
    }
}

fn short_reads(data: &[u8]) -> ShortReads<'_> {
    ShortReads { data, calls: 0 }
}

/// Same dims, coordinates and value bits, or the same error message.
fn same_outcome(a: &Result<CooTensor, io::TnsError>, b: &Result<CooTensor, io::TnsError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.dims() == b.dims()
                && a.nnz() == b.nnz()
                && a.entries()
                    .iter()
                    .zip(b.entries())
                    .all(|(x, y)| x.idx == y.idx && x.val.to_bits() == y.val.to_bits())
        }
        (Err(a), Err(b)) => a.to_string() == b.to_string(),
        _ => false,
    }
}

/// `.tns` text line by line: entries with tabs, runs of blanks, `+` signs
/// and zero padding, CRLF ends, blank and `#` lines, repeated coordinates,
/// malformed fields, and a last line that may lack its newline.
fn arb_tns_text() -> impl Strategy<Value = Vec<u8>> {
    let line = (
        0usize..12,
        0u32..3,
        0u32..3,
        0u32..3,
        -9.0f64..9.0,
        0usize..2,
    )
        .prop_map(|(kind, i, j, k, v, crlf)| {
            let (i, j, k) = (i + 1, j + 1, k + 1);
            let mut l = match kind {
                0..=4 => format!("{i} {j}\t{k}  {v}"),
                5 => format!("+{i} 00{j} {k} +{v}"),
                6 => String::new(),
                7 => format!("# {v}"),
                8 => format!("{i} {j} {k}"),
                9 => format!("{i} {j} {k} {v} 1"),
                10 => format!("{i} 0 {k} {v}"),
                _ => format!("{i} {j} {k} 1.{v}"),
            };
            l.push_str(if crlf == 1 { "\r\n" } else { "\n" });
            l.into_bytes()
        });
    (proptest::collection::vec(line, 0..30), 0usize..2).prop_map(|(lines, cut)| {
        let mut text = lines.concat();
        if cut == 1 && text.ends_with(b"\n") {
            text.pop();
        }
        text
    })
}

fn arb_tensor() -> impl Strategy<Value = CooTensor> {
    (1usize..15, 1usize..15, 1usize..15).prop_flat_map(|(i, j, k)| {
        let entry = (0..i as u32, 0..j as u32, 0..k as u32, -100.0f64..100.0)
            .prop_map(|(a, b, c, v)| Entry::new(a, b, c, v));
        proptest::collection::vec(entry, 0..80)
            .prop_map(move |es| CooTensor::from_entries([i, j, k], es))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn splatt_roundtrip_every_mode(x in arb_tensor(), mode in 0usize..3) {
        let t = SplattTensor::for_mode(&x, mode);
        prop_assert_eq!(t.nnz(), x.nnz());
        let mut back = t.to_entries();
        back.sort_unstable_by_key(|e| e.idx);
        let mut orig = x.entries().to_vec();
        orig.sort_unstable_by_key(|e| e.idx);
        prop_assert_eq!(back, orig);
        // fiber count matches the COO-side count
        prop_assert_eq!(t.n_fibers(), x.count_fibers(perm_for_mode(mode)));
    }

    #[test]
    fn compressed_splatt_roundtrip(x in arb_tensor(), mode in 0usize..3) {
        let t = SplattTensor::from_entries_compressed(
            x.dims(),
            perm_for_mode(mode),
            x.entries().to_vec(),
        );
        let mut back = t.to_entries();
        back.sort_unstable_by_key(|e| e.idx);
        let mut orig = x.entries().to_vec();
        orig.sort_unstable_by_key(|e| e.idx);
        prop_assert_eq!(back, orig);
        // every stored slice is non-empty
        for s in 0..t.n_slices() {
            prop_assert!(!t.slice_fibers(s).is_empty());
        }
    }

    #[test]
    fn tns_roundtrip(x in arb_tensor()) {
        let mut buf = Vec::new();
        io::write_tns(&x, &mut buf).unwrap();
        let back = io::read_tns(buf.as_slice()).unwrap();
        prop_assert_eq!(back.nnz(), x.nnz());
        for (a, b) in back.entries().iter().zip(x.entries()) {
            prop_assert_eq!(a.idx, b.idx);
            // text round-trip preserves f64 exactly via shortest-repr printing
            prop_assert_eq!(a.val, b.val);
        }
        prop_assert!(same_outcome(&io::read_tns(short_reads(&buf)), &Ok(back)));
    }

    #[test]
    fn tns_reads_alike_whole_and_in_short_reads(text in arb_tns_text()) {
        let whole = io::read_tns(text.as_slice());
        let short = io::read_tns(short_reads(&text));
        prop_assert!(
            same_outcome(&whole, &short),
            "{:?}: {:?} vs {:?}",
            String::from_utf8_lossy(&text),
            whole.as_ref().map(|t| t.nnz()),
            short.as_ref().map(|t| t.nnz())
        );
    }

    #[test]
    fn splatt_memory_model_consistency(x in arb_tensor()) {
        let t = SplattTensor::for_mode(&x, 0);
        // paper model: 16 + 8I + 16F + 16nnz with 64-bit everything
        let expect = 16 + 8 * t.n_slices() + 16 * t.n_fibers() + 16 * t.nnz();
        prop_assert_eq!(t.paper_bytes(), expect);
        // our u32 indices make the real footprint smaller than the model
        // for non-trivial tensors
        if t.nnz() > 8 {
            prop_assert!(t.actual_bytes() < expect + 8 * t.n_slices());
        }
    }
}
