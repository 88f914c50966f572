//! The instruction sets the hot loops of CP-ALS are compiled for, detected
//! at run time: the sparse MTTKRP loops here and the dense half in
//! `tenblock-cpd`'s `linalg` both dispatch on one [`Isa`].
//!
//! Every `Isa` above `Baseline` was made by [`Isa::best`] or [`Isa::all`]
//! after `is_x86_feature_detected!` found its extension — the field is
//! private to this module — and the `unsafe` calls that dispatch on it to a
//! `#[target_feature]` function rely on that. No option, flag or build
//! setting chooses: one binary runs everywhere, at the widest width the
//! host has.

/// Which loops an [`Isa`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The x86_64 baseline (SSE2), or any other target: the loops as the
    /// crate compiles them.
    Baseline,
    /// AVX2 (4 doubles a register, 16 registers).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F (8 doubles a register, 32 registers).
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// An instruction set this host runs; see the module doc.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Isa(Kind);

impl Isa {
    /// The baseline every host runs.
    pub const BASELINE: Isa = Isa(Kind::Baseline);

    /// The widest set this host runs.
    pub fn best() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return Isa(Kind::Avx512);
            }
            if is_x86_feature_detected!("avx2") {
                return Isa(Kind::Avx2);
            }
        }
        Isa::BASELINE
    }

    /// Every set this host runs, narrowest first (tests hold each one to
    /// the baseline's bits).
    pub fn all() -> Vec<Isa> {
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut all = vec![Isa::BASELINE];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                all.push(Isa(Kind::Avx2));
            }
            if is_x86_feature_detected!("avx512f") {
                all.push(Isa(Kind::Avx512));
            }
        }
        all
    }

    /// Which loops this set runs.
    pub fn kind(self) -> Kind {
        self.0
    }

    /// `avx512`, `avx2` or `baseline`: the name a trace reports.
    pub fn name(self) -> &'static str {
        match self.0 {
            Kind::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512 => "avx512",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_is_the_widest_of_all() {
        let all = Isa::all();
        assert_eq!(all[0], Isa::BASELINE);
        assert_eq!(all.last(), Some(&Isa::best()));
        for isa in all {
            assert!(["baseline", "avx2", "avx512"].contains(&isa.name()));
        }
    }
}
