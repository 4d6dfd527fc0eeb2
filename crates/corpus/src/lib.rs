//! # adcomp-corpus — synthetic evaluation corpus
//!
//! The IPDPS'11 paper evaluates adaptive compression on three inputs: the
//! Canterbury corpus files `ptt5` (highly compressible fax raster) and
//! `alice29.txt` (moderately compressible English), plus an essentially
//! incompressible JPEG image. Those exact files cannot be redistributed
//! here, so this crate synthesizes deterministic stand-ins whose
//! *compressibility* (the only property the paper's decision model reacts
//! to) matches the published ratios:
//!
//! | Class | Stand-in for | Target LZ ratio (compressed/original) |
//! |---|---|---|
//! | [`Class::High`] | `ptt5` | ≈ 0.10 – 0.15 |
//! | [`Class::Moderate`] | `alice29.txt` | ≈ 0.30 – 0.50 |
//! | [`Class::Low`] | `image.jpg` | ≈ 0.90 – 0.95 |
//!
//! Everything is seeded and platform-independent, so experiments reproduce
//! bit-for-bit.

pub mod entropy;
pub mod gen;
pub mod prng;
pub mod source;
mod words;

pub use prng::Prng;
pub use source::{ByteSource, CyclicSource, SourceReader, SwitchingSource};

/// Compressibility class of a workload, named as in the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `ptt5`-like: compresses to ~10–15 %.
    High,
    /// `alice29.txt`-like: compresses to ~30–50 %.
    Moderate,
    /// `image.jpg`-like: compresses to ~90–95 %.
    Low,
}

impl Class {
    /// All classes in the paper's column order.
    pub const ALL: [Class; 3] = [Class::High, Class::Moderate, Class::Low];

    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            Class::High => "HIGH",
            Class::Moderate => "MODERATE",
            Class::Low => "LOW",
        }
    }
}

impl std::fmt::Display for Class {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Class {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "HIGH" => Ok(Class::High),
            "MODERATE" | "MOD" => Ok(Class::Moderate),
            "LOW" => Ok(Class::Low),
            other => Err(format!("unknown compressibility class: {other}")),
        }
    }
}

/// Generates `len` deterministic bytes of the given class.
pub fn generate(class: Class, len: usize, seed: u64) -> Vec<u8> {
    match class {
        Class::High => gen::fax_image(len, seed),
        Class::Moderate => gen::english_text(len, seed),
        Class::Low => gen::jpeg_like(len, seed),
    }
}

/// The test-file size the paper's experiments replay (~250 KB).
pub const DEFAULT_FILE_LEN: usize = 256 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_roundtrips_through_str() {
        for c in Class::ALL {
            assert_eq!(c.name().parse::<Class>().unwrap(), c);
        }
        assert!("garbage".parse::<Class>().is_err());
    }

    #[test]
    fn generate_dispatches_per_class() {
        let h = generate(Class::High, 4096, 5);
        let m = generate(Class::Moderate, 4096, 5);
        let l = generate(Class::Low, 4096, 5);
        assert_ne!(h, m);
        assert_ne!(m, l);
        assert_eq!(h.len(), 4096);
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(Class::High.to_string(), "HIGH");
        assert_eq!(Class::Moderate.to_string(), "MODERATE");
        assert_eq!(Class::Low.to_string(), "LOW");
    }
}
