//! Entropy estimators used to sanity-check generated corpora and to let the
//! metric-based baseline schemes "probe" data compressibility the way the
//! related-work systems do.

/// Shannon entropy, in bits per symbol, of the distribution `counts`
/// tallies (one count per symbol value; 0.0 when it tallies nothing). The
/// one order-0 loop: over a byte histogram it is bits per byte.
pub fn entropy_bits<C: Copy + Into<u64>>(counts: &[C]) -> f64 {
    let total: u64 = counts.iter().map(|&c| c.into()).sum();
    let n = total as f64;
    let mut h = 0.0;
    for &c in counts {
        let c: u64 = c.into();
        if c > 0 {
            let p = c as f64 / n;
            h -= p * p.log2();
        }
    }
    h
}

/// Shannon entropy of the byte distribution, in bits per byte (0..=8).
pub fn shannon_bits_per_byte(data: &[u8]) -> f64 {
    let mut counts = [0u64; 256];
    for &b in data {
        counts[b as usize] += 1;
    }
    entropy_bits(&counts)
}

/// First-order (digram) conditional entropy in bits per byte.
///
/// Captures sequential structure that the order-0 estimate misses — e.g.
/// English text has much lower digram entropy than its byte histogram
/// suggests.
pub fn digram_bits_per_byte(data: &[u8]) -> f64 {
    if data.len() < 2 {
        return shannon_bits_per_byte(data);
    }
    // H(X_{i+1} | X_i) = H(X_i, X_{i+1}) - H(X_i)
    let mut joint = vec![0u32; 65536];
    for w in data.windows(2) {
        joint[((w[0] as usize) << 8) | w[1] as usize] += 1;
    }
    (entropy_bits(&joint) - shannon_bits_per_byte(&data[..data.len() - 1])).max(0.0)
}

/// A quick compressibility score in `[0, 1]`: 0 = incompressible,
/// 1 = maximally redundant. Combines order-0 and order-1 entropy.
pub fn compressibility_score(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let h1 = digram_bits_per_byte(data);
    (1.0 - h1 / 8.0).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(shannon_bits_per_byte(&[]), 0.0);
        assert_eq!(compressibility_score(&[]), 0.0);
    }

    #[test]
    fn constant_data_has_zero_entropy() {
        let data = vec![7u8; 1000];
        assert!(shannon_bits_per_byte(&data) < 1e-9);
        assert!(digram_bits_per_byte(&data) < 1e-9);
        assert!(compressibility_score(&data) > 0.99);
    }

    #[test]
    fn uniform_bytes_near_eight_bits() {
        // A counter touches every byte value equally.
        let data: Vec<u8> = (0..=255u8).cycle().take(65536).collect();
        assert!((shannon_bits_per_byte(&data) - 8.0).abs() < 1e-6);
    }

    #[test]
    fn digram_detects_sequential_structure() {
        // The cycling counter is order-0 uniform but order-1 deterministic.
        let data: Vec<u8> = (0..=255u8).cycle().take(65536).collect();
        assert!(digram_bits_per_byte(&data) < 0.1);
        assert!(compressibility_score(&data) > 0.9);
    }

    #[test]
    fn two_symbol_data_is_one_bit() {
        let data: Vec<u8> = (0..10_000).map(|i| (i % 2) as u8).collect();
        assert!((shannon_bits_per_byte(&data) - 1.0).abs() < 1e-6);
    }
}
