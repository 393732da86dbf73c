//! Canonical Huffman codes: turn a [`super::HuffmanTree`]'s code
//! lengths into concrete bit strings, with an encoder and decoder.
//!
//! Canonical coding assigns codes in (length, symbol) order, so only the
//! length vector matters — any optimal tree (sequential or parallel
//! construction, whatever the tie-breaks) yields a decoder-compatible
//! code. This is what makes the §6.2 experiment's output usable as an
//! actual compressor (see `examples/compression.rs`).

use super::HuffmanTree;

/// A canonical prefix code: `codes[s] = (length, bits)` with bits stored
/// in the low `length` positions, MSB-first.
pub struct CanonicalCode {
    codes: Vec<(u32, u64)>,
}

impl CanonicalCode {
    /// Build from a Huffman tree (equivalently: from its code lengths).
    pub fn from_tree(tree: &HuffmanTree) -> Self {
        Self::from_lengths(&tree.code_lengths())
    }

    /// Build from code lengths satisfying Kraft equality.
    pub fn from_lengths(lengths: &[u32]) -> Self {
        let n = lengths.len();
        assert!(n >= 1);
        if n == 1 {
            // Single symbol: one zero bit by convention.
            return Self {
                codes: vec![(1, 0)],
            };
        }
        assert!(
            lengths.iter().all(|&l| (1..=63).contains(&l)),
            "code lengths must be in 1..=63"
        );
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&s| (lengths[s as usize], s));
        let mut codes = vec![(0u32, 0u64); n];
        let mut code = 0u64;
        let mut prev_len = lengths[order[0] as usize];
        for &s in &order {
            let len = lengths[s as usize];
            code <<= len - prev_len;
            prev_len = len;
            codes[s as usize] = (len, code);
            code += 1;
        }
        Self { codes }
    }

    /// Number of symbols.
    pub fn num_symbols(&self) -> usize {
        self.codes.len()
    }

    /// `(length, bits)` of symbol `s`.
    pub fn code(&self, s: usize) -> (u32, u64) {
        self.codes[s]
    }

    /// Encode a symbol sequence into a bit vector.
    pub fn encode(&self, symbols: &[usize]) -> BitVec {
        let mut out = BitVec::new();
        for &s in symbols {
            let (len, bits) = self.codes[s];
            out.push_bits(bits, len);
        }
        out
    }

    /// Decode `count` symbols from a bit vector (walks a rebuilt
    /// decoding trie; `O(total code length)`).
    pub fn decode(&self, bits: &BitVec, count: usize) -> Vec<usize> {
        // Build the trie: node = (left, right) child indices, leaf = symbol.
        #[derive(Clone, Copy)]
        enum Node {
            Internal(u32, u32),
            Leaf(u32),
            Empty,
        }
        let mut trie = vec![Node::Empty];
        for (s, &(len, code)) in self.codes.iter().enumerate() {
            let mut cur = 0usize;
            for i in (0..len).rev() {
                let bit = (code >> i) & 1;
                let (l, r) = match trie[cur] {
                    Node::Internal(l, r) => (l, r),
                    Node::Empty => {
                        trie[cur] = Node::Internal(0, 0);
                        (0, 0)
                    }
                    Node::Leaf(_) => panic!("prefix violation"),
                };
                let child = if bit == 0 { l } else { r };
                let child = if child == 0 {
                    trie.push(Node::Empty);
                    let id = (trie.len() - 1) as u32;
                    if let Node::Internal(l, r) = trie[cur] {
                        trie[cur] = if bit == 0 {
                            Node::Internal(id, r)
                        } else {
                            Node::Internal(l, id)
                        };
                    }
                    id
                } else {
                    child
                };
                cur = child as usize;
            }
            trie[cur] = Node::Leaf(s as u32);
        }
        let mut out = Vec::with_capacity(count);
        let mut cur = 0usize;
        let mut pos = 0usize;
        while out.len() < count {
            match trie[cur] {
                Node::Leaf(s) => {
                    out.push(s as usize);
                    cur = 0;
                }
                Node::Internal(l, r) => {
                    let bit = bits.get(pos);
                    pos += 1;
                    cur = if bit { r as usize } else { l as usize };
                }
                Node::Empty => panic!("invalid code stream"),
            }
        }
        // Flush a trailing leaf if the last symbol ended exactly at `pos`.
        if let Node::Leaf(s) = trie[cur] {
            if out.len() < count {
                out.push(s as usize);
            }
        }
        out
    }
}

/// A growable bit vector (MSB-first within each pushed code).
#[derive(Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// An empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append the low `count` bits of `bits`, MSB-first.
    pub fn push_bits(&mut self, bits: u64, count: u32) {
        for i in (0..count).rev() {
            let bit = (bits >> i) & 1 == 1;
            let w = self.len / 64;
            if w == self.words.len() {
                self.words.push(0);
            }
            if bit {
                self.words[w] |= 1 << (self.len % 64);
            }
            self.len += 1;
        }
    }

    /// Bit at position `i`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::super::{build_par, build_seq};
    use super::*;
    use phase_parallel::RunConfig;
    use pp_parlay::rng::Rng;

    #[test]
    fn roundtrip_random_alphabets() {
        let mut r = Rng::new(1);
        for trial in 0..10 {
            let n = 2 + r.range(300) as usize;
            let freqs: Vec<u64> = (0..n).map(|_| 1 + r.range(1000)).collect();
            let tree = build_par(&freqs, &RunConfig::new()).output;
            let code = CanonicalCode::from_tree(&tree);
            let msg: Vec<usize> = (0..2000).map(|_| r.range(n as u64) as usize).collect();
            let bits = code.encode(&msg);
            let back = code.decode(&bits, msg.len());
            assert_eq!(back, msg, "trial {trial} n={n}");
        }
    }

    #[test]
    fn seq_and_par_trees_yield_same_canonical_lengths_cost() {
        // Different tie-breaks may shuffle individual lengths, but the
        // encoded size of any message distribution matching the
        // frequencies is identical (both trees are optimal).
        let mut r = Rng::new(2);
        let n = 128usize;
        let freqs: Vec<u64> = (0..n).map(|_| 1 + r.range(100)).collect();
        let c_seq = CanonicalCode::from_tree(&build_seq(&freqs));
        let c_par = CanonicalCode::from_tree(&build_par(&freqs, &RunConfig::new()).output);
        let cost =
            |c: &CanonicalCode| -> u64 { (0..n).map(|s| c.code(s).0 as u64 * freqs[s]).sum() };
        assert_eq!(cost(&c_seq), cost(&c_par));
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let freqs = vec![45u64, 13, 12, 16, 9, 5];
        let code = CanonicalCode::from_tree(&build_par(&freqs, &RunConfig::new()).output);
        for a in 0..freqs.len() {
            for b in 0..freqs.len() {
                if a == b {
                    continue;
                }
                let (la, ca) = code.code(a);
                let (lb, cb) = code.code(b);
                if la <= lb {
                    assert_ne!(ca, cb >> (lb - la), "code {a} is a prefix of {b}");
                }
            }
        }
    }

    #[test]
    fn single_symbol_alphabet() {
        let code = CanonicalCode::from_lengths(&[5]); // clamped to 1 bit
        let bits = code.encode(&[0, 0, 0]);
        assert_eq!(code.decode(&bits, 3), vec![0, 0, 0]);
    }

    #[test]
    fn bitvec_push_get() {
        let mut bv = BitVec::new();
        bv.push_bits(0b101, 3);
        bv.push_bits(0b01, 2);
        assert_eq!(bv.len(), 5);
        let got: Vec<bool> = (0..5).map(|i| bv.get(i)).collect();
        assert_eq!(got, vec![true, false, true, false, true]);
    }
}
