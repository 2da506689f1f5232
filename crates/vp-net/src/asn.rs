//! Autonomous System numbers.

use std::fmt;

use serde::Serialize;

/// An Autonomous System number.
///
/// The generated topologies use small dense ASNs (`0..n`), which lets other
/// crates index per-AS tables with `Asn::index()`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(transparent)]
pub struct Asn(pub u32);

impl Asn {
    /// The ASN as a vector index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        assert_eq!(Asn(226).to_string(), "AS226");
        assert_eq!(Asn(7).index(), 7);
        assert_eq!(Asn::from(3u32), Asn(3));
    }
}
