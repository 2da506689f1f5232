//! Autonomous System numbers.

use std::fmt;

/// An Autonomous System number.
///
/// The generated topologies use small dense ASNs (`0..n`), which key the
/// per-AS tables ([`crate::IdVec`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asn(pub u32);
serde_json::impl_serialize! { Asn(transparent) }

impl crate::Id for Asn {
    fn from_index(index: usize) -> Self {
        Asn(crate::conv::sat_u32(index))
    }

    fn index(self) -> usize {
        crate::conv::index(self.0)
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
    use crate::Id;

    #[test]
    fn display_and_index() {
        assert_eq!(Asn(226).to_string(), "AS226");
        assert_eq!(Asn(7).index(), 7);
        assert_eq!(Asn::from_index(7), Asn(7));
        assert_eq!(Asn::from(3u32), Asn(3));
    }
}
