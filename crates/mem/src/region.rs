//! Access regions and region sets.

use std::fmt;

/// A memory segment / access region.
///
/// The paper's access-region analysis (Section 3) concerns the three data
/// regions; [`Region::Text`] exists only so instruction addresses classify
/// somewhere sensible.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Region {
    /// Program text (instructions).
    Text,
    /// Statics and globals.
    Data,
    /// `malloc`-managed storage.
    Heap,
    /// Procedure frames, spills, parameters.
    Stack,
}

impl Region {
    /// The three data regions, in the paper's D/H/S order.
    pub const DATA_REGIONS: [Region; 3] = [Region::Data, Region::Heap, Region::Stack];

    /// Single-letter label used in the paper's Figure 2 ("D", "H", "S").
    pub const fn letter(self) -> &'static str {
        match self {
            Region::Text => "T",
            Region::Data => "D",
            Region::Heap => "H",
            Region::Stack => "S",
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Region::Text => "text",
            Region::Data => "data",
            Region::Heap => "heap",
            Region::Stack => "stack",
        };
        f.write_str(name)
    }
}

/// The set of data regions a static memory instruction has been observed to
/// access — the classes of the paper's Figure 2 ("D", "H", "S", "D/H",
/// "D/S", "H/S", "D/H/S").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegionSet(u8);

impl RegionSet {
    const DATA: u8 = 1;
    const HEAP: u8 = 2;
    const STACK: u8 = 4;

    /// The empty set (an instruction never executed).
    pub const EMPTY: RegionSet = RegionSet(0);

    /// Creates a set containing a single region.
    ///
    /// # Panics
    ///
    /// Panics if `region` is [`Region::Text`]; text is not a data access
    /// region.
    pub fn only(region: Region) -> RegionSet {
        let mut s = RegionSet::EMPTY;
        s.insert(region);
        s
    }

    fn bit(region: Region) -> u8 {
        match region {
            Region::Data => Self::DATA,
            Region::Heap => Self::HEAP,
            Region::Stack => Self::STACK,
            Region::Text => panic!("text is not a data access region"),
        }
    }

    /// Adds a region to the set.
    ///
    /// # Panics
    ///
    /// Panics if `region` is [`Region::Text`].
    pub fn insert(&mut self, region: Region) {
        self.0 |= Self::bit(region);
    }

    /// Whether the set contains `region`.
    pub(crate) fn contains(self, region: Region) -> bool {
        self.0 & Self::bit(region) != 0
    }

    /// Whether any contained region is the stack.
    pub fn touches_stack(self) -> bool {
        self.contains(Region::Stack)
    }

    /// Whether any contained region is data or heap.
    pub fn touches_non_stack(self) -> bool {
        self.contains(Region::Data) || self.contains(Region::Heap)
    }

    /// The paper's class label: `"D"`, `"H"`, `"S"`, `"D/H"`, `"D/S"`,
    /// `"H/S"`, `"D/H/S"`, or `"-"` for the empty set.
    pub fn label(self) -> &'static str {
        match self.0 {
            0 => "-",
            x if x == Self::DATA => "D",
            x if x == Self::HEAP => "H",
            x if x == Self::STACK => "S",
            x if x == Self::DATA | Self::HEAP => "D/H",
            x if x == Self::DATA | Self::STACK => "D/S",
            x if x == Self::HEAP | Self::STACK => "H/S",
            _ => "D/H/S",
        }
    }

    /// All seven non-empty classes in the paper's presentation order.
    pub const CLASS_LABELS: [&'static str; 7] = ["D", "H", "S", "D/H", "D/S", "H/S", "D/H/S"];

    /// Index of this set within [`RegionSet::CLASS_LABELS`], or `None` for
    /// the empty set.
    pub fn class_index(self) -> Option<usize> {
        RegionSet::CLASS_LABELS
            .iter()
            .position(|&l| l == self.label())
    }
}

impl fmt::Debug for RegionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RegionSet({})", self.label())
    }
}

impl fmt::Display for RegionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromIterator<Region> for RegionSet {
    fn from_iter<I: IntoIterator<Item = Region>>(iter: I) -> RegionSet {
        let mut s = RegionSet::EMPTY;
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl Extend<Region> for RegionSet {
    fn extend<I: IntoIterator<Item = Region>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_cover_all_classes() {
        let mut seen = Vec::new();
        for bits in 1u8..8 {
            let set = RegionSet(bits);
            seen.push(set.label());
        }
        for expected in RegionSet::CLASS_LABELS {
            assert!(seen.contains(&expected), "missing class {expected}");
        }
    }

    #[test]
    fn single_region_detection() {
        let mut s = RegionSet::only(Region::Heap);
        assert_eq!(s.0.count_ones(), 1);
        assert_eq!(s.label(), "H");
        s.insert(Region::Stack);
        assert_eq!(s.label(), "H/S");
        assert_eq!(s.0.count_ones(), 2);
    }

    #[test]
    fn stack_and_non_stack_queries() {
        let s: RegionSet = [Region::Data, Region::Stack].into_iter().collect();
        assert!(s.touches_stack());
        assert!(s.touches_non_stack());
        let d = RegionSet::only(Region::Data);
        assert!(!d.touches_stack());
        assert!(d.touches_non_stack());
    }

    #[test]
    fn class_index_matches_labels() {
        assert_eq!(RegionSet::only(Region::Data).class_index(), Some(0));
        assert_eq!(RegionSet::only(Region::Stack).class_index(), Some(2));
        assert_eq!(RegionSet::EMPTY.class_index(), None);
        let dhs: RegionSet = Region::DATA_REGIONS.into_iter().collect();
        assert_eq!(dhs.class_index(), Some(6));
    }

    #[test]
    #[should_panic(expected = "text is not a data access region")]
    fn text_is_rejected() {
        let _ = RegionSet::only(Region::Text);
    }
}
