//! Items: (feature, value) pairs with a compact total ordering.
//!
//! The paper maps every flow to a transaction of seven items — one per
//! traffic feature. An [`Item`] packs the feature index into the top byte
//! of a `u64` and the feature value into the low 56 bits, so items sort
//! first by feature and then by value, and fit in a register.
//!
//! All seven feature values of a [`anomex_netflow::FlowRecord`] are at most
//! 32 bits wide, so the 56-bit value field is never exceeded for real flows;
//! the constructor enforces the bound for synthetic items too.

use std::collections::HashMap; // `ItemMap`, whose readers sort its output
use std::fmt;
use std::hash::{BuildHasher, Hasher, RandomState};

use anomex_netflow::{FeatureValue, FlowFeature};

/// Bits reserved for the value part of an item.
const VALUE_BITS: u32 = 56;
/// Mask for the value part.
const VALUE_MASK: u64 = (1 << VALUE_BITS) - 1;

/// A multiplicative hasher for [`Item`] keys. The miners' counting maps
/// hash every item of every transaction, where SipHash costs more than
/// the counting: this is one rotate-xor-multiply per `u64` word, finished
/// with a rotation that brings the best-mixed high product bits down to
/// where the table indexes. Items come from observed traffic, so the odd
/// multiplier is drawn per map from the standard library's random keys
/// ([`ItemHashBuilder`]): colliding items cannot be chosen without it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ItemHasher {
    hash: u64,
    key: u64,
}

/// The rotation [`ItemHasher::finish`] applies to the keyed product.
const FINISH_ROTATION: u32 = 26;

impl Hasher for ItemHasher {
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FINISH_ROTATION)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(self.key);
    }
}

/// Builds the [`ItemHasher`]s of one map, sharing one random odd
/// multiplier.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ItemHashBuilder(u64);

impl Default for ItemHashBuilder {
    fn default() -> Self {
        ItemHashBuilder(RandomState::new().hash_one(0u64) | 1)
    }
}

impl ItemHashBuilder {
    /// `item`'s bucket among `buckets` (a power of two): the top bits of
    /// the keyed product [`ItemHasher`] computes, where every bit of the
    /// item has mixed in.
    pub(crate) fn bucket(&self, item: Item, buckets: usize) -> usize {
        debug_assert!(buckets.is_power_of_two() && buckets > 1);
        let product = self.hash_one(item).rotate_right(FINISH_ROTATION);
        (product >> (u64::BITS - buckets.trailing_zeros())) as usize
    }
}

impl BuildHasher for ItemHashBuilder {
    type Hasher = ItemHasher;

    fn build_hasher(&self) -> ItemHasher {
        ItemHasher {
            hash: 0,
            key: self.0,
        }
    }
}

/// A `HashMap` keyed by [`Item`] through [`ItemHasher`]. Its iteration
/// order varies between maps; every caller sorts what it reads out.
pub(crate) type ItemMap<V> = HashMap<Item, V, ItemHashBuilder>;

/// A single market-basket item: one feature carrying one value.
///
/// `Item` is `Copy`, 8 bytes, and totally ordered (feature-major), which the
/// mining algorithms rely on for candidate generation and tid-list keys.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Item(u64);

impl Item {
    /// Create an item from a feature and raw value.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in 56 bits (cannot happen for values
    /// extracted from flow records, whose features are all ≤ 32 bits).
    #[must_use]
    pub fn new(feature: FlowFeature, value: u64) -> Self {
        assert!(value <= VALUE_MASK, "item value {value} exceeds 56 bits");
        Item(((feature.index() as u64) << VALUE_BITS) | value)
    }

    /// The item's feature.
    #[must_use]
    pub fn feature(self) -> FlowFeature {
        FlowFeature::from_index((self.0 >> VALUE_BITS) as usize)
    }

    /// The item's raw value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0 & VALUE_MASK
    }

    /// View as a [`FeatureValue`] (for pre-filtering and display).
    #[must_use]
    pub fn feature_value(self) -> FeatureValue {
        FeatureValue::new(self.feature(), self.value())
    }

    /// The packed encoding (stable; used as a dense map key).
    #[must_use]
    pub fn encoding(self) -> u64 {
        self.0
    }
}

impl From<FeatureValue> for Item {
    fn from(v: FeatureValue) -> Self {
        Item::new(v.feature, v.raw)
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.feature_value())
    }
}

impl fmt::Debug for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Item({})", self.feature_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_feature_and_value() {
        for feat in FlowFeature::ALL {
            let item = Item::new(feat, 0xDEAD_BEEF);
            assert_eq!(item.feature(), feat);
            assert_eq!(item.value(), 0xDEAD_BEEF);
        }
    }

    #[test]
    fn orders_feature_major() {
        let a = Item::new(FlowFeature::SrcIp, u64::from(u32::MAX));
        let b = Item::new(FlowFeature::DstIp, 0);
        assert!(
            a < b,
            "srcIP items sort before dstIP items regardless of value"
        );
        let c = Item::new(FlowFeature::DstIp, 1);
        assert!(b < c);
    }

    #[test]
    #[should_panic(expected = "exceeds 56 bits")]
    fn oversized_value_panics() {
        let _ = Item::new(FlowFeature::Bytes, 1 << 56);
    }

    #[test]
    fn display_matches_feature_value() {
        let item = Item::new(FlowFeature::DstPort, 80);
        assert_eq!(item.to_string(), "dstPort=80");
        assert_eq!(format!("{item:?}"), "Item(dstPort=80)");
    }

    #[test]
    fn from_feature_value() {
        let fv = FeatureValue::new(FlowFeature::Packets, 3);
        let item: Item = fv.into();
        assert_eq!(item.feature_value(), fv);
    }
}
