//! The paper's method (Brauckhoff et al., IMC 2009, §II), written out
//! once, straight from its definitions: the oracle the engine is held
//! to, as one chain (`tests/paper_reference.rs`) and stage by stage by
//! the suites that include this module.
//!
//! It takes none of the engine's shortcuts. A histogram is a `BTreeMap`
//! of bin → count; the KL distance is summed over every bin; bin
//! identification recomputes the whole distance after each removed bin;
//! the vote asks every alarmed clone about every value; the pre-filter
//! reads one flow at a time; and Apriori counts each candidate with a
//! scan of every transaction, recording its rounds as Table II lists
//! them. From the library it takes only the flow
//! record, [`FlowFeature::value_of`] and [`BinHasher::bin_of`] (the
//! clones' hash functions, whose family the paper leaves open).

// Each test binary that includes this module uses a part of it.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};

use anomex::detector::BinHasher;
use anomex::netflow::{FlowFeature, FlowRecord};

/// One item of a transaction: a feature and its value.
pub type Item = (FlowFeature, u64);

/// Meta-data: per feature that carries any, its suspicious values.
pub type MetaData = BTreeMap<FlowFeature, BTreeSet<u64>>;

/// Item-sets, each with its support.
pub type ItemSets = BTreeMap<Vec<Item>, u64>;

/// The canonical transaction's features (§II-B): srcIP, dstIP, srcPort,
/// dstPort, protocol, #packets, #bytes.
pub const CANONICAL: [FlowFeature; 7] = [
    FlowFeature::SrcIp,
    FlowFeature::DstIp,
    FlowFeature::SrcPort,
    FlowFeature::DstPort,
    FlowFeature::Proto,
    FlowFeature::Packets,
    FlowFeature::Bytes,
];

/// The two /16 prefixes the multilevel transaction adds (§III-D).
pub const PREFIXES: [FlowFeature; 2] = [FlowFeature::SrcNet16, FlowFeature::DstNet16];

/// The MAD's scale to a normal σ (§II-C).
pub const MAD_TO_SIGMA: f64 = 1.4826;

/// The smallest σ̂: a constant training series would otherwise alarm on
/// rounding noise.
pub const SIGMA_FLOOR: f64 = 1e-9;

/// `feature`'s value in `flow`.
pub fn value(flow: &FlowRecord, feature: FlowFeature) -> u64 {
    feature.value_of(flow).raw
}

// ---------------------------------------------------------------- §II-C

/// A histogram: flows per bin, the bins without flows left out.
pub type Histogram = BTreeMap<u32, u64>;

/// The histogram of `feature` over `flows` under one clone's hash
/// function.
pub fn histogram(
    flows: &[FlowRecord],
    feature: FlowFeature,
    hasher: BinHasher,
    k: u32,
) -> Histogram {
    let mut histogram = Histogram::new();
    for flow in flows {
        *histogram
            .entry(hasher.bin_of(value(flow, feature), k))
            .or_default() += 1;
    }
    histogram
}

fn count(histogram: &Histogram, bin: u32) -> u64 {
    histogram.get(&bin).copied().unwrap_or(0)
}

/// D(p ‖ q) = Σᵢ pᵢ log₂(pᵢ / qᵢ) in bits over `k` bins, each count
/// smoothed by one so that an empty bin keeps the distance finite. The
/// rounding residue of two equal histograms is clamped to 0.
pub fn kl(p: &Histogram, q: &Histogram, k: u32) -> f64 {
    let p_total: u64 = p.values().sum();
    let q_total: u64 = q.values().sum();
    let mut distance = 0.0;
    for bin in 0..k {
        let pi = (count(p, bin) as f64 + 1.0) / (p_total as f64 + f64::from(k));
        let qi = (count(q, bin) as f64 + 1.0) / (q_total as f64 + f64::from(k));
        distance += pi * (pi / qi).log2();
    }
    distance.max(0.0)
}

/// The median, the mean of the middle two for an even count.
pub fn median(sample: &[f64]) -> f64 {
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// σ̂ = 1.4826 · MAD of the training first differences, floored.
pub fn sigma_hat(diffs: &[f64]) -> f64 {
    let center = median(diffs);
    let deviations: Vec<f64> = diffs.iter().map(|d| (d - center).abs()).collect();
    (MAD_TO_SIGMA * median(&deviations)).max(SIGMA_FLOOR)
}

/// Bin identification (§II-C, Fig. 5): while the distance of the
/// cleaned histogram to the reference exceeds `target`, reset the bin
/// whose count deviates most from the reference (the highest such bin on
/// a tie) to the reference count. Returns the bins in removal order. It
/// stops, short of the target, once no bin deviates.
pub fn identify_bins(current: &Histogram, reference: &Histogram, k: u32, target: f64) -> Vec<u32> {
    let mut cleaned = current.clone();
    let mut removed = Vec::new();
    while kl(&cleaned, reference, k) > target {
        let deviation = |bin: u32| count(&cleaned, bin).abs_diff(count(reference, bin));
        let Some(bin) = (0..k)
            .filter(|&bin| deviation(bin) > 0)
            .max_by_key(|&bin| (deviation(bin), bin))
        else {
            break;
        };
        cleaned.insert(bin, count(reference, bin));
        removed.push(bin);
    }
    removed
}

// ---------------------------------------------------------------- §II-D

/// The parameters of one run (Table III), and the choices the engine
/// adds: union or intersection, and canonical or prefix transactions.
#[derive(Debug, Clone)]
pub struct Params {
    /// Bins per histogram, k.
    pub k: u32,
    /// The vote quorum, l (of n clones per feature).
    pub votes: usize,
    /// The threshold multiplier, α.
    pub alpha: f64,
    /// First differences that train σ̂.
    pub training: usize,
    /// Union pre-filter (the paper's) or intersection.
    pub union: bool,
    /// Canonical transactions or with the /16 prefixes.
    pub prefixes: bool,
    /// The minimum support, s.
    pub min_support: u64,
}

/// One clone's state from interval to interval.
#[derive(Debug)]
struct CloneState {
    hasher: BinHasher,
    previous: Option<Histogram>,
    previous_kl: Option<f64>,
    training: Vec<f64>,
    sigma: Option<f64>,
}

/// What one clone saw in one interval.
#[derive(Debug)]
pub struct CloneReport {
    /// KL against the previous interval (none on the first).
    pub kl: Option<f64>,
    /// Whether the first difference exceeded α·σ̂.
    pub alarm: bool,
    /// The anomalous bins, on an alarm.
    pub bins: Option<Vec<u32>>,
}

/// What one feature's clones saw in one interval.
#[derive(Debug)]
pub struct FeatureReport {
    /// The feature.
    pub feature: FlowFeature,
    /// Per clone, in clone order.
    pub clones: Vec<CloneReport>,
    /// Whether at least l clones alarmed.
    pub alarm: bool,
}

/// One interval, end to end.
#[derive(Debug)]
pub struct Report {
    /// Per monitored feature.
    pub features: Vec<FeatureReport>,
    /// Whether any feature alarmed.
    pub alarm: bool,
    /// The voted values, by union over the features.
    pub metadata: MetaData,
    /// On an alarm with meta-data: how many flows the pre-filter kept,
    /// and the maximal frequent item-sets among them.
    pub extraction: Option<(usize, ItemSets)>,
}

/// The paper's detector and extractor, interval by interval.
#[derive(Debug)]
pub struct Paper {
    params: Params,
    features: Vec<(FlowFeature, Vec<CloneState>)>,
}

impl Paper {
    /// A run under `params` monitoring, per feature, the clones with the
    /// hash functions `hashers`.
    pub fn new(params: Params, hashers: Vec<(FlowFeature, Vec<BinHasher>)>) -> Self {
        let features = (hashers.into_iter())
            .map(|(feature, hashers)| {
                let clones = (hashers.into_iter())
                    .map(|hasher| CloneState {
                        hasher,
                        previous: None,
                        previous_kl: None,
                        training: Vec::new(),
                        sigma: None,
                    })
                    .collect();
                (feature, clones)
            })
            .collect();
        Paper { params, features }
    }

    /// Detect on one interval's flows and, on an alarm, extract.
    pub fn interval(&mut self, flows: &[FlowRecord]) -> Report {
        let p = self.params.clone();
        let mut features = Vec::new();
        let mut metadata = MetaData::new();
        for (feature, clones) in &mut self.features {
            let mut reports = Vec::new();
            for clone in clones.iter_mut() {
                let current = histogram(flows, *feature, clone.hasher, p.k);
                let kl_now = clone.previous.as_ref().map(|q| kl(&current, q, p.k));
                let diff = match (kl_now, clone.previous_kl) {
                    (Some(now), Some(before)) => Some(now - before),
                    _ => None,
                };
                let mut bins = None;
                if let Some(diff) = diff {
                    match clone.sigma {
                        None => {
                            clone.training.push(diff);
                            if clone.training.len() == p.training {
                                clone.sigma = Some(sigma_hat(&clone.training));
                            }
                        }
                        Some(sigma) if diff > p.alpha * sigma => {
                            let target = clone.previous_kl.unwrap() + p.alpha * sigma;
                            let reference = clone.previous.as_ref().unwrap();
                            bins = Some(identify_bins(&current, reference, p.k, target));
                        }
                        Some(_) => {}
                    }
                }
                reports.push(CloneReport {
                    kl: kl_now,
                    alarm: bins.is_some(),
                    bins,
                });
                clone.previous = Some(current);
                clone.previous_kl = kl_now;
            }
            let alarmed: Vec<(BinHasher, &Vec<u32>)> = (clones.iter().zip(&reports))
                .filter_map(|(clone, report)| Some((clone.hasher, report.bins.as_ref()?)))
                .collect();
            let alarm = alarmed.len() >= p.votes;
            if alarm {
                let voted = vote(flows, *feature, &alarmed, p.k, p.votes);
                if !voted.is_empty() {
                    metadata.insert(*feature, voted);
                }
            }
            features.push(FeatureReport {
                feature: *feature,
                clones: reports,
                alarm,
            });
        }
        let alarm = features.iter().any(|f| f.alarm);
        let extraction = (alarm && !metadata.is_empty()).then(|| {
            let rows = prefilter(flows, &metadata, p.union);
            let suspicious: Vec<FlowRecord> = rows.iter().map(|&row| flows[row]).collect();
            let transactions = transactions(&suspicious, p.prefixes);
            (
                rows.len(),
                maximal(&frequent_itemsets(&transactions, p.min_support)),
            )
        });
        Report {
            features,
            alarm,
            metadata,
            extraction,
        }
    }
}

/// The l-of-n vote (§II-D): the values of `feature` among `flows` whose
/// bin at least `votes` of the alarmed clones flagged, each clone asked
/// through its own hash function.
pub fn vote(
    flows: &[FlowRecord],
    feature: FlowFeature,
    alarmed: &[(BinHasher, &Vec<u32>)],
    k: u32,
    votes: usize,
) -> BTreeSet<u64> {
    let values: BTreeSet<u64> = flows.iter().map(|flow| value(flow, feature)).collect();
    (values.into_iter())
        .filter(|&v| {
            let claims = (alarmed.iter())
                .filter(|(hasher, bins)| bins.contains(&hasher.bin_of(v, k)))
                .count();
            claims >= votes
        })
        .collect()
}

// ---------------------------------------------------------------- §II-A

/// The rows of the flows the pre-filter keeps: under union a flow whose
/// value of any meta-data feature is listed, under intersection one
/// whose value of every meta-data feature is. Empty meta-data keeps
/// nothing.
pub fn prefilter(flows: &[FlowRecord], metadata: &MetaData, union: bool) -> Vec<usize> {
    if metadata.is_empty() {
        return Vec::new();
    }
    (0..flows.len())
        .filter(|&row| {
            let hits = (metadata.iter())
                .filter(|(&feature, values)| values.contains(&value(&flows[row], feature)))
                .count();
            if union {
                hits > 0
            } else {
                hits == metadata.len()
            }
        })
        .collect()
}

// ---------------------------------------------------------------- §II-B

/// Each flow's transaction: one item per canonical feature, and the two
/// /16 prefixes with `prefixes`, sorted.
pub fn transactions(flows: &[FlowRecord], prefixes: bool) -> Vec<Vec<Item>> {
    let extra: &[FlowFeature] = if prefixes { &PREFIXES } else { &[] };
    (flows.iter())
        .map(|flow| {
            let mut items: Vec<Item> = (CANONICAL.iter().chain(extra))
                .map(|&feature| (feature, value(flow, feature)))
                .collect();
            items.sort_unstable();
            items
        })
        .collect()
}

/// How many transactions contain every item of `items`.
pub fn support(transactions: &[Vec<Item>], items: &[Item]) -> u64 {
    (transactions.iter())
        .filter(|t| items.iter().all(|item| t.contains(item)))
        .count() as u64
}

/// The widest transaction: the canonical features and the prefixes.
pub const WIDEST: usize = CANONICAL.len() + PREFIXES.len();

/// One round of level-wise Apriori, as Table II lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Round {
    /// The item-set size, k.
    pub level: usize,
    /// The candidate k-sets counted (none in the first round, which
    /// counts the items).
    pub candidates: u64,
    /// The frequent k-sets.
    pub frequent: u64,
    /// The maximal k-sets, when only those are asked for.
    pub maximal: u64,
}

/// Every item-set contained in at least `min_support` transactions, by
/// level-wise Apriori ([`apriori`]).
pub fn frequent_itemsets(transactions: &[Vec<Item>], min_support: u64) -> ItemSets {
    apriori(transactions, min_support, false).0
}

/// Level-wise Apriori: the frequent item-sets (the maximal ones with
/// `maximal_only`) and its rounds. The first round counts the items in
/// one pass. Round k joins two frequent (k − 1)-sets that share all but
/// their last item, when those two items are of different features (no
/// transaction holds two values of one), keeps the candidates whose every
/// subset one item shorter is frequent, and counts each with a scan of
/// every transaction. The rounds end with the first that finds no
/// frequent set, or at level [`WIDEST`].
pub fn apriori(
    transactions: &[Vec<Item>],
    min_support: u64,
    maximal_only: bool,
) -> (ItemSets, Vec<Round>) {
    let mut counts = ItemSets::new();
    for &item in transactions.iter().flatten() {
        *counts.entry(vec![item]).or_default() += 1;
    }
    counts.retain(|_, &mut s| s >= min_support);
    let mut frequent = counts.clone();
    let mut level: Vec<Vec<Item>> = counts.into_keys().collect();
    let mut rounds = vec![Round {
        level: 1,
        candidates: 0,
        frequent: level.len() as u64,
        maximal: 0,
    }];
    while !level.is_empty() && rounds.len() < WIDEST {
        let mut candidates = Vec::new();
        for (i, a) in level.iter().enumerate() {
            for b in &level[i + 1..] {
                let shared = a.len() - 1;
                if a[..shared] != b[..shared] || a[shared].0 == b[shared].0 {
                    continue;
                }
                let mut candidate = a.clone();
                candidate.push(b[shared]);
                candidate.sort_unstable();
                let closed = (0..candidate.len()).all(|skip| {
                    let mut subset = candidate.clone();
                    subset.remove(skip);
                    frequent.contains_key(&subset)
                });
                if closed {
                    candidates.push(candidate);
                }
            }
        }
        level = Vec::new();
        for candidate in &candidates {
            let s = support(transactions, candidate);
            if s >= min_support {
                frequent.insert(candidate.clone(), s);
                level.push(candidate.clone());
            }
        }
        rounds.push(Round {
            level: rounds.len() + 1,
            candidates: candidates.len() as u64,
            frequent: level.len() as u64,
            maximal: 0,
        });
    }
    if maximal_only {
        frequent = maximal(&frequent);
        for set in frequent.keys() {
            rounds[set.len() - 1].maximal += 1;
        }
    }
    (frequent, rounds)
}

/// The maximal item-sets (§II-B): the frequent sets no longer frequent
/// set contains.
pub fn maximal(frequent: &ItemSets) -> ItemSets {
    (frequent.iter())
        .filter(|(set, _)| {
            !(frequent.keys())
                .any(|other| other.len() > set.len() && set.iter().all(|item| other.contains(item)))
        })
        .map(|(set, &s)| (set.clone(), s))
        .collect()
}
