//! # nexsort-datagen
//!
//! Synthetic XML generators reproducing the paper's test data (Section 5):
//!
//! * [`IbmGen`] -- models the IBM alphaWorks XML Generator: "allows us to
//!   specify height and maximum fan-out ... the fan-out of each element is a
//!   random number between 1 and the specified maximum";
//! * [`ExactGen`] -- the authors' custom generator: "allows us to specify
//!   the exact fan-out for each level, giving us more precise control over
//!   the shape and the size" (the Table 2 inputs);
//! * [`table2_shapes`] -- the five Table 2 shape vectors, scalable.
//!
//! "All test data has an average element size of about 150 bytes": both
//! generators pad each element with a filler attribute to hit a target
//! average XML-text size. Keys are pseudo-random (deterministic by seed) so
//! sorting has real work to do. Both generators are streaming
//! [`EventSource`]s: multi-million-element documents never materialize in
//! host memory.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nexsort_xml::{Event, EventSource, Result};

mod auction;
mod shapes;
mod stage;

pub use auction::{auction_spec, AuctionConfig, AuctionGen};
pub use shapes::{table2_shapes, Table2Shape};
pub use stage::{stage_as_recs, stage_as_xml, GeneratedDoc};

/// Names used by the generated documents, by level.
const LEVEL_NAMES: [&str; 8] =
    ["company", "region", "branch", "employee", "record", "entry", "field", "item"];

fn level_name(level: u32) -> &'static str {
    LEVEL_NAMES[(level as usize - 1).min(LEVEL_NAMES.len() - 1)]
}

fn pad_value(rng: &mut StdRng, len: usize) -> String {
    (0..len).map(|_| (b'a' + rng.gen_range(0..26u8)) as char).collect()
}

/// XML-text padding so an element averages `avg_elem_bytes`.
fn padding_for(avg_elem_bytes: usize, name_len: usize) -> usize {
    // <name k="xxxxxxxx" pad="...">...</name>: fixed overhead ~ 2*name + 30.
    avg_elem_bytes.saturating_sub(2 * name_len + 30)
}

/// Configuration shared by the generators.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// RNG seed (generation is fully deterministic given the seed).
    pub seed: u64,
    /// Target average element size in XML-text bytes (the paper used ~150).
    pub avg_elem_bytes: usize,
    /// Name of the sort-key attribute each element carries.
    pub key_attr: String,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self { seed: 42, avg_elem_bytes: 150, key_attr: "k".into() }
    }
}

struct OpenNode {
    name: &'static str,
    /// Children still to be produced.
    remaining: u64,
}

/// Streaming generator with exact per-level fan-outs (the authors' custom
/// generator). An element at level `i` (root = level 1) has exactly
/// `fanouts[i-1]` children; elements below level `fanouts.len() + 1` are
/// leaves.
pub struct ExactGen {
    cfg: GenConfig,
    fanouts: Vec<u64>,
    rng: StdRng,
    stack: Vec<OpenNode>,
    started: bool,
    done: bool,
    emitted: u64,
}

impl ExactGen {
    /// A generator for the given per-level fan-outs (empty: a lone root).
    pub fn new(fanouts: &[u64], cfg: GenConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self {
            cfg,
            fanouts: fanouts.to_vec(),
            rng,
            stack: Vec::new(),
            started: false,
            done: false,
            emitted: 0,
        }
    }

    /// Total elements this generator will produce:
    /// `1 + f1 + f1*f2 + ...` (the Table 2 "size" column).
    pub fn total_elements(fanouts: &[u64]) -> u64 {
        let mut total = 1u64;
        let mut level = 1u64;
        for &f in fanouts {
            level = level.saturating_mul(f);
            total = total.saturating_add(level);
        }
        total
    }

    /// Elements emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn start_event(&mut self, level: u32) -> Event {
        let name = level_name(level);
        let key = format!("{:08}", self.rng.gen_range(0..100_000_000u64));
        let pad = padding_for(self.cfg.avg_elem_bytes, name.len());
        let mut attrs = vec![(self.cfg.key_attr.as_bytes().to_vec(), key.into_bytes())];
        if pad > 0 {
            let filler = pad_value(&mut self.rng, pad);
            attrs.push((b"pad".to_vec(), filler.into_bytes()));
        }
        self.emitted += 1;
        Event::Start { name: name.as_bytes().to_vec(), attrs }
    }
}

impl EventSource for ExactGen {
    fn next_event(&mut self) -> Result<Option<Event>> {
        if self.done {
            return Ok(None);
        }
        if !self.started {
            self.started = true;
            let ev = self.start_event(1);
            let fan = self.fanouts.first().copied().unwrap_or(0);
            self.stack.push(OpenNode { name: level_name(1), remaining: fan });
            return Ok(Some(ev));
        }
        match self.stack.last_mut() {
            None => {
                self.done = true;
                Ok(None)
            }
            Some(top) if top.remaining == 0 => {
                let node = self.stack.pop().expect("checked non-empty");
                Ok(Some(Event::End { name: node.name.as_bytes().to_vec() }))
            }
            Some(top) => {
                top.remaining -= 1;
                let level = self.stack.len() as u32 + 1;
                let ev = self.start_event(level);
                let fan = self.fanouts.get(level as usize - 1).copied().unwrap_or(0);
                self.stack.push(OpenNode { name: level_name(level), remaining: fan });
                Ok(Some(ev))
            }
        }
    }
}

/// Streaming generator in the style of the IBM alphaWorks XML Generator: a
/// height bound and a maximum fan-out; each non-bottom element draws its
/// fan-out uniformly from `1..=max_fanout`. An optional element budget stops
/// growth so document size can be controlled.
pub struct IbmGen {
    cfg: GenConfig,
    height: u32,
    max_fanout: u64,
    max_elements: Option<u64>,
    rng: StdRng,
    stack: Vec<OpenNode>,
    started: bool,
    done: bool,
    emitted: u64,
}

impl IbmGen {
    /// A generator for documents with the given height (levels; root = 1)
    /// and maximum fan-out. With `max_elements`, generation stops budding
    /// new children once the budget is spent (close tags still stream out).
    pub fn new(height: u32, max_fanout: u64, max_elements: Option<u64>, cfg: GenConfig) -> Self {
        assert!(height >= 1 && max_fanout >= 1);
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self {
            cfg,
            height,
            max_fanout,
            max_elements,
            rng,
            stack: Vec::new(),
            started: false,
            done: false,
            emitted: 0,
        }
    }

    /// Elements emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn budget_left(&self) -> bool {
        self.max_elements.is_none_or(|m| self.emitted < m)
    }

    fn draw_fanout(&mut self, level: u32) -> u64 {
        if level >= self.height {
            0
        } else {
            self.rng.gen_range(1..=self.max_fanout)
        }
    }

    fn start_event(&mut self, level: u32) -> Event {
        let name = level_name(level);
        let key = format!("{:08}", self.rng.gen_range(0..100_000_000u64));
        let pad = padding_for(self.cfg.avg_elem_bytes, name.len());
        let mut attrs = vec![(self.cfg.key_attr.as_bytes().to_vec(), key.into_bytes())];
        if pad > 0 {
            let filler = pad_value(&mut self.rng, pad);
            attrs.push((b"pad".to_vec(), filler.into_bytes()));
        }
        self.emitted += 1;
        Event::Start { name: name.as_bytes().to_vec(), attrs }
    }
}

impl EventSource for IbmGen {
    fn next_event(&mut self) -> Result<Option<Event>> {
        if self.done {
            return Ok(None);
        }
        if !self.started {
            self.started = true;
            let ev = self.start_event(1);
            let fan = self.draw_fanout(1);
            self.stack.push(OpenNode { name: level_name(1), remaining: fan });
            return Ok(Some(ev));
        }
        let budget_left = self.budget_left();
        match self.stack.last_mut() {
            None => {
                self.done = true;
                Ok(None)
            }
            Some(top) if top.remaining == 0 || !budget_left => {
                // Subtree complete -- or the element budget is spent, in
                // which case budding stops and the closes drain out.
                let node = self.stack.pop().expect("checked non-empty");
                Ok(Some(Event::End { name: node.name.as_bytes().to_vec() }))
            }
            Some(top) => {
                top.remaining -= 1;
                let level = self.stack.len() as u32 + 1;
                let ev = self.start_event(level);
                let fan = self.draw_fanout(level);
                self.stack.push(OpenNode { name: level_name(level), remaining: fan });
                Ok(Some(ev))
            }
        }
    }
}

/// Drain an event source into a vector (tests and small documents).
pub fn collect_events(src: &mut dyn EventSource) -> Result<Vec<Event>> {
    let mut out = Vec::new();
    while let Some(ev) = src.next_event()? {
        out.push(ev);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexsort_xml::events_to_dom;

    #[test]
    fn exact_generator_produces_the_requested_shape() {
        let mut g = ExactGen::new(&[3, 2], GenConfig::default());
        let events = collect_events(&mut g).unwrap();
        let dom = events_to_dom(&events).unwrap();
        assert_eq!(dom.num_nodes(), 1 + 3 + 6);
        assert_eq!(dom.max_fanout(), 3);
        assert_eq!(dom.height(), 3);
        assert_eq!(g.emitted(), ExactGen::total_elements(&[3, 2]));
    }

    #[test]
    fn total_elements_matches_table_2_formula() {
        assert_eq!(ExactGen::total_elements(&[3_000_000]), 3_000_001);
        assert_eq!(ExactGen::total_elements(&[1733, 1733]), 1 + 1733 + 1733 * 1733);
        assert_eq!(
            ExactGen::total_elements(&[144, 144, 144]),
            1 + 144 + 144 * 144 + 144 * 144 * 144
        );
    }

    #[test]
    fn generation_is_deterministic_by_seed() {
        let a = collect_events(&mut ExactGen::new(&[4, 3], GenConfig::default())).unwrap();
        let b = collect_events(&mut ExactGen::new(&[4, 3], GenConfig::default())).unwrap();
        assert_eq!(a, b);
        let c = collect_events(&mut ExactGen::new(
            &[4, 3],
            GenConfig { seed: 7, ..Default::default() },
        ))
        .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn average_element_size_is_near_the_target() {
        let mut g = ExactGen::new(&[20, 10], GenConfig::default());
        let events = collect_events(&mut g).unwrap();
        let xml = nexsort_xml::events_to_xml(&events, false);
        let n = ExactGen::total_elements(&[20, 10]);
        let avg = xml.len() as f64 / n as f64;
        assert!((120.0..=180.0).contains(&avg), "average element size {avg:.1} should be near 150");
    }

    #[test]
    fn ibm_generator_respects_height_and_fanout() {
        let mut g = IbmGen::new(4, 5, None, GenConfig { seed: 3, ..Default::default() });
        let events = collect_events(&mut g).unwrap();
        let dom = events_to_dom(&events).unwrap();
        assert!(dom.height() <= 4);
        assert!(dom.max_fanout() <= 5);
        assert!(dom.max_fanout() >= 1);
        assert!(dom.num_nodes() > 4, "every non-bottom element has >= 1 child");
    }

    #[test]
    fn ibm_generator_element_budget_caps_size() {
        let mut g = IbmGen::new(8, 10, Some(200), GenConfig { seed: 9, ..Default::default() });
        let events = collect_events(&mut g).unwrap();
        let dom = events_to_dom(&events).unwrap();
        assert!(dom.num_nodes() <= 205, "got {}", dom.num_nodes());
        assert_eq!(g.emitted(), dom.num_nodes());
    }

    #[test]
    fn generated_documents_are_well_formed_xml() {
        let mut g = IbmGen::new(5, 4, Some(300), GenConfig { seed: 11, ..Default::default() });
        let events = collect_events(&mut g).unwrap();
        let xml = nexsort_xml::events_to_xml(&events, false);
        let reparsed = nexsort_xml::parse_events(&xml).unwrap();
        assert_eq!(events, reparsed);
    }

    #[test]
    fn keys_are_random_enough_to_need_sorting() {
        let mut g = ExactGen::new(&[50], GenConfig::default());
        let events = collect_events(&mut g).unwrap();
        let keys: Vec<Vec<u8>> =
            events.iter().filter_map(|e| e.attr(b"k").map(|v| v.to_vec())).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_ne!(keys[1..], sorted[1..], "keys should not arrive pre-sorted");
        let distinct: std::collections::HashSet<_> = keys.iter().collect();
        assert!(distinct.len() > 45, "keys should be mostly distinct");
    }
}
