//! A realistic end-to-end scenario: two regional auction sites are sorted
//! and merged into one master catalogue -- sellers matched by id, items by
//! sku, bids interleaved highest-first (a descending criterion), item
//! descriptions untouched.
//!
//! ```sh
//! cargo run -p nexsort-examples --example auction_site
//! ```

use nexsort::{Nexsort, NexsortOptions};
use nexsort_baseline::stage_input;
use nexsort_datagen::{auction_spec, collect_events, AuctionConfig, AuctionGen};
use nexsort_extmem::Disk;
use nexsort_merge::{MergeOptions, StructuralMerge};
use nexsort_xml::{events_to_xml, recs_to_events};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = auction_spec();
    let disk = Disk::new_mem(4096);

    // Two regional sites; overlapping seller-id space so merges happen.
    let east = {
        let mut g = AuctionGen::new(AuctionConfig { seed: 1, sellers: 12, ..Default::default() });
        let xml = events_to_xml(&collect_events(&mut g)?, false);
        stage_input(&disk, &xml)?
    };
    let west = {
        let mut g = AuctionGen::new(AuctionConfig { seed: 2, sellers: 12, ..Default::default() });
        let xml = events_to_xml(&collect_events(&mut g)?, false);
        stage_input(&disk, &xml)?
    };

    let sorter = Nexsort::new(disk.clone(), NexsortOptions::default(), spec.clone())?;
    let sorted_east = sorter.sort_xml_extent(&east)?;
    let sorted_west = sorter.sort_xml_extent(&west)?;
    println!("east: {}", sorted_east.report.summary());
    println!("west: {}", sorted_west.report.summary());

    // Both are now fully sorted -- verify, then merge in one pass.
    sorted_east.verify_sorted(&spec, None)?;
    sorted_west.verify_sorted(&spec, None)?;

    let merge = StructuralMerge::new(&sorted_east.dict, &sorted_west.dict, MergeOptions::default());
    let mut a = sorted_east.cursor()?;
    let mut b = sorted_west.cursor()?;
    let mut merged = Vec::new();
    let (dict, stats) = merge.run(&mut a, &mut b, &mut |r, _| {
        merged.push(r);
        Ok(())
    })?;
    println!("merged: {stats:?}");

    let xml = events_to_xml(&recs_to_events(&merged, &dict)?, true);
    let text = String::from_utf8(xml)?;
    // Print just the head of the catalogue.
    for line in text.lines().take(24) {
        println!("{line}");
    }
    println!("... ({} records total)", stats.emitted);
    assert!(stats.merged >= 1, "at least the roots merged");
    Ok(())
}
