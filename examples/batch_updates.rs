//! Batch updates over a sorted document (Section 1 of the paper): sort the
//! update batch under the same criterion, then apply it in a single merging
//! pass. The result remains sorted, so updates compose.
//!
//! ```sh
//! cargo run -p nexsort-examples --example batch_updates
//! ```

use nexsort::{Nexsort, NexsortOptions};
use nexsort_baseline::stage_input;
use nexsort_extmem::Disk;
use nexsort_merge::{BatchUpdate, MergeOptions};
use nexsort_xml::{events_to_xml, recs_to_events, KeyRule, SortSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = br#"<inventory>
      <item sku="1003" qty="7"/>
      <item sku="1001" qty="3"><note>fragile</note></item>
      <item sku="1002" qty="0"/>
      <item sku="1005" qty="12"/>
    </inventory>"#;

    // The batch: restock 1002, discontinue 1003, replace 1005's record,
    // add 1004. `op` attributes select the operation; plain elements merge.
    let updates = br#"<inventory>
      <item sku="1004" qty="9"/>
      <item sku="1002" qty="25"/>
      <item sku="1003" op="delete"/>
      <item sku="1005" op="replace" qty="1"><note>recount pending</note></item>
    </inventory>"#;

    let spec = SortSpec::uniform(KeyRule::attr_numeric("sku"))
        .with_rule("inventory", KeyRule::doc_order())
        .with_rule("note", KeyRule::doc_order());

    let disk = Disk::new_mem(4096);
    let sorter = Nexsort::new(disk.clone(), NexsortOptions::default(), spec)?;
    let sorted_base = sorter.sort_xml_extent(&stage_input(&disk, base)?)?;
    let sorted_updates = sorter.sort_xml_extent(&stage_input(&disk, updates)?)?;

    println!("--- sorted base ---");
    println!("{}", String::from_utf8(sorted_base.to_xml(true)?)?);

    let apply = BatchUpdate::new(&sorted_base.dict, &sorted_updates.dict, MergeOptions::default());
    let mut base_cur = sorted_base.cursor()?;
    let mut upd_cur = sorted_updates.cursor()?;
    let mut result = Vec::new();
    let (dict, stats) = apply.run(&mut base_cur, &mut upd_cur, &mut |rec, _| {
        result.push(rec);
        Ok(())
    })?;

    println!("\n--- after the batch ---");
    println!("{}", String::from_utf8(events_to_xml(&recs_to_events(&result, &dict)?, true))?);
    println!("\nupdate stats: {stats:?}");
    assert_eq!(stats.deleted, 1);
    assert_eq!(stats.replaced, 1);
    assert_eq!(stats.inserted, 1);
    Ok(())
}
