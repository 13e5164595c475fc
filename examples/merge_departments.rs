//! Example 1.1 / Figure 1 of the paper: merging the personnel and payroll
//! documents of a fictitious company with sort + single-pass structural
//! merge (the XML analogue of a sort-merge join).
//!
//! ```sh
//! cargo run -p nexsort-examples --example merge_departments
//! ```

use nexsort::{Nexsort, NexsortOptions};
use nexsort_baseline::stage_input;
use nexsort_extmem::Disk;
use nexsort_merge::StructuralMerge;
use nexsort_xml::{events_to_xml, recs_to_events, KeyRule, SortSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // D1: the personnel department (Figure 1, top left).
    let d1 = br#"<company>
      <region name="NE">
        <branch name="Durham">
          <employee ID="454"/>
          <employee ID="323"><name>Smith</name><phone>5552345</phone></employee>
        </branch>
        <branch name="Atlanta"/>
      </region>
      <region name="AC"/>
    </company>"#;

    // D2: the payroll department (Figure 1, top right).
    let d2 = br#"<company>
      <region name="NW"/>
      <region name="AC">
        <branch name="Durham"/>
        <branch name="Miami"/>
      </region>
      <region name="NE">
        <branch name="Durham">
          <employee ID="844"/>
          <employee ID="323"><salary>45000</salary><bonus>5000</bonus></employee>
        </branch>
      </region>
    </company>"#;

    // The ordering criterion from Figure 1: order region by name, branch by
    // name, employee by ID.
    let spec = SortSpec::by_attribute("name").with_rule("employee", KeyRule::attr_numeric("ID"));

    // Step 1: sort both documents (arbitrary order in, same order out).
    let disk = Disk::new_mem(4096);
    let sorter = Nexsort::new(disk.clone(), NexsortOptions::default(), spec)?;
    let sorted1 = sorter.sort_xml_extent(&stage_input(&disk, d1)?)?;
    let sorted2 = sorter.sort_xml_extent(&stage_input(&disk, d2)?)?;

    // Step 2: a single synchronized pass merges them -- matching regions,
    // branches and employees combine; everything else passes through
    // (outer-join semantics).
    let merge = StructuralMerge::new(&sorted1.dict, &sorted2.dict);
    let mut a = sorted1.cursor()?;
    let mut b = sorted2.cursor()?;
    let mut merged = Vec::new();
    let (out_dict, stats) = merge.run(&mut a, &mut b, &mut |rec, _| {
        merged.push(rec);
        Ok(())
    })?;

    let xml = events_to_xml(&recs_to_events(&merged, &out_dict)?, true);
    println!("--- merged document (Figure 1, bottom) ---");
    println!("{}", String::from_utf8(xml)?);
    println!("\nmerge stats: {stats:?}");
    assert!(stats.merged >= 4, "company, region NE, branch Durham, employee 323");
    Ok(())
}
