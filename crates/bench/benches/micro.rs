//! Micro-benchmarks of the substrate hot paths.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use nexsort_baseline::sort_recs;
use nexsort_extmem::ByteReader as _;
use nexsort_extmem::SliceReader;
use nexsort_extmem::{Disk, ExtStack, IoCat, KWayMerger, MemoryBudget, VecStream};
use nexsort_xml::{events_to_recs, parse_events, Rec, SortSpec, TagDict};

fn sample_xml(n: usize) -> Vec<u8> {
    let mut doc = String::from("<root>");
    for i in 0..n {
        doc.push_str(&format!(
            "<item k=\"{:06}\" pad=\"abcdefghijklmnopqrstuvwxyz0123456789\">\
             <leaf k=\"x{i}\">text content {i}</leaf></item>",
            (i * 7919) % 1_000_000
        ));
    }
    doc.push_str("</root>");
    doc.into_bytes()
}

fn parser_throughput(c: &mut Criterion) {
    let doc = sample_xml(2000);
    let mut g = c.benchmark_group("xml_parser");
    g.throughput(Throughput::Bytes(doc.len() as u64));
    g.bench_function("parse_events", |b| b.iter(|| parse_events(&doc).unwrap().len()));
    g.finish();
}

fn rec_codec(c: &mut Criterion) {
    let doc = sample_xml(2000);
    let events = parse_events(&doc).unwrap();
    let spec = SortSpec::by_attribute("k");
    let mut dict = TagDict::new();
    let recs = events_to_recs(&events, &spec, &mut dict, true).unwrap();
    let mut encoded = Vec::new();
    for r in &recs {
        r.encode(&mut encoded).unwrap();
    }
    let mut g = c.benchmark_group("rec_codec");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(encoded.len());
            for r in &recs {
                r.encode(&mut buf).unwrap();
            }
            buf.len()
        })
    });
    g.bench_function("decode", |b| {
        b.iter(|| {
            let mut src = SliceReader::new(&encoded);
            let mut n = 0;
            while src.remaining() > 0 {
                let _ = Rec::decode(&mut src).unwrap();
                n += 1;
            }
            n
        })
    });
    g.finish();
}

fn ext_stack(c: &mut Criterion) {
    let mut g = c.benchmark_group("ext_stack");
    g.bench_function("push_pop_64B_entries", |b| {
        b.iter(|| {
            let disk = Disk::new_mem(4096);
            let budget = MemoryBudget::new(4);
            let mut s = ExtStack::new(disk, &budget, IoCat::DataStack, 2).unwrap();
            let entry = [7u8; 64];
            for _ in 0..2000 {
                s.push(&entry).unwrap();
            }
            for _ in 0..2000 {
                s.pop(64).unwrap();
            }
        })
    });
    g.finish();
}

fn kway_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("kway_merge");
    g.bench_function("merge_16x1000", |b| {
        b.iter(|| {
            let streams: Vec<_> = (0..16)
                .map(|s| {
                    let v: Vec<i64> = (0..1000).map(|i| i * 16 + s).collect();
                    VecStream::new(v)
                })
                .collect();
            let mut m = KWayMerger::new(streams, |a: &i64, b: &i64| a.cmp(b)).unwrap();
            let mut merged = 0;
            while m.next_merged().unwrap().is_some() {
                merged += 1;
            }
            merged
        })
    });
    g.finish();
}

fn internal_sort(c: &mut Criterion) {
    let doc = sample_xml(2000);
    let events = parse_events(&doc).unwrap();
    let spec = SortSpec::by_attribute("k");
    let mut dict = TagDict::new();
    let recs = events_to_recs(&events, &spec, &mut dict, true).unwrap();
    let mut g = c.benchmark_group("internal_sort");
    g.throughput(Throughput::Elements(recs.len() as u64));
    g.bench_function("sort_recs", |b| {
        b.iter(|| sort_recs(recs.clone(), true, None).unwrap().len())
    });
    g.finish();
}

criterion_group!(micro, parser_throughput, rec_codec, ext_stack, kway_merge, internal_sort);
criterion_main!(micro);
