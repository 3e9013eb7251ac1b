//! The bytes of every trace line kind, pinned as literals.
//!
//! `tests/trace_snapshot.rs` compares two runs of the same binary, so a
//! change that moves a kind's bytes consistently passes it. These
//! literals do not move with the renderers: each is asserted equal to
//! its renderer's output and fed back through the strict parser.

use flexgraph_obs::trace::{
    render_epoch, render_meta, render_page_cache, render_part, render_serve,
};
use flexgraph_obs::{
    parse_line, CommCounters, FabricCounters, PageCacheRecord, PartitionRecord, ServeRecord, Stage,
    StageSample, TraceEpoch,
};

fn part() -> PartitionRecord {
    let mut r = PartitionRecord::new(3, 1);
    r.pipelined = true;
    for (stage, invocations, work, wall_ns) in [
        (Stage::LeafSend, 1, 64, 5),
        (Stage::LeafLocal, 1, 2048, 700),
        (Stage::Upper, 2, 512, 999),
        (Stage::Update, 1, 4096, 31),
    ] {
        *r.stage_mut(stage) = StageSample {
            invocations,
            work,
            wall_ns,
        };
    }
    r.comm = CommCounters {
        messages: 3,
        bytes: 4096,
        partial_msgs: 2,
        raw_msgs: 1,
    };
    r.add_root_cost(4, 100);
    r.add_root_cost(9, 28);
    r
}

fn epoch(virtual_ns: u64) -> TraceEpoch {
    let mut ep = TraceEpoch::new(3);
    ep.absorb(part());
    ep.fabric = FabricCounters {
        bytes: 8192,
        messages: 6,
        retries: 2,
        drops_injected: 2,
        redeliveries: 1,
    };
    ep.virtual_ns = virtual_ns;
    ep
}

fn serve() -> ServeRecord {
    let mut r = ServeRecord {
        enqueued: 40,
        served: 38,
        rejected: 2,
        batches: 5,
        batch_max: 8,
        cache_hits: 13,
        cache_misses: 25,
        queue_depth_max: 9,
        ..Default::default()
    };
    for lat in [0, 1, 3, 3, 7, 20] {
        r.latency.record(lat);
    }
    r
}

#[test]
fn every_kind_renders_its_pinned_bytes_and_parses_back() {
    let page_cache = PageCacheRecord {
        fetches: 120,
        hits: 90,
        misses: 30,
        evictions: 12,
        bytes_read: 1 << 22,
        resident_bytes: 48 << 20,
        budget_bytes: 64 << 20,
    };
    let cases = [
        (render_meta(false), r#"{"k":"meta","v":2,"wall":0}"#),
        (render_meta(true), r#"{"k":"meta","v":2,"wall":1}"#),
        (
            render_part(7, &part(), false),
            r#"{"k":"part","vt":7,"epoch":3,"part":1,"pipelined":1,"stages":{"leaf_send":[1,64],"leaf_local":[1,2048],"upper":[2,512],"update":[1,4096]},"comm":[3,4096,2,1],"roots":[2,128,100]}"#,
        ),
        (
            render_part(7, &part(), true),
            r#"{"k":"part","vt":7,"epoch":3,"part":1,"pipelined":1,"stages":{"leaf_send":[1,64,5],"leaf_local":[1,2048,700],"upper":[2,512,999],"update":[1,4096,31]},"comm":[3,4096,2,1],"roots":[2,128,100]}"#,
        ),
        (
            render_part(8, &PartitionRecord::new(0, 2), false),
            r#"{"k":"part","vt":8,"epoch":0,"part":2,"pipelined":0,"stages":{},"comm":[0,0,0,0],"roots":[0,0,0]}"#,
        ),
        (
            render_epoch(9, &epoch(0), false),
            r#"{"k":"epoch","vt":9,"epoch":3,"parts":1,"work":6720,"fabric":[8192,6]}"#,
        ),
        (
            render_epoch(9, &epoch(0), true),
            r#"{"k":"epoch","vt":9,"epoch":3,"parts":1,"work":6720,"fabric":[8192,6],"faults":[2,2,1]}"#,
        ),
        (
            render_epoch(9, &epoch(123_456_789), false),
            r#"{"k":"epoch","vt":9,"epoch":3,"parts":1,"work":6720,"fabric":[8192,6],"vns":123456789}"#,
        ),
        (
            render_epoch(9, &epoch(123_456_789), true),
            r#"{"k":"epoch","vt":9,"epoch":3,"parts":1,"work":6720,"fabric":[8192,6],"faults":[2,2,1],"vns":123456789}"#,
        ),
        (
            render_serve(11, &serve()),
            r#"{"k":"serve","vt":11,"reqs":[40,38,2],"batches":[5,8],"cache":[13,25],"queue":[9],"lat":[6,34,20,3,20]}"#,
        ),
        (
            render_page_cache(5, &page_cache),
            r#"{"k":"pgc","vt":5,"io":[120,90,30,12,4194304],"mem":[50331648,67108864]}"#,
        ),
    ];
    for (rendered, pinned) in cases {
        assert_eq!(rendered, pinned);
        parse_line(pinned).unwrap_or_else(|e| panic!("{pinned}: {e}"));
    }
}
