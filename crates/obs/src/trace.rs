//! Deterministic JSONL trace serialization.
//!
//! One trace session is a sequence of JSON objects, one per line:
//!
//! ```text
//! {"k":"meta","v":2,"wall":0}
//! {"k":"part","vt":1,"epoch":0,"part":0,"pipelined":1,
//!  "stages":{"upper":[1,1234],...},"comm":[3,4096,2,1],
//!  "roots":[128,51200,900]}
//! {"k":"epoch","vt":3,"epoch":0,"parts":2,"work":98304,"fabric":[8192,6]}
//! ```
//!
//! Determinism rules (DESIGN.md §8):
//! * Timestamps are **virtual**: `vt` is a per-session record counter,
//!   not a clock. Same-seed runs therefore emit byte-identical traces
//!   under any `FLEXGRAPH_THREADS`.
//! * Stage entries serialize `[invocations, work]` — wall times are
//!   excluded because they depend on the scheduler, and fault counters
//!   (retries, drops) because a crashed attempt's do (a crash-free
//!   schedule's are a function of its seed). Setting
//!   `FLEXGRAPH_TRACE_WALL=1` appends them as extra debug fields and
//!   forfeits byte-stability (the `meta` line records `"wall":1` so
//!   consumers can tell).
//! * Stages with zero invocations are omitted; maps use the fixed
//!   [`Stage::ALL`] order; root costs serialize as the
//!   `(count,total,max)` digest, never the full map.
//!
//! There is no serde in the dependency tree, so both the emitter and
//! the schema-validating parser below are hand-rolled for this one
//! fixed schema.

use crate::record::{
    FabricCounters, PageCacheRecord, PartitionRecord, ServeRecord, Stage, TraceEpoch,
};
use std::fmt::Write as _;

/// Trace format version emitted in the `meta` line. Version 2 dropped
/// the `serve` line's `quant` label.
pub const TRACE_VERSION: u64 = 2;

/// Renders the session-opening `meta` line.
pub fn render_meta(wall: bool) -> String {
    format!(
        "{{\"k\":\"meta\",\"v\":{},\"wall\":{}}}",
        TRACE_VERSION,
        u64::from(wall)
    )
}

/// Renders one partition record as a `part` line. `vt` is the caller's
/// virtual timestamp for this record.
pub fn render_part(vt: u64, rec: &PartitionRecord, wall: bool) -> String {
    let mut s = String::with_capacity(192);
    let _ = write!(
        s,
        "{{\"k\":\"part\",\"vt\":{},\"epoch\":{},\"part\":{},\"pipelined\":{},\"stages\":{{",
        vt,
        rec.epoch,
        rec.partition,
        u64::from(rec.pipelined)
    );
    let mut first = true;
    for st in Stage::ALL {
        let sample = rec.stage(st);
        if sample.invocations == 0 {
            continue;
        }
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(
            s,
            "\"{}\":[{},{}",
            st.name(),
            sample.invocations,
            sample.work
        );
        if wall {
            let _ = write!(s, ",{}", sample.wall_ns);
        }
        s.push(']');
    }
    let (rc, rt, rm) = rec.root_digest();
    let _ = write!(
        s,
        "}},\"comm\":[{},{},{},{}],\"roots\":[{},{},{}]}}",
        rec.comm.messages, rec.comm.bytes, rec.comm.partial_msgs, rec.comm.raw_msgs, rc, rt, rm
    );
    s
}

/// Renders the epoch-closing `epoch` line.
pub fn render_epoch(vt: u64, ep: &TraceEpoch, wall: bool) -> String {
    let mut s = format!(
        "{{\"k\":\"epoch\",\"vt\":{},\"epoch\":{},\"parts\":{},\"work\":{},\"fabric\":[{},{}]",
        vt,
        ep.epoch,
        ep.partitions.len(),
        ep.work_total(),
        ep.fabric.bytes,
        ep.fabric.messages
    );
    if wall {
        let _ = write!(
            s,
            ",\"faults\":[{},{},{}]",
            ep.fabric.retries, ep.fabric.drops_injected, ep.fabric.redeliveries
        );
    }
    if ep.virtual_ns != 0 {
        // Virtual-time epochs are deterministic, so the duration is
        // part of the byte-stable trace (unlike wall fields).
        let _ = write!(s, ",\"vns\":{}", ep.virtual_ns);
    }
    s.push('}');
    s
}

/// Renders one serving window as a `serve` line:
///
/// ```text
/// {"k":"serve","vt":4,"reqs":[enqueued,served,rejected],
///  "batches":[count,max],"cache":[hits,misses],"queue":[depth_max],
///  "lat":[count,total,max,p50,p99]}
/// ```
///
/// Every field is an integer counter or a bucketed virtual-time
/// quantile — no wall clocks — so serve traces stay byte-identical
/// across same-seed runs regardless of thread count.
pub fn render_serve(vt: u64, rec: &ServeRecord) -> String {
    format!(
        "{{\"k\":\"serve\",\"vt\":{vt},\"reqs\":[{},{},{}],\"batches\":[{},{}],\"cache\":[{},{}],\"queue\":[{}],\"lat\":[{},{},{},{},{}]}}",
        rec.enqueued,
        rec.served,
        rec.rejected,
        rec.batches,
        rec.batch_max,
        rec.cache_hits,
        rec.cache_misses,
        rec.queue_depth_max,
        rec.latency.count,
        rec.latency.total,
        rec.latency.max,
        rec.latency.quantile_bound(50),
        rec.latency.quantile_bound(99),
    )
}

/// Renders one page-cache window from the paged graph store as a
/// `pgc` line:
///
/// ```text
/// {"k":"pgc","vt":7,"io":[fetches,hits,misses,evictions,bytes_read],
///  "mem":[resident_bytes,budget_bytes]}
/// ```
///
/// All fields are integer counters or byte counts derived from the
/// segment access sequence, which is identical across thread counts —
/// the same byte-stability contract as every other record kind.
pub fn render_page_cache(vt: u64, rec: &PageCacheRecord) -> String {
    format!(
        "{{\"k\":\"pgc\",\"vt\":{vt},\"io\":[{},{},{},{},{}],\"mem\":[{},{}]}}",
        rec.fetches,
        rec.hits,
        rec.misses,
        rec.evictions,
        rec.bytes_read,
        rec.resident_bytes,
        rec.budget_bytes,
    )
}

/// A parsed trace line.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceLine {
    /// Session header: format version + whether wall/fault debug fields
    /// are present.
    Meta { version: u64, wall: bool },
    /// One partition's epoch record. The full per-root cost map is not
    /// serialized (only its digest), so `record.roots` is empty after a
    /// parse and `roots` carries the `(count, total, max)` digest.
    Part {
        vt: u64,
        record: PartitionRecord,
        roots: (u64, u64, u64),
    },
    /// Epoch summary.
    Epoch {
        vt: u64,
        epoch: u64,
        parts: u64,
        work: u64,
        fabric: FabricCounters,
        /// Virtual epoch duration (0 when the epoch ran on real threads).
        virtual_ns: u64,
    },
    /// One serving window. The wire carries `(count, total, max, p50,
    /// p99)`, not the histogram: `record.latency` holds **no buckets**
    /// after a parse, so its `quantile_bound` is meaningless (it falls
    /// through to `max`). `p50`/`p99` are the emitter's bucketed
    /// quantile bounds — the only quantiles a parsed window has.
    Serve {
        vt: u64,
        record: ServeRecord,
        p50: u64,
        p99: u64,
    },
    /// One page-cache window from the paged graph store.
    PageCache { vt: u64, record: PageCacheRecord },
}

/// Parses one trace line, validating it against the documented schema.
/// Returns a description of the first violation on malformed input.
pub fn parse_line(line: &str) -> Result<TraceLine, String> {
    let mut p = Parser::new(line);
    p.expect('{')?;
    let key = p.key()?;
    if key != "k" {
        return Err(format!("first key must be \"k\", got {key:?}"));
    }
    let kind = p.string()?;
    match kind.as_str() {
        "meta" => {
            p.expect(',')?;
            p.named_key("v")?;
            let version = p.number()?;
            p.expect(',')?;
            p.named_key("wall")?;
            let wall = p.bool01()?;
            p.expect('}')?;
            p.end()?;
            Ok(TraceLine::Meta { version, wall })
        }
        "part" => parse_part(&mut p),
        "epoch" => parse_epoch(&mut p),
        "serve" => parse_serve(&mut p),
        "pgc" => parse_page_cache(&mut p),
        other => Err(format!("unknown record kind {other:?}")),
    }
}

fn parse_part(p: &mut Parser) -> Result<TraceLine, String> {
    p.expect(',')?;
    p.named_key("vt")?;
    let vt = p.number()?;
    p.expect(',')?;
    p.named_key("epoch")?;
    let epoch = p.number()?;
    p.expect(',')?;
    p.named_key("part")?;
    let part = u32::try_from(p.number()?).map_err(|_| "part exceeds u32".to_string())?;
    p.expect(',')?;
    p.named_key("pipelined")?;
    let pipelined = p.bool01()?;
    p.expect(',')?;
    p.named_key("stages")?;
    let mut rec = PartitionRecord::new(epoch, part);
    rec.pipelined = pipelined;
    p.expect('{')?;
    if !p.peek('}') {
        loop {
            let name = p.key()?;
            let st = Stage::from_name(&name).ok_or_else(|| format!("unknown stage {name:?}"))?;
            p.expect('[')?;
            let inv = p.number()?;
            p.expect(',')?;
            let work = p.number()?;
            let wall_ns = if p.peek(',') {
                p.expect(',')?;
                p.number()?
            } else {
                0
            };
            p.expect(']')?;
            if inv == 0 {
                return Err(format!("stage {name:?} serialized with zero invocations"));
            }
            let sample = rec.stage_mut(st);
            if sample.invocations != 0 {
                return Err(format!("stage {name:?} appears twice"));
            }
            *sample = crate::record::StageSample {
                invocations: inv,
                work,
                wall_ns,
            };
            if p.peek('}') {
                break;
            }
            p.expect(',')?;
        }
    }
    p.expect('}')?;
    p.expect(',')?;
    p.named_key("comm")?;
    let c = p.fixed_array(4)?;
    rec.comm = crate::record::CommCounters {
        messages: c[0],
        bytes: c[1],
        partial_msgs: c[2],
        raw_msgs: c[3],
    };
    p.expect(',')?;
    p.named_key("roots")?;
    let r = p.fixed_array(3)?;
    if r[1] < r[2] {
        return Err("roots digest total < max".into());
    }
    p.expect('}')?;
    p.end()?;
    Ok(TraceLine::Part {
        vt,
        record: rec,
        roots: (r[0], r[1], r[2]),
    })
}

fn parse_epoch(p: &mut Parser) -> Result<TraceLine, String> {
    p.expect(',')?;
    p.named_key("vt")?;
    let vt = p.number()?;
    p.expect(',')?;
    p.named_key("epoch")?;
    let epoch = p.number()?;
    p.expect(',')?;
    p.named_key("parts")?;
    let parts = p.number()?;
    p.expect(',')?;
    p.named_key("work")?;
    let work = p.number()?;
    p.expect(',')?;
    p.named_key("fabric")?;
    let f = p.fixed_array(2)?;
    let mut fabric = FabricCounters {
        bytes: f[0],
        messages: f[1],
        ..Default::default()
    };
    // The optional tail in writer order, each field at most once:
    // `faults` in wall mode, `vns` on virtual-time epochs (a zero is
    // omitted, never written).
    if p.optional_key("faults") {
        let d = p.fixed_array(3)?;
        fabric.retries = d[0];
        fabric.drops_injected = d[1];
        fabric.redeliveries = d[2];
    }
    let virtual_ns = if p.optional_key("vns") {
        match p.number()? {
            0 => return Err("vns serialized as zero".into()),
            ns => ns,
        }
    } else {
        0
    };
    p.expect('}')?;
    p.end()?;
    Ok(TraceLine::Epoch {
        vt,
        epoch,
        parts,
        work,
        fabric,
        virtual_ns,
    })
}

fn parse_serve(p: &mut Parser) -> Result<TraceLine, String> {
    p.expect(',')?;
    p.named_key("vt")?;
    let vt = p.number()?;
    p.expect(',')?;
    p.named_key("reqs")?;
    let r = p.fixed_array(3)?;
    p.expect(',')?;
    p.named_key("batches")?;
    let b = p.fixed_array(2)?;
    p.expect(',')?;
    p.named_key("cache")?;
    let c = p.fixed_array(2)?;
    p.expect(',')?;
    p.named_key("queue")?;
    let q = p.fixed_array(1)?;
    p.expect(',')?;
    p.named_key("lat")?;
    let l = p.fixed_array(5)?;
    p.expect('}')?;
    p.end()?;
    if r[1] > r[0] {
        return Err("served > enqueued".into());
    }
    if l[2] > l[1] && l[0] > 0 {
        return Err("latency max > total".into());
    }
    if l[3] > l[4] {
        return Err("latency p50 > p99".into());
    }
    let mut record = ServeRecord {
        enqueued: r[0],
        served: r[1],
        rejected: r[2],
        batches: b[0],
        batch_max: b[1],
        cache_hits: c[0],
        cache_misses: c[1],
        queue_depth_max: q[0],
        ..Default::default()
    };
    record.latency.count = l[0];
    record.latency.total = l[1];
    record.latency.max = l[2];
    Ok(TraceLine::Serve {
        vt,
        record,
        p50: l[3],
        p99: l[4],
    })
}

fn parse_page_cache(p: &mut Parser) -> Result<TraceLine, String> {
    p.expect(',')?;
    p.named_key("vt")?;
    let vt = p.number()?;
    p.expect(',')?;
    p.named_key("io")?;
    let io = p.fixed_array(5)?;
    p.expect(',')?;
    p.named_key("mem")?;
    let mem = p.fixed_array(2)?;
    p.expect('}')?;
    p.end()?;
    if io[1].checked_add(io[2]) != Some(io[0]) {
        return Err("hits + misses != fetches".into());
    }
    if io[3] > io[2] {
        return Err("evictions > misses".into());
    }
    Ok(TraceLine::PageCache {
        vt,
        record: PageCacheRecord {
            fetches: io[0],
            hits: io[1],
            misses: io[2],
            evictions: io[3],
            bytes_read: io[4],
            resident_bytes: mem[0],
            budget_bytes: mem[1],
        },
    })
}

/// Minimal cursor over one line of the fixed trace schema.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.s.get(self.i) == Some(&(c as u8)) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {c:?} at byte {}", self.i))
        }
    }

    fn peek(&self, c: char) -> bool {
        self.s.get(self.i) == Some(&(c as u8))
    }

    /// `"name":` — returns the name.
    fn key(&mut self) -> Result<String, String> {
        let k = self.string()?;
        self.expect(':')?;
        Ok(k)
    }

    /// Consumes `,"name":` when it is next; otherwise leaves the cursor
    /// where it is.
    fn optional_key(&mut self, name: &str) -> bool {
        let field = format!(",\"{name}\":");
        let next = self.s[self.i..].starts_with(field.as_bytes());
        if next {
            self.i += field.len();
        }
        next
    }

    /// `"name":` with a required name.
    fn named_key(&mut self, want: &str) -> Result<(), String> {
        let k = self.key()?;
        if k == want {
            Ok(())
        } else {
            Err(format!("expected key {want:?}, got {k:?}"))
        }
    }

    /// A double-quoted string (schema strings never contain escapes).
    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let start = self.i;
        while let Some(&b) = self.s.get(self.i) {
            if b == b'"' {
                let out = std::str::from_utf8(&self.s[start..self.i])
                    .map_err(|_| "invalid utf8".to_string())?
                    .to_string();
                self.i += 1;
                return Ok(out);
            }
            if b == b'\\' {
                return Err("escapes are not part of the trace schema".into());
            }
            self.i += 1;
        }
        Err("unterminated string".into())
    }

    /// An unsigned decimal integer.
    fn number(&mut self) -> Result<u64, String> {
        let start = self.i;
        while self.s.get(self.i).is_some_and(|b| b.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            return Err(format!("expected number at byte {start}"));
        }
        std::str::from_utf8(&self.s[start..self.i])
            .unwrap()
            .parse::<u64>()
            .map_err(|e| format!("bad number: {e}"))
    }

    /// `0` or `1`.
    fn bool01(&mut self) -> Result<bool, String> {
        match self.number()? {
            0 => Ok(false),
            1 => Ok(true),
            n => Err(format!("expected 0/1 flag, got {n}")),
        }
    }

    /// `[n,n,...]` with exactly `len` entries.
    fn fixed_array(&mut self, len: usize) -> Result<Vec<u64>, String> {
        self.expect('[')?;
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            if i > 0 {
                self.expect(',')?;
            }
            out.push(self.number()?);
        }
        self.expect(']')?;
        Ok(out)
    }

    fn end(&mut self) -> Result<(), String> {
        if self.i == self.s.len() {
            Ok(())
        } else {
            Err(format!("trailing bytes at {}", self.i))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::StageSample;

    fn rec() -> PartitionRecord {
        let mut r = PartitionRecord::new(3, 1);
        r.pipelined = true;
        *r.stage_mut(Stage::Upper) = StageSample {
            invocations: 2,
            work: 512,
            wall_ns: 999,
        };
        *r.stage_mut(Stage::LeafSend) = StageSample {
            invocations: 1,
            work: 64,
            wall_ns: 5,
        };
        r.comm.messages = 3;
        r.comm.bytes = 4096;
        r.comm.partial_msgs = 2;
        r.comm.raw_msgs = 1;
        r.add_root_cost(4, 100);
        r.add_root_cost(9, 28);
        r
    }

    #[test]
    fn meta_round_trip() {
        let line = render_meta(false);
        assert_eq!(
            parse_line(&line),
            Ok(TraceLine::Meta {
                version: TRACE_VERSION,
                wall: false
            })
        );
    }

    #[test]
    fn part_round_trip_deterministic_fields() {
        let line = render_part(7, &rec(), false);
        // Wall times must not leak into the deterministic form.
        assert!(!line.contains("999"));
        match parse_line(&line).unwrap() {
            TraceLine::Part { vt, record, roots } => {
                assert_eq!(vt, 7);
                assert_eq!(record.epoch, 3);
                assert_eq!(record.partition, 1);
                assert!(record.pipelined);
                assert_eq!(record.stage(Stage::Upper).work, 512);
                assert_eq!(record.stage(Stage::Upper).wall_ns, 0);
                assert_eq!(record.stage(Stage::Update).invocations, 0);
                assert_eq!(record.comm.bytes, 4096);
                assert_eq!(roots, (2, 128, 100));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn part_wall_mode_round_trips_wall_ns() {
        let line = render_part(1, &rec(), true);
        match parse_line(&line).unwrap() {
            TraceLine::Part { record, .. } => {
                assert_eq!(record.stage(Stage::Upper).wall_ns, 999)
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn epoch_round_trip() {
        let mut ep = TraceEpoch::new(3);
        ep.absorb(rec());
        ep.fabric.bytes = 8192;
        ep.fabric.messages = 6;
        ep.fabric.retries = 2;
        let line = render_epoch(9, &ep, false);
        assert!(!line.contains("faults"));
        assert!(!line.contains("vns"), "no virtual field on real threads");
        match parse_line(&line).unwrap() {
            TraceLine::Epoch {
                vt,
                epoch,
                parts,
                work,
                fabric,
                virtual_ns,
            } => {
                assert_eq!((vt, epoch, parts), (9, 3, 1));
                assert_eq!(work, 576);
                assert_eq!(fabric.bytes, 8192);
                assert_eq!(fabric.retries, 0);
                assert_eq!(virtual_ns, 0);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let wall_line = render_epoch(9, &ep, true);
        match parse_line(&wall_line).unwrap() {
            TraceLine::Epoch { fabric, .. } => assert_eq!(fabric.retries, 2),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn virtual_epoch_round_trip() {
        // A virtual-time epoch carries its deterministic duration in
        // both trace modes, after any wall-only fields.
        let mut ep = TraceEpoch::new(4);
        ep.absorb(rec());
        ep.fabric.retries = 1;
        ep.virtual_ns = 123_456_789;
        for wall in [false, true] {
            let line = render_epoch(2, &ep, wall);
            assert_eq!(line.contains("faults"), wall);
            match parse_line(&line).unwrap() {
                TraceLine::Epoch { virtual_ns, .. } => assert_eq!(virtual_ns, 123_456_789),
                other => panic!("wrong kind: {other:?}"),
            }
        }
    }

    #[test]
    fn serve_round_trip() {
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
        let line = render_serve(11, &r);
        match parse_line(&line).unwrap() {
            TraceLine::Serve {
                vt,
                record,
                p50,
                p99,
            } => {
                assert_eq!(vt, 11);
                assert_eq!(record.enqueued, 40);
                assert_eq!(record.served, 38);
                assert_eq!(record.rejected, 2);
                assert_eq!((record.batches, record.batch_max), (5, 8));
                assert_eq!((record.cache_hits, record.cache_misses), (13, 25));
                assert_eq!(record.queue_depth_max, 9);
                assert_eq!(record.latency.count, 6);
                assert_eq!(record.latency.total, 34);
                assert_eq!(record.latency.max, 20);
                assert_eq!(p50, r.latency.quantile_bound(50));
                assert_eq!(p99, r.latency.quantile_bound(99));
                assert!(p50 <= p99);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn malformed_serve_lines_are_rejected() {
        for bad in [
            // served > enqueued is impossible.
            "{\"k\":\"serve\",\"vt\":1,\"reqs\":[1,2,0],\"batches\":[1,1],\"cache\":[0,0],\"queue\":[0],\"lat\":[0,0,0,0,0]}",
            // p50 > p99 is impossible.
            "{\"k\":\"serve\",\"vt\":1,\"reqs\":[2,2,0],\"batches\":[1,2],\"cache\":[0,0],\"queue\":[0],\"lat\":[2,5,4,7,3]}",
            // Wrong arity.
            "{\"k\":\"serve\",\"vt\":1,\"reqs\":[2,2],\"batches\":[1,2],\"cache\":[0,0],\"queue\":[0],\"lat\":[0,0,0,0,0]}",
            // Version 1 schema (still carrying the precision label).
            "{\"k\":\"serve\",\"vt\":1,\"reqs\":[2,2,0],\"batches\":[1,2],\"cache\":[0,0],\"queue\":[0],\"quant\":0,\"lat\":[0,0,0,0,0]}",
            "{\"k\":\"serve\",\"vt\":1}",
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn page_cache_round_trip() {
        let r = PageCacheRecord {
            fetches: 120,
            hits: 90,
            misses: 30,
            evictions: 12,
            bytes_read: 1 << 22,
            resident_bytes: 48 << 20,
            budget_bytes: 64 << 20,
        };
        let line = render_page_cache(5, &r);
        assert_eq!(
            line,
            "{\"k\":\"pgc\",\"vt\":5,\"io\":[120,90,30,12,4194304],\"mem\":[50331648,67108864]}"
        );
        match parse_line(&line).unwrap() {
            TraceLine::PageCache { vt, record } => {
                assert_eq!(vt, 5);
                assert_eq!(record, r);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn malformed_page_cache_lines_are_rejected() {
        for bad in [
            // hits + misses must equal fetches.
            "{\"k\":\"pgc\",\"vt\":1,\"io\":[10,5,4,0,0],\"mem\":[0,0]}",
            // Every evicted segment was once inserted by a miss, so
            // evictions can never exceed misses.
            "{\"k\":\"pgc\",\"vt\":1,\"io\":[10,5,5,6,0],\"mem\":[0,0]}",
            // Wrong arities.
            "{\"k\":\"pgc\",\"vt\":1,\"io\":[10,5,5,0],\"mem\":[0,0]}",
            "{\"k\":\"pgc\",\"vt\":1,\"io\":[10,5,5,0,0],\"mem\":[0]}",
            "{\"k\":\"pgc\",\"vt\":1}",
            // hits + misses wraps around to fetches.
            "{\"k\":\"pgc\",\"vt\":1,\"io\":[0,18446744073709551615,1,0,0],\"mem\":[0,0]}",
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{}",
            "{\"k\":\"nope\"}",
            "{\"k\":\"meta\",\"v\":1}",
            "{\"k\":\"meta\",\"v\":1,\"wall\":2}",
            "{\"k\":\"part\",\"vt\":0}",
            // Zero-invocation stages must be omitted by the writer.
            "{\"k\":\"part\",\"vt\":0,\"epoch\":0,\"part\":0,\"pipelined\":0,\"stages\":{\"upper\":[0,0]},\"comm\":[0,0,0,0],\"roots\":[0,0,0]}",
            // Digest total < max is impossible.
            "{\"k\":\"part\",\"vt\":0,\"epoch\":0,\"part\":0,\"pipelined\":0,\"stages\":{},\"comm\":[0,0,0,0],\"roots\":[1,2,3]}",
            "{\"k\":\"epoch\",\"vt\":0,\"epoch\":0,\"parts\":1,\"work\":0,\"fabric\":[0,0]}x",
            // A rank beyond u32 (`as u32` would read partition 1).
            "{\"k\":\"part\",\"vt\":0,\"epoch\":0,\"part\":4294967297,\"pipelined\":0,\"stages\":{},\"comm\":[0,0,0,0],\"roots\":[0,0,0]}",
            // The epoch tail: a key twice, `vns` before `faults`, and a
            // zero `vns` (the writer omits it).
            "{\"k\":\"epoch\",\"vt\":0,\"epoch\":0,\"parts\":1,\"work\":0,\"fabric\":[0,0],\"vns\":1,\"vns\":2}",
            "{\"k\":\"epoch\",\"vt\":0,\"epoch\":0,\"parts\":1,\"work\":0,\"fabric\":[0,0],\"vns\":1,\"faults\":[1,1,1]}",
            "{\"k\":\"epoch\",\"vt\":0,\"epoch\":0,\"parts\":1,\"work\":0,\"fabric\":[0,0],\"vns\":0}",
        ] {
            assert!(parse_line(bad).is_err(), "accepted malformed line: {bad:?}");
        }
    }
}
