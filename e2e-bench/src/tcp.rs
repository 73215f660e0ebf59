//! Closed-loop clients driving the server over loopback TCP.

use std::path::Path;
use std::time::Instant;

use ddpa_obs::JsonValue;
use ddpa_serve::proto::build;
use ddpa_serve::{Client, QuerySpec};

use crate::inputs::{self, Job, Op, WarmPlan, Workload};
use crate::oracle::{outcome_of, Answer, Outcome, Reference};
use crate::server::ServerChild;
use crate::spans::Spans;

/// Warm-edit set-ups (open + restore) per pass; `setup_s` is their median.
pub const WARM_SETUPS: usize = 5;

/// Consecutive refused `open`s after which a job phase gives up: a server
/// that refuses every program would otherwise never send the phase's
/// queries.
const MAX_REFUSED_OPENS: u32 = 3;

/// Wrong answers quoted in full; later ones are only counted.
const WRONG_EXAMPLES: usize = 5;

/// Everything one measured phase observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Seconds per session set-up (`open`, plus `restore` in warm-edit).
    pub setup_s: Vec<f64>,
    /// Query round trips, microseconds.
    pub query_us: Vec<f64>,
    /// Wall time of the query phases per request, microseconds: from the
    /// end of the phase's previous request (or the phase's start) to the
    /// end of this one. The phases' wall time is their sum.
    pub wall_us: Vec<f64>,
    /// `add-constraints` round trips, milliseconds.
    pub edit_ms: Vec<f64>,
    /// Requests attempted and failed (errors, refusals, time-outs,
    /// incomplete answers), set-up requests included.
    pub attempted: u64,
    pub failed: u64,
    /// Answers that differ from the reference.
    pub wrong: u64,
    pub wrong_examples: Vec<String>,
    /// Round trip minus the server-reported engine wall time, for traced
    /// queries, microseconds.
    pub outside_us: Vec<f64>,
}

impl Tally {
    /// Folds in a replay of the same request sequence: each timing keeps
    /// the faster of its two readings, so a request the host stalled once
    /// does not decide the result; counts add up.
    pub fn absorb_replay(&mut self, other: Tally) -> Result<(), String> {
        fn keep_min(best: &mut [f64], other: &[f64], what: &str) -> Result<(), String> {
            if best.len() != other.len() {
                return Err(format!(
                    "a replay held {} {what}, the first pass {}",
                    other.len(),
                    best.len()
                ));
            }
            for (b, o) in best.iter_mut().zip(other) {
                *b = b.min(*o);
            }
            Ok(())
        }
        keep_min(&mut self.setup_s, &other.setup_s, "set-ups")?;
        keep_min(&mut self.query_us, &other.query_us, "queries")?;
        keep_min(&mut self.edit_ms, &other.edit_ms, "edits")?;
        keep_min(&mut self.wall_us, &other.wall_us, "requests")?;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        let room = WRONG_EXAMPLES.saturating_sub(self.wrong_examples.len());
        self.wrong_examples
            .extend(other.wrong_examples.into_iter().take(room));
        Ok(())
    }

    fn note_wrong(&mut self, message: String) {
        self.wrong += 1;
        if self.wrong_examples.len() < WRONG_EXAMPLES {
            self.wrong_examples.push(message);
        }
    }

    /// Checks a batch of outcomes against `reference`.
    fn check_all<'a>(
        &mut self,
        reference: &Reference,
        answers: impl IntoIterator<Item = (&'a QuerySpec, Outcome)>,
    ) {
        for (spec, outcome) in answers {
            match reference.check(spec, &outcome) {
                Ok(true) => {}
                Ok(false) => self.failed += 1,
                Err(e) => self.note_wrong(e),
            }
        }
    }

    pub fn queries_per_s(&self) -> f64 {
        let wall_s = self.wall_us.iter().sum::<f64>() / 1e6;
        self.query_us.len() as f64 / wall_s.max(1e-9)
    }
}

/// Sends `request` and returns the decoded response with the round trip
/// in seconds: from writing the request line to reading the response line.
/// Encoding and decoding on the client side stay outside the timing.
fn roundtrip(client: &mut Client, request: &JsonValue) -> Result<(JsonValue, f64), String> {
    let line = request.to_string();
    let t = Instant::now();
    let reply = client
        .roundtrip_line(&line)
        .map_err(|e| format!("request failed: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    Ok((parse_reply(&reply)?, secs))
}

fn parse_reply(reply: &str) -> Result<JsonValue, String> {
    ddpa_obs::parse_json(reply).map_err(|e| format!("bad response JSON: {e}"))
}

/// Sends encoded request `lines`, each `(span name, line)`, one at a time
/// in a closed loop, and returns each reply with its round trip in
/// microseconds; each request's share of the wall time goes to
/// `tally.wall_us`. Requests are encoded before and replies decoded after
/// the loop, so its wall time is the server's and the connection's, not
/// the benchmark's JSON work. Span request ids start at `first`.
fn send_lines(
    client: &mut Client,
    lines: &[(&'static str, String)],
    first: u64,
    mut spans: Option<&mut Spans>,
    tally: &mut Tally,
) -> Result<Vec<(String, f64)>, String> {
    let mut replies = Vec::with_capacity(lines.len());
    let mut last = Instant::now();
    for (i, (name, line)) in lines.iter().enumerate() {
        let open = spans
            .as_deref_mut()
            .map(|s| s.begin(name, first + i as u64, None));
        let t = Instant::now();
        let reply = client
            .roundtrip_line(line)
            .map_err(|e| format!("request failed: {e}"))?;
        let end = Instant::now();
        if let (Some(s), Some(open)) = (spans.as_deref_mut(), open) {
            s.end(open);
        }
        replies.push((reply, (end - t).as_secs_f64() * 1e6));
        tally.wall_us.push((end - last).as_secs_f64() * 1e6);
        last = end;
    }
    Ok(replies)
}

fn is_ok(response: &JsonValue) -> bool {
    response.get("ok").and_then(JsonValue::as_bool) == Some(true)
}

fn field_u64(v: &JsonValue, path: &[&str]) -> Option<u64> {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(JsonValue::as_u64)
}

/// Round trip minus the `"trace"` report's engine wall time.
fn outside_engine_us(response: &JsonValue, rt_us: f64) -> Option<f64> {
    field_u64(response, &["trace", "wall_us"]).map(|w| (rt_us - w as f64).max(0.0))
}

/// The jobs of a session-per-program workload, one per program it cycles
/// through, with their references, built before anything is timed.
pub struct Jobs {
    pool: Vec<(Job, Reference)>,
}

impl Jobs {
    pub fn new(workload: Workload, seed: u64) -> Jobs {
        let pool = (0..workload.pool() as u64)
            .map(|k| {
                let (job, program) = inputs::job(workload, seed, k);
                (job, Reference::new(program))
            })
            .collect();
        Jobs { pool }
    }

    /// Job `k`: a repeat of job `k % pool`.
    fn get(&self, k: u64) -> &(Job, Reference) {
        &self.pool[k as usize % self.pool.len()]
    }

    /// Query requests in one cycle through the pool.
    pub fn cycle_queries(&self) -> u64 {
        self.pool.iter().map(|(j, _)| j.queries.len() as u64).sum()
    }
}

/// Runs session-per-program jobs (cold-deref, callgraph-minic,
/// wide-parallel) on one connection from the pool's first job until
/// `queries` query requests are sent: for each job, open (timed as
/// set-up), send its queries sequentially, close, then check the answers.
/// Job generation and checking stay outside the timed phases.
pub fn run_jobs(
    client: &mut Client,
    jobs: &Jobs,
    queries: u64,
    traced: bool,
    mut spans: Option<&mut Spans>,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut sent = 0u64;
    let mut refused = 0;
    for k in 0.. {
        if sent >= queries {
            break;
        }
        let (job, reference) = jobs.get(k);
        let (opened, secs) = roundtrip(client, &job.open_request())?;
        tally.attempted += 1;
        if !is_ok(&opened) {
            tally.failed += 1;
            refused += 1;
            if refused == MAX_REFUSED_OPENS {
                return Err(format!(
                    "{refused} opens in a row refused, the last: {opened}"
                ));
            }
            continue;
        }
        refused = 0;
        tally.setup_s.push(secs);

        let specs = &job.queries[..job.queries.len().min((queries - sent) as usize)];
        let lines: Vec<_> = specs
            .iter()
            .map(|spec| {
                let mut request = build::query(&job.session, spec, None, None);
                if traced && !job.parallel {
                    request = build::with_trace(request);
                }
                ("tcp.query", request.to_string())
            })
            .collect();
        let replies = send_lines(client, &lines, sent, spans.as_deref_mut(), &mut tally)?;
        client
            .expect_ok(&build::close(&job.session))
            .map_err(|e| format!("close {}: {e}", job.session))?;
        let mut outcomes = Vec::with_capacity(specs.len());
        for (reply, rt_us) in replies {
            let response = parse_reply(&reply)?;
            tally.query_us.push(rt_us);
            if traced {
                tally.outside_us.extend(outside_engine_us(&response, rt_us));
            }
            outcomes.push(outcome_of(&response));
        }
        sent += specs.len() as u64;
        tally.attempted += specs.len() as u64;
        tally.check_all(reference, specs.iter().zip(outcomes));
    }
    Ok(tally)
}

/// Opens the warm-edit session from its snapshot `WARM_SETUPS` times,
/// timing each open + restore, and leaves the last one open.
fn warm_setup(
    client: &mut Client,
    plan: &WarmPlan,
    snapshot: &Path,
    tally: &mut Tally,
) -> Result<(), String> {
    let path = snapshot.to_str().ok_or("snapshot path is not UTF-8")?;
    for i in 0..WARM_SETUPS {
        let (opened, a) = roundtrip(client, &build::open(&plan.session, &plan.text, false, None))?;
        let (restored, b) = roundtrip(client, &build::restore(&plan.session, path))?;
        tally.attempted += 2;
        if !is_ok(&opened) || !is_ok(&restored) {
            return Err(format!("warm-edit set-up failed: {opened} / {restored}"));
        }
        if field_u64(&restored, &["installed"]).unwrap_or(0) == 0 {
            return Err("snapshot restore installed nothing".into());
        }
        tally.setup_s.push(a + b);
        if i + 1 < WARM_SETUPS {
            client
                .expect_ok(&build::close(&plan.session))
                .map_err(|e| format!("close: {e}"))?;
        }
    }
    Ok(())
}

/// Untimed preparation for warm-edit: answers every read the streams can
/// issue on a scratch session, then snapshots its memo to `snapshot`.
pub fn warm_prepare(server: &ServerChild, plan: &WarmPlan, snapshot: &Path) -> Result<(), String> {
    let mut client = server.connect()?;
    let scratch = "warm-prep";
    client
        .expect_ok(&build::open(scratch, &plan.text, false, None))
        .map_err(|e| format!("prep open: {e}"))?;
    for chunk in plan.all_reads().chunks(1024) {
        client
            .expect_ok(&build::batch(scratch, chunk, false, None, Some(0)))
            .map_err(|e| format!("prep batch: {e}"))?;
    }
    let path = snapshot.to_str().ok_or("snapshot path is not UTF-8")?;
    client
        .expect_ok(&build::snapshot(scratch, Some(path)))
        .map_err(|e| format!("prep snapshot: {e}"))?;
    client
        .expect_ok(&build::close(scratch))
        .map_err(|e| format!("prep close: {e}"))?;
    Ok(())
}

/// One read as sent, with the generation that answered it.
struct Read {
    generation: u64,
    op: Op,
    outcome: Outcome,
}

/// Runs warm-edit on one connection: timed set-up from the snapshot, then
/// the first `ops` operations of the seeded read/edit stream. Answers are
/// checked afterwards against the program of the generation that produced
/// them.
pub fn run_warm(
    server: &ServerChild,
    plan: &WarmPlan,
    snapshot: &Path,
    ops: u64,
    traced: bool,
    spans: Option<&mut Spans>,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut client = server.connect()?;
    warm_setup(&mut client, plan, snapshot, &mut tally)?;

    let ops: Vec<Op> = plan.ops().take(ops as usize).collect();
    let lines: Vec<_> = ops
        .iter()
        .map(|op| {
            let name = if matches!(op, Op::Edit(_)) {
                "tcp.edit"
            } else {
                "tcp.query"
            };
            (name, plan.request(op, traced).to_string())
        })
        .collect();
    let replies = send_lines(&mut client, &lines, 0, spans, &mut tally)?;
    client
        .expect_ok(&build::close(&plan.session))
        .map_err(|e| format!("close: {e}"))?;

    let mut reads = Vec::new();
    let mut edits = Vec::new();
    for (op, (reply, rt_us)) in ops.into_iter().zip(replies) {
        let response = parse_reply(&reply)?;
        tally.attempted += 1;
        match op {
            Op::Edit(line) => {
                tally.edit_ms.push(rt_us / 1e3);
                match field_u64(&response, &["generation"]) {
                    Some(g) if is_ok(&response) => edits.push((g, line)),
                    // A refused edit leaves the stream's later answers
                    // uncheckable against a known program.
                    _ => return Err(format!("edit {line:?} refused: {response}")),
                }
            }
            op => {
                tally.query_us.push(rt_us);
                if traced {
                    tally.outside_us.extend(outside_engine_us(&response, rt_us));
                }
                let outcome = outcome_of(&response);
                if outcome.failed() {
                    tally.failed += 1;
                }
                let generation = field_u64(&response, &["generation"]).unwrap_or(0);
                reads.push(Read {
                    generation,
                    op,
                    outcome,
                });
            }
        }
    }
    check_warm(plan, reads, edits, &mut tally)?;
    Ok(tally)
}

/// Replays the edits in generation order and checks every read against
/// the exhaustive solution of the program that answered it.
fn check_warm(
    plan: &WarmPlan,
    mut reads: Vec<Read>,
    mut edits: Vec<(u64, String)>,
    tally: &mut Tally,
) -> Result<(), String> {
    edits.sort_by_key(|e| e.0);
    for (i, (g, _)) in edits.iter().enumerate() {
        if *g != i as u64 + 1 {
            return Err(format!(
                "edit generations are not 1..=n: {i}th edit made {g}"
            ));
        }
    }
    reads.sort_by_key(|r| r.generation);
    let mut source = plan.canonical.clone();
    let mut applied = 0usize;
    let mut start = 0;
    while start < reads.len() {
        let generation = reads[start].generation;
        let end = start + reads[start..].partition_point(|r| r.generation == generation);
        while (applied as u64) < generation {
            let line = &edits
                .get(applied)
                .ok_or_else(|| format!("read at generation {generation} after the last edit"))?
                .1;
            inputs::append_edit(&mut source, line);
            applied += 1;
        }
        let cp = ddpa_constraints::parse_constraints(&source)
            .map_err(|e| format!("edited source does not parse: {e}"))?;
        let reference = Reference::new(cp);
        let mut cache: std::collections::HashMap<&Op, Answer> = Default::default();
        for read in &reads[start..end] {
            let Outcome::Answer(got) = &read.outcome else {
                continue; // already counted as failed
            };
            let spec = plan.spec(&read.op).expect("reads have specs");
            let want = match cache.get(&read.op) {
                Some(w) => *w,
                None => {
                    let w = reference.expected(&spec)?;
                    cache.insert(&read.op, w);
                    w
                }
            };
            if *got != want {
                tally.note_wrong(format!(
                    "generation {generation}: {spec:?}: server answered {got:?}, reference {want:?}"
                ));
            }
        }
        start = end;
    }
    Ok(())
}

/// The value of counter `name` in a `scrape` response's JSONL text.
pub fn scraped_counter(server: &ServerChild, name: &str) -> Result<u64, String> {
    let mut client = server.connect()?;
    let response = client
        .expect_ok(&build::scrape())
        .map_err(|e| format!("scrape: {e}"))?;
    let text = response
        .get("text")
        .and_then(JsonValue::as_str)
        .unwrap_or("");
    Ok(text
        .lines()
        .filter_map(|l| ddpa_obs::parse_json(l).ok())
        .find(|v| {
            v.get("kind").and_then(JsonValue::as_str) == Some("counter")
                && v.get("name").and_then(JsonValue::as_str) == Some(name)
        })
        .and_then(|v| v.get("value").and_then(JsonValue::as_u64))
        .unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    #[test]
    fn replays_keep_the_faster_reading_and_add_counts() {
        let mut best = Tally {
            setup_s: vec![0.5, 0.2],
            query_us: vec![10.0, 900.0, 30.0],
            wall_us: vec![20.0, 950.0, 40.0],
            attempted: 5,
            ..Tally::default()
        };
        let replay = Tally {
            setup_s: vec![0.4, 0.3],
            query_us: vec![12.0, 20.0, 25.0],
            wall_us: vec![22.0, 30.0, 35.0],
            attempted: 5,
            failed: 1,
            ..Tally::default()
        };
        best.absorb_replay(replay).unwrap();
        assert_eq!(best.setup_s, [0.4, 0.2]);
        assert_eq!(best.query_us, [10.0, 20.0, 25.0]);
        assert_eq!(best.wall_us, [20.0, 30.0, 35.0]);
        assert!((best.queries_per_s() * 85e-6 - 3.0).abs() < 1e-9);
        assert_eq!((best.attempted, best.failed), (10, 1));

        let short = Tally {
            query_us: vec![1.0],
            ..Tally::default()
        };
        assert!(best.absorb_replay(short).is_err(), "replays must align");
    }

    #[test]
    fn a_server_that_refuses_every_open_ends_the_phase() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let refuser = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                if line.is_err() {
                    break;
                }
                writer
                    .write_all(b"{\"ok\":false,\"error\":\"refused\"}\n")
                    .unwrap();
            }
        });
        let mut client = Client::connect(addr).unwrap();
        let jobs = Jobs::new(Workload::ColdDeref, 1);
        // No query is ever sent: without the refusal limit the phase would
        // open programs forever.
        let err = run_jobs(&mut client, &jobs, 1, false, None).unwrap_err();
        assert!(err.contains("opens in a row refused"), "{err}");
        drop(client);
        refuser.join().unwrap();
    }
}
