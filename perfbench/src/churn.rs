//! Closed-loop serving: a client that waits for each reply before sending
//! its next small batch, over TCP (`NetClient` → `NetServer`) or straight
//! into a `StreamServer` (`try_submit`).
//!
//! The `net-churn` workload runs many short sessions through the wire
//! with a per-shard session cap, so session creation and LRU eviction run
//! beside normal serving, and checks every served outcome against a
//! standalone replay of the session's tape. The client runs on the calling
//! thread; it opens sessions in order until the run's time is up and at
//! least the scored sessions are served.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ficsum_net::{NetClient, NetMetrics, NetServer};
use ficsum_serve::{EvictReason, ServeConfig, SessionId, ShardMetrics, StreamServer, Submit};

use crate::layers::{self, LayerTotals, Pass};
use crate::quality::{digest, mismatches, Matching, Quality};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, micros, mix, segmented_quantile, Samples};
use crate::tapes::{self, template, Session, Tape};
use crate::trace::Tracer;
use crate::Args;

/// Shards, and client connections: one of each. The loop is then one
/// request/reply chain of three threads (client, connection, shard
/// worker), of which about one runs at a time; `run.py` keeps them on one
/// core. With a client per shard, the two chains took turns on the 2 cores
/// of the reference host and their figures followed the scheduler.
const SHARDS: usize = 1;
/// Sessions the client keeps open at once; one batch carries one step of
/// each. With 3, the hand-offs between threads weighed more in each step
/// and throughput spread by 0.12 of the median over five seeds; with 8,
/// by 0.08.
const ACTIVE: usize = 8;
/// Per-shard cap on live sessions. The client touches its sessions in
/// lockstep, so at most `ACTIVE` of them were touched by the latest batch
/// and the LRU victim is a session that finished before it. Served
/// outcomes then stay comparable with a standalone replay; the run checks
/// this on the capacity-eviction snapshots.
const SESSION_CAP: usize = 16;
/// Session length range, in steps. About a third of a session's steps run
/// before its windows fill (w + b = 94); the rest is steady-state
/// pipeline work, long enough that the concept change each session
/// crosses can be detected inside it.
const SESSION_STEPS: (u64, u64) = (200, 400);
/// Long STAGGER streams the session tapes are cut from. With fewer, each
/// concept change is shared by more sessions and recall varies more from
/// one seed to the next.
const SOURCE_STREAMS: usize = 12;
/// Closed-loop rate on the reference host, used only to size the number
/// of scored sessions from `--seconds`.
const NOMINAL_STEPS_PER_SEC: f64 = 20_000.0;
/// Shares of `--seconds` for the measured loop and for the scored
/// sessions inside it (at the nominal rate), without and with tracing.
/// The replay after the loop takes about three quarters of the loop's
/// time. A traced run serves the loop's sessions three more times and
/// replays them twice, so its loop is shorter.
const LOOP_SHARE: [f64; 2] = [0.6, 0.2];
const SCORED_SHARE: [f64; 2] = [0.4, 0.13];
/// Sessions sent through the byte-counting relay in a traced run.
const RELAY_SESSIONS: usize = 100;
/// Drift matching for short sessions. Each session crosses its concept
/// change after at least `grace` steps, and the window covers the rest of
/// the longest session.
const MATCHING: Matching = Matching {
    grace: 100,
    window: 300,
};

/// Which sessions a loop serves: in order, opening the next while fewer
/// than `min` were opened or `until` has not passed.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub min: usize,
    pub until: Instant,
}

impl Open {
    /// Exactly the first `n` sessions.
    pub fn first(n: usize) -> Self {
        Self {
            min: n,
            until: Instant::now(),
        }
    }
}

/// How a loop reaches the serving core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// `NetClient` → `NetServer` on loopback.
    Net,
    /// As `Net`, through a loopback relay that counts the bytes it
    /// forwards each way.
    Relay,
    /// `StreamServer::try_submit`.
    Direct,
}

/// One batch as the client saw it.
#[derive(Debug)]
struct Batch {
    done: Instant,
    rtt_us: f64,
    /// `(session index, step index)` of every request in the batch.
    steps: Vec<(u32, u32)>,
}

/// What one closed-loop run over a set of sessions produced.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Outcome digests per served session, in session order; every
    /// opened session is served to its end.
    pub digests: Vec<Vec<u64>>,
    /// Time inside `try_submit`, µs (direct loops only).
    pub admit_us: Samples,
    /// Client turnaround: reply received → next batch sent, µs.
    pub lag_us: Samples,
    batches: Vec<Batch>,
    start: Option<Instant>,
    pub steps: u64,
    /// Bytes the relay forwarded both ways (relayed loops only).
    relayed_bytes: u64,
    /// Eviction snapshots drained during the loop.
    evictions: Vec<Eviction>,
    /// Peak resident set size when the first `Open::min` sessions were
    /// done, MiB. Later sessions grow only the loop's own records, by as
    /// much as the host was fast.
    pub scored_rss_mb: f64,
    rejected: u64,
    shards: Vec<ShardMetrics>,
    net: Option<NetMetrics>,
    pub outcome: Outcome,
}

fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_shards(SHARDS)
        .with_max_sessions_per_shard(SESSION_CAP)
}

/// Serves the sessions `open` selects to completion through one
/// closed-loop client.
pub fn run_loop(
    sessions: &[Session],
    classes: usize,
    via: Via,
    open: Open,
    tracer: &mut Tracer,
) -> LoopResult {
    let dims = sessions[0].obs[0].features.len();
    let server = Arc::new(StreamServer::new(template(dims, classes), serve_config()));
    let net = (via != Via::Direct)
        .then(|| NetServer::bind("127.0.0.1:0", server.clone()).expect("bind a loopback port"));
    let relay = (via == Via::Relay)
        .then(|| TcpListener::bind("127.0.0.1:0").expect("bind a loopback port"));
    let addr = match (&relay, &net) {
        (Some(relay), _) => Some(relay.local_addr().expect("a bound listener has an address")),
        (None, net) => net.as_ref().map(NetServer::local_addr),
    };
    let relayed = AtomicU64::new(0);
    let start = Instant::now();
    let mut out = std::thread::scope(|scope| {
        if let (Some(listener), Some(net)) = (&relay, &net) {
            let (upstream, relayed) = (net.local_addr(), &relayed);
            scope.spawn(move || relay_connections(listener, upstream, SHARDS, relayed));
        }
        match addr {
            Some(addr) => match NetClient::connect_expecting(addr, dims, classes) {
                Ok(mut client) => {
                    let mut r = client_loop(sessions, open, tracer, &mut client);
                    if let Err(e) = client.shutdown() {
                        r.outcome.fail(0, format!("client goodbye: {e}"));
                    }
                    r
                }
                Err(e) => {
                    let mut r = LoopResult::default();
                    r.outcome.fail(0, format!("connect: {e}"));
                    r
                }
            },
            None => client_loop(sessions, open, tracer, &mut &*server),
        }
    });
    let (report, net_metrics) = match net {
        Some(net) => {
            let report = net.shutdown();
            (report.serve, Some(report.net))
        }
        None => (server.shutdown_in_place(), None),
    };
    out.start = Some(start);
    out.relayed_bytes = relayed.into_inner();
    out.shards = report.metrics;
    out.net = net_metrics;
    let drained = std::mem::take(&mut out.evictions);
    let at_shutdown = report
        .snapshots
        .iter()
        .map(|s| (s.session, s.steps, s.reason));
    for (id, steps, reason) in drained.into_iter().chain(at_shutdown) {
        // Session ids are indices into `sessions`.
        let session = sessions.get(id.0 as usize).filter(|s| s.id == id);
        if let Some(session) = session {
            let len = session.obs.len() as u64;
            if reason == EvictReason::Capacity && steps < len {
                out.outcome.fail(
                    len - steps,
                    format!("{id} was evicted for capacity after {steps} of its {len} steps"),
                );
            }
        }
    }
    out
}

/// Accepts `connections` clients on `listener` and forwards each to
/// `upstream`, adding every byte forwarded either way to `bytes`. Returns
/// when every connection has closed.
fn relay_connections(
    listener: &TcpListener,
    upstream: SocketAddr,
    connections: usize,
    bytes: &AtomicU64,
) {
    std::thread::scope(|scope| {
        for _ in 0..connections {
            let Ok((down, _)) = listener.accept() else {
                return;
            };
            let Ok(up) = TcpStream::connect(upstream) else {
                return;
            };
            for stream in [&down, &up] {
                // Nagle's delay would add to every round trip.
                let _ = stream.set_nodelay(true);
            }
            let (down2, up2) = match (down.try_clone(), up.try_clone()) {
                (Ok(d), Ok(u)) => (d, u),
                _ => return,
            };
            scope.spawn(move || pipe(down, up, bytes));
            scope.spawn(move || pipe(up2, down2, bytes));
        }
    });
}

/// Copies `from` into `to` until end of stream, counting the bytes, then
/// passes the end of stream on.
fn pipe(mut from: TcpStream, mut to: TcpStream, bytes: &AtomicU64) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
                bytes.fetch_add(n as u64, Ordering::Relaxed);
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

type Slots = Result<Vec<Result<u64, String>>, String>;

/// (session, steps served, reason) of one eviction snapshot.
type Eviction = (SessionId, u64, EvictReason);

/// The client's way into the serving core.
trait Link {
    /// Sends a batch and returns one digest (or step error) per request,
    /// or the refusal of the whole batch. Time spent admitting the batch
    /// goes to `admit`, where the link can see it.
    fn submit(&mut self, batch: &[Submit], admit: &mut Samples) -> Slots;
    /// Takes the eviction snapshots the server holds.
    fn drain(&mut self) -> Result<Vec<Eviction>, String>;
}

impl Link for NetClient {
    fn submit(&mut self, batch: &[Submit], _: &mut Samples) -> Slots {
        let slots = NetClient::submit(self, batch).map_err(|e| e.to_string())?;
        Ok(slots
            .into_iter()
            .map(|s| {
                s.map(|o| digest(o.prediction, o.drift, o.active_concept))
                    .map_err(|e| e.to_string())
            })
            .collect())
    }

    fn drain(&mut self) -> Result<Vec<Eviction>, String> {
        let summaries = self.snapshot_summaries().map_err(|e| e.to_string())?;
        Ok(summaries
            .into_iter()
            .map(|s| (s.session, s.steps, s.reason))
            .collect())
    }
}

impl Link for &StreamServer {
    fn submit(&mut self, batch: &[Submit], admit: &mut Samples) -> Slots {
        let t0 = Instant::now();
        let reply = self.try_submit(batch);
        admit.push(micros(t0.elapsed()));
        let reply = reply.map_err(|e| e.to_string())?;
        Ok(reply
            .wait()
            .into_iter()
            .map(|s| {
                s.map(|o| digest(o.prediction, o.drift, o.active_concept as u64))
                    .map_err(|e| e.to_string())
            })
            .collect())
    }

    fn drain(&mut self) -> Result<Vec<Eviction>, String> {
        Ok(self
            .drain_snapshots()
            .into_iter()
            .map(|s| (s.session, s.steps, s.reason))
            .collect())
    }
}

/// The client's closed loop. Once per `SESSION_CAP` sessions opened it
/// drains the server's eviction snapshots, as a client that persists them
/// would; left in the server, their checkpoints grew its memory by the
/// whole run's sessions.
fn client_loop(
    sessions: &[Session],
    open: Open,
    tracer: &mut Tracer,
    link: &mut impl Link,
) -> LoopResult {
    let mut r = LoopResult {
        scored_rss_mb: f64::NAN,
        ..LoopResult::default()
    };
    let mut opened = 0;
    let may_open = |opened: usize| {
        opened < sessions.len() && (opened < open.min || Instant::now() < open.until)
    };
    let mut live: Vec<(usize, usize)> = Vec::with_capacity(ACTIVE);
    while live.len() < ACTIVE && may_open(opened) {
        live.push((opened, 0));
        opened += 1;
    }
    r.digests.resize(opened, Vec::new());
    let client_span = tracer.open("client", 0, 0);
    let mut last_reply: Option<Instant> = None;
    let mut batch_id = 0u64;
    while !live.is_empty() {
        let batch: Vec<Submit> = live
            .iter()
            .map(|&(s, i)| {
                let o = &sessions[s].obs[i];
                Submit::new(sessions[s].id, o.features.clone(), o.label)
            })
            .collect();
        let t0 = Instant::now();
        if let Some(prev) = last_reply {
            r.lag_us.push(micros(t0 - prev));
        }
        let slots = link.submit(&batch, &mut r.admit_us);
        let t1 = Instant::now();
        tracer.record("submit", client_span, batch_id, t0, t1);
        last_reply = Some(t1);
        batch_id += 1;
        r.outcome.attempted += batch.len() as u64;
        r.steps += batch.len() as u64;
        let slots = match slots {
            Ok(slots) if slots.len() == batch.len() => slots,
            Ok(slots) => {
                r.outcome.fail(
                    batch.len() as u64,
                    format!("{} replies to {} requests", slots.len(), batch.len()),
                );
                break;
            }
            Err(e) => {
                r.rejected += 1;
                r.outcome
                    .fail(batch.len() as u64, format!("batch refused: {e}"));
                break;
            }
        };
        r.batches.push(Batch {
            done: t1,
            rtt_us: micros(t1 - t0),
            steps: live.iter().map(|&(s, i)| (s as u32, i as u32)).collect(),
        });
        for (slot, &(s, _)) in slots.into_iter().zip(&live) {
            match slot {
                Ok(d) => r.digests[s].push(d),
                Err(e) => {
                    r.digests[s].push(u64::MAX);
                    r.outcome
                        .fail(1, format!("step error in {}: {e}", sessions[s].id));
                }
            }
        }
        for entry in live.iter_mut() {
            entry.1 += 1;
        }
        live.retain(|&(s, i)| i < sessions[s].obs.len());
        if r.scored_rss_mb.is_nan() && opened - live.len() >= open.min {
            r.scored_rss_mb = peak_rss_mb();
        }
        while live.len() < ACTIVE && may_open(opened) {
            live.push((opened, 0));
            opened += 1;
            r.digests.push(Vec::new());
            if opened % SESSION_CAP == 0 {
                match link.drain() {
                    Ok(evictions) => r.evictions.extend(evictions),
                    Err(e) => r.outcome.fail(0, format!("snapshot drain: {e}")),
                }
            }
        }
    }
    tracer.close(client_span);
    r
}

/// Standalone pipelines over each session's tape, one after another: the
/// reference outcomes and per-step service times.
pub fn replay(
    sessions: &[Session],
    classes: usize,
    tracer: &mut Tracer,
    layers: &mut LayerTotals,
) -> Vec<Pass> {
    let dims = sessions[0].obs[0].features.len();
    let template = template(dims, classes);
    let span = tracer.open("replay", 0, 0);
    let passes = sessions
        .iter()
        .map(|s| layers::pass(template.instantiate(), s.obs, tracer, span, layers))
        .collect();
    tracer.close(span);
    passes
}

/// Segments of a closed loop, by completion order, for the medians the
/// workload reports.
const SEGMENTS: usize = 10;

impl LoopResult {
    /// Per-batch submit→reply times, µs, in completion order.
    fn rtt_us(&self) -> Vec<f64> {
        self.batches.iter().map(|b| b.rtt_us).collect()
    }

    /// Median over consecutive segments of the loop of the segment's
    /// completed steps per second, and of its p50 and p99 round trip. A slow
    /// spell of the shared host that covers fewer than half the segments
    /// does not set the figures.
    fn segmented(&self) -> (f64, f64, f64) {
        let per = self.batches.len().div_ceil(SEGMENTS).max(1);
        let mut from = self.start.expect("a finished loop has a start");
        let mut rates = Vec::new();
        for segment in self.batches.chunks(per) {
            let to = segment.last().expect("chunks are not empty").done;
            let steps: usize = segment.iter().map(|b| b.steps.len()).sum();
            rates.push(steps as f64 / (to - from).as_secs_f64());
            from = to;
        }
        let rtt = self.rtt_us();
        (
            median(&rates),
            segmented_quantile(&rtt, SEGMENTS, 0.5),
            segmented_quantile(&rtt, SEGMENTS, 0.99),
        )
    }
}

/// Compares served digests with the replay; mismatches and sessions left
/// unserved fail the run.
pub fn check(
    outcome: &mut Outcome,
    what: &str,
    sessions: &[Session],
    served: &[Vec<u64>],
    reference: &[Pass],
) {
    if served.len() < sessions.len() {
        let unserved = &sessions[served.len()..];
        outcome.fail(
            unserved.iter().map(|s| s.obs.len() as u64).sum(),
            format!(
                "{what}: {} of {} sessions were not served",
                unserved.len(),
                sessions.len()
            ),
        );
    }
    for ((s, d), p) in sessions.iter().zip(served).zip(reference) {
        let bad = mismatches(d, &p.digests);
        if bad > 0 {
            outcome.fail(
                bad,
                format!(
                    "{what}: {bad} outcomes of {} differ from the standalone replay",
                    s.id
                ),
            );
        }
    }
}

/// Per batch, the standalone replay's time for the batch's steps. The one
/// shard runs them one after another, so this is the pipeline work inside
/// the round trip.
fn service_us(result: &LoopResult, reference: &[Pass]) -> Vec<f64> {
    result
        .batches
        .iter()
        .map(|b| {
            b.steps
                .iter()
                .map(|&(s, i)| reference[s as usize].step_us[i as usize])
                .sum()
        })
        .collect()
}

/// The `serve` and `net` layer metrics from a wire loop, a direct loop
/// and a relayed loop, with the replay as the service reference.
fn report_serving(
    net: &LoopResult,
    direct: &LoopResult,
    relayed: &LoopResult,
    reference: &[Pass],
    out: &mut Outcome,
) {
    let mut step_service = Samples::default();
    reference
        .iter()
        .for_each(|p| step_service.extend(&p.step_us));
    let rtt = net.rtt_us();
    let service = service_us(net, reference);
    let mut wait = Samples::with_capacity(rtt.len());
    rtt.iter()
        .zip(&service)
        .for_each(|(r, s)| wait.push((r - s).max(0.0)));
    let shards = &net.shards;
    let processed: u64 = shards.iter().map(|m| m.processed).sum();
    let drains: u64 = shards.iter().map(|m| m.batches).sum();
    let mut admit = direct.admit_us.clone();
    out.add("serve.admit_us_p99", admit.quantile(0.99), admit.len());
    out.add(
        "serve.service_us_p50",
        step_service.quantile(0.5),
        step_service.len(),
    );
    out.add(
        "serve.service_frac",
        service.iter().sum::<f64>() / rtt.iter().sum::<f64>(),
        rtt.len() as u64,
    );
    out.add("serve.wait_us_p50", wait.quantile(0.5), wait.len());
    out.add("serve.wait_us_p99", wait.quantile(0.99), wait.len());
    out.add(
        "serve.queue_depth_max",
        shards.iter().map(|m| m.max_queue_depth).max().unwrap_or(0) as f64,
        shards.len() as u64,
    );
    out.add(
        "serve.requests_per_drain",
        processed as f64 / drains.max(1) as f64,
        drains,
    );
    out.add(
        "serve.rejected",
        (net.rejected + direct.rejected) as f64,
        net.batches.len() as u64,
    );
    out.add(
        "serve.sessions_created",
        shards.iter().map(|m| m.sessions_created).sum::<u64>() as f64,
        1,
    );
    out.add(
        "serve.sessions_evicted",
        shards.iter().map(|m| m.sessions_evicted).sum::<u64>() as f64,
        1,
    );
    let mut lag = net.lag_us.clone();
    out.add("serve.generator_lag_p99_us", lag.quantile(0.99), lag.len());
    let p50 = |r: &LoopResult| {
        let mut s = Samples::default();
        s.extend(&r.rtt_us());
        s.quantile(0.5)
    };
    // Both loops send the same batches, so the difference of their mean
    // round trips is the wire's share. Round trips are bimodal (batches
    // with and without a fingerprint extraction), and a difference of
    // p50s taken between the modes read from -22 to +47 µs.
    let mean = |r: &LoopResult| r.rtt_us().iter().sum::<f64>() / r.batches.len().max(1) as f64;
    let n = net.batches.len() as u64;
    out.add("net.rtt_us_p50", p50(net), n);
    out.add(
        "net.direct_us_p50",
        p50(direct),
        direct.batches.len() as u64,
    );
    out.add("net.overhead_us", mean(net) - mean(direct), n);
    out.add(
        "net.bytes_per_step",
        relayed.relayed_bytes as f64 / relayed.steps.max(1) as f64,
        relayed.steps,
    );
    let m = net.net.clone().unwrap_or_default();
    out.add("net.batches_accepted", m.batches_accepted as f64, 1);
    out.add("net.batches_rejected", m.batches_rejected as f64, 1);
    out.add("net.protocol_errors", m.protocol_errors as f64, 1);
}

/// `count` short sessions cut from a few long STAGGER streams. Each
/// session crosses one concept change: a seeded change of its source,
/// placed at a seeded step between the matching grace and the session's
/// midpoint, so drift detection is scored on every session. Lengths are
/// seeded too.
fn sessions(seed: u64, sources: &[Tape], count: usize) -> Vec<Session<'_>> {
    let max_len = SESSION_STEPS.1 as usize;
    let changes: Vec<Vec<usize>> = sources
        .iter()
        .map(|t| {
            (max_len..t.obs.len() - max_len)
                .filter(|&i| t.obs[i].concept != t.obs[i - 1].concept)
                .collect()
        })
        .collect();
    (0..count)
        .map(|k| {
            let k64 = k as u64;
            let len =
                SESSION_STEPS.0 + mix(seed, 1_000 + k64) % (SESSION_STEPS.1 - SESSION_STEPS.0 + 1);
            let source = k % SOURCE_STREAMS;
            let changes = &changes[source];
            let change = changes[(mix(seed, 2_000 + k64) % changes.len() as u64) as usize];
            let before = MATCHING.grace + mix(seed, 3_000 + k64) % (len / 2 - MATCHING.grace + 1);
            let offset = change - before as usize;
            Session {
                id: SessionId(k64),
                obs: &sources[source].obs[offset..offset + len as usize],
            }
        })
        .collect()
}

/// Sessions replayed between two groups of set-up trials.
const REPLAY_CHUNK: usize = 100;

/// Set-up trials: a server and its TCP front-end built, a client
/// connected and the first reply received, in seconds. Set-up starts and
/// joins threads, and its time followed the shared host's state, so a run
/// takes a group of trials before the loop and after every
/// `REPLAY_CHUNK` sessions of the replay, and reports the median.
fn setup_trials(first: &Session) -> Vec<f64> {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let dims = first.obs[0].features.len();
            let server = Arc::new(StreamServer::new(template(dims, 2), serve_config()));
            let net = NetServer::bind("127.0.0.1:0", server).expect("bind a loopback port");
            let mut client =
                NetClient::connect_expecting(net.local_addr(), dims, 2).expect("connect");
            let o = &first.obs[0];
            client
                .submit(&[Submit::new(first.id, o.features.clone(), o.label)])
                .expect("first reply");
            let seconds = t0.elapsed().as_secs_f64();
            client.shutdown().expect("goodbye");
            net.shutdown();
            seconds
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let start = Instant::now();
    let (loop_share, scored_share) = (
        LOOP_SHARE[args.trace as usize],
        SCORED_SHARE[args.trace as usize],
    );
    let mean_len = (SESSION_STEPS.0 + SESSION_STEPS.1) as f64 / 2.0;
    let nominal = |share: f64| {
        (args.seconds as f64 * share * NOMINAL_STEPS_PER_SEC / mean_len).ceil() as usize
    };
    let scored = nominal(scored_share).max(1);
    let sources = tapes::tapes("STAGGER", mix(args.seed, 100), SOURCE_STREAMS, usize::MAX);
    // Far more sessions than the loop can serve in its time; the loop
    // stops opening them when its time is up.
    let candidates = sessions(args.seed, &sources, 4 * nominal(loop_share).max(scored));
    let mut out = Outcome::default();
    let mut setup = setup_trials(&candidates[0]);

    let mut off = Tracer::off();
    // A traced run first sends a few sessions through the byte-counting
    // relay, which also warms the process up for the untraced loop that
    // the traced loop is compared with.
    let relayed = args.trace.then(|| {
        run_loop(
            &candidates,
            2,
            Via::Relay,
            Open::first(RELAY_SESSIONS),
            &mut off,
        )
    });
    let open = Open {
        min: scored,
        until: start + Duration::from_secs_f64(args.seconds as f64 * loop_share),
    };
    let mut result = run_loop(&candidates, 2, Via::Net, open, &mut off);
    let sessions = &candidates[..result.digests.len()];
    out.absorb(std::mem::take(&mut result.outcome));
    if sessions.len() < scored {
        check(
            &mut out,
            "net-churn",
            &candidates[..scored],
            &result.digests,
            &[],
        );
        return out;
    }
    let mut unused = LayerTotals::default();
    let mut reference = Vec::with_capacity(sessions.len());
    for chunk in sessions.chunks(REPLAY_CHUNK) {
        reference.extend(replay(chunk, 2, &mut off, &mut unused));
        setup.extend(setup_trials(&sessions[0]));
    }
    check(&mut out, "net-churn", sessions, &result.digests, &reference);
    let mut quality = Quality::default();
    for (s, d) in sessions.iter().zip(&result.digests).take(scored) {
        quality.score(s.obs, d, MATCHING);
    }
    let (steps_per_sec, p50, p99) = result.segmented();
    out.add("steps_per_sec", steps_per_sec, result.steps);
    out.add("latency_p50_us", p50, result.batches.len() as u64);
    out.add("latency_tail_us", p99, result.batches.len() as u64);
    quality.report(&mut out);
    out.add("setup_s", median(&setup), setup.len() as u64);
    out.add("peak_rss_mb", result.scored_rss_mb, 1);
    out.notes.push(format!(
        "net-churn: {} sessions of {}-{} steps, quality scored on the first {scored}; one client \
         with {ACTIVE} open, {SHARDS} shard capped at {SESSION_CAP} sessions; figures are medians \
         over {SEGMENTS} segments of the loop, latency_tail_us is p99 of the submit round trip",
        sessions.len(),
        SESSION_STEPS.0,
        SESSION_STEPS.1
    ));

    if args.trace {
        let all = Open::first(sessions.len());
        let mut tracer = Tracer::new(Instant::now(), true);
        let mut traced = run_loop(sessions, 2, Via::Net, all, &mut tracer);
        let mut direct = run_loop(sessions, 2, Via::Direct, all, &mut tracer);
        let mut relayed = relayed.expect("a traced run relays first");
        let relay_sessions = relayed.digests.len().min(sessions.len());
        let mut layers = LayerTotals::default();
        let traced_reference = replay(sessions, 2, &mut tracer, &mut layers);
        for (what, served, n) in [
            ("net-churn traced", &traced.digests, sessions.len()),
            ("net-churn direct", &direct.digests, sessions.len()),
            ("net-churn relayed", &relayed.digests, relay_sessions),
        ] {
            check(
                &mut out,
                what,
                &sessions[..n],
                served,
                &traced_reference[..n],
            );
        }
        report_serving(&traced, &direct, &relayed, &reference, &mut out);
        reference.iter().for_each(|p| layers.add_allocs(p));
        layers.report(&mut out);
        let tape: Vec<_> = sessions
            .iter()
            .flat_map(|s| s.obs.iter().cloned())
            .take(32 * 75)
            .collect();
        layers::kernels(&tape, 2, &mut tracer, &mut out);
        out.add(
            "obs.trace_overhead_frac",
            1.0 - traced.segmented().0 / steps_per_sec,
            traced.steps,
        );
        for r in [&mut traced, &mut direct, &mut relayed] {
            out.absorb(std::mem::take(&mut r.outcome));
        }
        tracer.write(args, &mut out);
    }
    out
}
