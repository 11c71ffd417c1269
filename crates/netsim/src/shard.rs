//! The dispatch core of both engines, and the windowed runner.
//!
//! A [`Shard`] owns a subset of the nodes and every piece of state their
//! handlers can touch: its event queue (timer wheel or heap), clock, RNG
//! streams, timer table, trace sink and metrics. It is the simulator's
//! one implementation of the link model, timers, scheduling and
//! dispatch. [`Simulator`] runs shards under one of two runners, chosen
//! by [`SimConfig::shards`]:
//!
//! * **Serial** (`shards ≤ 1`): one shard owns every node and runs on the
//!   caller's thread ([`Shard::run_serial`]) — pop the next same-instant,
//!   same-target run of events, dispatch it, repeat until the queue
//!   drains or the next event is past the deadline. No thread, barrier or
//!   mailbox; zero-latency links are fine.
//! * **Windowed** (`shards ≥ 2`): nodes are partitioned over `S` shards,
//!   each on its own scoped thread ([`run_windowed`]), advancing in
//!   lock-step *windows*:
//!   1. **Exchange** — every shard drains its inbound mailboxes (one
//!      `Mutex<Vec<_>>` per ordered shard pair, written only by the source
//!      shard, drained only by the destination) into its local queue,
//!      then publishes the firing instant of its earliest pending event.
//!   2. **Agree** — after a barrier, every shard independently computes
//!      the same global minimum `T` over the published instants. If no
//!      shard has work, or `T` is past the run deadline, the run stops.
//!   3. **Advance** — each shard processes its local events with firing
//!      instant in `[T, T + W)`, where the *lookahead* `W` is the minimum
//!      link latency in the current topology. Sends to nodes on other
//!      shards are filed into the pairwise mailboxes; the next window
//!      picks them up.
//!
//! The engines differ in two pieces of data, not in code: the link-RNG
//! layout ([`LinkRng`], the only semantic difference) and the trace sink
//! ([`TraceSink`]: straight into the merged trace, or a per-shard spool
//! merged after the join).
//!
//! # Why the lookahead bound is safe
//!
//! Every event processed in a window fires at some `t ∈ [T, T + W)`. A
//! message sent while processing it departs no earlier than `t` and
//! arrives at `t + queueing + transmission + latency + jitter`, all
//! non-negative and `latency ≥ W` by definition of `W` (an ordered
//! link's FIFO clamp only moves arrivals later). So every arrival —
//! local or cross-shard — lands at or after `T + W`, i.e. strictly
//! beyond the window every shard is currently processing. No shard can
//! ever receive an event in its past, which is exactly the conservative
//! PDES (Chandy–Misra style) safety condition; `W = 0` is rejected as
//! [`SimError::ZeroLookahead`](crate::sim::SimError::ZeroLookahead) because windows would have zero width.
//!
//! # Why the output is identical for every shard count ≥ 2
//!
//! Everything observable is a function of *per-node* and *per-directed-
//! pair* histories, and each of those histories is computed from data
//! that never depends on the partition:
//!
//! * Events carry the total-order key `(at, provenance_key)` (see
//!   [`crate::sim::provenance_key`]); a shard processes its local events
//!   in exactly that order, because windows only ever defer work, never
//!   reorder it, and the safety argument above means nothing arrives
//!   late. Each node's dispatch sequence is therefore the same for any
//!   placement of the other nodes.
//! * Link randomness (loss, duplication, jitter) is drawn from a
//!   dedicated per-directed-pair stream seeded from `(seed, from, to)`,
//!   advanced in the sender's dispatch order ([`LinkRng::PerPair`]).
//!   Node randomness ([`Context::rand_u64`]) comes from per-node streams
//!   on both engines.
//! * Metrics are sums of per-shard counters; the merged trace is sorted
//!   by `(time, start-phase, dispatching event key, record index)` —
//!   both aggregations are independent of which shard computed what.
//!
//! # Relation to `shards = 1`
//!
//! The serial engine draws link randomness from one global stream in
//! global event order ([`LinkRng::Global`]), which no partition can
//! reproduce; on *lossy or jittered* links the windowed engine is
//! therefore a (deterministic) different sample of the same
//! distribution. On deterministic links — zero jitter, loss 0 or 1, no
//! duplication — the global stream's draws never influence an outcome,
//! node RNG streams coincide, and both engines share one event order, so
//! `shards = 1` and `shards = N` produce byte-identical reports. That
//! envelope is what the sharded goldens, the oracle suite in
//! `tests/shard_oracle.rs`, and the CI `--shards 4` vs `--shards 1` `cmp`
//! step pin down.
//!
//! [`Simulator`]: crate::sim::Simulator
//! [`SimConfig::shards`]: crate::sim::SimConfig::shards
//! [`Context::rand_u64`]: crate::sim::Context::rand_u64

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use svckit_model::hash::FastMap;
use svckit_model::{Duration, Instant, PartId, PrimitiveEvent};
use svckit_obs::TraceCtx;

use crate::metrics::NetMetrics;
use crate::rng::DeterministicRng;
use crate::sim::{
    provenance_key, Action, Context, EventKind, EventQueue, LinkTable, NodeTracer, Payload,
    Process, Scheduled, SimConfig, TimerId, TraceBuf, TraceSink,
};

/// Sentinel published by a shard with an empty queue.
const IDLE: u64 = u64::MAX;

/// Seed of node `id`'s own random stream ([`Context::rand_u64`]).
fn node_seed(seed: u64, id: PartId) -> u64 {
    seed.wrapping_add(id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ 0x5851_F42D_4C95_7F2D
}

/// Seed of the dedicated RNG stream for link draws on the directed pair
/// `from → to`. Distinct multipliers keep `(a, b)` and `(b, a)` apart.
fn pair_seed(seed: u64, from: PartId, to: PartId) -> u64 {
    seed.wrapping_add(from.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(to.raw().wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        ^ 0x94D0_49BB_1331_11EB
}

/// Where a shard draws link randomness (loss, duplication, jitter) from.
/// This layout is the one semantic difference between the engines.
#[derive(Debug)]
enum LinkRng {
    /// Serial engine: one stream for the whole simulation, advanced in
    /// global event order. Every send draws a loss and a duplication
    /// coin ([`DeterministicRng::coin`] itself skips the draw at
    /// probability 0 or 1), and every copy draws one jitter value, even
    /// at zero jitter.
    Global(DeterministicRng),
    /// Windowed engine: one stream per directed pair, created on first
    /// draw, advanced in the sender's dispatch order. Draws only when a
    /// probability lies strictly between 0 and 1 or the jitter is
    /// positive, so fully deterministic links never create a stream.
    PerPair {
        seed: u64,
        streams: FastMap<(PartId, PartId), DeterministicRng>,
    },
}

impl LinkRng {
    fn pair(
        seed: u64,
        streams: &mut FastMap<(PartId, PartId), DeterministicRng>,
        from: PartId,
        to: PartId,
    ) -> &mut DeterministicRng {
        streams
            .entry((from, to))
            .or_insert_with(|| DeterministicRng::new(pair_seed(seed, from, to)))
    }

    /// A Bernoulli trial with probability `p` for the pair `from → to`.
    fn coin(&mut self, from: PartId, to: PartId, p: f64) -> bool {
        match self {
            LinkRng::Global(rng) => rng.coin(p),
            LinkRng::PerPair { seed, streams } => {
                p > 0.0 && Self::pair(*seed, streams, from, to).coin(p)
            }
        }
    }

    /// A jitter draw in `[0, bound)` µs for the pair `from → to`.
    fn jitter(&mut self, from: PartId, to: PartId, bound: u64) -> u64 {
        match self {
            LinkRng::Global(rng) => rng.next_below(bound),
            LinkRng::PerPair { seed, streams } if bound > 1 => {
                Self::pair(*seed, streams, from, to).next_below(bound)
            }
            LinkRng::PerPair { .. } => 0,
        }
    }
}

/// One spooled trace record with the sort key that reproduces the serial
/// engine's insertion order: records from the start phase come first (in
/// node order), then records grouped by the event that was being
/// dispatched, in that event's total-order position.
#[derive(Debug)]
struct SpooledRecord {
    time_us: u64,
    phase: u8,
    dispatch_key: u128,
    idx: u32,
    event: PrimitiveEvent,
}

/// Per-shard spool of service primitives recorded during a windowed run,
/// merged into the shared [`TraceBuf`] after the worker threads join.
#[derive(Debug, Default)]
pub(crate) struct ShardTrace {
    records: Vec<SpooledRecord>,
    time_us: u64,
    phase: u8,
    dispatch_key: u128,
    idx: u32,
}

impl ShardTrace {
    /// Called by the shard before every handler invocation.
    fn begin_dispatch(&mut self, time_us: u64, phase: u8, dispatch_key: u128) {
        self.time_us = time_us;
        self.phase = phase;
        self.dispatch_key = dispatch_key;
        self.idx = 0;
    }

    pub(crate) fn push(&mut self, event: PrimitiveEvent) {
        self.records.push(SpooledRecord {
            time_us: self.time_us,
            phase: self.phase,
            dispatch_key: self.dispatch_key,
            idx: self.idx,
            event,
        });
        self.idx += 1;
    }
}

pub(crate) const PHASE_START: u8 = 0;
const PHASE_EVENT: u8 = 1;

/// A node bound to a shard: its process and its private per-node state.
struct Node {
    process: Box<dyn Process>,
    /// The node's own random stream ([`Context::rand_u64`]), derived from
    /// the seed and the node id only. Application-level draws (workload
    /// choices) are therefore independent of network-level draws (jitter,
    /// loss) and of other nodes — the same workload unfolds identically
    /// over any protocol, platform or partition.
    rng: DeterministicRng,
    /// Trace-id mint and open-request slot. Owned by the shard (not the
    /// per-run worker recorder), so ids persist across run slices; a
    /// node's dispatch order is shard-invariant, so every shard count
    /// mints identical ids (see [`NodeTracer`]).
    tracer: NodeTracer,
}

/// One shard: a vertical slice of the simulation owning a subset of the
/// nodes and every piece of state their handlers can touch. The serial
/// engine is a single shard owning every node.
pub(crate) struct Shard {
    index: u32,
    /// Last locally processed firing instant.
    pub(crate) clock: Instant,
    pub(crate) queue: EventQueue,
    nodes: FastMap<PartId, Node>,
    link_rng: LinkRng,
    // The per-event maps below use the deterministic `FastMap` hasher;
    // none of them is ever iterated, so the hash function affects lookup
    // cost only, never observable order.
    /// Per-node counts of scheduled events, feeding `provenance_key`.
    sched_counts: FastMap<PartId, u64>,
    /// Per-node timer generations, nested so one node's huge timer table
    /// (e.g. a standing backlog of lease expiries) cannot dilute the cache
    /// locality of another node's hot few timers.
    timer_generation: FastMap<PartId, FastMap<TimerId, u64>>,
    last_arrival: FastMap<(PartId, PartId), Instant>,
    /// For bandwidth-limited links: when the sender side of each directed
    /// pair becomes free again.
    link_busy_until: FastMap<(PartId, PartId), Instant>,
    pub(crate) metrics: NetMetrics,
    pub(crate) trace: TraceSink,
    /// Reused across dispatches so the hot path does not allocate a fresh
    /// action vector per event.
    action_buf: Vec<Action>,
    /// Reused batch buffer for [`EventQueue::pop_run`].
    run_buf: Vec<Scheduled>,
    /// Cross-shard sends produced by the current window, flushed into the
    /// pairwise mailboxes before the next exchange barrier.
    pub(crate) outgoing: Vec<(u32, Scheduled)>,
    pub(crate) events_processed: u64,
    pub(crate) peak_queue_len: usize,
}

impl Shard {
    /// Shard `index` of `config.shard_count()`. A lone shard is the serial
    /// engine: global link stream, trace straight into the merged buffer.
    pub(crate) fn new(index: u32, config: &SimConfig) -> Self {
        let (link_rng, trace) = if config.shard_count() == 1 {
            (
                LinkRng::Global(DeterministicRng::new(config.seed())),
                TraceSink::Merged(TraceBuf::new()),
            )
        } else {
            (
                LinkRng::PerPair {
                    seed: config.seed(),
                    streams: FastMap::default(),
                },
                TraceSink::Spool(ShardTrace::default()),
            )
        };
        Shard {
            index,
            clock: Instant::ZERO,
            queue: EventQueue::new(config.queue()),
            nodes: FastMap::default(),
            link_rng,
            sched_counts: FastMap::default(),
            timer_generation: FastMap::default(),
            last_arrival: FastMap::default(),
            link_busy_until: FastMap::default(),
            metrics: NetMetrics::new(),
            trace,
            action_buf: Vec::new(),
            run_buf: Vec::new(),
            outgoing: Vec::new(),
            events_processed: 0,
            peak_queue_len: 0,
        }
    }

    /// Takes ownership of node `id`'s process.
    pub(crate) fn bind(&mut self, seed: u64, id: PartId, process: Box<dyn Process>) {
        let node = Node {
            process,
            rng: DeterministicRng::new(node_seed(seed, id)),
            tracer: NodeTracer::default(),
        };
        self.nodes.insert(id, node);
    }

    /// Mints the next trace id of node `id`, which is bound here.
    fn mint(&mut self, id: PartId) -> u64 {
        self.nodes
            .get_mut(&id)
            .expect("a dispatching node is bound to its shard")
            .tracer
            .mint(id)
    }

    /// Runs one handler and applies its actions. `dispatch_key` is the
    /// total-order position of whatever triggered the handler; it anchors
    /// the deterministic trace merge of the windowed engine.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn dispatch<F>(
        &mut self,
        node: PartId,
        now: Instant,
        phase: u8,
        dispatch_key: u128,
        trace_ctx: Option<TraceCtx>,
        registry: &FastMap<PartId, u32>,
        links: &LinkTable,
        call: F,
    ) where
        F: FnOnce(&mut dyn Process, &mut Context<'_>),
    {
        let mut actions = std::mem::take(&mut self.action_buf);
        if let Some(bound) = self.nodes.get_mut(&node) {
            if let TraceSink::Spool(spool) = &mut self.trace {
                spool.begin_dispatch(now.as_micros(), phase, dispatch_key);
            }
            let mut ctx = Context {
                now,
                id: node,
                actions: &mut actions,
                rng: &mut bound.rng,
                trace: &mut self.trace,
                cur_trace: trace_ctx,
                tracer: &mut bound.tracer,
            };
            call(bound.process.as_mut(), &mut ctx);
        }
        self.apply_actions(node, now, &mut actions, registry, links);
        // Hand the (now empty) buffer back for the next dispatch, keeping
        // its capacity.
        self.action_buf = actions;
    }

    /// Applies a handler's actions: the link model (loss, duplication,
    /// serialization, jitter, FIFO clamp), timer arming and cancelling,
    /// and the net-layer trace spans.
    fn apply_actions(
        &mut self,
        node: PartId,
        now: Instant,
        actions: &mut Vec<Action>,
        registry: &FastMap<PartId, u32>,
        links: &LinkTable,
    ) {
        for action in actions.drain(..) {
            match action {
                Action::Send {
                    to,
                    payload,
                    ctx,
                    retransmit,
                } => {
                    self.metrics.record_send(node, payload.len());
                    svckit_obs::obs_count!("net.sends");
                    let Some(&target_shard) = registry.get(&to) else {
                        self.metrics.record_undeliverable();
                        svckit_obs::obs_count!("net.undeliverable");
                        continue;
                    };
                    // Copy the link's scalar parameters out instead of
                    // cloning the whole `LinkConfig` per send.
                    let link = links.link_for(node, to);
                    let loss = link.loss();
                    let duplicate_p = link.duplicate();
                    let latency = link.latency();
                    let jitter_bound = link.jitter().as_micros() + 1;
                    let ordered = link.is_ordered();
                    let transmission = link.transmission_time(payload.len());
                    if self.link_rng.coin(node, to, loss) {
                        self.metrics.record_drop();
                        svckit_obs::obs_count!("net.drops");
                        match ctx {
                            // Parent at the trace root, not the carried
                            // span: a retransmitted frame keeps its
                            // originating send's context, whose delivery
                            // span closed long before the resend.
                            Some(t) => svckit_obs::obs_event!(
                                "net.drop",
                                "net",
                                to.raw(),
                                now.as_micros(),
                                t.trace_id,
                                0u64,
                                t.parent_id
                            ),
                            None => {
                                svckit_obs::obs_event!("net.drop", "net", to.raw(), now.as_micros())
                            }
                        }
                        continue;
                    }
                    let duplicate = self.link_rng.coin(node, to, duplicate_p);
                    let copies = if duplicate { 2 } else { 1 };
                    if duplicate {
                        self.metrics.record_duplicate();
                        svckit_obs::obs_count!("net.duplicates");
                    }
                    // Serialization: a bandwidth-limited link is occupied
                    // for the message's transmission time; back-to-back
                    // sends queue behind it.
                    let mut depart = now;
                    if transmission > Duration::ZERO {
                        let busy = self
                            .link_busy_until
                            .entry((node, to))
                            .or_insert(Instant::ZERO);
                        if depart < *busy {
                            depart = *busy;
                        }
                        depart += transmission;
                        *busy = depart;
                    }
                    // Time spent queued behind the link (serialization /
                    // bandwidth backlog) is its own attributable segment.
                    if let Some(t) = ctx {
                        if depart > now {
                            let qid = self.mint(node);
                            svckit_obs::obs_span!(
                                svckit_obs::trace::SPAN_QUEUE_WAIT,
                                "net",
                                node.raw(),
                                0u64,
                                now.as_micros(),
                                depart.as_micros(),
                                t.trace_id,
                                qid,
                                t.parent_id
                            );
                        }
                    }
                    let payload_len = payload.len();
                    let mut payload = Some(payload);
                    for copy in 0..copies {
                        let jitter =
                            Duration::from_micros(self.link_rng.jitter(node, to, jitter_bound));
                        let mut at = depart + latency + jitter;
                        if ordered {
                            let last = self.last_arrival.entry((node, to)).or_insert(Instant::ZERO);
                            if at < *last {
                                at = *last;
                            }
                            *last = at;
                        }
                        // Transit = serialization queueing + transmission +
                        // propagation + jitter, all in virtual time.
                        svckit_obs::obs_link!(
                            node.raw(),
                            to.raw(),
                            payload_len,
                            at.saturating_since(now).as_micros()
                        );
                        let deliver_ctx = match ctx {
                            Some(t) => {
                                // Each copy gets its own transit span, so
                                // duplicated deliveries stay distinguishable
                                // in the flame graph.
                                let sid = self.mint(node);
                                let span_name = if retransmit {
                                    svckit_obs::trace::SPAN_RETRANSMIT
                                } else {
                                    svckit_obs::trace::SPAN_TRANSIT
                                };
                                svckit_obs::obs_span!(
                                    span_name,
                                    "net",
                                    to.raw(),
                                    node.raw(),
                                    depart.as_micros(),
                                    at.as_micros(),
                                    t.trace_id,
                                    sid,
                                    t.parent_id
                                );
                                Some(t.hop(sid))
                            }
                            None => {
                                svckit_obs::obs_span!(
                                    "net.transit",
                                    "net",
                                    to.raw(),
                                    now.as_micros(),
                                    at.as_micros()
                                );
                                None
                            }
                        };
                        // The last copy takes ownership: un-duplicated sends
                        // (the overwhelmingly common case) never touch the
                        // payload's reference count at all.
                        let payload = if copy + 1 == copies {
                            payload.take().expect("one payload per copy loop")
                        } else {
                            Payload::clone(payload.as_ref().expect("clone before the last copy"))
                        };
                        self.route(
                            node,
                            now,
                            target_shard,
                            at,
                            EventKind::Deliver {
                                to,
                                from: node,
                                payload,
                                ctx: deliver_ctx,
                            },
                        );
                    }
                }
                Action::SetTimer { delay, id, ctx } => {
                    let generation = self
                        .timer_generation
                        .entry(node)
                        .or_default()
                        .entry(id)
                        .and_modify(|g| *g += 1)
                        .or_insert(1);
                    let generation = *generation;
                    // Timers are always local to the node's own shard.
                    self.route(
                        node,
                        now,
                        self.index,
                        now + delay,
                        EventKind::Timer {
                            node,
                            id,
                            generation,
                            ctx,
                        },
                    );
                }
                Action::CancelTimer { id } => {
                    // Bumping the generation invalidates any pending firing.
                    self.timer_generation
                        .entry(node)
                        .or_default()
                        .entry(id)
                        .and_modify(|g| *g += 1)
                        .or_insert(1);
                }
            }
        }
    }

    /// Stamps the event with its provenance key and files it locally or
    /// into the outgoing buffer.
    fn route(
        &mut self,
        origin: PartId,
        sched_at: Instant,
        target_shard: u32,
        at: Instant,
        kind: EventKind,
    ) {
        let count = self.sched_counts.entry(origin).or_insert(0);
        *count += 1;
        let key = provenance_key(sched_at, origin, *count);
        let event = Scheduled { at, key, kind };
        if target_shard == self.index {
            self.queue.push(event);
        } else {
            self.outgoing.push((target_shard, event));
        }
    }

    /// Dispatches one popped event (clock, metrics, obs, handler). The
    /// queue-depth sample is taken by the runner once per run of events.
    fn dispatch_event(
        &mut self,
        event: Scheduled,
        registry: &FastMap<PartId, u32>,
        links: &LinkTable,
    ) {
        debug_assert!(event.at >= self.clock, "shard time went backwards");
        self.clock = event.at;
        self.events_processed += 1;
        svckit_obs::obs_count!("net.events");
        let key = event.key;
        match event.kind {
            EventKind::Deliver {
                to,
                from,
                payload,
                ctx,
            } => {
                self.metrics.record_delivery(payload.len());
                svckit_obs::obs_count!("net.deliveries");
                svckit_obs::obs_count!("net.delivered_bytes", payload.len());
                self.dispatch(
                    to,
                    event.at,
                    PHASE_EVENT,
                    key,
                    ctx,
                    registry,
                    links,
                    |p, c| p.on_message(c, from, payload),
                );
            }
            EventKind::Timer {
                node,
                id,
                generation,
                ctx,
            } => {
                let live = self
                    .timer_generation
                    .get(&node)
                    .and_then(|timers| timers.get(&id));
                if live == Some(&generation) {
                    svckit_obs::obs_count!("net.timer_fires");
                    self.dispatch(
                        node,
                        event.at,
                        PHASE_EVENT,
                        key,
                        ctx,
                        registry,
                        links,
                        |p, c| p.on_timer(c, id),
                    );
                } else {
                    svckit_obs::obs_count!("net.timer_stale");
                }
            }
        }
    }

    /// The serial runner: runs this shard — the only one — on the
    /// caller's thread until its queue drains (`true`) or the next event
    /// is past `deadline` (`false`; that run of events goes back into the
    /// queue).
    pub(crate) fn run_serial(
        &mut self,
        deadline: Instant,
        registry: &FastMap<PartId, u32>,
        links: &LinkTable,
    ) -> bool {
        let mut run = std::mem::take(&mut self.run_buf);
        let mut quiescent = true;
        loop {
            // Batch dispatch: pull the whole same-instant, same-target run
            // in one queue operation and pay the bookkeeping (depth
            // sample, watermark) once. The events still dispatch one by
            // one, in exactly the order repeated pops would yield, because
            // an event's actions may cancel or re-arm timers later in the
            // same batch.
            self.queue.pop_run(&mut run);
            if run.is_empty() {
                break;
            }
            self.peak_queue_len = self.peak_queue_len.max(self.queue.len() + run.len());
            if run[0].at > deadline {
                // The whole run shares one firing instant, so it goes back
                // wholesale.
                for event in run.drain(..) {
                    self.queue.push(event);
                }
                quiescent = false;
                break;
            }
            svckit_obs::obs_record!("net.queue_depth", self.queue.len());
            for event in run.drain(..) {
                self.dispatch_event(event, registry, links);
            }
        }
        self.run_buf = run;
        quiescent
    }

    /// Processes every local event with firing instant below
    /// `window_end_us` (exclusive) and at or below the deadline. Newly
    /// scheduled local events that still fall inside the window are
    /// picked up in the same pass, so a window fully exhausts the shard's
    /// local causality.
    fn process_window(
        &mut self,
        window_end_us: u64,
        deadline: Instant,
        registry: &FastMap<PartId, u32>,
        links: &LinkTable,
    ) {
        let mut run = std::mem::take(&mut self.run_buf);
        while let Some(at) = self.queue.next_at() {
            if at.as_micros() >= window_end_us || at > deadline {
                break;
            }
            self.queue.pop_run(&mut run);
            self.peak_queue_len = self.peak_queue_len.max(self.queue.len() + run.len());
            svckit_obs::obs_record!("net.queue_depth", self.queue.len());
            for event in run.drain(..) {
                self.dispatch_event(event, registry, links);
            }
        }
        self.run_buf = run;
    }

    /// The lock-step worker: exchange, agree, advance — until every shard
    /// is idle or the next global event is past the deadline.
    #[allow(clippy::too_many_arguments)]
    fn worker(
        &mut self,
        barrier: &Barrier,
        next_at: &[AtomicU64],
        outboxes: &[Vec<Mutex<Vec<Scheduled>>>],
        registry: &FastMap<PartId, u32>,
        links: &LinkTable,
        lookahead_us: u64,
        deadline: Instant,
    ) {
        let me = self.index as usize;
        let deadline_us = deadline.as_micros();
        loop {
            // Exchange: by this barrier every shard has flushed the
            // previous window's sends, so the mailbox matrix is stable.
            barrier.wait();
            for column in outboxes {
                let mut inbox = column[me].lock().expect("mailbox poisoned");
                for event in inbox.drain(..) {
                    self.queue.push(event);
                }
            }
            next_at[me].store(
                self.queue.next_at().map_or(IDLE, |at| at.as_micros()),
                Ordering::SeqCst,
            );
            // Agree: all published; every shard computes the same minimum.
            barrier.wait();
            let t = next_at
                .iter()
                .map(|a| a.load(Ordering::SeqCst))
                .min()
                .expect("at least one shard");
            if t == IDLE || t > deadline_us {
                return;
            }
            // Advance: the window [T, T + W) is safe for every shard.
            self.process_window(t.saturating_add(lookahead_us), deadline, registry, links);
            for (target, event) in self.outgoing.drain(..) {
                outboxes[me][target as usize]
                    .lock()
                    .expect("mailbox poisoned")
                    .push(event);
            }
        }
    }
}

/// The windowed runner: runs `shards` (two or more) in lock-step windows
/// of width `lookahead` (positive; see the module docs) until every queue
/// drains or the next event is past `deadline`, then appends the spooled
/// trace records to `merged` in the serial engine's order.
pub(crate) fn run_windowed(
    shards: &mut [Shard],
    registry: &FastMap<PartId, u32>,
    links: &LinkTable,
    lookahead: Duration,
    deadline: Instant,
    merged: &mut TraceBuf,
) {
    let shard_count = shards.len();
    let barrier = Barrier::new(shard_count);
    let next_at: Vec<AtomicU64> = (0..shard_count).map(|_| AtomicU64::new(IDLE)).collect();
    let outboxes: Vec<Vec<Mutex<Vec<Scheduled>>>> = (0..shard_count)
        .map(|_| (0..shard_count).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    let lookahead_us = lookahead.as_micros();

    // One scoped thread per shard, re-spawned per run slice: fault
    // injection between slices then needs no synchronization at all.
    // Each worker records obs under its own recorder; the recorders are
    // folded into the caller's in shard order afterwards, keeping obs
    // output independent of thread scheduling.
    let recorders: Vec<svckit_obs::Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter_mut()
            .map(|shard| {
                let barrier = &barrier;
                let next_at = next_at.as_slice();
                let outboxes = outboxes.as_slice();
                scope.spawn(move || {
                    let ((), recorder) =
                        svckit_obs::with_recorder(svckit_obs::Recorder::new(), || {
                            shard.worker(
                                barrier,
                                next_at,
                                outboxes,
                                registry,
                                links,
                                lookahead_us,
                                deadline,
                            );
                        });
                    recorder
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });
    for recorder in &recorders {
        svckit_obs::absorb_into_current(recorder);
    }

    // Deterministic trace merge: spooled records sort by
    // (time, phase, dispatching key, record index) — the exact order the
    // serial engine would have appended them in.
    let mut spooled: Vec<SpooledRecord> = Vec::new();
    for shard in shards.iter_mut() {
        if let TraceSink::Spool(spool) = &mut shard.trace {
            spooled.append(&mut spool.records);
        }
    }
    spooled.sort_by(|a, b| {
        (a.time_us, a.phase, a.dispatch_key, a.idx).cmp(&(
            b.time_us,
            b.phase,
            b.dispatch_key,
            b.idx,
        ))
    });
    for record in spooled {
        merged.push(record.event);
    }
}
