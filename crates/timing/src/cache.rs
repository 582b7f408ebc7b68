//! Set-associative caches and the two-level memory hierarchy.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use arl_sim::SourceError;

use crate::config::{BackendConfig, CacheConfig, MachineConfig, PortModel};
use crate::fault::{FaultKind, TimingFault};
use crate::state::{corrupt, StateIo};

/// Hit/miss counters for one cache.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`. A structure that saw zero traffic reports
    /// 0.0, not `NaN` (or a fictitious 1.0): the backend sweep serializes
    /// this value for structures a workload may never touch.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A lock-up-free set-associative cache (tags only; data never matters to
/// timing) with true-LRU replacement.
#[derive(Clone, Debug)]
pub(crate) struct Cache {
    config: CacheConfig,
    /// `sets[set][way] = (tag, last_use)`; `u64::MAX` tag = invalid.
    sets: Vec<Vec<(u64, u64)>>,
    use_clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, non-power-of-two
    /// line size).
    pub(crate) fn new(config: CacheConfig) -> Cache {
        assert!(config.line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(config.assoc > 0 && config.size_bytes > 0);
        let lines = config.size_bytes / config.line_bytes;
        let num_sets = (lines as usize / config.assoc).max(1);
        Cache {
            config,
            sets: vec![vec![(u64::MAX, 0); config.assoc]; num_sets],
            use_clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let block = addr / self.config.line_bytes;
        let set = (block % self.sets.len() as u64) as usize;
        let tag = block / self.sets.len() as u64;
        (set, tag)
    }

    /// Accesses `addr`: returns `true` on hit. On miss the line is filled
    /// (lock-up-free: the fill itself costs no extra port time here; the
    /// latency is charged by `MemSystem`).
    pub(crate) fn access(&mut self, addr: u64) -> bool {
        self.use_clock += 1;
        let clock = self.use_clock;
        let (set_idx, tag) = self.set_and_tag(addr);
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|(t, _)| *t == tag) {
            way.1 = clock;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // Fill into the LRU way; an explicit scan keeps a zero-assoc
        // config (which `CacheConfig` forbids anyway) from panicking.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (way, &(_, last)) in set.iter().enumerate() {
            if last < oldest {
                oldest = last;
                victim = way;
            }
        }
        if let Some(slot) = set.get_mut(victim) {
            *slot = (tag, clock);
        }
        false
    }

    /// Probes without updating LRU or filling (for MSHR pre-checks, tests
    /// and diagnostics).
    pub(crate) fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        self.sets[set_idx].iter().any(|(t, _)| *t == tag)
    }

    /// Accumulated statistics.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The cache's configuration.
    pub(crate) fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Walks tags, LRU clocks and counters (sharded-replay support); the
    /// geometry must match the configuration this cache was built from.
    fn sync(&mut self, io: &mut impl StateIo) -> Result<(), SourceError> {
        io.val(&mut self.use_clock)?;
        io.val(&mut self.stats.hits)?;
        io.val(&mut self.stats.misses)?;
        io.same(self.sets.len() as u32, "cache geometry mismatch")?;
        io.same(self.config.assoc as u32, "cache geometry mismatch")?;
        for way in self.sets.iter_mut().flatten() {
            io.val(&mut way.0)?;
            io.val(&mut way.1)?;
        }
        Ok(())
    }
}

/// Which first-level structure an access is routed to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Route {
    /// The multi-ported L1 data cache (LSQ side).
    DataCache,
    /// The Local Variable Cache (LVAQ side).
    Lvc,
}

/// Per-cycle bandwidth state for one first-level structure, interpreting
/// its [`PortModel`].
#[derive(Clone, Debug)]
struct BandwidthState {
    model: PortModel,
    line_bytes: u64,
    /// TruePorts: accesses started this cycle.
    used: usize,
    /// Banked: bitmask of banks busy this cycle.
    banks_busy: u64,
    /// LineBuffered: array port used this cycle / buffer used this cycle.
    array_used: bool,
    buffer_used: bool,
    /// LineBuffered: the line held by the buffer (persistent).
    buffered_line: u64,
    /// Conflicts observed (denied access starts).
    conflicts: u64,
    /// Accesses that claimed bandwidth this cycle (all port models).
    claims_this_cycle: usize,
}

impl BandwidthState {
    fn new(config: &CacheConfig) -> BandwidthState {
        BandwidthState {
            model: config.port_model,
            line_bytes: config.line_bytes,
            used: 0,
            banks_busy: 0,
            array_used: false,
            buffer_used: false,
            buffered_line: u64::MAX,
            conflicts: 0,
            claims_this_cycle: 0,
        }
    }

    fn new_cycle(&mut self) {
        self.used = 0;
        self.banks_busy = 0;
        self.array_used = false;
        self.buffer_used = false;
        self.claims_this_cycle = 0;
    }

    fn bank_of(&self, addr: u64) -> u64 {
        let banks = match self.model {
            PortModel::Banked { banks } => banks as u64,
            _ => 1,
        };
        (addr / self.line_bytes) % banks
    }

    /// Whether an access to `addr` can start this cycle.
    fn available(&self, addr: u64) -> bool {
        match self.model {
            PortModel::TruePorts(ports) => self.used < ports,
            PortModel::Banked { .. } => self.banks_busy & (1 << self.bank_of(addr)) == 0,
            PortModel::LineBuffered => {
                if addr / self.line_bytes == self.buffered_line {
                    !self.buffer_used
                } else {
                    !self.array_used
                }
            }
        }
    }

    /// Walks the per-cycle and persistent bandwidth fields. The per-cycle
    /// ones matter because a shard boundary cuts *mid-cycle*: claims
    /// already made in the boundary cycle must survive the handoff.
    fn sync(&mut self, io: &mut impl StateIo) -> Result<(), SourceError> {
        io.val(&mut self.used)?;
        io.val(&mut self.banks_busy)?;
        io.val(&mut self.array_used)?;
        io.val(&mut self.buffer_used)?;
        io.val(&mut self.buffered_line)?;
        io.val(&mut self.conflicts)?;
        io.val(&mut self.claims_this_cycle)
    }

    /// Claims the bandwidth for an access to `addr`.
    fn claim(&mut self, addr: u64) {
        self.claims_this_cycle += 1;
        match self.model {
            PortModel::TruePorts(_) => self.used += 1,
            PortModel::Banked { .. } => self.banks_busy |= 1 << self.bank_of(addr),
            PortModel::LineBuffered => {
                if addr / self.line_bytes == self.buffered_line {
                    self.buffer_used = true;
                } else {
                    self.array_used = true;
                    self.buffered_line = addr / self.line_bytes;
                }
            }
        }
    }
}

/// Pops every release cycle due at or before `now`.
#[inline]
fn release_due(heap: &mut BinaryHeap<Reverse<u64>>, now: u64) {
    while let Some(&Reverse(release)) = heap.peek() {
        if release > now {
            break;
        }
        heap.pop();
    }
}

/// Access latency of the die-stacked DRAM device (cycles), roughly half
/// the off-chip `memory_latency` of Table 4 — the ratio Bakhshalipour et
/// al. report for on-package stacks.
const STACKED_LATENCY: u64 = 25;
/// Page granularity of the static stacked/off-chip interleave used by the
/// flat-memory and memcache modes (4 KB pages; even pages are on-stack).
const STACKED_PAGE_BYTES: u64 = 4096;
/// Die-stacked cache geometry: 8 MB, 16-way (half capacity in memcache
/// mode, where the other half of the stack serves as flat memory).
const STACKED_CACHE_BYTES: u64 = 8 * 1024 * 1024;
const STACKED_CACHE_ASSOC: usize = 16;
/// Burst-friendly device row size (2 KB open rows).
const BURST_ROW_BYTES: u64 = 2048;
/// Cost of opening a row (first access of a run).
const BURST_OPEN_LATENCY: u64 = 50;
/// Cost of the first same-row access after the open; each further access
/// in the run gets [`BURST_STEP`] cheaper down to [`BURST_FLOOR`].
const BURST_HIT_LATENCY: u64 = 24;
const BURST_STEP: u64 = 4;
const BURST_FLOOR: u64 = 8;

/// Whether a static page-interleaved address lands in the on-stack half
/// of flat memory.
#[inline]
fn on_stack_page(addr: u64) -> bool {
    (addr / STACKED_PAGE_BYTES).is_multiple_of(2)
}

/// One open-row stream of the burst-friendly device. Streams are keyed by
/// route, so LVAQ (stack-region) and LSQ traffic each keep their own open
/// row — the layout that rewards ARPT's region segregation. State changes
/// only on accesses (never with time), which keeps the event core's
/// fast-forward proof intact.
#[derive(Clone, Debug)]
struct RowStream {
    /// Currently open row (`u64::MAX` = none).
    open_row: u64,
    /// Same-row accesses since the open (0 right after opening).
    run: u64,
    /// `hits` = accesses served from the open row, `misses` = row opens.
    stats: CacheStats,
}

impl RowStream {
    fn new() -> RowStream {
        RowStream {
            open_row: u64::MAX,
            run: 0,
            stats: CacheStats::default(),
        }
    }

    /// Latency of one access, advancing the run-length state.
    fn access(&mut self, addr: u64) -> u64 {
        let row = addr / BURST_ROW_BYTES;
        if row == self.open_row {
            self.run += 1;
            self.stats.hits += 1;
            BURST_HIT_LATENCY
                .saturating_sub(BURST_STEP * (self.run - 1))
                .max(BURST_FLOOR)
        } else {
            self.open_row = row;
            self.run = 0;
            self.stats.misses += 1;
            BURST_OPEN_LATENCY
        }
    }

    fn sync(&mut self, io: &mut impl StateIo) -> Result<(), SourceError> {
        io.val(&mut self.open_row)?;
        io.val(&mut self.run)?;
        io.val(&mut self.stats.hits)?;
        io.val(&mut self.stats.misses)
    }
}

/// Everything beyond the first-level structures: the shared L2 plus the
/// [`BackendConfig`]-selected device behind it. [`Backend::beyond_l1`] is
/// the single seam the rest of [`MemSystem`] drives — both timing cores
/// and every port model compose with any backend unchanged.
#[derive(Clone, Debug)]
struct Backend {
    kind: BackendConfig,
    l2: Cache,
    memory_latency: u64,
    /// The die-stacked cache (stacked-cache and memcache modes).
    stacked: Option<Cache>,
    /// Per-route open-row streams (burst mode): `[DataCache, Lvc]`.
    streams: Option<[RowStream; 2]>,
}

impl Backend {
    fn new(config: &MachineConfig) -> Backend {
        let kind = config.backend;
        let stacked = match kind {
            BackendConfig::StackedCache | BackendConfig::StackedMemCache => {
                let size = if kind == BackendConfig::StackedMemCache {
                    STACKED_CACHE_BYTES / 2
                } else {
                    STACKED_CACHE_BYTES
                };
                Some(Cache::new(CacheConfig {
                    size_bytes: size,
                    assoc: STACKED_CACHE_ASSOC,
                    line_bytes: config.l2.line_bytes,
                    hit_latency: STACKED_LATENCY,
                    port_model: PortModel::TruePorts(usize::MAX),
                }))
            }
            _ => None,
        };
        let streams = (kind == BackendConfig::Burst).then(|| [RowStream::new(), RowStream::new()]);
        Backend {
            kind,
            l2: Cache::new(config.l2.sanitized("l2")),
            memory_latency: config.memory_latency,
            stacked,
            streams,
        }
    }

    /// Latency beyond L1 for an access that missed the first level: the
    /// L2 lookup plus — on an L2 miss — whatever the configured device
    /// charges. The baseline arm reproduces the pre-backend chain exactly
    /// (`l2_hit + memory_latency` on a miss).
    fn beyond_l1(&mut self, route: Route, addr: u64) -> u64 {
        let l2_latency = self.l2.config().hit_latency;
        if self.l2.access(addr) {
            return l2_latency;
        }
        l2_latency
            + match self.kind {
                BackendConfig::Baseline => self.memory_latency,
                BackendConfig::StackedMemory => {
                    if on_stack_page(addr) {
                        STACKED_LATENCY
                    } else {
                        self.memory_latency
                    }
                }
                BackendConfig::StackedCache => STACKED_LATENCY + self.stacked_miss_extra(addr),
                BackendConfig::StackedMemCache => {
                    if on_stack_page(addr) {
                        STACKED_LATENCY
                    } else {
                        STACKED_LATENCY + self.stacked_miss_extra(addr)
                    }
                }
                BackendConfig::Burst => match &mut self.streams {
                    Some(streams) => streams[route_index(route)].access(addr),
                    None => self.memory_latency,
                },
            }
    }

    /// Off-chip penalty when the stacked cache misses (0 on a hit).
    fn stacked_miss_extra(&mut self, addr: u64) -> u64 {
        match &mut self.stacked {
            Some(cache) => {
                if cache.access(addr) {
                    0
                } else {
                    self.memory_latency
                }
            }
            None => self.memory_latency,
        }
    }

    fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Hit/miss counters of the backend device, when it has any: the
    /// stacked cache's fills, or the burst device's row hits vs opens
    /// (summed over both streams). `None` for the stateless backends.
    fn stacked_stats(&self) -> Option<CacheStats> {
        if let Some(cache) = &self.stacked {
            return Some(cache.stats());
        }
        self.streams.as_ref().map(|streams| CacheStats {
            hits: streams[0].stats.hits + streams[1].stats.hits,
            misses: streams[0].stats.misses + streams[1].stats.misses,
        })
    }

    /// Walks the backend identity and device state. The identity tag
    /// comes first so a mismatched import fails with a clear error before
    /// any geometry-dependent field is touched.
    fn sync(&mut self, io: &mut impl StateIo) -> Result<(), SourceError> {
        let mut tag = self.kind.tag();
        io.val(&mut tag)?;
        let exported = BackendConfig::from_tag(tag)
            .ok_or_else(|| corrupt(&format!("unknown memory backend tag {tag}")))?;
        if exported != self.kind {
            return Err(corrupt(&format!(
                "state blob was exported under backend '{}', this run uses '{}'",
                exported.label(),
                self.kind.label()
            )));
        }
        self.l2.sync(io)?;
        if let Some(cache) = &mut self.stacked {
            cache.sync(io)?;
        }
        for stream in self.streams.iter_mut().flatten() {
            stream.sync(io)?;
        }
        Ok(())
    }
}

/// Stream index of a route (burst-mode open-row tracking).
#[inline]
fn route_index(route: Route) -> usize {
    match route {
        Route::DataCache => 0,
        Route::Lvc => 1,
    }
}

/// The data-side memory hierarchy: L1 data cache (+ optional LVC), a
/// shared L2, and main memory, with per-cycle bandwidth accounting and
/// bounded MSHRs for the first-level structures.
#[derive(Clone, Debug)]
pub(crate) struct MemSystem {
    dcache: Cache,
    lvc: Option<Cache>,
    backend: Backend,
    dcache_bw: BandwidthState,
    lvc_bw: Option<BandwidthState>,
    mshr_cap: usize,
    /// Release cycles of in-flight misses per route (min-heaps, so the
    /// per-cycle release sweep and the next-event query are O(1) when
    /// nothing is due).
    dcache_mshrs: BinaryHeap<Reverse<u64>>,
    lvc_mshrs: BinaryHeap<Reverse<u64>>,
    /// LVC-routed accesses served by the data cache because the machine
    /// has no LVC (dispatch steering on a conventional config).
    steer_fallbacks: u64,
    /// Injected port-layer faults (blackouts, latency spikes), empty in
    /// normal simulation.
    port_faults: Vec<TimingFault>,
    /// Ids of port faults whose active window has been entered.
    faults_triggered: Vec<u32>,
    now: u64,
}

impl MemSystem {
    /// Builds the hierarchy described by `config`. Degenerate port/bank
    /// counts are clamped with a warning ([`CacheConfig::sanitized`])
    /// rather than silently aliasing banks.
    pub(crate) fn new(config: &MachineConfig) -> MemSystem {
        let dcache_cfg = config.dcache.sanitized("dcache");
        let lvc_cfg = config.lvc.map(|c| c.sanitized("lvc"));
        MemSystem {
            dcache: Cache::new(dcache_cfg),
            lvc: lvc_cfg.map(Cache::new),
            backend: Backend::new(config),
            dcache_bw: BandwidthState::new(&dcache_cfg),
            lvc_bw: lvc_cfg.as_ref().map(BandwidthState::new),
            mshr_cap: config.mshrs,
            dcache_mshrs: BinaryHeap::new(),
            lvc_mshrs: BinaryHeap::new(),
            steer_fallbacks: 0,
            port_faults: config
                .faults
                .iter()
                .filter(|f| f.is_port_fault())
                .copied()
                .collect(),
            faults_triggered: Vec::new(),
            now: 0,
        }
    }

    /// The structure that actually serves `route`: [`Route::Lvc`] degrades
    /// to the data cache on a machine without an LVC.
    fn effective_route(&self, route: Route) -> Route {
        match route {
            Route::Lvc if self.lvc.is_none() => Route::DataCache,
            r => r,
        }
    }

    /// Starts a new cycle: all per-cycle bandwidth becomes free and
    /// completed misses release their MSHRs.
    pub(crate) fn new_cycle(&mut self) {
        self.now += 1;
        let now = self.now;
        self.dcache_bw.new_cycle();
        if let Some(bw) = &mut self.lvc_bw {
            bw.new_cycle();
        }
        release_due(&mut self.dcache_mshrs, now);
        release_due(&mut self.lvc_mshrs, now);
        if !self.port_faults.is_empty() {
            for fault in &self.port_faults {
                let (start, len) = match fault.kind {
                    FaultKind::PortBlackout {
                        start_cycle,
                        cycles,
                        ..
                    }
                    | FaultKind::LatencySpike {
                        start_cycle,
                        cycles,
                        ..
                    } => (start_cycle, cycles),
                    FaultKind::ArptSoftError { .. } => continue,
                };
                let active = now >= start && now < start.saturating_add(len);
                if active && !self.faults_triggered.contains(&fault.id) {
                    self.faults_triggered.push(fault.id);
                }
            }
        }
    }

    /// Whether a [`FaultKind::PortBlackout`] on `route` (after LVC
    /// degradation) is active this cycle.
    fn blacked_out(&self, effective: Route) -> bool {
        self.port_faults.iter().any(|f| match f.kind {
            FaultKind::PortBlackout {
                route,
                start_cycle,
                cycles,
            } => {
                self.effective_route(route) == effective
                    && self.now >= start_cycle
                    && self.now < start_cycle.saturating_add(cycles)
            }
            _ => false,
        })
    }

    /// Summed [`FaultKind::LatencySpike`] extra latency on `route` (after
    /// LVC degradation) for an access started this cycle.
    fn spike_extra(&self, effective: Route) -> u64 {
        self.port_faults
            .iter()
            .map(|f| match f.kind {
                FaultKind::LatencySpike {
                    route,
                    start_cycle,
                    cycles,
                    extra,
                } if self.effective_route(route) == effective
                    && self.now >= start_cycle
                    && self.now < start_cycle.saturating_add(cycles) =>
                {
                    extra
                }
                _ => 0,
            })
            .sum()
    }

    /// Ids of injected port faults whose active window was entered during
    /// the run (attribution for the fault campaign).
    pub(crate) fn faults_triggered(&self) -> &[u32] {
        &self.faults_triggered
    }

    /// The earliest cycle strictly after `now` at which this memory
    /// system's observable availability can change on its own: an MSHR
    /// release (miss return), or a fault window opening or closing. The
    /// event-driven core may fast-forward a provably idle span up to (but
    /// not past) this cycle; `None` means nothing is scheduled.
    pub(crate) fn next_event_after(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut consider = |at: u64| {
            if at > now {
                next = Some(next.map_or(at, |n| n.min(at)));
            }
        };
        // `new_cycle` releases slots due `<= now`, so the heap minimum (if
        // any) frees — and the miss data returns — during that cycle.
        for heap in [&self.dcache_mshrs, &self.lvc_mshrs] {
            if let Some(&Reverse(release)) = heap.peek() {
                consider(release);
            }
        }
        for fault in &self.port_faults {
            let (start, len) = match fault.kind {
                FaultKind::PortBlackout {
                    start_cycle,
                    cycles,
                    ..
                }
                | FaultKind::LatencySpike {
                    start_cycle,
                    cycles,
                    ..
                } => (start_cycle, cycles),
                FaultKind::ArptSoftError { .. } => continue,
            };
            consider(start);
            consider(start.saturating_add(len));
        }
        next
    }

    /// Jumps the memory system to cycle `to`, replicating the per-cycle
    /// effects of `to - now` idle [`MemSystem::new_cycle`] calls in one
    /// step. Only valid across spans with no accesses and no fault-window
    /// boundaries (the event-driven core guarantees both): bandwidth state
    /// is already idle, so only the clock and elapsed MSHR releases move.
    pub(crate) fn fast_forward(&mut self, to: u64) {
        debug_assert!(to >= self.now, "memory time never moves backwards");
        self.now = to;
        release_due(&mut self.dcache_mshrs, to);
        release_due(&mut self.lvc_mshrs, to);
    }

    /// Whether an access to `addr` could start on `route` this cycle
    /// (bandwidth only; MSHR availability is checked at access time, since
    /// it only matters for misses). [`Route::Lvc`] on a machine without an
    /// LVC is answered for the data cache, which serves such accesses.
    pub(crate) fn port_available(&self, route: Route, addr: u64) -> bool {
        if !self.port_faults.is_empty() && self.blacked_out(self.effective_route(route)) {
            return false;
        }
        match self.effective_route(route) {
            Route::DataCache => self.dcache_bw.available(addr),
            // `effective_route` only answers `Lvc` when the machine has
            // one; the data-cache arm is an unreachable safety net.
            Route::Lvc => self
                .lvc_bw
                .as_ref()
                .unwrap_or(&self.dcache_bw)
                .available(addr),
        }
    }

    /// Whether an access to `addr` could be *rejected for lack of an MSHR*
    /// this cycle: it would miss and every MSHR is occupied. Read-only (no
    /// LRU update, no bandwidth claim) — used by the stall-attribution
    /// probe.
    pub(crate) fn mshr_would_block(&self, route: Route, addr: u64) -> bool {
        let (cache, mshrs) = match self.effective_route(route) {
            Route::DataCache => (&self.dcache, &self.dcache_mshrs),
            Route::Lvc => match self.lvc.as_ref() {
                Some(lvc) => (lvc, &self.lvc_mshrs),
                None => (&self.dcache, &self.dcache_mshrs),
            },
        };
        !cache.probe(addr) && mshrs.len() >= self.mshr_cap
    }

    /// Attempts the access; returns its total latency, or `None` if it
    /// would miss and no MSHR is free (the caller retries next cycle).
    ///
    /// [`Route::Lvc`] on a machine without an LVC falls back to the data
    /// cache (counted in [`Self::steer_fallbacks`]) — dispatch-stage
    /// steering may legitimately pick the LVC route on a config that never
    /// built one.
    ///
    /// Callers must check [`Self::port_available`] first; debug builds
    /// assert it (the release hot loop skips the duplicate probe).
    pub(crate) fn access(&mut self, route: Route, addr: u64) -> Option<u64> {
        debug_assert!(
            self.port_available(route, addr),
            "no bandwidth on {route:?}"
        );
        let route = match self.effective_route(route) {
            Route::DataCache if route == Route::Lvc => {
                self.steer_fallbacks += 1;
                Route::DataCache
            }
            r => r,
        };
        // MSHR pre-check: a miss needs a free slot.
        let (cache, mshrs) = match route {
            Route::DataCache => (&self.dcache, &self.dcache_mshrs),
            Route::Lvc => match self.lvc.as_ref() {
                Some(lvc) => (lvc, &self.lvc_mshrs),
                None => (&self.dcache, &self.dcache_mshrs),
            },
        };
        let will_hit = cache.probe(addr);
        if !will_hit && mshrs.len() >= self.mshr_cap {
            match route {
                Route::DataCache => self.dcache_bw.conflicts += 1,
                Route::Lvc => {
                    if let Some(bw) = &mut self.lvc_bw {
                        bw.conflicts += 1;
                    }
                }
            }
            return None;
        }

        let (l1_hit, l1_latency) = match route {
            Route::DataCache => {
                self.dcache_bw.claim(addr);
                (self.dcache.access(addr), self.dcache.config().hit_latency)
            }
            Route::Lvc => match (self.lvc.as_mut(), self.lvc_bw.as_mut()) {
                (Some(lvc), Some(bw)) => {
                    bw.claim(addr);
                    (lvc.access(addr), lvc.config().hit_latency)
                }
                _ => {
                    self.dcache_bw.claim(addr);
                    (self.dcache.access(addr), self.dcache.config().hit_latency)
                }
            },
        };
        let spike = if self.port_faults.is_empty() {
            0
        } else {
            self.spike_extra(route)
        };
        if l1_hit {
            return Some(l1_latency + spike);
        }
        let total = spike + l1_latency + self.backend.beyond_l1(route, addr);
        let release = self.now + total;
        match route {
            Route::DataCache => self.dcache_mshrs.push(Reverse(release)),
            Route::Lvc => self.lvc_mshrs.push(Reverse(release)),
        }
        Some(total)
    }

    /// L1 data-cache statistics.
    pub(crate) fn dcache_stats(&self) -> CacheStats {
        self.dcache.stats()
    }

    /// LVC statistics, if present.
    pub(crate) fn lvc_stats(&self) -> Option<CacheStats> {
        self.lvc.as_ref().map(Cache::stats)
    }

    /// L2 statistics.
    pub(crate) fn l2_stats(&self) -> CacheStats {
        self.backend.l2_stats()
    }

    /// Hit/miss counters of the configured backend device (stacked cache
    /// fills, or burst row hits vs row opens); `None` when the backend
    /// keeps no such state (baseline, stacked flat memory).
    pub(crate) fn stacked_stats(&self) -> Option<CacheStats> {
        self.backend.stacked_stats()
    }

    /// LVC-routed accesses served by the data cache because no LVC exists.
    pub(crate) fn steer_fallbacks(&self) -> u64 {
        self.steer_fallbacks
    }

    /// Bandwidth claims made so far this cycle, as `(dcache, lvc)`; the LVC
    /// count is 0 on a machine without one. Feeds the per-port utilization
    /// histograms of the observability probe.
    pub(crate) fn claims_this_cycle(&self) -> (usize, usize) {
        (
            self.dcache_bw.claims_this_cycle,
            self.lvc_bw.as_ref().map_or(0, |bw| bw.claims_this_cycle),
        )
    }

    /// Walks the complete hierarchy state for sharded replay: the backend
    /// identity tag, clock, cache arrays, backend device state, bandwidth
    /// accounting (including the boundary cycle's claims — the cut is
    /// mid-cycle), MSHR release heaps in a canonical sorted form, and
    /// fault attribution. `port_faults`, latencies and MSHR capacity are
    /// configuration, rebuilt by [`MemSystem::new`]; import therefore
    /// needs a hierarchy freshly built from the *same* configuration. The
    /// state is per-backend because device state *is* timing state:
    /// resuming a stacked-cache run without its fill map (or a burst run
    /// without its open rows) would silently change every post-resume
    /// latency.
    pub(crate) fn sync(&mut self, io: &mut impl StateIo) -> Result<(), SourceError> {
        io.val(&mut self.now)?;
        self.dcache.sync(io)?;
        io.same(self.lvc.is_some(), "LVC presence mismatch")?;
        if let Some(lvc) = &mut self.lvc {
            lvc.sync(io)?;
        }
        self.backend.sync(io)?;
        self.dcache_bw.sync(io)?;
        io.same(self.lvc_bw.is_some(), "LVC bandwidth presence mismatch")?;
        if let Some(bw) = &mut self.lvc_bw {
            bw.sync(io)?;
        }
        for heap in [&mut self.dcache_mshrs, &mut self.lvc_mshrs] {
            let mut releases = heap_sorted(heap);
            io.list(&mut releases)?;
            *heap = releases.into_iter().map(Reverse).collect();
        }
        io.val(&mut self.steer_fallbacks)?;
        io.list(&mut self.faults_triggered)
    }
}

/// A min-heap's contents as an ascending vector (canonical MSHR form).
fn heap_sorted(heap: &BinaryHeap<Reverse<u64>>) -> Vec<u64> {
    let mut v: Vec<u64> = heap.iter().map(|&Reverse(at)| at).collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::state::{StateReader, StateWriter};

    fn small_cache(assoc: usize) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 128,
            assoc,
            line_bytes: 32,
            hit_latency: 1,
            port_model: PortModel::TruePorts(1),
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache(2);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x101f), "same 32-byte line");
        assert!(!c.access(0x1020), "next line misses");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_replacement() {
        // 128 B, 2-way, 32 B lines → 2 sets. Set 0 holds even blocks.
        let mut c = small_cache(2);
        c.access(0); // set 0, tag 0
        c.access(64); // set 0, tag 1
        assert!(c.probe(0));
        c.access(0); // touch tag 0 (now MRU)
        c.access(128); // third tag in set 0 → evicts tag 1
        assert!(c.probe(0), "MRU survives");
        assert!(!c.probe(64), "LRU evicted");
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = small_cache(1); // 4 sets
        assert!(!c.access(0));
        assert!(!c.access(128)); // same set, different tag
        assert!(!c.access(0), "conflict evicted the first line");
    }

    #[test]
    fn hierarchy_latencies() {
        let config = MachineConfig::baseline_2_0();
        let mut m = MemSystem::new(&config);
        m.new_cycle();
        // Cold: L1 miss + L2 miss → 2 + 12 + 50.
        assert_eq!(m.access(Route::DataCache, 0x2000_0000), Some(64));
        m.new_cycle();
        // Warm L1.
        assert_eq!(m.access(Route::DataCache, 0x2000_0000), Some(2));
        assert_eq!(m.dcache_stats().accesses(), 2);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let config = MachineConfig::baseline_2_0();
        let mut m = MemSystem::new(&config);
        // Lines that conflict in L1 (64KB 2-way, 32B lines → 1024 sets;
        // a 32KB stride maps to the same set) but coexist in L2 (4-way).
        let a = 0x2000_0000u64;
        let stride = 32 * 1024;
        m.new_cycle();
        m.access(Route::DataCache, a);
        m.access(Route::DataCache, a + stride);
        m.new_cycle();
        m.access(Route::DataCache, a + 2 * stride); // evicts `a` from L1
        m.new_cycle();
        assert_eq!(
            m.access(Route::DataCache, a),
            Some(2 + 12),
            "L1 miss, L2 hit"
        );
    }

    #[test]
    fn true_ports_are_consumed_per_cycle() {
        let config = MachineConfig::baseline_2_0(); // 2 ports
        let mut m = MemSystem::new(&config);
        m.new_cycle();
        assert!(m.port_available(Route::DataCache, 0));
        m.access(Route::DataCache, 0);
        m.access(Route::DataCache, 64);
        assert!(!m.port_available(Route::DataCache, 128));
        // No LVC on a conventional machine: the LVC route degrades to the
        // data cache, whose ports are exhausted this cycle...
        assert!(!m.port_available(Route::Lvc, 0));
        m.new_cycle();
        assert!(m.port_available(Route::DataCache, 128));
        // ...and free again next cycle.
        assert!(m.port_available(Route::Lvc, 0));
    }

    #[test]
    fn lvc_route_without_lvc_falls_back_to_dcache() {
        // Dispatch steering can pick Route::Lvc on a machine that never
        // built an LVC; the access must be served by the data cache, not
        // panic.
        let config = MachineConfig::baseline_2_0();
        let mut m = MemSystem::new(&config);
        m.new_cycle();
        let sp = 0x7fff_e000u64;
        assert!(m.port_available(Route::Lvc, sp));
        assert_eq!(m.access(Route::Lvc, sp), Some(2 + 12 + 50), "cold dcache");
        m.new_cycle();
        assert_eq!(m.access(Route::Lvc, sp), Some(2), "warm dcache hit");
        assert_eq!(m.steer_fallbacks(), 2);
        assert_eq!(m.dcache_stats().accesses(), 2);
        assert!(m.lvc_stats().is_none());
        assert!(!m.mshr_would_block(Route::Lvc, sp), "line is resident");
    }

    #[test]
    fn banked_cache_conflicts_on_same_bank() {
        let mut config = MachineConfig::baseline_2_0();
        config.dcache = config.dcache.with_banks(4);
        let mut m = MemSystem::new(&config);
        m.new_cycle();
        // Two addresses in the same bank (same line index mod 4).
        assert!(m.port_available(Route::DataCache, 0));
        m.access(Route::DataCache, 0);
        assert!(
            !m.port_available(Route::DataCache, 4 * 32),
            "bank 0 is busy"
        );
        // A different bank is fine; up to 4 distinct banks per cycle.
        assert!(m.port_available(Route::DataCache, 32));
        m.access(Route::DataCache, 32);
        m.access(Route::DataCache, 64);
        m.access(Route::DataCache, 96);
        assert!(!m.port_available(Route::DataCache, 128), "all banks busy");
    }

    #[test]
    fn line_buffer_serves_repeat_lines_for_free() {
        let mut config = MachineConfig::baseline_2_0();
        config.dcache = config.dcache.with_line_buffer();
        let mut m = MemSystem::new(&config);
        m.new_cycle();
        m.access(Route::DataCache, 0x1000); // array port + installs line
        assert!(
            m.port_available(Route::DataCache, 0x1008),
            "same line → buffer"
        );
        m.access(Route::DataCache, 0x1008);
        assert!(
            !m.port_available(Route::DataCache, 0x1010),
            "buffer also used now"
        );
        assert!(
            !m.port_available(Route::DataCache, 0x2000),
            "array port used"
        );
        m.new_cycle();
        // Buffer persists across cycles.
        assert!(m.port_available(Route::DataCache, 0x1018));
    }

    #[test]
    fn mshrs_bound_outstanding_misses() {
        let mut config = MachineConfig::baseline_2_0();
        config.mshrs = 1;
        config.dcache.port_model = PortModel::TruePorts(4);
        let mut m = MemSystem::new(&config);
        m.new_cycle();
        assert!(m.access(Route::DataCache, 0x2000_0000).is_some()); // miss
        assert_eq!(
            m.access(Route::DataCache, 0x3000_0000),
            None,
            "second miss has no MSHR"
        );
        // A hit is still fine.
        assert_eq!(m.access(Route::DataCache, 0x2000_0010), Some(2));
        // After the miss resolves (64 cycles), the MSHR frees.
        for _ in 0..64 {
            m.new_cycle();
        }
        assert!(m.access(Route::DataCache, 0x3000_0000).is_some());
    }

    #[test]
    fn port_blackout_denies_the_window_and_is_attributed() {
        let mut config = MachineConfig::baseline_2_0();
        config.faults.push(TimingFault {
            id: 7,
            kind: FaultKind::PortBlackout {
                route: Route::DataCache,
                start_cycle: 2,
                cycles: 2,
            },
        });
        let mut m = MemSystem::new(&config);
        m.new_cycle(); // cycle 1: before the window
        assert!(m.port_available(Route::DataCache, 0));
        assert!(m.faults_triggered().is_empty());
        m.new_cycle(); // cycle 2: blacked out
        assert!(!m.port_available(Route::DataCache, 0));
        assert_eq!(m.faults_triggered(), &[7]);
        m.new_cycle(); // cycle 3: still blacked out
        assert!(!m.port_available(Route::DataCache, 0));
        m.new_cycle(); // cycle 4: window over
        assert!(m.port_available(Route::DataCache, 0));
        assert_eq!(m.faults_triggered(), &[7], "id recorded once");
    }

    #[test]
    fn latency_spike_charges_extra_inside_the_window() {
        let mut config = MachineConfig::baseline_2_0();
        config.faults.push(TimingFault {
            id: 3,
            kind: FaultKind::LatencySpike {
                route: Route::DataCache,
                start_cycle: 2,
                cycles: 1,
                extra: 10,
            },
        });
        let mut m = MemSystem::new(&config);
        m.new_cycle(); // cycle 1: normal cold miss
        assert_eq!(m.access(Route::DataCache, 0x2000_0000), Some(64));
        m.new_cycle(); // cycle 2: spiked hit
        assert_eq!(m.access(Route::DataCache, 0x2000_0000), Some(2 + 10));
        m.new_cycle(); // cycle 3: back to normal
        assert_eq!(m.access(Route::DataCache, 0x2000_0000), Some(2));
        assert_eq!(m.faults_triggered(), &[3]);
    }

    #[test]
    fn lvc_fault_degrades_to_dcache_without_lvc() {
        // A blackout planned for the LVC must land on the structure that
        // actually serves LVC-routed accesses on a conventional machine.
        let mut config = MachineConfig::baseline_2_0();
        config.faults.push(TimingFault {
            id: 1,
            kind: FaultKind::PortBlackout {
                route: Route::Lvc,
                start_cycle: 1,
                cycles: 1,
            },
        });
        let mut m = MemSystem::new(&config);
        m.new_cycle();
        assert!(!m.port_available(Route::DataCache, 0));
        assert!(!m.port_available(Route::Lvc, 0));
        m.new_cycle();
        assert!(m.port_available(Route::DataCache, 0));
    }

    #[test]
    fn hit_rate_is_zero_without_traffic() {
        let empty = CacheStats::default();
        assert_eq!(empty.hit_rate(), 0.0, "zero traffic must not be 1.0 or NaN");
        assert!(empty.hit_rate().is_finite());
        let warm = CacheStats { hits: 3, misses: 1 };
        assert!((warm.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn baseline_backend_matches_the_paper_chain() {
        let config = MachineConfig::baseline_2_0().with_backend(BackendConfig::Baseline);
        let mut m = MemSystem::new(&config);
        assert_eq!(m.backend.kind, BackendConfig::Baseline);
        m.new_cycle();
        assert_eq!(m.access(Route::DataCache, 0x2000_0000), Some(2 + 12 + 50));
        assert!(m.stacked_stats().is_none());
    }

    #[test]
    fn stacked_memory_splits_pages_statically() {
        let config = MachineConfig::baseline_2_0().with_backend(BackendConfig::StackedMemory);
        let mut m = MemSystem::new(&config);
        m.new_cycle();
        // 0x2000_0000 sits in an even 4 KB page: on-stack, half latency.
        assert_eq!(m.access(Route::DataCache, 0x2000_0000), Some(2 + 12 + 25));
        m.new_cycle();
        // The next page is odd: off-chip.
        assert_eq!(m.access(Route::DataCache, 0x2000_1000), Some(2 + 12 + 50));
        assert!(
            m.stacked_stats().is_none(),
            "flat split keeps no device state"
        );
    }

    #[test]
    fn stacked_cache_catches_l2_evictions() {
        let config = MachineConfig::baseline_2_0().with_backend(BackendConfig::StackedCache);
        let mut m = MemSystem::new(&config);
        m.new_cycle();
        // Cold: miss everywhere, pay the stacked lookup plus off-chip.
        assert_eq!(
            m.access(Route::DataCache, 0x100_0000),
            Some(2 + 12 + 25 + 50)
        );
        assert_eq!(m.stacked_stats(), Some(CacheStats { hits: 0, misses: 1 }));
        // L2 is 512 KB 4-way with 32 B lines (4096 sets): a 128 KB stride
        // stays in one set, so five lines evict the first from both L1
        // (2-way) and L2 (4-way) while the 16-way stacked cache keeps all.
        let stride = 128 * 1024u64;
        for i in 1..5u64 {
            m.new_cycle();
            m.access(Route::DataCache, 0x100_0000 + i * stride);
        }
        m.new_cycle();
        assert_eq!(
            m.access(Route::DataCache, 0x100_0000),
            Some(2 + 12 + 25),
            "L1 and L2 evicted the line; the stacked cache still holds it"
        );
        assert_eq!(m.stacked_stats(), Some(CacheStats { hits: 1, misses: 5 }));
    }

    #[test]
    fn memcache_serves_flat_pages_without_the_cache() {
        let config = MachineConfig::baseline_2_0().with_backend(BackendConfig::StackedMemCache);
        let mut m = MemSystem::new(&config);
        m.new_cycle();
        // Even page: the flat half of the stack, no cache involvement.
        assert_eq!(m.access(Route::DataCache, 0x2000_0000), Some(2 + 12 + 25));
        assert_eq!(m.stacked_stats(), Some(CacheStats::default()));
        m.new_cycle();
        // Odd page: goes through the (cold) stacked-cache partition.
        assert_eq!(
            m.access(Route::DataCache, 0x2000_1000),
            Some(2 + 12 + 25 + 50)
        );
        assert_eq!(m.stacked_stats(), Some(CacheStats { hits: 0, misses: 1 }));
    }

    #[test]
    fn burst_backend_rewards_same_row_runs_per_stream() {
        let config = MachineConfig::decoupled(2, 2).with_backend(BackendConfig::Burst);
        let mut m = MemSystem::new(&config);
        m.new_cycle();
        // Row open on the LSQ stream.
        assert_eq!(m.access(Route::DataCache, 0x1000), Some(2 + 12 + 50));
        m.new_cycle();
        // Consecutive same-row misses ramp down: 24, 20, ...
        assert_eq!(m.access(Route::DataCache, 0x1020), Some(2 + 12 + 24));
        m.new_cycle();
        assert_eq!(m.access(Route::DataCache, 0x1040), Some(2 + 12 + 20));
        m.new_cycle();
        // The LVAQ stream has its own open row: this does not disturb the
        // LSQ run, and itself pays a fresh open (LVC hit latency is 1).
        assert_eq!(m.access(Route::Lvc, 0x8_0000), Some(1 + 12 + 50));
        m.new_cycle();
        assert_eq!(
            m.access(Route::DataCache, 0x1060),
            Some(2 + 12 + 16),
            "the LSQ run survived the interleaved LVAQ access"
        );
        let rows = m.stacked_stats().expect("burst keeps row stats");
        assert_eq!(rows, CacheStats { hits: 3, misses: 2 });
        m.new_cycle();
        // Long runs bottom out at the floor.
        for i in 4..12u64 {
            m.access(Route::DataCache, 0x1000 + i * 32);
            m.new_cycle();
        }
        assert_eq!(
            m.access(Route::DataCache, 0x1000 + 12 * 32),
            Some(2 + 12 + 8)
        );
    }

    #[test]
    fn backend_state_round_trips_per_backend() {
        for backend in BackendConfig::ALL {
            let config = MachineConfig::decoupled(2, 2).with_backend(backend);
            let mut m = MemSystem::new(&config);
            for i in 0..20u64 {
                m.new_cycle();
                m.access(Route::DataCache, 0x100_0000 + i * 128 * 1024);
            }
            let mut w = StateWriter::new();
            m.sync(&mut w).unwrap();
            let blob = w.seal();
            let mut restored = MemSystem::new(&config);
            let mut r = StateReader::open(&blob).unwrap();
            restored
                .sync(&mut r)
                .unwrap_or_else(|e| panic!("{}: state did not round-trip: {e}", backend.label()));
            r.finish().unwrap();
            assert_eq!(restored.l2_stats(), m.l2_stats(), "{}", backend.label());
            assert_eq!(
                restored.stacked_stats(),
                m.stacked_stats(),
                "{}",
                backend.label()
            );
            // The restored hierarchy must keep charging identical
            // latencies — device state (fills, open rows) came across.
            restored.new_cycle();
            m.new_cycle();
            assert_eq!(
                m.access(Route::DataCache, 0x100_0000),
                restored.access(Route::DataCache, 0x100_0000),
                "{}: post-resume latency diverged",
                backend.label()
            );
        }
    }

    #[test]
    fn cross_backend_state_is_rejected_with_a_clear_error() {
        let mut exporter = MemSystem::new(
            &MachineConfig::baseline_2_0().with_backend(BackendConfig::StackedCache),
        );
        let mut w = StateWriter::new();
        exporter.sync(&mut w).unwrap();
        let blob = w.seal();
        let mut importer = MemSystem::new(&MachineConfig::baseline_2_0());
        let mut r = StateReader::open(&blob).unwrap();
        let err = importer.sync(&mut r).expect_err("must reject");
        let msg = err.to_string();
        assert!(
            msg.contains("stacked-cache") && msg.contains("baseline"),
            "error must name both backends, got: {msg}"
        );
    }

    #[test]
    fn degenerate_bank_counts_are_clamped_not_aliased() {
        // 6 banks would alias through the `1 << bank_of` u64 mask math;
        // the hierarchy clamps to 4 and behaves like a valid 4-bank cache.
        let mut config = MachineConfig::baseline_2_0();
        config.dcache.port_model = PortModel::Banked { banks: 6 };
        let mut m = MemSystem::new(&config);
        m.new_cycle();
        m.access(Route::DataCache, 0);
        m.access(Route::DataCache, 32);
        m.access(Route::DataCache, 64);
        m.access(Route::DataCache, 96);
        assert!(
            !m.port_available(Route::DataCache, 128),
            "4 clamped banks busy"
        );
        // 80 banks would shift a u64 by >= 64: clamped to 64, no overflow.
        let mut wide = MachineConfig::baseline_2_0();
        wide.dcache.port_model = PortModel::Banked { banks: 80 };
        let mut m = MemSystem::new(&wide);
        m.new_cycle();
        for i in 0..64u64 {
            assert!(m.port_available(Route::DataCache, i * 32));
            m.access(Route::DataCache, i * 32);
        }
        assert!(!m.port_available(Route::DataCache, 64 * 32));
    }

    #[test]
    fn lvc_is_fast_and_separate() {
        let config = MachineConfig::decoupled(2, 2);
        let mut m = MemSystem::new(&config);
        m.new_cycle();
        let sp = 0x7fff_e000u64;
        assert_eq!(m.access(Route::Lvc, sp), Some(1 + 12 + 50));
        m.new_cycle();
        assert_eq!(m.access(Route::Lvc, sp), Some(1));
        assert_eq!(m.lvc_stats().unwrap().accesses(), 2);
        assert_eq!(m.dcache_stats().accesses(), 0);
    }
}
