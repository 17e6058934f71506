//! The four measured systems (paper §6.1) and the TwinDrivers derivation
//! pipeline that builds the fourth.
//!
//! * [`Config::NativeLinux`] — driver in the bare kernel;
//! * [`Config::XenDom0`] — driver in dom0 on Xen (virtualisation tax, no
//!   per-packet domain switches for its own traffic);
//! * [`Config::XenGuest`] — the baseline "hosted" path: guest netfront →
//!   I/O channel (grants, copies, domain switches) → netback → bridge →
//!   dom0 driver (paper §2, Figure 1);
//! * [`Config::TwinDrivers`] — guest paravirtual driver → hypercall →
//!   **rewritten driver running in the hypervisor** via SVM → NIC
//!   (paper Figure 2).
//!
//! Driver code always executes instruction-by-instruction on the
//! simulated machine; everything around it (stack, hypervisor, backend)
//! is charged from the calibrated cost model. Cycle attribution follows
//! the paper's four categories.

use crate::iommu::Iommu;
use crate::measure::Breakdown;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use twin_isa::asm::assemble;
use twin_kernel::{
    call_function, e1000, load_driver, Dom0Kernel, LoadedDriver, RxMode, SkBuff, MMIO_BASE,
};
use twin_machine::{CostDomain, Cpu, Env, ExecMode, Fault, Machine, PageEntry, SpaceId, PAGE_SIZE};
use twin_net::{EtherType, Frame, MacAddr, MTU};
use twin_nic::{ItrTuner, Nic, AUTOTUNE_WINDOW_CYCLES, MMIO_WINDOW};
use twin_rewriter::{rewrite, RewriteOptions, RewriteStats};
pub use twin_sched::SchedOptions;
use twin_sched::VcpuSched;
use twin_svm::{Svm, CALL_XLAT_SYMBOL, SLOW_PATH_SYMBOL};
use twin_trace::{FlushCause, MetricSet, TraceEvent};
use twin_xen::{
    load_hypervisor_driver, DomainKind, GrantAccess, GrantCache, HyperSupport, HypervisorDriver,
    Softirq, Xen, HYP_CODE_BASE, UPCALL_RING_SLOTS, UPCALL_STACK_BASE, UPCALL_STACK_PAGES,
};
pub use twin_xen::{DomId, UpcallMode};

/// Code base of the VM driver instance in dom0.
pub const VM_CODE_BASE: u64 = 0x0800_0000;

/// Largest burst one `transmit_burst`/`receive_burst` call moves (the TX
/// ring holds 128 descriptors, so bigger bursts would only split).
pub const MAX_BURST: usize = 128;

/// Data base of the driver in dom0. Staggered against the heap base so
/// the hot adapter page does not share an stlb index with hot heap pages
/// (the stlb is direct-mapped on bits 12..24).
pub const DRIVER_DATA_BASE: u64 = 0x2815_0000;

/// Identity stlb table placement (VM instance, paper §5.1.2).
pub const IDENTITY_STLB_BASE: u64 = 0x2f00_0000;

/// Guest heap base (paravirtual driver buffers).
pub const GUEST_HEAP_BASE: u64 = 0x4000_0000;

/// Guest VA where a zero-copy buffer pool is mapped (one region per
/// granted guest, [`SystemOptions::zero_copy_pool_frames`] pages).
pub const ZC_POOL_BASE: u64 = 0x5000_0000;

/// Bytes one zero-copy pool slot holds (the e1000's 2 KiB RX buffer
/// size); frames longer than this cannot land in a slot and take the
/// copy fallback.
pub const ZC_SLOT_BYTES: u32 = 2048;

/// Live mappings the grant cache holds before LRU eviction kicks in —
/// sized for every pool slot of a realistic flow set (64 flows × a
/// 64-frame pool), so steady state never evicts; pathological flow
/// churn degrades to extra map/unmap pairs, never to wrong behaviour.
pub const ZC_CACHE_CAPACITY: usize = 4096;

/// MAC address of the external traffic peer (the "client machines").
pub fn peer_mac() -> MacAddr {
    MacAddr::for_guest(1000)
}

/// How traffic is sharded across the NICs of a multi-NIC system (the
/// paper's testbed drove five NICs concurrently from one hypervisor
/// driver image; §6.1).
///
/// Sharding operates at *driver-invocation* granularity where possible so
/// burst amortization survives: a whole burst lands on one NIC, and the
/// next burst may land on another. [`ShardPolicy::FlowHash`] pins every
/// flow to one NIC (like receive-side scaling / transmit packet
/// steering), which preserves per-flow frame order by construction. With
/// a single NIC every policy degenerates to the exact PR 1 burst path on
/// NIC 0.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ShardPolicy {
    /// All traffic on one fixed NIC (clamped to the last device). The
    /// default, and the single-NIC degenerate case.
    Static(u32),
    /// Successive bursts rotate across NICs round-robin (bonding mode
    /// balance-rr at burst granularity; keeps whole-burst amortization).
    RoundRobin,
    /// Frames hash by flow id to a NIC: same flow, same NIC, always —
    /// per-flow ordering is preserved across any number of devices.
    FlowHash,
    /// Scheduler-aware placement: a guest's flows land on the NIC whose
    /// softirq CPU matches the guest's vCPU (per the
    /// [`SystemOptions::sched`] topology map), so deliveries stay
    /// cache-warm. Flows of guests with no vCPU — and every flow when
    /// the scheduler model is off — fall back to the exact
    /// [`ShardPolicy::FlowHash`] placement, making this policy
    /// FlowHash-equivalent whenever the scheduler is disabled. When the
    /// scheduler later moves a guest, its flows follow, bounded by the
    /// configured hysteresis and deferred until the old device's ring
    /// is drained so per-flow order is preserved across the migration.
    Affinity,
}

impl Default for ShardPolicy {
    fn default() -> ShardPolicy {
        ShardPolicy::Static(0)
    }
}

/// Which system is being measured.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Config {
    /// Native Linux ("Linux").
    NativeLinux,
    /// Driver domain on Xen ("dom0").
    XenDom0,
    /// Unoptimised Xen guest ("domU").
    XenGuest,
    /// TwinDrivers guest ("domU-twin").
    TwinDrivers,
}

impl Config {
    /// All four, in the paper's bar order.
    pub const ALL: [Config; 4] = [
        Config::XenGuest,
        Config::TwinDrivers,
        Config::XenDom0,
        Config::NativeLinux,
    ];

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            Config::NativeLinux => "Linux",
            Config::XenDom0 => "dom0",
            Config::XenGuest => "domU",
            Config::TwinDrivers => "domU-twin",
        }
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Options for building a [`System`].
#[derive(Clone, Debug)]
pub struct SystemOptions {
    /// Rewriter configuration (TwinDrivers only).
    pub rewrite: RewriteOptions,
    /// Number of fast-path routines forced onto the upcall path
    /// (Figure 10; 0 = the paper's best configuration).
    pub upcall_count: usize,
    /// Bytes of the guest packet copied into the dom0 sk_buff header on
    /// transmit (paper §5.3 uses "up to the first 96 bytes").
    pub header_copy_bytes: u32,
    /// Enable the IOMMU extension (paper §4.5 proposes it as the fix for
    /// DMA attacks; not in the paper's implementation).
    pub iommu: bool,
    /// sk_buff pool sizes.
    pub pool_size: usize,
    /// Alternative driver assembly source (fault-injection experiments);
    /// `None` uses the stock e1000 driver.
    pub driver_source: Option<String>,
    /// Number of NICs the system drives (clamped to
    /// 1..=[`e1000::MAX_NICS`]). Each gets its own MMIO window, rings,
    /// IRQ line, softirq source and adapter slot.
    pub num_nics: usize,
    /// How traffic maps to NICs when `num_nics > 1`.
    pub shard: ShardPolicy,
    /// Per-guest fairness quantum for the receive demux flush: at most
    /// this many frames are copied into one guest per round before every
    /// other pending guest gets its virtual interrupt, so a flooding
    /// guest cannot starve others' virq latency. The guest-stack wakeup
    /// cost still amortises across the whole flush, so per-packet cycle
    /// figures are unchanged; only backlogs beyond the quantum pay an
    /// extra (cheap) virq per round.
    pub rx_flush_quantum: usize,
    /// How upcalls to dom0 execute (TwinDrivers only):
    /// [`UpcallMode::Sync`] is the paper's per-call switch-pair (the
    /// default — cycle-exact with the pre-engine path);
    /// [`UpcallMode::Deferred`] queues policy-eligible calls and drains
    /// the ring in one switch-pair at the end of each burst pass (or on
    /// queue-full/high-water), amortizing the two switches per *flush*.
    pub upcall_mode: UpcallMode,
    /// Deferred-upcall ring capacity in entries (clamped to the mapped
    /// ring: 1..=[`twin_xen::UPCALL_RING_SLOTS`]). Enqueueing at
    /// capacity forces a flush first.
    pub upcall_queue_capacity: usize,
    /// Interrupt-moderation interval programmed into every NIC's `ITR`
    /// register at build time, in [`twin_nic::ITR_UNIT_CYCLES`]-cycle
    /// units (the real part's 256 ns granularity). 0 — the default —
    /// disables moderation and is cycle-exact with the unmoderated
    /// path. Per-device values can be set later with
    /// [`System::set_itr`].
    pub itr: u32,
    /// Deadline-driven upcall flush (deferred mode only): the first
    /// enqueue into an empty ring arms a virtual timer this many cycles
    /// ahead, so an idle system's queued upcalls complete within the
    /// deadline even when no burst-pass flush point arrives. `None`
    /// (the default) disables the timer and is cycle-exact with the
    /// PR 3 path.
    pub upcall_flush_deadline_cycles: Option<u64>,
    /// Closed-loop per-device `ITR` auto-tuning
    /// ([`twin_nic::ItrTuner`], modeled on Linux's `e1000_update_itr`
    /// state machine): every [`twin_nic::AUTOTUNE_WINDOW_CYCLES`] of
    /// virtual time each device's receive counters are classified into
    /// a latency regime and the `ITR` register is stepped one
    /// [`twin_nic::ITR_LADDER`] rung toward that regime's target,
    /// through the same MMIO path [`System::set_itr`] uses. `false`
    /// (the default) leaves whatever [`SystemOptions::itr`] programmed
    /// untouched and is cycle-exact with the static path.
    pub itr_autotune: bool,
    /// Zero-copy grant-mapped datapath (guest configurations): RX/TX
    /// buffer pools are granted once, mapped on first touch through the
    /// [`twin_xen::GrantCache`] and recycled via an index ring, so the
    /// per-packet grant-copy (and the baseline path's per-buffer
    /// map/unmap pair) disappears in steady state. Frames that cross a
    /// protection domain anyway — oversized, pool-exhausted, or headed
    /// to a guest whose pool was never granted — take the copy
    /// fallback. `false` (the default) is cycle-exact with the copy
    /// path.
    pub zero_copy: bool,
    /// Pool slots granted per guest in zero-copy mode, per flow
    /// direction: a flow that lands more frames than this in one flush
    /// pass overflows its slice of the pool and the excess falls back
    /// to copies (clamped to 1..=[`MAX_BURST`]).
    pub zero_copy_pool_frames: usize,
    /// NAPI-style interrupt→poll mode switching (TwinDrivers only): the
    /// poll weight — the real `e1000_clean` budget — in frames per poll
    /// pass. When non-zero, an RX interrupt acks the cause, masks the
    /// device via `IMC` and hands the ring to a budgeted softirq poll
    /// loop; interrupts re-arm via `IMS` only when a pass drains below
    /// this weight. Under sustained overload the device takes **one**
    /// interrupt instead of one per burst — the canonical
    /// receive-livelock defence. 0 (the default) keeps the pure
    /// interrupt path, bit-exact with every prior baseline. Poll mode
    /// takes precedence over the `ITR` moderation latch: a masked
    /// device never joins the moderated-pending set.
    pub napi_weight: usize,
    /// Per-guest weights for the receive-demux flush's deficit-round-
    /// robin accounting, as `(domain id, weight)` pairs: each round a
    /// guest's deficit grows by `rx_flush_quantum × weight` frames and
    /// it is served up to its deficit. Guests not listed (and every
    /// guest when the list is empty — the default) get weight 1, which
    /// is exactly the PR 2 quantum behaviour, bit-exact.
    pub guest_weights: Vec<(u32, u32)>,
    /// Early-drop admission watermark (frames): when a guest's demux
    /// backlog reaches this bound, further frames toward it are dropped
    /// at RX-descriptor refill time — *before* the ring, the reap and
    /// the demux spend anything on them — for a compare and a counter
    /// bump ([`twin_machine::CostParams::early_drop`]). `None` (the
    /// default) admits everything, bit-exact with the prior path.
    pub rx_backlog_watermark: Option<usize>,
    /// Bound on each guest's demux queue ([`twin_xen::Domain`]
    /// `rx_queue`): past it the demux drops frames *after* the reap
    /// work is spent — the receive-livelock drop point the open-loop
    /// harness measures. `None` (the default) keeps the queue
    /// unbounded, bit-exact with the prior path.
    pub rx_queue_cap: Option<usize>,
    /// Enable the flight recorder ([`twin_trace::FlightRecorder`]) at
    /// build time. Recording is pure bookkeeping outside the charged
    /// path — a traced run's cycle accounting, wire frames and stats are
    /// bit-identical to an untraced run's — so this knob only controls
    /// whether the event ring fills. `false` (the default) records
    /// nothing. Can also be toggled later with [`System::set_tracing`].
    pub tracing: bool,
    /// Driver fault quarantine + live recovery (TwinDrivers only): when
    /// a hypervisor-driver call faults (SVM illegal access, wedged-ring
    /// dereference, or execution-watchdog budget exhaustion), quarantine
    /// the faulted *device* instead of sticky-aborting the shared image
    /// — tear down its leaked state (cached grants, queued deferred
    /// upcalls, NAPI/moderation latches, ring skbs, watchdog timer) with
    /// bounded in-flight accounting, then reset and resume it on the
    /// next call while sibling NICs keep serving. `false` (the default)
    /// keeps the paper's §4.5 sticky abort (now leak-free) and is
    /// bit-exact with every prior baseline on fault-free runs.
    pub fault_recovery: bool,
    /// vCPU scheduler model ([`twin_sched::VcpuSched`], TwinDrivers
    /// only): per-guest run/sleep schedules on the virtual clock, a run
    /// queue per physical CPU and a static CPU↔NIC-softirq topology
    /// map. When set, placement ([`ShardPolicy::Affinity`]), NAPI poll
    /// budgets, DRR flush grants and ITR idle accounting all follow the
    /// scheduler, and deliveries pay
    /// [`twin_machine::CostParams::cold_delivery_refill`] when they run
    /// far from the owning guest's vCPU. vCPUs are registered at run
    /// time with [`System::sched_add_vcpu`]. `None` (the default)
    /// compiles the machinery out of every decision and is bit-exact
    /// with every prior baseline.
    pub sched: Option<SchedOptions>,
}

impl Default for SystemOptions {
    fn default() -> SystemOptions {
        SystemOptions {
            rewrite: RewriteOptions::default(),
            upcall_count: 0,
            header_copy_bytes: 96,
            iommu: false,
            pool_size: 1024,
            driver_source: None,
            num_nics: 1,
            shard: ShardPolicy::default(),
            rx_flush_quantum: 64,
            upcall_mode: UpcallMode::Sync,
            upcall_queue_capacity: 128,
            itr: 0,
            upcall_flush_deadline_cycles: None,
            itr_autotune: false,
            zero_copy: false,
            zero_copy_pool_frames: 64,
            napi_weight: 0,
            guest_weights: Vec::new(),
            rx_backlog_watermark: None,
            rx_queue_cap: None,
            tracing: false,
            fault_recovery: false,
            sched: None,
        }
    }
}

/// One quarantine episode in progress: the fault was detected and the
/// device torn down, but [`System::recover_device`] has not run yet.
#[derive(Clone, Debug)]
struct QuarantineEpisode {
    /// Abort reason from [`twin_xen::hyperdrv::abort_reason_for`].
    reason: String,
    /// Virtual-clock stamp at quarantine entry.
    at: u64,
    /// Queued deferred upcalls replayed natively during teardown.
    replayed: u32,
    /// Upcalls discarded plus in-flight frames lost — the bounded loss.
    dropped: u32,
    /// Domains whose zero-copy grants were revoked, owed a re-grant.
    revoked_doms: Vec<u32>,
    /// Grant mappings revoked (each paid its `grant_unmap`).
    revoked_mappings: usize,
}

/// Outcome of one fault → quarantine → recovery episode, as returned by
/// [`System::recover_device`] and kept in [`System::recovery_log`]. All
/// stamps are virtual-clock cycles, so `recovered_at - quarantined_at`
/// is the recovery latency the fault sweep measures.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// The recovered device.
    pub dev: u32,
    /// The abort reason that triggered the episode.
    pub reason: String,
    /// Virtual-clock stamp at quarantine entry.
    pub quarantined_at: u64,
    /// Virtual-clock stamp when the device re-entered service.
    pub recovered_at: u64,
    /// Queued deferred upcalls replayed natively during teardown.
    pub replayed: u32,
    /// Upcalls discarded plus in-flight frames lost — the bounded,
    /// counted loss for this episode.
    pub dropped: u32,
    /// Grant mappings revoked at quarantine (re-granted on recovery).
    pub revoked_mappings: usize,
}

/// Errors surfaced by system construction or packet operations.
#[derive(Debug)]
pub enum SystemError {
    /// Machine fault (outside the hypervisor driver).
    Fault(Fault),
    /// The hypervisor driver was aborted (SVM caught an illegal access,
    /// watchdog fired, …). The hypervisor itself keeps running.
    DriverAborted(String),
    /// Driver assembly/rewriting/loading failed.
    Build(String),
    /// The NIC receive ring had no buffers.
    RxRingFull,
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Fault(e) => write!(f, "machine fault: {e}"),
            SystemError::DriverAborted(r) => write!(f, "hypervisor driver aborted: {r}"),
            SystemError::Build(r) => write!(f, "system build failed: {r}"),
            SystemError::RxRingFull => write!(f, "receive ring out of buffers"),
        }
    }
}

impl Error for SystemError {}

impl From<Fault> for SystemError {
    fn from(e: Fault) -> SystemError {
        SystemError::Fault(e)
    }
}

/// The mutable environment: dom0 kernel, devices, hypervisor pieces.
/// Implements [`Env`]; extern dispatch is selected by the executing
/// privilege mode, which is equivalent to the paper's per-instance symbol
/// resolution (§5.2).
#[derive(Debug)]
pub struct World {
    /// The dom0 kernel model.
    pub kernel: Dom0Kernel,
    /// NIC device models.
    pub nics: Vec<Nic>,
    /// The hypervisor (absent for native Linux).
    pub xen: Option<Xen>,
    /// Hypervisor support routines + upcalls (TwinDrivers only).
    pub hyper: Option<HyperSupport>,
    /// Identity SVM for the VM instance of the rewritten driver.
    pub svm_vm: Option<Svm>,
    /// Hypervisor SVM for the hypervisor instance.
    pub svm_hyp: Option<Svm>,
    /// Optional IOMMU (extension).
    pub iommu: Option<Iommu>,
}

impl Env for World {
    fn extern_call(&mut self, name: &str, m: &mut Machine, cpu: &mut Cpu) -> Result<(), Fault> {
        if cpu.mode == ExecMode::Hypervisor {
            if let (Some(hyper), Some(xen), Some(svm)) = (
                self.hyper.as_mut(),
                self.xen.as_mut(),
                self.svm_hyp.as_mut(),
            ) {
                if let Some(r) = hyper.handle_extern(name, m, cpu, &mut self.kernel, xen, svm) {
                    return r;
                }
            }
            return Err(Fault::UnknownExtern(name.to_string()));
        }
        // Guest mode: dom0 context. The VM instance of a rewritten driver
        // resolves the SVM helpers to the identity table (paper §5.1.2).
        match name {
            SLOW_PATH_SYMBOL => {
                let svm = self
                    .svm_vm
                    .as_mut()
                    .ok_or_else(|| Fault::UnknownExtern(name.to_string()))?;
                let addr = cpu.arg(m, 0)? as u64;
                svm.slow_path(m, addr)?;
                Ok(())
            }
            CALL_XLAT_SYMBOL => {
                let svm = self
                    .svm_vm
                    .as_mut()
                    .ok_or_else(|| Fault::UnknownExtern(name.to_string()))?;
                let t = cpu.arg(m, 0)? as u64;
                let x = svm.translate_call(m, t)?;
                cpu.set_reg(twin_isa::Reg::Eax, x as u32);
                Ok(())
            }
            twin_rewriter::STACK_CHECK_SYMBOL => Ok(()),
            _ => match self.kernel.handle_extern(name, m, cpu) {
                Some(r) => r,
                None => Err(Fault::UnknownExtern(name.to_string())),
            },
        }
    }

    fn mmio_read(
        &mut self,
        _m: &mut Machine,
        dev: u32,
        offset: u64,
        _w: twin_isa::Width,
    ) -> Result<u32, Fault> {
        Ok(self.nics[dev as usize].mmio_read(offset))
    }

    fn mmio_write(
        &mut self,
        m: &mut Machine,
        dev: u32,
        offset: u64,
        _w: twin_isa::Width,
        val: u32,
    ) -> Result<(), Fault> {
        if offset == twin_nic::regs::TDT {
            // The posted doorbell write: one per driver kick, however
            // many descriptors the tail move covers (the burst metric).
            m.meter.count_event("doorbell");
            if let Some(iommu) = &mut self.iommu {
                iommu.check_tx_ring(m, &mut self.nics[dev as usize], val)?;
            }
        }
        if offset == twin_nic::regs::RDT {
            // Posted RX buffers are DMA-write targets: validate them at
            // the same doorbell boundary the TX ring gets.
            if let Some(iommu) = &mut self.iommu {
                iommu.check_rx_ring(m, &mut self.nics[dev as usize], val)?;
            }
        }
        self.nics[dev as usize].mmio_write(&mut m.phys, offset, val);
        Ok(())
    }
}

/// One fully constructed, measurable system.
#[derive(Debug)]
pub struct System {
    /// The simulated machine.
    pub machine: Machine,
    /// Kernel, devices and hypervisor pieces.
    pub world: World,
    /// Which configuration this is.
    pub config: Config,
    /// The dom0 / native driver instance.
    pub driver: LoadedDriver,
    /// The derived hypervisor driver (TwinDrivers only).
    pub hyperdrv: Option<HypervisorDriver>,
    /// Rewrite statistics (TwinDrivers only).
    pub rewrite_stats: Option<RewriteStats>,
    /// net_device pointer of NIC 0 (the single-NIC fast path).
    pub netdev: u64,
    /// net_device pointers, one per NIC in device order.
    pub netdevs: Vec<u64>,
    /// The measured guest (guest configurations).
    pub guest: Option<DomId>,
    /// Per-round log of the most recent receive-demux flush:
    /// `(round, guest, frames delivered)` — the fairness quantum's
    /// observable behaviour (a starved guest would only appear in late
    /// rounds).
    pub rx_flush_log: Vec<(usize, DomId, usize)>,
    /// Traffic-to-NIC mapping.
    shard: ShardPolicy,
    /// Round-robin cursor for [`ShardPolicy::RoundRobin`].
    rr_next: u32,
    /// Per-guest flush quantum (see [`SystemOptions::rx_flush_quantum`]).
    rx_flush_quantum: usize,
    /// Devices holding a latched interrupt cause whose moderation window
    /// is still closed: the virtual moderation timer delivers them when
    /// the window opens (no delivery is ever lost — the `ICR` cause
    /// stays latched in hardware meanwhile).
    moderated_pending: Vec<u32>,
    /// Per-device closed-loop `ITR` tuners, one per NIC in device order
    /// when [`SystemOptions::itr_autotune`] is set; empty otherwise (the
    /// static-knob path, untouched).
    itr_tuners: Vec<ItrTuner>,
    /// Per-device gated-wait anchor `(rx_packets, cycles)` captured when
    /// a device's latched cause starts waiting on its moderation
    /// window. Resolved when the wait ends: a wait whose arrival rate
    /// stayed below the busy floor is reported to the tuner as idle
    /// time (the wait of a *quiet* gated device is load-idleness; the
    /// wait of a backlogged one is not). Parallel to `itr_tuners`
    /// (empty when auto-tuning is off) — pure bookkeeping, no cycles.
    gate_anchors: Vec<Option<(u64, u64)>>,
    /// Arrival stamp (virtual cycles) per in-flight received frame,
    /// keyed by `(flow, seq)`; matched off by
    /// [`System::sample_rx_completions`].
    rx_inflight: BTreeMap<(u32, u64), u64>,
    /// Cycles-to-delivery samples for frames completed in the current
    /// measurement window (the latency side of the moderation sweep) —
    /// a bounded reservoir, so arbitrarily long paced runs keep a fixed
    /// footprint while every committed sweep stays exact (it holds far
    /// fewer samples than [`crate::measure::RX_LATENCY_RESERVOIR`]).
    rx_latency: crate::measure::SampleReservoir,
    /// Per-endpoint cursors into the delivered-frame logs (`u32::MAX`
    /// keys the dom0 stack, domain ids key the guests).
    rx_sample_cursors: BTreeMap<u32, usize>,
    /// Zero-copy mode ([`SystemOptions::zero_copy`]).
    zero_copy: bool,
    /// Pool slots per guest per flow direction
    /// ([`SystemOptions::zero_copy_pool_frames`]).
    zc_pool_frames: usize,
    /// Live grant mappings of the zero-copy pools (`None` when the mode
    /// is off — the copy path allocates nothing).
    grant_cache: Option<GrantCache>,
    /// Domains whose zero-copy pool has been granted: the build grants
    /// the primary guest; later guests opt in via
    /// [`System::grant_zero_copy_pool`]. Frames toward an ungranted
    /// domain take the copy fallback.
    zc_granted: std::collections::BTreeSet<u32>,
    /// Which NIC last carried each RX flow (recorded where the wire
    /// side shards, read where grant work loses the device) — pure
    /// bookkeeping behind the per-device grant attribution.
    rx_flow_dev: BTreeMap<u32, u32>,
    /// NAPI poll weight ([`SystemOptions::napi_weight`]; 0 = off).
    napi_weight: usize,
    /// Per-device poll-mode flag: `true` while the device's RX
    /// interrupt is masked and the budgeted poll loop owns its ring.
    /// Empty when NAPI is off — the interrupt path allocates nothing.
    poll_mode: Vec<bool>,
    /// Virtual-clock stamp of each device's current poll-mode entry
    /// (`None` when interrupt-driven). Pure bookkeeping for the
    /// poll-mode-residency metric; parallel to `poll_mode`.
    poll_entered_at: Vec<Option<u64>>,
    /// Accumulated poll-mode residency per device, in virtual cycles
    /// over completed episodes; [`System::poll_mode_cycles`] adds the
    /// in-progress episode. Parallel to `poll_mode`.
    poll_cycles: Vec<u64>,
    /// DRR weights per guest domain id (absent = weight 1).
    guest_weights: BTreeMap<u32, u32>,
    /// Deficit-round-robin counters (frames) per guest domain id,
    /// carried across flush rounds; reset when a guest's queue drains.
    drr_deficit: BTreeMap<u32, u64>,
    /// Early-drop admission watermark
    /// ([`SystemOptions::rx_backlog_watermark`]).
    rx_watermark: Option<usize>,
    /// Frames dropped at the admission watermark, per guest domain id.
    rx_early_drops: BTreeMap<u32, u64>,
    /// Demux queue cap applied to every guest
    /// ([`SystemOptions::rx_queue_cap`]), kept so guests added later
    /// inherit it.
    rx_queue_cap: Option<usize>,
    /// Per-guest latency reservoirs (keyed by domain id), populated
    /// alongside the aggregate reservoir when enabled via
    /// [`System::track_guest_latency`] — the well-behaved-guest p99 the
    /// livelock acceptance is about. Off (and allocation-free) by
    /// default.
    guest_latency: Option<BTreeMap<u32, crate::measure::SampleReservoir>>,
    /// Per-device quarantine + live recovery
    /// ([`SystemOptions::fault_recovery`]; `false` keeps the sticky
    /// abort).
    fault_recovery: bool,
    /// Episodes between fault detection and recovery, keyed by device.
    /// Empty on fault-free runs — allocates nothing.
    quarantine: BTreeMap<u32, QuarantineEpisode>,
    /// Completed recovery reports in episode order — pure bookkeeping
    /// (never charged), the fault sweep's latency source.
    recovery_log: Vec<RecoveryReport>,
    /// vCPU scheduler model ([`SystemOptions::sched`]; `None` — the
    /// default — allocates nothing and leaves every decision on the
    /// scheduler-oblivious path).
    sched: Option<VcpuSched>,
    /// Sticky [`ShardPolicy::Affinity`] placements: flow → device.
    /// Populated only with the scheduler on; FlowHash fallback flows
    /// are never recorded.
    affinity_flow_dev: BTreeMap<u32, u32>,
    /// Virtual-clock stamp of each guest's last flow migration — the
    /// hysteresis clock bounding how often placements may follow the
    /// scheduler.
    affinity_moved_at: BTreeMap<u32, u64>,
    /// Per-guest `(placements, migrations)` counters for the `sched.*`
    /// metrics.
    affinity_stats: BTreeMap<u32, (u64, u64)>,
    dom0: SpaceId,
    dom0_stack_top: u64,
    guest_tx_frag: u64,
    header_copy: u32,
    seq: u64,
    /// Dom0 VA of the `skb*[MAX_BURST]` array handed to
    /// `e1000_xmit_batch` (both driver instances read it — it lives in
    /// dom0 memory like all driver data).
    tx_batch_buf: u64,
}

impl System {
    /// Builds a system in the given configuration with default options.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Build`] when the driver cannot be
    /// assembled, rewritten or loaded.
    pub fn build(config: Config) -> Result<System, SystemError> {
        System::build_with(config, &SystemOptions::default())
    }

    /// Builds a system driving `nics` NICs under `shard`, with all other
    /// options at their defaults (the multi-NIC sweep entry point).
    ///
    /// # Errors
    ///
    /// See [`System::build`].
    pub fn build_sharded(
        config: Config,
        nics: usize,
        shard: ShardPolicy,
    ) -> Result<System, SystemError> {
        System::build_with(
            config,
            &SystemOptions {
                num_nics: nics,
                shard,
                ..SystemOptions::default()
            },
        )
    }

    /// Number of NICs this system drives.
    pub fn nic_count(&self) -> usize {
        self.world.nics.len()
    }

    /// True when more than one NIC is attached: driver invocations then
    /// go through the device-id-taking entry points.
    fn multi_nic(&self) -> bool {
        self.world.nics.len() > 1
    }

    /// net_device pointer for a NIC.
    fn netdev_of(&self, dev: u32) -> u64 {
        self.netdevs[dev as usize]
    }

    /// Splits one burst's frames into per-NIC groups under the sharding
    /// policy. Order within a group preserves arrival order, so per-flow
    /// order is preserved whenever a flow maps to a single NIC (always,
    /// for every policy here).
    fn shard_frames(&mut self, frames: Vec<Frame>) -> Vec<(u32, Vec<Frame>)> {
        let n = self.world.nics.len() as u32;
        if n == 1 {
            return vec![(0, frames)];
        }
        match self.shard {
            ShardPolicy::Static(dev) => vec![(dev.min(n - 1), frames)],
            ShardPolicy::RoundRobin => {
                let dev = self.rr_next % n;
                self.rr_next = (self.rr_next + 1) % n;
                vec![(dev, frames)]
            }
            ShardPolicy::FlowHash => {
                let mut groups: Vec<(u32, Vec<Frame>)> = Vec::new();
                for f in frames {
                    let dev = (f.flow.wrapping_mul(2_654_435_761) >> 16) % n;
                    match groups.iter_mut().find(|(d, _)| *d == dev) {
                        Some((_, v)) => v.push(f),
                        None => groups.push((dev, vec![f])),
                    }
                }
                groups
            }
            ShardPolicy::Affinity => {
                let mut groups: Vec<(u32, Vec<Frame>)> = Vec::new();
                for f in frames {
                    let dev = self.affinity_dev(&f, n);
                    match groups.iter_mut().find(|(d, _)| *d == dev) {
                        Some((_, v)) => v.push(f),
                        None => groups.push((dev, vec![f])),
                    }
                }
                groups
            }
        }
    }

    /// Device choice for one frame under [`ShardPolicy::Affinity`].
    ///
    /// Flows that cannot be tied to a scheduled vCPU — the scheduler
    /// model is off, the frame is not guest-bound, or the guest has no
    /// registered vCPU — take the exact [`ShardPolicy::FlowHash`]
    /// placement, so the policy is FlowHash-equivalent whenever the
    /// scheduler is disabled. Scheduled flows stick to a NIC whose
    /// softirq CPU matches the guest's vCPU; when the scheduler has
    /// moved the guest, the flow follows only after the configured
    /// hysteresis interval *and* once the old device's RX ring is
    /// drained — frames still queued there would overtake the migrated
    /// ones and break per-flow order.
    fn affinity_dev(&mut self, f: &Frame, n: u32) -> u32 {
        let hash16 = f.flow.wrapping_mul(2_654_435_761) >> 16;
        let hash_dev = hash16 % n;
        if self.sched.is_none() {
            return hash_dev;
        }
        // Only guest-bound RX frames are steered: delivery locality is
        // a receive-side property (NIC softirq CPU vs the owning
        // guest's vCPU). TX and non-guest frames keep the oblivious
        // hash, so the wire interleave never depends on the scheduler.
        let Some(g) = self.world.xen.as_ref().and_then(|x| {
            x.domains
                .iter()
                .find(|d| d.kind == DomainKind::Guest && d.mac == f.dst)
                .map(|d| d.id.0)
        }) else {
            return hash_dev;
        };
        let sched = self.sched.as_ref().expect("checked above");
        let Some(cpu) = sched.cpu_of(g) else {
            return hash_dev;
        };
        let local: Vec<u32> = (0..n).filter(|&d| sched.nic_cpu(d) == cpu).collect();
        let target = if local.is_empty() {
            hash_dev
        } else {
            // Spread a guest's flows across its local NICs by the same
            // hash the oblivious policy uses.
            local[hash16 as usize % local.len()]
        };
        let hysteresis = sched.options().affinity_hysteresis;
        match self.affinity_flow_dev.get(&f.flow).copied() {
            None => {
                self.affinity_flow_dev.insert(f.flow, target);
                let stats = self.affinity_stats.entry(g).or_insert((0, 0));
                stats.0 += 1;
                self.machine.meter.count_event("affinity_place");
                if self.machine.trace.enabled() {
                    self.machine.trace_event(TraceEvent::AffinityPlace {
                        guest: g,
                        flow: f.flow,
                        dev: target,
                    });
                }
                target
            }
            Some(cur) if cur == target => cur,
            Some(cur) => {
                let now = self.machine.meter.now();
                let moved_at = self.affinity_moved_at.get(&g).copied().unwrap_or(0);
                let old_ring_drained = self.world.nics[cur as usize].rx_pending() == 0;
                if now.saturating_sub(moved_at) >= hysteresis && old_ring_drained {
                    self.affinity_flow_dev.insert(f.flow, target);
                    self.affinity_moved_at.insert(g, now);
                    let stats = self.affinity_stats.entry(g).or_insert((0, 0));
                    stats.1 += 1;
                    self.machine.meter.count_event("affinity_migrate");
                    if self.machine.trace.enabled() {
                        self.machine.trace_event(TraceEvent::AffinityMigrate {
                            guest: g,
                            flow: f.flow,
                            from_dev: cur,
                            to_dev: target,
                        });
                    }
                    target
                } else {
                    cur
                }
            }
        }
    }

    /// Builds a system with explicit options.
    ///
    /// # Errors
    ///
    /// See [`System::build`].
    pub fn build_with(config: Config, opts: &SystemOptions) -> Result<System, SystemError> {
        let source = opts.driver_source.clone().unwrap_or_else(e1000::source);
        let module = assemble("e1000", &source).map_err(|e| SystemError::Build(e.to_string()))?;

        let num_nics = opts.num_nics.clamp(1, e1000::MAX_NICS);
        let mut machine = Machine::new();
        let dom0 = machine.new_space();
        // One MMIO window per device, contiguous in dom0's address space
        // (`ioremap(dev)` hands out `MMIO_BASE + dev * MMIO_WINDOW`).
        for dev in 0..num_nics as u64 {
            for p in 0..(MMIO_WINDOW / PAGE_SIZE) {
                machine.space_mut(dom0).map(
                    MMIO_BASE + dev * MMIO_WINDOW + p * PAGE_SIZE,
                    PageEntry::mmio(dev as u32, p),
                );
            }
        }
        machine.map_stack(
            dom0,
            twin_kernel::DOM0_STACK_BASE,
            twin_kernel::DOM0_STACK_PAGES,
        )?;
        let dom0_stack_top =
            twin_kernel::DOM0_STACK_BASE + twin_kernel::DOM0_STACK_PAGES * PAGE_SIZE;
        // Each extra NIC posts 127 RX buffers at open; grow the pool so
        // multi-NIC systems keep the same transmit headroom as one NIC.
        let pool_size = opts.pool_size + 256 * (num_nics - 1);
        let kernel = Dom0Kernel::new(&mut machine, dom0, pool_size)?;
        let nics: Vec<Nic> = (0..num_nics as u32)
            .map(|dev| {
                // NIC 0 keeps dom0's classic MAC (the degenerate path is
                // bit-identical); extra NICs get their own hardware MACs.
                let mac = if dev == 0 {
                    MacAddr::for_guest(0)
                } else {
                    MacAddr::for_nic(dev)
                };
                Nic::new(dev, mac)
            })
            .collect();

        let mut world = World {
            kernel,
            nics,
            xen: None,
            hyper: None,
            svm_vm: None,
            svm_hyp: None,
            iommu: None,
        };

        // Xen present for everything but native Linux.
        if config != Config::NativeLinux {
            world.xen = Some(Xen::new(dom0));
        }

        // The driver module: original for the baselines, rewritten for
        // TwinDrivers (the same rewritten binary serves both instances,
        // paper §5.1.2).
        let (drv_module, rewrite_stats) = if config == Config::TwinDrivers {
            let out =
                rewrite(&module, &opts.rewrite).map_err(|e| SystemError::Build(e.to_string()))?;
            (out.module, Some(out.stats))
        } else {
            (module, None)
        };

        if config == Config::TwinDrivers {
            world.svm_vm = Some(Svm::new_identity(&mut machine, dom0, IDENTITY_STLB_BASE)?);
        }

        let identity_base = world.svm_vm.as_ref().map(|s| s.placement().base);
        let driver = load_driver(
            &mut machine,
            dom0,
            &drv_module,
            VM_CODE_BASE,
            DRIVER_DATA_BASE,
            |name| {
                if name == twin_svm::STLB_SYMBOL {
                    identity_base
                } else {
                    None
                }
            },
        )
        .map_err(|e| SystemError::Build(e.to_string()))?;

        let mut sys = System {
            machine,
            world,
            config,
            driver,
            hyperdrv: None,
            rewrite_stats,
            netdev: 0,
            netdevs: Vec::new(),
            guest: None,
            rx_flush_log: Vec::new(),
            shard: opts.shard,
            rr_next: 0,
            rx_flush_quantum: opts.rx_flush_quantum,
            moderated_pending: Vec::new(),
            itr_tuners: Vec::new(),
            gate_anchors: Vec::new(),
            rx_inflight: BTreeMap::new(),
            rx_latency: crate::measure::SampleReservoir::new(crate::measure::RX_LATENCY_RESERVOIR),
            rx_sample_cursors: BTreeMap::new(),
            zero_copy: opts.zero_copy,
            zc_pool_frames: opts.zero_copy_pool_frames.clamp(1, MAX_BURST),
            grant_cache: None,
            zc_granted: std::collections::BTreeSet::new(),
            rx_flow_dev: BTreeMap::new(),
            napi_weight: opts.napi_weight,
            poll_mode: if opts.napi_weight > 0 {
                vec![false; num_nics]
            } else {
                Vec::new()
            },
            poll_entered_at: if opts.napi_weight > 0 {
                vec![None; num_nics]
            } else {
                Vec::new()
            },
            poll_cycles: if opts.napi_weight > 0 {
                vec![0; num_nics]
            } else {
                Vec::new()
            },
            guest_weights: opts.guest_weights.iter().copied().collect(),
            drr_deficit: BTreeMap::new(),
            rx_watermark: opts.rx_backlog_watermark,
            rx_early_drops: BTreeMap::new(),
            rx_queue_cap: opts.rx_queue_cap,
            guest_latency: None,
            fault_recovery: opts.fault_recovery,
            quarantine: BTreeMap::new(),
            recovery_log: Vec::new(),
            sched: opts.sched.clone().map(VcpuSched::new),
            affinity_flow_dev: BTreeMap::new(),
            affinity_moved_at: BTreeMap::new(),
            affinity_stats: BTreeMap::new(),
            dom0,
            dom0_stack_top,
            guest_tx_frag: 0,
            header_copy: opts.header_copy_bytes.clamp(26, 1024),
            seq: 0,
            tx_batch_buf: 0,
        };
        if opts.tracing {
            sys.machine.trace.set_enabled(true);
        }

        // Initialise the VM instance in dom0 (paper §3.1: "we first load
        // the VM driver into the dom0 kernel where it performs the
        // initialization of the NIC and the driver data structures").
        // Probe selects adapter slot `dev`; open programs that device's
        // rings — one pass per NIC.
        for dev in 0..num_nics {
            let probe = sys.driver.entry("e1000_probe").unwrap();
            sys.call_dom0(probe, &[dev as u32], 50_000_000)?;
            let netdev = sys.world.kernel.registered_netdevs[dev];
            sys.netdevs.push(netdev);
            let open = sys.driver.entry("e1000_open").unwrap();
            sys.call_dom0(open, &[netdev as u32], 200_000_000)?;
        }
        sys.netdev = sys.netdevs[0];
        // Pointer array for burst transmits, in dom0 memory so both
        // driver instances can walk it.
        sys.tx_batch_buf = sys
            .world
            .kernel
            .heap
            .kmalloc(&mut sys.machine, (MAX_BURST * 4) as u64)?;
        // Interrupt moderation: program every device's ITR register
        // through the MMIO window. Skipped entirely at 0 so the
        // unmoderated build is bit-identical.
        if opts.itr != 0 {
            for dev in 0..num_nics as u32 {
                sys.set_itr(dev, opts.itr)?;
            }
        }
        // Closed-loop ITR auto-tuning: one tuner per device, anchored at
        // the current virtual time with the device's current counters.
        // The Vec stays empty when the knob is off, so the static path
        // is untouched.
        if opts.itr_autotune {
            let now = sys.machine.meter.now();
            sys.itr_tuners = sys
                .world
                .nics
                .iter()
                .map(|n| ItrTuner::new(now, AUTOTUNE_WINDOW_CYCLES, n))
                .collect();
            sys.gate_anchors = vec![None; num_nics];
        }

        // NAPI poll mode drives the hypervisor driver from softirq
        // context; only the TwinDrivers configuration has one.
        if opts.napi_weight > 0 && config != Config::TwinDrivers {
            return Err(SystemError::Build(
                "napi_weight requires the TwinDrivers configuration".into(),
            ));
        }

        // Quarantine + live recovery only makes sense where a
        // hypervisor driver can fault.
        if opts.fault_recovery && config != Config::TwinDrivers {
            return Err(SystemError::Build(
                "fault_recovery requires the TwinDrivers configuration".into(),
            ));
        }

        // The scheduler model drives guest-facing placement and service
        // decisions; only the TwinDrivers configuration demuxes to
        // scheduled guests.
        if opts.sched.is_some() && config != Config::TwinDrivers {
            return Err(SystemError::Build(
                "sched requires the TwinDrivers configuration".into(),
            ));
        }

        // Guest domain for the guest configurations.
        if matches!(config, Config::XenGuest | Config::TwinDrivers) {
            let gspace = sys.machine.new_space();
            let gid = sys
                .world
                .xen
                .as_mut()
                .expect("xen present")
                .add_guest(gspace, MacAddr::for_guest(1));
            if sys.rx_queue_cap.is_some() {
                sys.world.xen.as_mut().unwrap().domain_mut(gid).rx_queue_cap = sys.rx_queue_cap;
            }
            sys.guest = Some(gid);
            // The measured workload runs in the guest, so that is who is
            // on the CPU between packets.
            sys.world.xen.as_mut().unwrap().current = gid;
            // One guest payload page whose machine address the TX glue
            // chains as an sk_buff fragment (paper §5.3).
            sys.machine.map_fresh(gspace, GUEST_HEAP_BASE, 4)?;
            let t = sys
                .machine
                .translate(gspace, ExecMode::Guest, GUEST_HEAP_BASE, false)?;
            sys.guest_tx_frag = t.entry.pfn * PAGE_SIZE;
        }

        // TwinDrivers: derive and load the hypervisor instance.
        if config == Config::TwinDrivers {
            // The reserved pool backs RX replenishment for every NIC in
            // steady state (each swaps in ~128 buffers), so it scales
            // with the device count; one NIC keeps the paper's 512.
            sys.world
                .kernel
                .reserve_hypervisor_pool(&mut sys.machine, 512 * num_nics)?;
            let mut svm = Svm::new_hypervisor(&mut sys.machine, dom0, 0, (0, u64::MAX))?;
            let hyp = load_hypervisor_driver(
                &mut sys.machine,
                &drv_module,
                &sys.driver,
                svm.placement().base,
            )
            .map_err(|e| SystemError::Build(e.to_string()))?;
            svm.set_code_mapping((HYP_CODE_BASE - VM_CODE_BASE) as i64, hyp.code_range());
            sys.world.svm_hyp = Some(svm);
            let mut hs = HyperSupport::new();
            hs.set_upcall_count(opts.upcall_count);
            hs.engine.set_mode(opts.upcall_mode);
            hs.engine.set_capacity(
                opts.upcall_queue_capacity
                    .clamp(1, UPCALL_RING_SLOTS as usize),
            );
            hs.engine
                .set_flush_deadline(opts.upcall_flush_deadline_cycles);
            sys.world.hyper = Some(hs);
            sys.hyperdrv = Some(hyp);
            if opts.iommu {
                let mut iommu = Iommu::new();
                iommu.allow_space_frames(&sys.machine, dom0);
                if let Some(gid) = sys.guest {
                    let gspace = sys.world.xen.as_ref().unwrap().domain(gid).space;
                    iommu.allow_space_frames(&sys.machine, gspace);
                }
                sys.world.iommu = Some(iommu);
            }
        }

        // Baseline guest path: dom0 bridges instead of consuming locally.
        if config == Config::XenGuest {
            sys.world.kernel.rx_mode = RxMode::Bridge;
        }

        // Zero-copy datapath: the grant cache comes up empty (mappings
        // establish on first touch) and the primary guest's buffer pool
        // is granted and pre-pinned up front. Entirely absent when the
        // knob is off — the copy path allocates and charges nothing.
        if opts.zero_copy && matches!(config, Config::XenGuest | Config::TwinDrivers) {
            sys.grant_cache = Some(GrantCache::new(ZC_CACHE_CAPACITY));
            let gid = sys.guest.expect("guest configurations have a guest");
            sys.grant_zero_copy_pool(gid)?;
        }

        Ok(sys)
    }

    /// Runs a function of the dom0/native driver instance.
    fn call_dom0(&mut self, entry: u64, args: &[u32], budget: u64) -> Result<u32, SystemError> {
        call_function(
            &mut self.machine,
            &mut self.world,
            self.dom0,
            ExecMode::Guest,
            self.dom0_stack_top,
            entry,
            args,
            budget,
        )
        .map_err(SystemError::Fault)
    }

    /// Runs a function of the hypervisor driver instance, from the guest
    /// context, in hypervisor mode — no address-space switch, the core of
    /// the paper's performance claim. `dev` is the device the call
    /// drives: a fault is attributed to it, and in fault-recovery mode
    /// ([`SystemOptions::fault_recovery`]) a call toward a quarantined
    /// device first runs [`System::recover_device`] so traffic resumes
    /// transparently after the one errored invocation.
    fn call_hyperdrv(
        &mut self,
        entry: u64,
        args: &[u32],
        budget: u64,
        dev: u32,
    ) -> Result<u32, SystemError> {
        let hyp = self.hyperdrv.as_ref().expect("hypervisor driver");
        if let Some(reason) = &hyp.aborted {
            return Err(SystemError::DriverAborted(reason.clone()));
        }
        if hyp.is_quarantined(dev) {
            // Live recovery: reset the device and fall through into the
            // requested call on the rebuilt adapter slot.
            self.recover_device(dev)?;
        }
        let hyp = self.hyperdrv.as_ref().unwrap();
        let gid = self.guest.expect("guest");
        let gspace = self.world.xen.as_ref().unwrap().domain(gid).space;
        let stack_top = hyp.stack_top;
        let r = call_function(
            &mut self.machine,
            &mut self.world,
            gspace,
            ExecMode::Hypervisor,
            stack_top,
            entry,
            args,
            budget,
        );
        match r {
            Ok(v) => Ok(v),
            Err(fault) => {
                // SVM caught something (or the watchdog fired): the
                // hypervisor itself survives (paper §4.5).
                let reason = twin_xen::hyperdrv::abort_reason_for(&fault);
                self.machine.meter.count_event("driver_abort");
                if self.machine.trace.enabled() {
                    self.machine.trace_event(TraceEvent::FaultDetected {
                        dev,
                        reason: reason.clone(),
                    });
                }
                if self.fault_recovery {
                    // Quarantine the faulted device, not the image:
                    // siblings keep serving through the shared driver.
                    self.hyperdrv
                        .as_mut()
                        .unwrap()
                        .quarantine_device(dev, reason.clone());
                    self.machine.meter.count_event("quarantine_enter");
                    if self.machine.trace.enabled() {
                        self.machine
                            .trace_event(TraceEvent::QuarantineEnter { dev });
                    }
                    let at = self.machine.meter.now();
                    let (replayed, dropped, revoked_doms, revoked_mappings) =
                        self.fault_teardown(dev)?;
                    if self.machine.trace.enabled() {
                        self.machine.trace_event(TraceEvent::InflightAccounted {
                            dev,
                            replayed,
                            dropped,
                        });
                    }
                    self.quarantine.insert(
                        dev,
                        QuarantineEpisode {
                            reason: reason.clone(),
                            at,
                            replayed,
                            dropped,
                            revoked_doms,
                            revoked_mappings,
                        },
                    );
                } else {
                    // Sticky abort (the paper's §4.5 endpoint) — but
                    // "safe" must not mean "leaks": every device's
                    // grants, queued upcalls, poll latches and watchdogs
                    // are torn down, with one aggregated accounting
                    // event for the episode.
                    self.hyperdrv.as_mut().unwrap().abort(reason.clone());
                    let (mut replayed, mut dropped) = (0u32, 0u32);
                    for d in 0..self.world.nics.len() as u32 {
                        let (r, dr, _, _) = self.fault_teardown(d)?;
                        replayed += r;
                        dropped += dr;
                    }
                    if self.machine.trace.enabled() {
                        self.machine.trace_event(TraceEvent::InflightAccounted {
                            dev,
                            replayed,
                            dropped,
                        });
                    }
                }
                Err(SystemError::DriverAborted(reason))
            }
        }
    }

    /// Tears down the state a faulted driver leaves behind for one
    /// device: drains the deferred-upcall ring (replaying restorative
    /// frees/unlocks natively, discarding the rest — counted), disarms
    /// the flush-deadline, drops the device's in-flight frames, frees
    /// its ring-held skbs back to their pools (pool conservation across
    /// the reset), closes an open NAPI poll span, clears moderation
    /// latches, revokes every cached zero-copy grant (the faulted
    /// *image* touched all of them — the trust decision is per driver,
    /// re-granted per device on recovery), and disarms the device's
    /// watchdog so the wheel cannot fire a handler over the corrupted
    /// adapter slot. Returns `(replayed, dropped, revoked_doms,
    /// revoked_mappings)`.
    fn fault_teardown(&mut self, dev: u32) -> Result<(u32, u32, Vec<u32>, usize), SystemError> {
        let mut replayed = 0u32;
        let mut dropped = 0u32;
        // 1. The deferred-upcall ring: a queued free or unlock is state
        // dom0 is owed regardless of which device queued it — replay
        // those natively (charged as Xen cleanup work). Anything else is
        // discarded and counted. `drain` also disarms the flush-deadline
        // timer, so an idle system stops re-arming toward a dead ring.
        let drained = self
            .world
            .hyper
            .as_mut()
            .map(|hs| hs.engine.drain())
            .unwrap_or_default();
        for q in &drained {
            match q.routine.as_str() {
                "dev_kfree_skb_any" | "dev_kfree_skb" | "kfree_skb" => {
                    let skb = q.args.first().copied().unwrap_or(0);
                    if skb != 0 {
                        let m = &mut self.machine;
                        m.meter.charge_to(CostDomain::Xen, m.cost.skb_alloc / 2);
                        self.world
                            .kernel
                            .free_skb(&self.machine, SkBuff(u64::from(skb)))?;
                    }
                    replayed += 1;
                    self.machine.meter.count_event("upcall_replayed");
                }
                "spin_unlock_irqrestore" => {
                    let lock = q.args.first().copied().unwrap_or(0);
                    if lock != 0 {
                        let m = &mut self.machine;
                        m.meter.charge_to(CostDomain::Xen, m.cost.spinlock);
                        self.machine
                            .write_u32(self.dom0, ExecMode::Guest, u64::from(lock), 0)?;
                    }
                    replayed += 1;
                    self.machine.meter.count_event("upcall_replayed");
                }
                _ => {
                    dropped += 1;
                    self.machine.meter.count_event("upcall_discarded");
                }
            }
        }
        if let Some(hs) = self.world.hyper.as_mut() {
            hs.engine.prune_stale_completions();
        }
        // 2. In-flight frames on this device: their delivery stamps will
        // never match — bounded, counted loss.
        let before = self.rx_inflight.len();
        let flow_dev = &self.rx_flow_dev;
        self.rx_inflight
            .retain(|(flow, _), _| flow_dev.get(flow).copied().unwrap_or(0) != dev);
        let lost = (before - self.rx_inflight.len()) as u32;
        dropped += lost;
        for _ in 0..lost {
            self.machine.meter.count_event("inflight_lost");
        }
        // 3. Ring-held skbs: the reset re-probes the adapter slot and
        // re-fills both rings, so buffers the old rings hold must go
        // back to their pools first or every episode leaks a ring's
        // worth of pool. `e1000_clean_tx` nulls entries it frees, so
        // every non-null slot is live exactly once.
        let slot = self
            .driver
            .data_symbol("adapter")
            .map(|a| a + u64::from(dev) * e1000::ADAPTER_STRIDE);
        if let Some(slot) = slot {
            for &arr_off in &[e1000::adapter::TX_SKB, e1000::adapter::RX_SKB] {
                let arr = self
                    .machine
                    .read_u32(self.dom0, ExecMode::Guest, slot + arr_off)?;
                if arr == 0 {
                    continue;
                }
                for i in 0..e1000::RING_SIZE {
                    let p = u64::from(arr) + u64::from(i) * 4;
                    let skb = self.machine.read_u32(self.dom0, ExecMode::Guest, p)?;
                    if skb != 0 {
                        self.machine.write_u32(self.dom0, ExecMode::Guest, p, 0)?;
                        self.world
                            .kernel
                            .free_skb(&self.machine, SkBuff(u64::from(skb)))?;
                    }
                }
            }
        }
        // 4. NAPI: close an open poll span (the residency metric and
        // the chrome export both need the episode bounded); the IRQ
        // stays masked until the reset's `e1000_open` re-enables `IMS`.
        if self.napi_weight > 0 && self.poll_mode.get(dev as usize).copied().unwrap_or(false) {
            self.poll_mode[dev as usize] = false;
            let now = self.machine.meter.now();
            if let Some(entered) = self.poll_entered_at[dev as usize].take() {
                self.poll_cycles[dev as usize] += now.saturating_sub(entered);
            }
            self.machine.meter.count_event("napi_exit");
            if self.machine.trace.enabled() {
                self.machine.trace_event(TraceEvent::NapiComplete { dev });
            }
        }
        // 5. Moderation latches: a quarantined device owes no delivery.
        self.moderated_pending.retain(|d| *d != dev);
        if let Some(anchor) = self.gate_anchors.get_mut(dev as usize) {
            *anchor = None;
        }
        // 6. Zero-copy grants: the faulted image cached mappings for
        // every granted pool, so all of them outlive the trust decision
        // unless revoked (each pays its `grant_unmap`). Recovery
        // re-grants, reusing the still-mapped pool pages.
        let revoked_doms: Vec<u32> = self.zc_granted.iter().copied().collect();
        let mut revoked_mappings = 0usize;
        for d in &revoked_doms {
            revoked_mappings += self.revoke_zero_copy_grants(DomId(*d));
        }
        // 7. The device's watchdog: its handler would run the dom0
        // instance over the corrupted adapter slot at the next wheel
        // service. Re-probe re-arms it via `mod_timer`.
        if let Some(wd) = self.driver.entry("e1000_watchdog") {
            self.world
                .kernel
                .timers
                .disarm_where(|t| t.handler == wd && t.data == u64::from(dev));
        }
        Ok((replayed, dropped, revoked_doms, revoked_mappings))
    }

    /// Resets and resumes a quarantined device: re-runs `e1000_probe`
    /// (adapter-slot reconstruction, `request_irq`, watchdog re-arm) and
    /// `e1000_open` (ring reconstruction, `IMS` re-enable) through the
    /// dom0 instance — charged, so recovery latency is real virtual
    /// time — then re-grants the revoked zero-copy pools and releases
    /// the quarantine. Called automatically by the next driver
    /// invocation toward the device when
    /// [`SystemOptions::fault_recovery`] is set; callable directly for
    /// eager recovery.
    ///
    /// # Errors
    ///
    /// [`SystemError::Build`] if the device is not quarantined;
    /// propagates faults from the reset itself.
    pub fn recover_device(&mut self, dev: u32) -> Result<RecoveryReport, SystemError> {
        let Some(ep) = self.quarantine.remove(&dev) else {
            return Err(SystemError::Build(format!(
                "device {dev} is not quarantined"
            )));
        };
        let probe = self.driver.entry("e1000_probe").unwrap();
        self.call_dom0(probe, &[dev], 50_000_000)?;
        // `register_netdev` pushes: the re-probe's netdev is the newest.
        let netdev = *self.world.kernel.registered_netdevs.last().unwrap();
        self.netdevs[dev as usize] = netdev;
        if dev == 0 {
            self.netdev = netdev;
        }
        let open = self.driver.entry("e1000_open").unwrap();
        self.call_dom0(open, &[netdev as u32], 200_000_000)?;
        self.machine.meter.count_event("device_reset");
        if self.machine.trace.enabled() {
            self.machine.trace_event(TraceEvent::DeviceReset { dev });
        }
        for d in &ep.revoked_doms {
            self.grant_zero_copy_pool(DomId(*d))?;
        }
        self.hyperdrv
            .as_mut()
            .expect("quarantine implies a hypervisor driver")
            .release_device(dev);
        self.machine.meter.count_event("quarantine_exit");
        if self.machine.trace.enabled() {
            self.machine.trace_event(TraceEvent::QuarantineExit { dev });
        }
        let report = RecoveryReport {
            dev,
            reason: ep.reason,
            quarantined_at: ep.at,
            recovered_at: self.machine.meter.now(),
            replayed: ep.replayed,
            dropped: ep.dropped,
            revoked_mappings: ep.revoked_mappings,
        };
        self.recovery_log.push(report.clone());
        Ok(report)
    }

    /// Devices currently quarantined (empty on fault-free runs and in
    /// sticky-abort mode).
    pub fn quarantined_devices(&self) -> Vec<u32> {
        self.quarantine.keys().copied().collect()
    }

    /// Arms the driver's fault-injection hook: writes `value` into the
    /// driver's `fault_arm` data word (present only in sources built by
    /// [`crate::measure::fault_injected_source`]). The next fast-path
    /// invocation of the hypervisor instance *on behalf of device
    /// `value - 1`* sees the match, disarms the word (one-shot) and
    /// executes its fault body; invocations for other devices sail
    /// past. Use [`crate::measure::FaultClass::arm_value`].
    ///
    /// # Errors
    ///
    /// [`SystemError::Build`] when the loaded driver has no `fault_arm`
    /// hook (i.e. it was built from the stock source).
    pub fn arm_driver_fault(&mut self, value: u32) -> Result<(), SystemError> {
        let addr = self.driver.data_symbol("fault_arm").ok_or_else(|| {
            SystemError::Build(
                "driver has no fault_arm hook (build with fault_injected_source)".into(),
            )
        })?;
        self.machine
            .write_u32(self.dom0, ExecMode::Guest, addr, value)
            .map_err(SystemError::Fault)
    }

    /// Completed fault → quarantine → recovery episodes, in order.
    pub fn recovery_log(&self) -> &[RecoveryReport] {
        &self.recovery_log
    }

    /// Calls a hypervisor support routine directly (the paravirtual glue
    /// uses this for buffer management, so forced upcalls are exercised —
    /// Figure 10).
    fn call_support(&mut self, name: &str, args: &[u32]) -> Result<u32, SystemError> {
        let gid = self.guest.expect("guest");
        let gspace = self.world.xen.as_ref().unwrap().domain(gid).space;
        let mut cpu = Cpu::new(gspace, ExecMode::Hypervisor);
        cpu.set_stack(UPCALL_STACK_BASE + UPCALL_STACK_PAGES * PAGE_SIZE);
        cpu.push_call_frame(&mut self.machine, args)?;
        self.world.extern_call(name, &mut self.machine, &mut cpu)?;
        Ok(cpu.reg(twin_isa::Reg::Eax))
    }

    /// Drains the deferred-upcall ring in one switch-pair — the "natural
    /// dom0 scheduling point" at the end of a burst pass. No-op in
    /// synchronous mode or on an empty ring, so the default path is
    /// untouched. Returns how many queued upcalls executed.
    ///
    /// # Errors
    ///
    /// Propagates faults from the flushed routines.
    pub fn flush_deferred_upcalls(&mut self) -> Result<usize, SystemError> {
        self.flush_deferred_upcalls_as(FlushCause::BurstEnd)
    }

    /// [`System::flush_deferred_upcalls`] with an explicit cause for the
    /// flight recorder (the cause is trace metadata only — every cause
    /// drains the same way).
    fn flush_deferred_upcalls_as(&mut self, cause: FlushCause) -> Result<usize, SystemError> {
        let World {
            kernel, xen, hyper, ..
        } = &mut self.world;
        if let (Some(hs), Some(xen)) = (hyper.as_mut(), xen.as_mut()) {
            if hs.engine.deferred() && hs.engine.depth() > 0 {
                return Ok(hs.flush_upcalls(&mut self.machine, kernel, xen, cause)?);
            }
        }
        Ok(0)
    }

    /// Programs a device's interrupt-moderation interval (`ITR`
    /// register, in [`twin_nic::ITR_UNIT_CYCLES`]-cycle units) through
    /// the MMIO window, exactly as driver code would.
    ///
    /// # Errors
    ///
    /// Propagates MMIO faults.
    pub fn set_itr(&mut self, dev: u32, itr: u32) -> Result<(), SystemError> {
        Env::mmio_write(
            &mut self.world,
            &mut self.machine,
            dev,
            twin_nic::regs::ITR,
            twin_isa::Width::Long,
            itr,
        )?;
        Ok(())
    }

    /// Current virtual time in cycles (see
    /// [`twin_machine::VirtualClock`]).
    pub fn now_cycles(&self) -> u64 {
        self.machine.meter.now()
    }

    /// Whether closed-loop `ITR` auto-tuning is active.
    pub fn itr_autotune(&self) -> bool {
        !self.itr_tuners.is_empty()
    }

    /// A device's auto-tuner (`None` when auto-tuning is off) —
    /// observability for tests and sweeps.
    pub fn itr_tuner(&self, dev: u32) -> Option<&ItrTuner> {
        self.itr_tuners.get(dev as usize)
    }

    /// Services every device's auto-tuner: at each elapsed interval
    /// window the tuner classifies the window's receive counters and
    /// proposes a one-rung `ITR` step; the system charges the retune
    /// cost to the driver (the state machine runs in the driver's
    /// interrupt context, like Linux's `e1000_set_itr`) and writes the
    /// register through the normal MMIO path. A no-op costing zero
    /// cycles when auto-tuning is off or no window has closed.
    ///
    /// # Errors
    ///
    /// Propagates MMIO faults from the register write.
    /// Ends a device's gated wait at virtual time `now` (the moment its
    /// latched cause delivers, or is otherwise consumed): a wait whose
    /// arrival rate stayed below the busy floor (fewer than
    /// [`twin_nic::BUSY_WINDOW_PACKETS`] packets per tuner window) was
    /// load-idleness — the device was gated *and quiet* — and is
    /// reported to the tuner as idle; a backlogged wait (arrivals at or
    /// above the floor) is not. This lets the tuner distinguish
    /// moderated bursty traffic from moderated overload, where the live
    /// idle feed is masked by the latched cause either way. Must run at
    /// the delivery instant — the reap pass that follows is work, not
    /// waiting, and would inflate the wait.
    fn end_gated_wait(&mut self, dev: u32, now: u64) {
        let Some(anchor) = self.gate_anchors.get_mut(dev as usize) else {
            return;
        };
        if let Some((p0, t0)) = anchor.take() {
            let arrivals = self.world.nics[dev as usize].stats().rx_packets - p0;
            let wait = now.saturating_sub(t0);
            if arrivals * AUTOTUNE_WINDOW_CYCLES < twin_nic::BUSY_WINDOW_PACKETS * wait {
                self.itr_tuners[dev as usize].note_idle(wait);
            }
        }
    }

    fn service_itr_tuners(&mut self) -> Result<(), SystemError> {
        if self.itr_tuners.is_empty() {
            return Ok(());
        }
        let now = self.machine.meter.now();
        // Fallback resolution for waits that ended without a delivery
        // (a polled reap consumed the cause): the wait ends here.
        for dev in 0..self.itr_tuners.len() {
            if self.gate_anchors[dev].is_some() && !self.moderated_pending.contains(&(dev as u32)) {
                self.end_gated_wait(dev as u32, now);
            }
        }
        for dev in 0..self.itr_tuners.len() {
            let old = self.world.nics[dev].itr();
            let retuned = self.itr_tuners[dev].service(now, &self.world.nics[dev]);
            if let Some(itr) = retuned {
                let m = &mut self.machine;
                m.meter.charge_to(CostDomain::Driver, m.cost.itr_retune);
                m.meter.count_event("itr_retune");
                self.set_itr(dev as u32, itr)?;
                if self.machine.trace.enabled() {
                    let regime = match self.itr_tuners[dev].class() {
                        twin_nic::LatencyClass::LowestLatency => "lowest_latency",
                        twin_nic::LatencyClass::LowLatency => "low_latency",
                        twin_nic::LatencyClass::BulkLatency => "bulk_latency",
                    };
                    self.machine.trace_event(TraceEvent::ItrRetune {
                        dev: dev as u32,
                        old,
                        new: itr,
                        regime,
                    });
                }
            }
        }
        Ok(())
    }

    /// Applies every scheduler transition due at `now` — pure
    /// bookkeeping, no cycles charged — emitting the `vcpu_run` /
    /// `vcpu_sleep` events. Returns whether any vCPU woke (the caller
    /// then releases deferred backlog). A no-op without the scheduler
    /// model.
    fn advance_sched(&mut self, now: u64) -> bool {
        let transitions = match self.sched.as_mut() {
            Some(s) => s.advance(now),
            None => return false,
        };
        let mut woke = false;
        for tr in &transitions {
            woke |= tr.now_running;
            self.machine.meter.count_event(if tr.now_running {
                "vcpu_run"
            } else {
                "vcpu_sleep"
            });
            if self.machine.trace.enabled() {
                let cpu = self
                    .sched
                    .as_ref()
                    .and_then(|s| s.cpu_of(tr.guest))
                    .unwrap_or(0);
                self.machine.trace_event(if tr.now_running {
                    TraceEvent::VcpuRun {
                        guest: tr.guest,
                        cpu,
                    }
                } else {
                    TraceEvent::VcpuSleep {
                        guest: tr.guest,
                        cpu,
                    }
                });
            }
        }
        woke
    }

    /// Services every virtual timer that is due *now*, in
    /// flush-before-IRQ order: (1) the deadline-driven upcall flush, so
    /// queued frees/unmaps reach dom0 before interrupt work piles more
    /// behind them; (2) moderated interrupt deliveries whose ITR window
    /// has opened; (3) — only when `fire_kernel_timers` — due kernel
    /// timers (the e1000 watchdogs), which fire from idle time, never
    /// from the datapath, preserving the pre-clock watchdog semantics
    /// bit-exactly.
    ///
    /// A no-op costing zero cycles when nothing is armed or due, so the
    /// default configuration (ITR 0, no deadline) stays cycle-exact.
    ///
    /// # Errors
    ///
    /// Propagates faults from flushed upcalls, interrupt handlers and
    /// timer handlers.
    pub fn service_virtual_timers(&mut self, fire_kernel_timers: bool) -> Result<(), SystemError> {
        let now = self.machine.meter.now();
        let sched_woke = self.advance_sched(now);
        if self
            .world
            .hyper
            .as_ref()
            .is_some_and(|h| h.engine.flush_due(now))
        {
            self.flush_deferred_upcalls_as(FlushCause::Deadline)?;
        }
        if !self.moderated_pending.is_empty() {
            // Entries whose cause was acked by another path (an allowed
            // delivery, a polled reap) have nothing left to deliver.
            self.moderated_pending
                .retain(|d| self.world.nics[*d as usize].irq_asserted());
            let now = self.machine.meter.now();
            let ready: Vec<u32> = self
                .moderated_pending
                .iter()
                .copied()
                .filter(|d| self.world.nics[*d as usize].irq_deliverable(now))
                .collect();
            if !ready.is_empty() {
                self.moderated_pending.retain(|d| !ready.contains(d));
                for &dev in &ready {
                    self.world.nics[dev as usize].note_irq_delivered(now);
                    self.end_gated_wait(dev, now);
                }
                if self.napi_weight > 0 {
                    // A moderated delivery on a NAPI system is still an
                    // ack-and-mask: enter poll mode and drain budgeted.
                    for &dev in &ready {
                        self.napi_enter(dev)?;
                    }
                    while self.napi_work_pending() {
                        if self.napi_poll_pass()? == 0 {
                            break;
                        }
                    }
                } else {
                    self.rx_pass(&ready)?;
                }
                self.flush_deferred_upcalls()?;
                self.sample_rx_completions();
            }
        }
        // A wakeup releases the guest's deferred backlog: the frames
        // the DRR flush skipped while it slept deliver now, at the
        // scheduler edge — the deferral bound the wakeup timer
        // provides.
        if sched_woke {
            let backlog = self.world.xen.as_ref().is_some_and(|x| {
                x.domains.iter().any(|d| {
                    !d.rx_queue.is_empty()
                        && self.sched.as_ref().is_some_and(|s| s.is_running(d.id.0))
                })
            });
            if backlog {
                self.flush_guest_rx_queues()?;
                self.sample_rx_completions();
            }
        }
        // After moderated deliveries, so an interrupt delivered at this
        // service point counts into the window that just closed.
        self.service_itr_tuners()?;
        if fire_kernel_timers {
            let now = self.machine.meter.now();
            let due = self.world.kernel.take_due_timers(now);
            for t in due {
                if self.machine.trace.enabled() {
                    self.machine
                        .trace_event(TraceEvent::TimerFire { data: t.data });
                }
                self.machine.meter.push_domain(CostDomain::Driver);
                let r = self.call_dom0(t.handler, &[t.data as u32], 5_000_000);
                self.machine.meter.pop_domain();
                r?;
            }
        }
        Ok(())
    }

    /// The earliest armed virtual-timer event: kernel wheel, upcall
    /// flush deadline, or a moderated device's window opening.
    fn next_virtual_event(&self) -> Option<u64> {
        let mut candidates: Vec<u64> = Vec::new();
        if let Some(t) = self.world.kernel.timers.next_due() {
            candidates.push(t);
        }
        if let Some(t) = self
            .world
            .hyper
            .as_ref()
            .and_then(|h| h.engine.flush_due_at())
        {
            candidates.push(t);
        }
        for &d in &self.moderated_pending {
            if let Some(t) = self.world.nics[d as usize].irq_ready_at() {
                candidates.push(t);
            }
        }
        // Auto-tune interval windows are virtual timers too: idle
        // stepping wakes at each boundary so the knob decays toward
        // latency mode on schedule.
        for t in &self.itr_tuners {
            candidates.push(t.next_window_at());
        }
        // Scheduler run/sleep edges: idle stepping lands exactly on the
        // next wakeup so deferred backlog never waits past it.
        if let Some(t) = self.sched.as_ref().and_then(|s| s.next_event()) {
            candidates.push(t);
        }
        candidates.into_iter().min()
    }

    /// Advances virtual time by `cycles` of idle (no domain is charged),
    /// firing every virtual timer — kernel timers, the upcall-flush
    /// deadline, moderated interrupt deliveries — at its due instant
    /// along the way (event-driven stepping, not polling).
    ///
    /// # Errors
    ///
    /// Propagates faults from fired timers and handlers.
    pub fn run_idle(&mut self, cycles: u64) -> Result<(), SystemError> {
        let end = self.machine.meter.now().saturating_add(cycles);
        loop {
            self.service_virtual_timers(true)?;
            let now = self.machine.meter.now();
            if now >= end {
                break;
            }
            let step = match self.next_virtual_event() {
                // Sleep exactly to the next due event (or the horizon).
                Some(t) if t > now => (t - now).min(end - now),
                // An event at or before `now` that service could not
                // clear cannot progress by waiting: skip to the horizon.
                _ => end - now,
            };
            self.machine.meter.advance_idle(step);
            // The tuners' load signal: true idleness. A device whose
            // latched cause is waiting out its own moderation window is
            // backlogged, not idle — its wait is not reported (at
            // sustained load the schedule runs ahead between cheap
            // latching injections, and counting those waits would
            // demote a converged bulk setting mid-overload). The
            // idleness of a *lightly* loaded gated device still shows:
            // its cause clears at each window-open delivery and the
            // remaining inter-burst gap is reported.
            // A sleeping guest's backlog is deferred work, not light
            // load: while it waits for its wakeup the system is
            // backlogged, and reporting the wait as idleness would
            // decay a converged bulk ITR setting every sleep interval.
            let sleep_backlog = self.sched.as_ref().is_some_and(|s| {
                self.world.xen.as_ref().is_some_and(|x| {
                    x.domains
                        .iter()
                        .any(|d| !d.rx_queue.is_empty() && !s.is_running(d.id.0))
                })
            });
            for (dev, t) in self.itr_tuners.iter_mut().enumerate() {
                if !self.world.nics[dev].irq_asserted() && !sleep_backlog {
                    t.note_idle(step);
                }
            }
        }
        self.service_virtual_timers(true)
    }

    /// Bounds the in-flight arrival-stamp map: frames that never reach a
    /// delivery log (demux misses, colliding `(flow, seq)` keys) would
    /// otherwise leak an entry forever. Genuine in-flight frames are
    /// bounded by the RX rings, so anything beyond one ring's worth per
    /// device is dead — evict oldest-first.
    fn prune_rx_inflight(&mut self) {
        // With a demux queue cap the backlog legitimately extends past
        // the rings: capped queues hold live frames too.
        let cap = 128 * self.world.nics.len()
            + self.rx_queue_cap.unwrap_or(0)
                * self.world.xen.as_ref().map_or(0, |x| x.domains.len());
        while self.rx_inflight.len() > cap {
            let oldest = self
                .rx_inflight
                .iter()
                .min_by_key(|(_, stamp)| **stamp)
                .map(|(k, _)| *k)
                .expect("non-empty map");
            self.rx_inflight.remove(&oldest);
        }
    }

    /// Matches newly delivered frames against their arrival stamps and
    /// records cycles-to-delivery samples (the latency side of the
    /// moderation sweep). Pure bookkeeping — no cycles are charged.
    fn sample_rx_completions(&mut self) {
        if self.rx_inflight.is_empty() {
            return; // nothing tracked: skip the delivery-log scans
        }
        let now = self.machine.meter.now();
        match self.config {
            Config::NativeLinux | Config::XenDom0 => {
                let cur = *self.rx_sample_cursors.get(&u32::MAX).unwrap_or(&0);
                let new: Vec<(u32, u64)> = self
                    .world
                    .kernel
                    .rx_delivered
                    .iter()
                    .skip(cur)
                    .map(|f| (f.flow, f.seq))
                    .collect();
                for key in &new {
                    if let Some(t) = self.rx_inflight.remove(key) {
                        self.rx_latency.push(now.saturating_sub(t));
                    }
                }
                self.rx_sample_cursors.insert(u32::MAX, cur + new.len());
            }
            Config::XenGuest | Config::TwinDrivers => {
                let Some(ndoms) = self.world.xen.as_ref().map(|x| x.domains.len()) else {
                    return;
                };
                for i in 0..ndoms {
                    let key = i as u32;
                    let cur = *self.rx_sample_cursors.get(&key).unwrap_or(&0);
                    let new: Vec<(u32, u64)> = self.world.xen.as_ref().unwrap().domains[i]
                        .rx_delivered
                        .iter()
                        .skip(cur)
                        .map(|f| (f.flow, f.seq))
                        .collect();
                    for k in &new {
                        if let Some(t) = self.rx_inflight.remove(k) {
                            let sample = now.saturating_sub(t);
                            self.rx_latency.push(sample);
                            if let Some(per_guest) = self.guest_latency.as_mut() {
                                per_guest
                                    .entry(key)
                                    .or_insert_with(|| {
                                        crate::measure::SampleReservoir::new(
                                            crate::measure::RX_LATENCY_RESERVOIR,
                                        )
                                    })
                                    .push(sample);
                            }
                        }
                    }
                    self.rx_sample_cursors.insert(key, cur + new.len());
                }
            }
        }
    }

    /// Cycles-from-arrival-to-delivery samples for frames completed in
    /// the current measurement window (a bounded uniform reservoir; see
    /// [`crate::measure::SampleReservoir`]).
    pub fn rx_latency_samples(&self) -> &[u64] {
        self.rx_latency.samples()
    }

    /// Cycles-to-completion samples for every upcall since the last
    /// measurement reset (empty when no hypervisor support is present).
    pub fn upcall_latency_samples(&self) -> &[u64] {
        self.world
            .hyper
            .as_ref()
            .map(|h| h.engine.latency_samples())
            .unwrap_or(&[])
    }

    /// Resets the cycle meter and both latency windows together (the
    /// start of every measurement interval). The virtual clock keeps
    /// running — it is monotonic by design.
    pub(crate) fn reset_measurement(&mut self) {
        self.machine.meter.reset();
        if let Some(h) = self.world.hyper.as_mut() {
            h.engine.clear_latency();
        }
        self.rx_latency.clear();
        if let Some(per_guest) = self.guest_latency.as_mut() {
            for r in per_guest.values_mut() {
                r.clear();
            }
        }
    }

    /// Enables per-guest arrival-to-delivery latency reservoirs
    /// (TwinDrivers/XenGuest paths): after this, each delivered frame's
    /// latency is also recorded against its destination domain — the
    /// fairness side of the overload sweeps, where a victim guest's p99
    /// must stay bounded while a neighbour floods.
    pub fn track_guest_latency(&mut self) {
        if self.guest_latency.is_none() {
            self.guest_latency = Some(BTreeMap::new());
        }
    }

    /// Latency samples recorded for one domain (empty unless
    /// [`System::track_guest_latency`] was enabled).
    pub fn guest_rx_latency(&self, gid: DomId) -> &[u64] {
        self.guest_latency
            .as_ref()
            .and_then(|m| m.get(&gid.0))
            .map(|r| r.samples())
            .unwrap_or(&[])
    }

    /// Flows the internal traffic generators cycle over: the paper's
    /// netperf runs several concurrent streams to fill five NICs, so
    /// generated traffic models a small set of flows — enough for
    /// [`ShardPolicy::FlowHash`] to spread across every device (flow is
    /// bookkeeping only; costs and single-NIC behaviour are unchanged).
    const GEN_FLOWS: u64 = 8;

    fn next_tx_frame(&mut self) -> Frame {
        let src = match self.config {
            Config::XenGuest | Config::TwinDrivers => MacAddr::for_guest(1),
            _ => MacAddr::for_guest(0),
        };
        let f = Frame {
            dst: peer_mac(),
            src,
            ethertype: EtherType::Ipv4,
            payload_len: MTU,
            flow: 1 + (self.seq % Self::GEN_FLOWS) as u32,
            seq: self.seq,
        };
        self.seq += 1;
        f
    }

    /// Scan base for [`crate::measure::balanced_flow_set`], the
    /// device-balanced flow generator the autotune and affinity
    /// harnesses pace with. (The classic generator's flows 101–108
    /// split 2/2/1/3 across four NICs under [`ShardPolicy::FlowHash`] —
    /// a device with a single thin flow sees a genuinely lighter regime
    /// than its siblings, which is a property of the traffic, not of
    /// the system under test. Scanning from 203 yields `203..=210`: two
    /// flows per device at four NICs.)
    pub const BALANCED_FLOW_BASE: u32 = 203;

    fn next_rx_frame(&mut self) -> Frame {
        let dst = match self.config {
            Config::XenGuest | Config::TwinDrivers => MacAddr::for_guest(1),
            _ => MacAddr::for_guest(0),
        };
        let f = Frame {
            dst,
            src: peer_mac(),
            ethertype: EtherType::Ipv4,
            payload_len: MTU,
            flow: 101 + (self.seq % Self::GEN_FLOWS) as u32,
            seq: self.seq,
        };
        self.seq += 1;
        f
    }

    /// Transmits one MTU-sized packet along the configuration's full
    /// path — a burst of one through [`System::transmit_burst`].
    ///
    /// # Errors
    ///
    /// Propagates faults; [`SystemError::DriverAborted`] if the
    /// hypervisor driver is dead.
    pub fn transmit_one(&mut self) -> Result<(), SystemError> {
        self.transmit_burst(1).map(|_| ())
    }

    /// Transmits a burst of `n` MTU-sized packets along the
    /// configuration's full path: one notification/hypercall, one driver
    /// invocation, one `TDT` doorbell per pipeline pass of up to
    /// [`MAX_BURST`] packets (larger bursts split into several passes).
    /// Stack costs amortise across the burst (TSO/GSO-style);
    /// per-packet work (copies, grants, descriptors) does not.
    ///
    /// Returns how many packets reached the driver's ring (less than `n`
    /// only under ring pressure; the rest are dropped and their buffers
    /// freed, like a queue-discipline drop).
    ///
    /// # Errors
    ///
    /// See [`System::transmit_one`].
    pub fn transmit_burst(&mut self, n: usize) -> Result<usize, SystemError> {
        // Catch up anything already due (deadline flush, opened
        // moderation windows) — a zero-cost no-op when neither is armed.
        self.service_virtual_timers(false)?;
        let mut total = 0;
        'bursts: while total < n {
            let chunk = (n - total).min(MAX_BURST);
            let frames: Vec<Frame> = (0..chunk).map(|_| self.next_tx_frame()).collect();
            // Shard the chunk across NICs; one NIC receives the whole
            // chunk under Static/RoundRobin, FlowHash may split it.
            for (dev, group) in self.shard_frames(frames) {
                let want = group.len();
                let sent = match self.config {
                    Config::NativeLinux => self.tx_dom0_style(&group, false, dev),
                    Config::XenDom0 => self.tx_dom0_style(&group, true, dev),
                    Config::XenGuest => self.tx_baseline_guest(&group, dev),
                    Config::TwinDrivers => self.tx_twin(&group, dev),
                }?;
                total += sent;
                if sent < want {
                    break 'bursts; // ring pressure: the shortfall was dropped
                }
            }
            // End of one transmit pass: a natural dom0 scheduling point.
            self.flush_deferred_upcalls()?;
        }
        // The ring-pressure break skips the in-loop flush.
        self.flush_deferred_upcalls()?;
        Ok(total)
    }

    /// Frees a set of sk_buffs back to their pools (error-path cleanup
    /// and queue-discipline drops).
    fn free_skbs(&mut self, skbs: &[SkBuff]) -> Result<(), SystemError> {
        for skb in skbs {
            self.world.kernel.free_skb(&self.machine, *skb)?;
        }
        Ok(())
    }

    /// Stack cost of the `i`-th packet of a transmit burst: the first
    /// pays the full per-wakeup price, the rest the batched marginal.
    fn tx_stack_cost(&self, i: usize) -> u64 {
        if i == 0 {
            self.machine.cost.tcp_tx_per_packet
        } else {
            self.machine.cost.tcp_tx_batch_marginal
        }
    }

    /// Hands a prepared burst of sk_buffs to a driver instance. Each
    /// driver invocation is one lock acquisition and one doorbell; when
    /// the ring cannot hold the whole burst (fragmented packets take two
    /// descriptors each) the kick drains it synchronously and the
    /// remainder goes in a follow-up invocation, so large bursts cost a
    /// few doorbells instead of failing. Returns how many packets the
    /// ring accepted; unaccepted skbs are freed here.
    fn drive_tx(
        &mut self,
        skbs: &[SkBuff],
        hypervisor: bool,
        dev: u32,
    ) -> Result<usize, SystemError> {
        let mut done = 0;
        while done < skbs.len() {
            let accepted = match self.drive_tx_once(&skbs[done..], hypervisor, dev) {
                Ok(a) => a,
                Err(e) => {
                    // Return the in-flight remainder to the pools before
                    // surfacing the fault, or the pool drains for good.
                    self.free_skbs(&skbs[done..])?;
                    return Err(e);
                }
            };
            if accepted == 0 {
                break;
            }
            done += accepted;
        }
        self.free_skbs(&skbs[done..])?;
        Ok(done)
    }

    /// One driver invocation: `e1000_xmit_frame` for a burst of one (the
    /// exact per-packet path), `e1000_xmit_batch` otherwise. Multi-NIC
    /// systems go through the `*_dev` entries, which select device
    /// `dev`'s adapter slot before the shared body runs.
    fn drive_tx_once(
        &mut self,
        skbs: &[SkBuff],
        hypervisor: bool,
        dev: u32,
    ) -> Result<usize, SystemError> {
        let multi = self.multi_nic();
        let sent = if let [skb] = skbs {
            let args = if multi {
                vec![skb.0 as u32, self.netdev_of(dev) as u32, dev]
            } else {
                vec![skb.0 as u32, self.netdev as u32]
            };
            let entry = if multi {
                "e1000_xmit_frame_dev"
            } else {
                "e1000_xmit_frame"
            };
            self.machine.meter.push_domain(CostDomain::Driver);
            let r = if hypervisor {
                let xmit = self.hyperdrv.as_ref().unwrap().entry(entry).unwrap();
                self.call_hyperdrv(xmit, &args, 2_000_000, dev)
            } else {
                let xmit = self.driver.entry(entry).unwrap();
                self.call_dom0(xmit, &args, 2_000_000)
            };
            self.machine.meter.pop_domain();
            usize::from(r? == 0)
        } else {
            for (i, skb) in skbs.iter().enumerate() {
                self.machine.write_u32(
                    self.dom0,
                    ExecMode::Guest,
                    self.tx_batch_buf + i as u64 * 4,
                    skb.0 as u32,
                )?;
            }
            let args = if multi {
                vec![
                    self.tx_batch_buf as u32,
                    skbs.len() as u32,
                    self.netdev_of(dev) as u32,
                    dev,
                ]
            } else {
                vec![
                    self.tx_batch_buf as u32,
                    skbs.len() as u32,
                    self.netdev as u32,
                ]
            };
            let entry = if multi {
                "e1000_xmit_batch_dev"
            } else {
                "e1000_xmit_batch"
            };
            let budget = 2_000_000 * skbs.len() as u64;
            self.machine.meter.push_domain(CostDomain::Driver);
            let r = if hypervisor {
                let hyp = self.hyperdrv.as_ref().unwrap();
                let xmit = if multi {
                    hyp.xmit_batch_dev_entry()
                } else {
                    hyp.xmit_batch_entry()
                }
                .unwrap();
                self.call_hyperdrv(xmit, &args, budget, dev)
            } else {
                let xmit = self.driver.entry(entry).unwrap();
                self.call_dom0(xmit, &args, budget)
            };
            self.machine.meter.pop_domain();
            r? as usize
        };
        Ok(sent)
    }

    /// Native Linux / dom0 transmit: stack → driver, burst-wise.
    fn tx_dom0_style(
        &mut self,
        frames: &[Frame],
        on_xen: bool,
        dev: u32,
    ) -> Result<usize, SystemError> {
        let mut skbs = Vec::with_capacity(frames.len());
        for (i, frame) in frames.iter().enumerate() {
            {
                // Socket + TCP/IP transmit processing.
                let c = self.tx_stack_cost(i);
                let m = &mut self.machine;
                m.meter.charge_to(CostDomain::Dom0, c);
                m.meter.charge_to(CostDomain::Dom0, m.cost.skb_alloc);
                if on_xen {
                    // Paravirtualisation tax (pte maintenance, event checks).
                    m.meter
                        .charge_to(CostDomain::Xen, m.cost.paravirt_tax_per_packet);
                }
            }
            let skb = match self.world.kernel.pool.alloc(&mut self.machine, self.dom0) {
                Some(skb) => skb,
                None => {
                    self.free_skbs(&skbs)?;
                    return Err(SystemError::Build("dom0 skb pool empty".into()));
                }
            };
            skbs.push(skb);
            if let Err(e) = skb.fill_from_frame(&mut self.machine, self.dom0, frame) {
                self.free_skbs(&skbs)?;
                return Err(e.into());
            }
        }
        self.drive_tx(&skbs, false, dev)
    }

    /// Baseline Xen guest transmit (paper §2): netfront → I/O channel →
    /// netback → bridge → dom0 driver. netfront produces the whole burst
    /// of requests and notifies **once**; grants, copies and backend
    /// bookkeeping stay per-packet.
    fn tx_baseline_guest(&mut self, frames: &[Frame], dev: u32) -> Result<usize, SystemError> {
        let gid = self.guest.expect("guest");
        for i in 0..frames.len() {
            // Guest stack + netfront request production.
            let c = self.tx_stack_cost(i);
            let m = &mut self.machine;
            m.meter.charge_to(CostDomain::DomU, c);
            m.meter
                .charge_to(CostDomain::DomU, m.cost.netfront_per_packet);
        }
        let xen = self.world.xen.as_mut().expect("xen");
        // One notify + one switch into the driver domain per burst.
        xen.hypercall(&mut self.machine);
        xen.send_virq(&mut self.machine, DomId::DOM0, 1);
        xen.switch_to(&mut self.machine, DomId::DOM0);
        // netback: map each granted guest page, build skbs, bridge them.
        // In zero-copy mode the guest's TX pool is already mapped: a
        // cache hit replaces the per-packet map (and the unmap below);
        // fallback frames keep the baseline map/unmap pair.
        let mut zc_occ: BTreeMap<u32, usize> = BTreeMap::new();
        let mut zc_landed = 0usize;
        let mut skbs = Vec::with_capacity(frames.len());
        for frame in frames {
            let zc_hit = if self.zero_copy {
                let slot = *zc_occ.get(&frame.flow).unwrap_or(&0);
                let hit = self.zc_access(gid, frame.flow, true, slot, frame.len(), dev);
                if hit {
                    *zc_occ.entry(frame.flow).or_insert(0) += 1;
                    zc_landed += 1;
                }
                hit
            } else {
                false
            };
            if !zc_hit {
                let xen = self.world.xen.as_mut().unwrap();
                xen.grant_map_dev(&mut self.machine, dev);
            }
            {
                let m = &mut self.machine;
                m.meter
                    .charge_to(CostDomain::Dom0, m.cost.netfront_per_packet);
                m.meter
                    .charge_to(CostDomain::Dom0, m.cost.bridge_per_packet);
                m.meter.charge_to(CostDomain::Dom0, m.cost.backend_tx_extra);
            }
            let skb = match self.world.kernel.pool.alloc(&mut self.machine, self.dom0) {
                Some(skb) => skb,
                None => {
                    self.free_skbs(&skbs)?;
                    return Err(SystemError::Build("dom0 skb pool empty".into()));
                }
            };
            skbs.push(skb);
            if let Err(e) = skb.fill_from_frame(&mut self.machine, self.dom0, frame) {
                self.free_skbs(&skbs)?;
                return Err(e.into());
            }
        }
        let sent = self.drive_tx(&skbs, false, dev)?;
        // Unmap the per-packet (non-pool) mappings, produce the
        // responses, one notification, switch back. Pool pages stay
        // mapped — that is the point of zero-copy mode.
        let xen = self.world.xen.as_mut().unwrap();
        for _ in 0..frames.len() - zc_landed {
            xen.grant_unmap_dev(&mut self.machine, dev);
        }
        xen.send_virq(&mut self.machine, gid, 2);
        xen.switch_to(&mut self.machine, gid);
        Ok(sent)
    }

    /// In deferred mode with the allocator forced onto the upcall path,
    /// the paravirtual TX glue batches its allocation requests: it queues
    /// one `netdev_alloc_skb` per frame and suspends the burst **once**,
    /// so one switch-pair returns every buffer (the continuation ids
    /// match completions to frames). Returns `None` when the per-call
    /// path should run instead (sync mode, or the allocator is native).
    fn alloc_burst_deferred(
        &mut self,
        n: usize,
        netdev: u32,
    ) -> Result<Option<Vec<u32>>, SystemError> {
        let World {
            kernel, xen, hyper, ..
        } = &mut self.world;
        let (Some(hs), Some(xen)) = (hyper.as_mut(), xen.as_mut()) else {
            return Ok(None);
        };
        if !hs.engine.deferred() || !hs.upcall_routines.contains("netdev_alloc_skb") {
            return Ok(None);
        }
        // One suspension per ring's worth of requests: completions are
        // consumed right after the flush that posts them (they do not
        // survive a later flush), so the glue suspends whenever the ring
        // fills and once more at the end. With the default capacity a
        // whole burst is a single suspension.
        fn resume(
            hs: &mut HyperSupport,
            kernel: &mut Dom0Kernel,
            xen: &mut Xen,
            machine: &mut Machine,
            pending: &mut Vec<u64>,
            ptrs: &mut Vec<u32>,
        ) -> Result<(), SystemError> {
            hs.engine.stats.continuations += 1;
            machine.meter.count_event("upcall_continuation");
            hs.flush_upcalls(machine, kernel, xen, FlushCause::Continuation)?;
            for id in pending.drain(..) {
                let done = hs
                    .engine
                    .take_completion(id)
                    .expect("flush posts every allocation completion");
                ptrs.push(done.ret);
            }
            Ok(())
        }
        let mut ptrs = Vec::with_capacity(n);
        let mut pending: Vec<u64> = Vec::with_capacity(n);
        for _ in 0..n {
            if hs.engine.is_full() {
                resume(hs, kernel, xen, &mut self.machine, &mut pending, &mut ptrs)?;
            }
            let m = &mut self.machine;
            m.meter.charge_to(CostDomain::Xen, m.cost.twin_glue_tx);
            pending.push(hs.enqueue_upcall(
                "netdev_alloc_skb",
                vec![netdev, 2048],
                m,
                kernel,
                xen,
            )?);
        }
        resume(hs, kernel, xen, &mut self.machine, &mut pending, &mut ptrs)?;
        Ok(Some(ptrs))
    }

    /// TwinDrivers transmit (paper §5.3): paravirtual driver hypercall →
    /// hypervisor glue (dom0 skb + guest-page fragment per packet) →
    /// hypervisor driver instance, all without leaving the guest
    /// context. A burst pays **one** hypercall and one driver
    /// invocation/doorbell.
    fn tx_twin(&mut self, frames: &[Frame], dev: u32) -> Result<usize, SystemError> {
        let gid = self.guest.expect("guest");
        let mut zc_occ: BTreeMap<u32, usize> = BTreeMap::new();
        for i in 0..frames.len() {
            let c = self.tx_stack_cost(i);
            let m = &mut self.machine;
            // Guest stack + paravirtual driver.
            m.meter.charge_to(CostDomain::DomU, c);
            m.meter.charge_to(CostDomain::DomU, m.cost.pv_driver_guest);
        }
        let xen = self.world.xen.as_mut().expect("xen");
        xen.hypercall(&mut self.machine);
        let netdev = self.netdev_of(dev) as u32;
        let batched = self.alloc_burst_deferred(frames.len(), netdev)?;
        let mut skbs = Vec::with_capacity(frames.len());
        for (fi, frame) in frames.iter().enumerate() {
            let header_copy = self.header_copy.min(frame.len());
            // Acquire a pre-allocated dom0 sk_buff: from the batched
            // continuation's completions, or through the (possibly
            // upcalled) support routine.
            let raw = match &batched {
                Some(ptrs) => Ok(ptrs[fi]),
                None => {
                    let m = &mut self.machine;
                    m.meter.charge_to(CostDomain::Xen, m.cost.twin_glue_tx);
                    self.call_support("netdev_alloc_skb", &[netdev, 2048])
                }
            };
            let skb = match raw {
                Ok(v) if v != 0 => SkBuff(v as u64),
                Ok(_) => {
                    self.free_skbs(&skbs)?;
                    self.free_batched_tail(&batched, fi + 1)?;
                    return Err(SystemError::Build("hypervisor skb pool empty".into()));
                }
                Err(e) => {
                    self.free_skbs(&skbs)?;
                    self.free_batched_tail(&batched, fi + 1)?;
                    return Err(e);
                }
            };
            skbs.push(skb);
            // Copy the packet header into the sk_buff and chain the rest
            // of the guest packet as a page fragment. With a warm
            // zero-copy pool the header lives in an already-mapped pool
            // page, so even the header copy collapses to the cached
            // grant access; fallback frames bounce through the copy.
            let zc_hit = if self.zero_copy {
                let slot = *zc_occ.get(&frame.flow).unwrap_or(&0);
                let hit = self.zc_access(gid, frame.flow, true, slot, frame.len(), dev);
                if hit {
                    *zc_occ.entry(frame.flow).or_insert(0) += 1;
                }
                hit
            } else {
                false
            };
            if !zc_hit {
                {
                    let m = &mut self.machine;
                    let c = m.cost.copy_cycles(header_copy as u64);
                    m.meter.charge_to(CostDomain::Xen, c);
                }
                if let Some(xen) = self.world.xen.as_mut() {
                    xen.note_grant_copy(Some(dev));
                }
            }
            let filled = skb
                .fill_from_frame(&mut self.machine, self.dom0, frame)
                .and_then(|()| skb.set_len(&mut self.machine, self.dom0, header_copy))
                .and_then(|()| {
                    skb.set_frag(
                        &mut self.machine,
                        self.dom0,
                        self.guest_tx_frag,
                        frame.len() - header_copy,
                    )
                });
            if let Err(e) = filled {
                self.free_skbs(&skbs)?;
                self.free_batched_tail(&batched, fi + 1)?;
                return Err(e.into());
            }
        }
        self.drive_tx(&skbs, true, dev)
    }

    /// Error-path cleanup for the batched allocation continuation: frees
    /// the buffers already allocated up front but not yet wrapped into
    /// `skbs` when a mid-burst failure aborts the glue loop, so the
    /// failure cannot drain the pool.
    fn free_batched_tail(
        &mut self,
        batched: &Option<Vec<u32>>,
        next: usize,
    ) -> Result<(), SystemError> {
        if let Some(ptrs) = batched {
            let tail: Vec<SkBuff> = ptrs[next.min(ptrs.len())..]
                .iter()
                .filter(|p| **p != 0)
                .map(|p| SkBuff(*p as u64))
                .collect();
            self.free_skbs(&tail)?;
        }
        Ok(())
    }

    /// Receives one MTU-sized packet along the configuration's full path
    /// (wire → NIC → interrupt → stack/guest) — a burst of one through
    /// [`System::receive_burst`].
    ///
    /// # Errors
    ///
    /// [`SystemError::RxRingFull`] if the driver has not replenished
    /// buffers; otherwise propagates faults.
    pub fn receive_one(&mut self) -> Result<(), SystemError> {
        let frame = self.next_rx_frame();
        self.receive_frame(&frame)
    }

    /// Injects an arbitrary frame from the wire and runs the
    /// configuration's receive path (used for multi-guest demultiplexing
    /// experiments).
    ///
    /// # Errors
    ///
    /// See [`System::receive_one`].
    pub fn receive_frame(&mut self, frame: &Frame) -> Result<(), SystemError> {
        self.receive_burst(std::slice::from_ref(frame)).map(|_| ())
    }

    /// Injects a burst of frames from the wire and runs the
    /// configuration's receive path with **one coalesced interrupt** per
    /// hardware pass: the NIC fills as many RX descriptors as it has
    /// buffers, asserts `RXT0` once, and a single handler pass reaps
    /// them all, fanning the batch out to every destination guest in one
    /// demux sweep (one virtual interrupt per guest per pass).
    ///
    /// Bursts larger than the posted buffers split into multiple
    /// hardware passes (each replenishes the ring), so arbitrarily large
    /// bursts still complete. Returns the number of frames delivered.
    ///
    /// # Errors
    ///
    /// [`SystemError::RxRingFull`] if the ring accepts nothing at all;
    /// otherwise propagates faults.
    pub fn receive_burst(&mut self, frames: &[Frame]) -> Result<usize, SystemError> {
        self.receive_burst_arriving(frames, None)
    }

    /// [`System::receive_burst`] with an explicit arrival stamp: when
    /// `arrival` is `Some(t)`, in-flight frames are stamped with the
    /// *scheduled* wire-arrival time `t` instead of the current virtual
    /// time, so an overloaded system's processing backlog shows up as
    /// completion latency exactly like a real receive queue. `None`
    /// stamps at the moment of delivery (the default path).
    fn receive_burst_arriving(
        &mut self,
        frames: &[Frame],
        arrival: Option<u64>,
    ) -> Result<usize, SystemError> {
        if frames.is_empty() {
            return Ok(0);
        }
        // Catch up anything already due (deadline flush before IRQ
        // work) — a zero-cost no-op when neither knob is armed.
        self.service_virtual_timers(false)?;
        // Arrival-stamp bookkeeping is only kept when someone can read
        // it back: an explicit arrival stamp (a moderated measurement)
        // or an armed time knob. The default path allocates nothing.
        let track = arrival.is_some()
            || self.world.nics.iter().any(|n| n.itr() != 0)
            || !self.itr_tuners.is_empty()
            || self
                .world
                .hyper
                .as_ref()
                .is_some_and(|h| h.engine.flush_deadline().is_some());
        // The "wire side" of sharding: the switch sprays frames across
        // the NICs per policy (all to NIC 0 in the degenerate case).
        let mut incoming = frames.to_vec();
        self.admit_rx_frames(&mut incoming);
        if incoming.is_empty() {
            return Ok(0); // whole burst early-dropped at the watermark
        }
        let napi = self.napi_weight > 0;
        let mut groups = self.shard_frames(incoming);
        let mut done = 0;
        loop {
            // One hardware pass: every NIC with pending frames fills as
            // many descriptors as it has buffers and latches one
            // coalesced interrupt. A device inside a closed ITR window
            // keeps its cause latched instead of joining the software
            // pass; the virtual moderation timer delivers it later.
            let mut pass_devs: Vec<u32> = Vec::new();
            let mut gated_wedged: Vec<u32> = Vec::new();
            for (dev, pending) in groups.iter_mut() {
                if pending.is_empty() {
                    continue;
                }
                // Live recovery happens *before* the hardware pass: the
                // reset reconstructs the rings, so frames posted first
                // would be wiped with the corrupted slot — recovering
                // here means only the aborted burst is ever lost.
                if self.fault_recovery
                    && self
                        .hyperdrv
                        .as_ref()
                        .is_some_and(|h| h.is_quarantined(*dev))
                {
                    self.recover_device(*dev)?;
                }
                let accepted =
                    self.world.nics[*dev as usize].deliver_batch(&mut self.machine.phys, pending);
                if accepted > 0 {
                    if track {
                        let stamp = arrival.unwrap_or_else(|| self.machine.meter.now());
                        for f in &pending[..accepted] {
                            self.rx_inflight.insert((f.flow, f.seq), stamp);
                        }
                    }
                    // Flow→device attribution for grant accounting: the
                    // demux flush no longer knows which NIC carried a
                    // frame, so remember it here (bookkeeping only; the
                    // map is bounded by the live flow set).
                    if self.rx_flow_dev.len() > 8192 {
                        self.rx_flow_dev.clear();
                    }
                    for f in &pending[..accepted] {
                        self.rx_flow_dev.insert(f.flow, *dev);
                    }
                    pending.drain(..accepted);
                    done += accepted;
                    let now = self.machine.meter.now();
                    if napi && self.poll_mode[*dev as usize] {
                        // Masked: the ring filled silently — free at
                        // arrival time. The budgeted poll pass below
                        // services it; poll mode takes precedence over
                        // the moderation latch.
                    } else if self.world.nics[*dev as usize].irq_allowed_at(now) {
                        self.moderated_pending.retain(|d| d != dev);
                        pass_devs.push(*dev);
                    } else {
                        if !self.moderated_pending.contains(dev) {
                            self.moderated_pending.push(*dev);
                            if self.machine.trace.enabled() {
                                self.machine
                                    .trace_event(TraceEvent::IrqMasked { dev: *dev });
                            }
                        }
                        // Anchor the gated wait (auto-tune only): the
                        // just-latched batch is excluded, so the anchor
                        // measures what arrives *while* waiting.
                        if let Some(slot @ None) = self.gate_anchors.get_mut(*dev as usize) {
                            *slot = Some((
                                self.world.nics[*dev as usize].stats().rx_packets,
                                self.machine.meter.now(),
                            ));
                        }
                        self.machine.meter.count_event("irq_moderated");
                    }
                } else if self.moderated_pending.contains(dev)
                    && self.world.nics[*dev as usize].irq_asserted()
                {
                    // Ring wedged behind a closed moderation window:
                    // real hardware would start dropping here.
                    gated_wedged.push(*dev);
                }
            }
            if pass_devs.is_empty() && !gated_wedged.is_empty() {
                // Ring-pressure override: deliver despite the window
                // (like the e1000's packets-waiting forced interrupt),
                // so moderation can delay frames but never drop them.
                for dev in &gated_wedged {
                    self.moderated_pending.retain(|d| d != dev);
                    self.machine.meter.count_event("irq_moderation_override");
                }
                pass_devs = gated_wedged;
            }
            if napi {
                // The interrupt is an ack-and-mask: devices that would
                // have taken a full reap pass enter poll mode instead,
                // and one budgeted poll pass services every masked
                // device — just interrupted and long-masked alike.
                if !pass_devs.is_empty() {
                    let now = self.machine.meter.now();
                    for &dev in &pass_devs {
                        self.world.nics[dev as usize].note_irq_delivered(now);
                        self.end_gated_wait(dev, now);
                        self.napi_enter(dev)?;
                    }
                }
                let polled = self.napi_poll_pass()?;
                if polled > 0 {
                    self.flush_deferred_upcalls()?;
                    self.sample_rx_completions();
                    self.service_itr_tuners()?;
                }
                if groups.iter().all(|(_, pending)| pending.is_empty()) {
                    if self.napi_work_pending() {
                        // Rings may still hold reaped-under-weight work;
                        // keep polling until every device completes and
                        // re-arms.
                        continue;
                    }
                    break;
                }
                if pass_devs.is_empty() && polled == 0 {
                    if done == 0 {
                        return Err(SystemError::RxRingFull);
                    }
                    break; // every remaining ring is wedged
                }
                continue;
            }
            if pass_devs.is_empty() {
                if groups.iter().all(|(_, pending)| pending.is_empty()) {
                    break; // all delivered; latched causes fire later
                }
                if done == 0 {
                    return Err(SystemError::RxRingFull);
                }
                break; // every remaining ring is wedged
            }
            // One software pass: reap each NIC's batch, then fan the
            // union out to the guests (one demux sweep per pass).
            let now = self.machine.meter.now();
            for &dev in &pass_devs {
                self.world.nics[dev as usize].note_irq_delivered(now);
                self.end_gated_wait(dev, now);
            }
            self.rx_pass(&pass_devs)?;
            // End of one receive pass: drain any deferred upcalls the
            // reap queued (unmaps, frees).
            self.flush_deferred_upcalls()?;
            self.sample_rx_completions();
            // Heavy passes outrun the tuner's interval window; retune
            // between passes so sustained load escalates promptly.
            self.service_itr_tuners()?;
            if groups.iter().all(|(_, pending)| pending.is_empty()) {
                break;
            }
        }
        self.prune_rx_inflight();
        Ok(done)
    }

    /// **Open-loop** arrival: one wire burst lands at scheduled time
    /// `arrival` and the receive path does only what real hardware
    /// forces at that instant — rings fill, and per-arrival interrupt
    /// work (or nothing, for a masked poll-mode device) runs. Frames
    /// that find no free descriptor are dropped silently at the wire
    /// (the NIC's `rx_missed` counter), *not* retried: unlike
    /// [`System::receive_burst`], the arrival schedule does not wait for
    /// the consumer. The consumer side runs separately through
    /// [`System::rx_open_loop_service`] — together they reproduce
    /// receive livelock: per-arrival ISR work preempts the consumer,
    /// and past saturation the CPU reaps frames it can never deliver.
    /// Returns the frames accepted into rings.
    ///
    /// # Errors
    ///
    /// Propagates faults; never returns `RxRingFull` (an overrun is the
    /// phenomenon under measurement, not an error).
    pub fn rx_open_loop_arrival(
        &mut self,
        frames: &[Frame],
        arrival: u64,
    ) -> Result<usize, SystemError> {
        self.service_virtual_timers(false)?;
        let mut incoming = frames.to_vec();
        self.admit_rx_frames(&mut incoming);
        if incoming.is_empty() {
            return Ok(0);
        }
        let napi = self.napi_weight > 0;
        let groups = self.shard_frames(incoming);
        let mut accepted_total = 0usize;
        for (dev, pending) in groups {
            if pending.is_empty() {
                continue;
            }
            let accepted =
                self.world.nics[dev as usize].deliver_batch(&mut self.machine.phys, &pending);
            if accepted == 0 {
                continue; // ring overrun: dropped free, before any work
            }
            accepted_total += accepted;
            for f in &pending[..accepted] {
                self.rx_inflight.insert((f.flow, f.seq), arrival);
            }
            if self.rx_flow_dev.len() > 8192 {
                self.rx_flow_dev.clear();
            }
            for f in &pending[..accepted] {
                self.rx_flow_dev.insert(f.flow, dev);
            }
            let now = self.machine.meter.now();
            if napi && self.poll_mode[dev as usize] {
                // Masked: zero per-arrival cost — the point of NAPI.
            } else if self.world.nics[dev as usize].irq_allowed_at(now) {
                self.moderated_pending.retain(|d| *d != dev);
                self.world.nics[dev as usize].note_irq_delivered(now);
                self.end_gated_wait(dev, now);
                if napi {
                    self.napi_enter(dev)?;
                } else {
                    // Per-arrival ISR: reap every filled descriptor now
                    // (into the demux queues for TwinDrivers); the
                    // consumer flush happens whenever the CPU next gets
                    // a gap. This is the livelock-prone discipline.
                    self.rx_isr_reap(dev)?;
                }
            } else if !self.moderated_pending.contains(&dev) {
                self.moderated_pending.push(dev);
                self.machine.meter.count_event("irq_moderated");
                if self.machine.trace.enabled() {
                    self.machine.trace_event(TraceEvent::IrqMasked { dev });
                }
            }
        }
        self.flush_deferred_upcalls()?;
        self.sample_rx_completions();
        self.prune_rx_inflight();
        Ok(accepted_total)
    }

    /// The open-loop consumer: runs poll passes (NAPI) or standalone
    /// flush rounds (interrupt mode) until virtual time reaches `until`
    /// or all work drains — whichever is first. Idle gaps advance the
    /// virtual clock through [`System::run_idle`], so moderation timers
    /// and deadline flushes fire on schedule.
    ///
    /// # Errors
    ///
    /// Propagates faults from serviced work and timers.
    pub fn rx_open_loop_service(&mut self, until: u64) -> Result<(), SystemError> {
        loop {
            self.service_virtual_timers(false)?;
            let now = self.machine.meter.now();
            if now >= until {
                return Ok(());
            }
            if self.napi_weight > 0 && self.napi_work_pending() {
                let polled = self.napi_poll_pass()?;
                self.sample_rx_completions();
                // A zero-reap pass re-armed every idle device; loop to
                // reclassify.
                let _ = polled;
                continue;
            }
            if self.rx_open_loop_pending() {
                self.flush_rx_round()?;
                self.sample_rx_completions();
                continue;
            }
            let now = self.machine.meter.now();
            if now < until {
                self.run_idle(until - now)?;
            }
            return Ok(());
        }
    }

    /// Whether the open-loop consumer still owes work: a non-empty
    /// per-guest demux queue, or ring descriptors waiting under a
    /// masked poll-mode device.
    pub fn rx_open_loop_pending(&self) -> bool {
        if self.world.xen.as_ref().is_some_and(|x| {
            x.domains.iter().any(|d| {
                // A sleeping guest's backlog is not serviceable work:
                // it waits for the wakeup timer, which idle stepping
                // lands on (`next_virtual_event`), not for the
                // consumer loop.
                !d.rx_queue.is_empty() && self.sched.as_ref().map_or(true, |s| s.is_running(d.id.0))
            })
        }) {
            return true;
        }
        self.poll_mode
            .iter()
            .zip(&self.world.nics)
            .any(|(&polling, nic)| polling && nic.rx_pending() > 0)
    }

    /// Runs the configuration's receive software path for one hardware
    /// pass covering `devs` (each with a freshly filled RX ring): per-NIC
    /// interrupt dispatch and descriptor reap, then a single demux flush
    /// with one virtual interrupt per destination guest per quantum
    /// round.
    fn rx_pass(&mut self, devs: &[u32]) -> Result<(), SystemError> {
        match self.config {
            Config::NativeLinux => {
                for &dev in devs {
                    self.rx_dom0_style(false, dev)?;
                }
            }
            Config::XenDom0 => {
                for &dev in devs {
                    self.rx_dom0_style(true, dev)?;
                }
            }
            Config::XenGuest => self.rx_baseline_guest(devs)?,
            Config::TwinDrivers => self.rx_twin(devs)?,
        }
        Ok(())
    }

    /// Polled receive (NAPI-style): reaps every filled RX descriptor
    /// through `e1000_poll_rx_batch` on the configuration's driver
    /// instance — no interrupt dispatch, no `ICR` read — then flushes
    /// per-guest queues. Returns the number of frames reaped.
    ///
    /// # Errors
    ///
    /// Propagates faults; [`SystemError::DriverAborted`] if the
    /// hypervisor driver is dead.
    pub fn poll_rx_batch(&mut self) -> Result<usize, SystemError> {
        // The polled path bypasses interrupts entirely, but due virtual
        // timers (deadline flush) still run first.
        self.service_virtual_timers(false)?;
        self.world.kernel.begin_stack_burst();
        let multi = self.multi_nic();
        let mut reaped = 0usize;
        for dev in 0..self.world.nics.len() as u32 {
            let args = if multi {
                vec![self.netdev_of(dev) as u32, dev]
            } else {
                vec![self.netdev as u32]
            };
            let entry = if multi {
                "e1000_poll_rx_batch_dev"
            } else {
                "e1000_poll_rx_batch"
            };
            self.machine.meter.push_domain(CostDomain::Driver);
            let r = if self.config == Config::TwinDrivers {
                let hyp = self.hyperdrv.as_ref().unwrap();
                let poll = if multi {
                    hyp.poll_rx_batch_dev_entry()
                } else {
                    hyp.poll_rx_batch_entry()
                }
                .unwrap();
                self.call_hyperdrv(poll, &args, 20_000_000, dev)
            } else {
                let poll = self.driver.entry(entry).unwrap();
                self.call_dom0(poll, &args, 20_000_000)
            };
            self.machine.meter.pop_domain();
            reaped += r? as usize;
        }
        // End of the polled pass: a natural dom0 scheduling point.
        self.flush_deferred_upcalls()?;
        match self.config {
            // Hypervisor demux queued frames per guest: flush them.
            Config::TwinDrivers => self.flush_guest_rx_queues()?,
            // Bridge mode queued frames toward the backend: push them
            // through the I/O channel (the poll runs in dom0, so no
            // domain switches around it).
            Config::XenGuest => self.forward_bridged_frames()?,
            _ => {}
        }
        // NAPI semantics: the polled reap consumed every device's
        // latched work (without an ICR read), so no moderated delivery
        // is owed — otherwise the window opening would dispatch a
        // spurious interrupt pass over empty rings.
        self.moderated_pending.clear();
        self.sample_rx_completions();
        Ok(reaped)
    }

    /// Whether a device is currently in NAPI poll mode (its RX interrupt
    /// masked, serviced by the budgeted poll loop). Always `false` when
    /// [`SystemOptions::napi_weight`] is 0.
    pub fn in_poll_mode(&self, dev: u32) -> bool {
        self.poll_mode.get(dev as usize).copied().unwrap_or(false)
    }

    /// Turns the flight recorder on or off at runtime (see
    /// [`SystemOptions::tracing`] for the build-time knob). Recording
    /// never charges a cycle, so toggling this cannot perturb any
    /// measurement.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.machine.trace.set_enabled(enabled);
    }

    /// Virtual cycles `dev` has spent in NAPI poll mode: completed
    /// enter→complete episodes plus the in-progress one (measured to
    /// now). Always 0 when NAPI is off. Pure bookkeeping — maintained
    /// without charging.
    pub fn poll_mode_cycles(&self, dev: u32) -> u64 {
        let i = dev as usize;
        let done = self.poll_cycles.get(i).copied().unwrap_or(0);
        let live = self
            .poll_entered_at
            .get(i)
            .copied()
            .flatten()
            .map(|t| self.machine.meter.now().saturating_sub(t))
            .unwrap_or(0);
        done + live
    }

    /// One unified snapshot of every stats source in the system — the
    /// cycle meter (per-domain totals and named event counters), per-NIC
    /// device stats, per-guest delivery/drop counters, upcall-engine and
    /// grant counters, grant-cache stats, the flight recorder's own
    /// recorded/dropped counts — as a flat [`MetricSet`]. Consumers take
    /// two snapshots and [`MetricSet::delta_since`] them; all counters
    /// are integers read from the same sources the scattered accessors
    /// expose, so sweeps built on deltas are bit-exact with the old
    /// per-struct bookkeeping.
    pub fn metrics(&self) -> MetricSet {
        let mut ms = MetricSet::new();
        let meter = &self.machine.meter;
        ms.set("clock.now_cycles", meter.now());
        for d in CostDomain::ALL {
            ms.set(format!("meter.cycles.{}", d.label()), meter.cycles(d));
        }
        for (name, v) in meter.events() {
            ms.set(format!("event.{name}"), *v);
        }
        for (i, nic) in self.world.nics.iter().enumerate() {
            let s = nic.stats();
            ms.set(format!("nic{i}.tx_packets"), s.tx_packets);
            ms.set(format!("nic{i}.rx_packets"), s.rx_packets);
            ms.set(format!("nic{i}.tx_bytes"), s.tx_bytes);
            ms.set(format!("nic{i}.rx_bytes"), s.rx_bytes);
            ms.set(format!("nic{i}.rx_missed"), s.rx_missed);
            ms.set(format!("nic{i}.rx_irqs"), s.rx_irqs);
            ms.set(format!("nic{i}.tx_irqs"), s.tx_irqs);
            ms.set(format!("nic{i}.irqs_delivered"), nic.irqs_delivered());
            ms.set(format!("nic{i}.itr"), u64::from(nic.itr()));
            ms.set(
                format!("nic{i}.poll_cycles"),
                self.poll_mode_cycles(i as u32),
            );
        }
        if let Some(xen) = self.world.xen.as_ref() {
            ms.set("xen.switches", xen.switches);
            ms.set("xen.hypercalls", xen.hypercalls);
            ms.set("xen.virqs_sent", xen.virqs_sent);
            ms.set("xen.softirqs_coalesced", xen.softirqs_coalesced);
            ms.set("grant.maps", xen.grants.maps);
            ms.set("grant.unmaps", xen.grants.unmaps);
            ms.set("grant.copies", xen.grants.copies);
            for (dev, dg) in &xen.grants.per_device {
                ms.set(format!("grant.dev{dev}.maps"), dg.maps);
                ms.set(format!("grant.dev{dev}.unmaps"), dg.unmaps);
                ms.set(format!("grant.dev{dev}.copies"), dg.copies);
            }
            for d in &xen.domains {
                if d.kind != DomainKind::Guest {
                    continue;
                }
                let g = d.id.0;
                ms.set(format!("guest{g}.delivered"), d.rx_delivered.len() as u64);
                ms.set(format!("guest{g}.queued"), d.rx_queue.len() as u64);
                ms.set(format!("guest{g}.queue_drops"), d.rx_queue_drops);
                ms.set(
                    format!("guest{g}.early_drops"),
                    self.rx_early_drops.get(&g).copied().unwrap_or(0),
                );
            }
        }
        if let Some(hs) = self.world.hyper.as_ref() {
            let s = hs.engine.stats;
            ms.set("upcall.enqueued", s.enqueued);
            ms.set("upcall.flushes", s.flushes);
            ms.set("upcall.forced_flushes", s.forced_flushes);
            ms.set("upcall.continuations", s.continuations);
            ms.set("upcall.completions", s.completions);
            ms.set("upcall.max_depth", s.max_depth as u64);
            ms.set("upcall.executed", hs.upcalls);
            ms.set("upcall.demux_misses", hs.demux_misses);
            ms.record_samples("upcall_latency", hs.engine.latency_samples());
        }
        if let Some(cs) = self.grant_cache_stats() {
            ms.set("grantcache.hits", cs.hits);
            ms.set("grantcache.misses", cs.misses);
            ms.set("grantcache.evictions", cs.evictions);
            ms.set("grantcache.revoked", cs.revoked);
        }
        ms.set("trace.events_recorded", self.machine.trace.recorded());
        ms.set("trace.events_dropped", self.machine.trace.dropped());
        ms.set("fault.quarantined", self.quarantine.len() as u64);
        ms.set("fault.recoveries", self.recovery_log.len() as u64);
        ms.set(
            "fault.inflight_replayed",
            self.recovery_log
                .iter()
                .map(|r| u64::from(r.replayed))
                .sum(),
        );
        ms.set(
            "fault.inflight_dropped",
            self.recovery_log.iter().map(|r| u64::from(r.dropped)).sum(),
        );
        if let Some(s) = self.sched.as_ref() {
            let now = meter.now();
            let mut placements = 0u64;
            let mut migrations = 0u64;
            for g in s.guests() {
                let st = s.stats(g, now).expect("registered vcpu");
                ms.set(format!("sched.guest{g}.cpu"), u64::from(st.cpu));
                ms.set(format!("sched.guest{g}.running"), u64::from(st.running));
                ms.set(format!("sched.guest{g}.run_cycles"), st.run_cycles);
                ms.set(format!("sched.guest{g}.wakes"), st.wakes);
                ms.set(format!("sched.guest{g}.sleeps"), st.sleeps);
                let (p, m) = self.affinity_stats.get(&g).copied().unwrap_or((0, 0));
                ms.set(format!("sched.guest{g}.placements"), p);
                ms.set(format!("sched.guest{g}.migrations"), m);
                placements += p;
                migrations += m;
            }
            // Flows placed for guests outside the vCPU set never happen
            // (they take the FlowHash fallback), so the totals are the
            // per-guest sums.
            ms.set("sched.placements", placements);
            ms.set("sched.migrations", migrations);
        }
        ms.record_samples("rx_latency", self.rx_latency.samples());
        if let Some(per_guest) = self.guest_latency.as_ref() {
            for (g, r) in per_guest {
                ms.record_samples(format!("rx_latency.guest{g}"), r.samples());
            }
        }
        ms
    }

    /// Writes `<label>.trace.json` (chrome://tracing) and
    /// `<label>.metrics.json` (flat [`MetricSet`] dump) into the
    /// directory named by the `TWIN_TRACE_OUT` environment variable.
    /// A no-op when the variable is unset; never fatal.
    pub fn export_trace(&self, label: &str) {
        if let Some(dir) = twin_trace::export::trace_out_dir() {
            twin_trace::export::write_trace_files(
                &dir,
                label,
                &self.machine.trace,
                &self.metrics(),
            );
        }
    }

    /// Sets (or changes) a guest's DRR flush weight at runtime. Weight 1
    /// is the neutral default; 0 is clamped to 1.
    pub fn set_guest_weight(&mut self, gid: DomId, weight: u32) {
        self.guest_weights.insert(gid.0, weight.max(1));
    }

    /// Frames early-dropped at the admission watermark for one guest.
    pub fn rx_early_drops_for(&self, gid: DomId) -> u64 {
        self.rx_early_drops.get(&gid.0).copied().unwrap_or(0)
    }

    /// Total frames early-dropped at the admission watermark.
    pub fn rx_early_drops(&self) -> u64 {
        self.rx_early_drops.values().sum()
    }

    /// Per-guest early-drop counters (guest id → frames dropped).
    pub fn rx_early_drops_per_guest(&self) -> BTreeMap<u32, u64> {
        self.rx_early_drops.clone()
    }

    /// Frames dropped at one guest's demux queue cap (work already sunk
    /// — the livelock waste the early drop exists to avoid).
    pub fn rx_queue_drops_for(&self, gid: DomId) -> u64 {
        self.world
            .xen
            .as_ref()
            .map_or(0, |x| x.domain(gid).rx_queue_drops)
    }

    /// Total frames dropped at demux queue caps across all guests.
    pub fn rx_queue_drops(&self) -> u64 {
        self.world
            .xen
            .as_ref()
            .map_or(0, |x| x.domains.iter().map(|d| d.rx_queue_drops).sum())
    }

    /// Frames dropped by NICs for want of a free RX descriptor.
    pub fn rx_ring_drops(&self) -> u64 {
        self.world.nics.iter().map(|n| n.stats().rx_missed).sum()
    }

    /// Frames fully delivered to one domain.
    pub fn delivered_rx_for(&self, gid: DomId) -> usize {
        self.world
            .xen
            .as_ref()
            .map_or(0, |x| x.domain(gid).rx_delivered.len())
    }

    /// NAPI mode entry for one device: the ISR acknowledges the cause
    /// (`ICR` read-to-clear), masks the RX interrupt (`IMC`) and
    /// schedules the poll softirq — no descriptor is reaped here; the
    /// budgeted poll pass does that. Poll mode takes precedence over the
    /// ITR moderation latch: a device entering poll mode leaves
    /// `moderated_pending`, since its cause is consumed right here.
    fn napi_enter(&mut self, dev: u32) -> Result<(), SystemError> {
        if self.poll_mode[dev as usize] {
            return Ok(());
        }
        {
            let m = &mut self.machine;
            m.meter.count_event("irq");
            m.meter.charge_to(CostDomain::Xen, m.cost.irq_dispatch);
        }
        if self.machine.trace.enabled() {
            self.machine.trace_event(TraceEvent::IrqDelivered { dev });
        }
        // Ack: read-to-clear consumes the latched cause.
        let _ = self.world.nics[dev as usize].mmio_read(twin_nic::regs::ICR);
        Env::mmio_write(
            &mut self.world,
            &mut self.machine,
            dev,
            twin_nic::regs::IMC,
            twin_isa::Width::Long,
            twin_nic::intr::RXT0,
        )?;
        {
            let m = &mut self.machine;
            m.meter.charge_to(CostDomain::Xen, m.cost.napi_switch);
            m.meter.count_event("napi_enter");
        }
        self.poll_mode[dev as usize] = true;
        self.poll_entered_at[dev as usize] = Some(self.machine.meter.now());
        if self.machine.trace.enabled() {
            self.machine.trace_event(TraceEvent::NapiEnter { dev });
        }
        self.moderated_pending.retain(|d| *d != dev);
        Ok(())
    }

    /// NAPI completion for one device: re-enable the RX interrupt
    /// (`IMS`) after a poll pass that drained the ring below its weight.
    /// The `ICR` read-to-clear first discards any cause latched by
    /// frames the pass already reaped, so re-arming cannot fire a
    /// spurious interrupt over an empty ring.
    fn napi_rearm(&mut self, dev: u32) -> Result<(), SystemError> {
        let _ = self.world.nics[dev as usize].mmio_read(twin_nic::regs::ICR);
        Env::mmio_write(
            &mut self.world,
            &mut self.machine,
            dev,
            twin_nic::regs::IMS,
            twin_isa::Width::Long,
            twin_nic::intr::RXT0,
        )?;
        {
            let m = &mut self.machine;
            m.meter.charge_to(CostDomain::Xen, m.cost.napi_switch);
            m.meter.count_event("napi_exit");
        }
        self.poll_mode[dev as usize] = false;
        let now = self.machine.meter.now();
        if let Some(entered) = self.poll_entered_at[dev as usize].take() {
            self.poll_cycles[dev as usize] += now.saturating_sub(entered);
        }
        if self.machine.trace.enabled() {
            self.machine.trace_event(TraceEvent::NapiComplete { dev });
        }
        Ok(())
    }

    /// The reap half of one budgeted poll: dispatch the poll softirq and
    /// reap up to [`SystemOptions::napi_weight`] descriptors through
    /// `e1000_clean_rx_budget` into the per-guest queues. No flush, no
    /// re-arm — [`System::napi_poll_pass`] sequences those across all
    /// polled devices. Returns frames reaped.
    fn napi_poll_dev_reap(&mut self, dev: u32) -> Result<usize, SystemError> {
        let weight = self.napi_budget_for(dev) as u32;
        if self.machine.trace.enabled() {
            self.machine.trace_event(TraceEvent::SoftirqDispatch {
                kind: "napi_poll",
                dev,
            });
        }
        {
            let xen = self.world.xen.as_mut().expect("napi implies xen");
            xen.raise_softirq(Softirq::NapiPoll { nic: dev });
            // Drain the pending set so the poll is accounted as softirq
            // work; UpcallFlush kicks ride along as usual.
            let work = xen.take_runnable_softirqs();
            for w in work {
                if let Softirq::UpcallFlush = w {
                    if self.machine.trace.enabled() {
                        self.machine.trace_event(TraceEvent::SoftirqDispatch {
                            kind: "upcall_flush",
                            dev: 0,
                        });
                    }
                    self.flush_deferred_upcalls_as(FlushCause::HighWater)?;
                }
            }
        }
        {
            let m = &mut self.machine;
            m.meter
                .charge_to(CostDomain::Xen, m.cost.napi_poll_dispatch);
            m.meter.count_event("napi_poll");
        }
        self.world.kernel.begin_stack_burst();
        let multi = self.multi_nic();
        let hyp = self.hyperdrv.as_ref().expect("napi implies twindrivers");
        let (entry, args) = if multi {
            (
                hyp.entry("e1000_poll_rx_budget_dev").unwrap(),
                vec![self.netdev_of(dev) as u32, weight, dev],
            )
        } else {
            (
                hyp.entry("e1000_poll_rx_budget").unwrap(),
                vec![self.netdev as u32, weight],
            )
        };
        self.machine.meter.push_domain(CostDomain::Driver);
        let r = self.call_hyperdrv(entry, &args, 20_000_000, dev);
        self.machine.meter.pop_domain();
        let reaped = r? as usize;
        if self.machine.trace.enabled() {
            self.machine.trace_event(TraceEvent::NapiPoll {
                dev,
                reaped: reaped as u32,
            });
        }
        Ok(reaped)
    }

    /// One poll pass over every device currently in poll mode: reap each
    /// device's budget first, then one demux flush over the union (so no
    /// guest's ring wait includes another guest's flush), then re-arm
    /// every device whose reap came in under weight (the ring is
    /// drained — classic `napi_complete`). Returns total frames reaped.
    fn napi_poll_pass(&mut self) -> Result<usize, SystemError> {
        let mut polled: Vec<(u32, usize, usize)> = Vec::new();
        for dev in 0..self.world.nics.len() as u32 {
            if self.poll_mode[dev as usize] {
                let budget = self.napi_budget_for(dev);
                let reaped = self.napi_poll_dev_reap(dev)?;
                polled.push((dev, reaped, budget));
            }
        }
        if polled.is_empty() {
            return Ok(0);
        }
        self.flush_deferred_upcalls()?;
        self.flush_guest_rx_queues()?;
        for &(dev, reaped, budget) in &polled {
            if reaped < budget {
                self.napi_rearm(dev)?;
            }
        }
        Ok(polled.iter().map(|(_, r, _)| r).sum())
    }

    /// The poll budget for `dev` this pass. Without the scheduler model
    /// this is exactly [`SystemOptions::napi_weight`]. With it, polling
    /// capacity weights toward devices whose guests can consume the
    /// frames: a device whose softirq CPU hosts a running vCPU (or no
    /// vCPU at all — an unscheduled device) polls at full weight, while
    /// one whose CPU's vCPUs are all asleep drops to a quarter weight —
    /// it still drains (livelock defence intact), but the budget the
    /// sleeping guests cannot consume goes to devices that can.
    fn napi_budget_for(&self, dev: u32) -> usize {
        match self.sched.as_ref() {
            Some(s) => {
                let cpu = s.nic_cpu(dev);
                if !s.cpu_has_vcpus(cpu) || s.cpu_has_running(cpu) {
                    self.napi_weight
                } else {
                    (self.napi_weight / 4).max(1)
                }
            }
            None => self.napi_weight,
        }
    }

    /// Whether any device still owes poll work (is in poll mode).
    fn napi_work_pending(&self) -> bool {
        self.poll_mode.iter().any(|&p| p)
    }

    /// The configuration's per-arrival ISR reap — interrupt dispatch and
    /// descriptor reap without the consumer-side flush (TwinDrivers
    /// demux-queues frames; the dom0-style paths deliver inline, as
    /// their stack runs in interrupt context anyway).
    fn rx_isr_reap(&mut self, dev: u32) -> Result<(), SystemError> {
        match self.config {
            Config::NativeLinux => self.rx_dom0_style(false, dev),
            Config::XenDom0 => self.rx_dom0_style(true, dev),
            Config::XenGuest => self.rx_baseline_guest(&[dev]),
            Config::TwinDrivers => self.rx_twin_reap(&[dev]),
        }
    }

    /// Early drop at RX-descriptor refill time: frames whose destination
    /// guest's backlog has reached
    /// [`SystemOptions::rx_backlog_watermark`] are dropped *before*
    /// being posted to a ring, for the cost of a compare and a counter
    /// bump — the Mogul/Ramakrishnan discipline of shedding load at the
    /// cheapest point instead of after the reap work is sunk. A no-op
    /// when the watermark is unset. Admitted frames count toward the
    /// backlog snapshot, so one oversized burst cannot overshoot the
    /// watermark.
    fn admit_rx_frames(&mut self, frames: &mut Vec<Frame>) {
        let Some(wm) = self.rx_watermark else {
            return;
        };
        let Some(xen) = self.world.xen.as_ref() else {
            return;
        };
        let mut guests: Vec<(MacAddr, u32, usize)> = xen
            .domains
            .iter()
            .filter(|d| d.kind == DomainKind::Guest)
            .map(|d| (d.mac, d.id.0, d.rx_queue.len()))
            .collect();
        let mut dropped: Vec<(u32, u64)> = Vec::new();
        frames.retain(|f| {
            let Some(slot) = guests.iter_mut().find(|(mac, _, _)| *mac == f.dst) else {
                return true; // not guest-bound: the demux-miss path counts it
            };
            if slot.2 >= wm {
                match dropped.iter_mut().find(|(g, _)| *g == slot.1) {
                    Some(d) => d.1 += 1,
                    None => dropped.push((slot.1, 1)),
                }
                false
            } else {
                slot.2 += 1;
                true
            }
        });
        for (gid, n) in dropped {
            *self.rx_early_drops.entry(gid).or_insert(0) += n;
            for _ in 0..n {
                let m = &mut self.machine;
                m.meter.charge_to(CostDomain::Xen, m.cost.early_drop);
                m.meter.count_event("early_drop");
                if self.machine.trace.enabled() {
                    self.machine
                        .trace_event(TraceEvent::EarlyDrop { guest: gid });
                }
            }
        }
    }

    /// Adds another guest domain (TwinDrivers configuration) with its own
    /// MAC, so the hypervisor's receive demultiplexing has more than one
    /// destination. Returns the new domain's id.
    ///
    /// # Errors
    ///
    /// Fails if guest memory cannot be mapped.
    pub fn add_guest(&mut self, mac: MacAddr) -> Result<DomId, SystemError> {
        let gspace = self.machine.new_space();
        let xen = self
            .world
            .xen
            .as_mut()
            .ok_or_else(|| SystemError::Build("no hypervisor in this configuration".into()))?;
        let gid = xen.add_guest(gspace, mac);
        if self.rx_queue_cap.is_some() {
            xen.domain_mut(gid).rx_queue_cap = self.rx_queue_cap;
        }
        self.machine.map_fresh(gspace, GUEST_HEAP_BASE, 4)?;
        Ok(gid)
    }

    /// Registers a vCPU for `guest` on physical CPU `cpu` with a
    /// periodic `run_cycles`-on / `sleep_cycles`-off schedule starting
    /// now. Requires [`SystemOptions::sched`]; guests without a vCPU
    /// stay always-running.
    ///
    /// # Errors
    ///
    /// [`SystemError::Build`] when the scheduler model is off.
    pub fn sched_add_vcpu(
        &mut self,
        guest: DomId,
        cpu: u32,
        run_cycles: u64,
        sleep_cycles: u64,
    ) -> Result<(), SystemError> {
        let now = self.machine.meter.now();
        let sched = self
            .sched
            .as_mut()
            .ok_or_else(|| SystemError::Build("sched model is not enabled".into()))?;
        sched.add_vcpu(guest.0, cpu, run_cycles, sleep_cycles, now);
        Ok(())
    }

    /// The scheduler model, when enabled (test/tool observability).
    pub fn sched(&self) -> Option<&VcpuSched> {
        self.sched.as_ref()
    }

    /// Overrides the softirq CPU of one device in the scheduler's
    /// topology map (default `dev % num_cpus`). A no-op without the
    /// scheduler model.
    pub fn sched_set_nic_cpu(&mut self, dev: u32, cpu: u32) {
        if let Some(s) = self.sched.as_mut() {
            s.set_nic_cpu(dev, cpu);
        }
    }

    /// Whether the zero-copy datapath is active.
    pub fn zero_copy(&self) -> bool {
        self.zero_copy
    }

    /// Grant-cache counters (`None` when zero-copy mode is off).
    pub fn grant_cache_stats(&self) -> Option<twin_xen::GrantCacheStats> {
        self.grant_cache.as_ref().map(|c| c.stats)
    }

    /// Grants a guest's zero-copy buffer pool: maps the pool region in
    /// the guest's space and pre-pins its frames through the IOMMU
    /// allowlist (one coalesced range per run of consecutive pfns, so
    /// the per-doorbell ring walk stays a range check). The build does
    /// this for the primary guest; guests added later start ungranted —
    /// their frames take the copy fallback until this runs. Returns the
    /// pages granted (0 when already granted or zero-copy is off).
    ///
    /// # Errors
    ///
    /// Fails if pool memory cannot be mapped.
    pub fn grant_zero_copy_pool(&mut self, gid: DomId) -> Result<usize, SystemError> {
        if !self.zero_copy || self.zc_granted.contains(&gid.0) {
            return Ok(0);
        }
        let gspace = self
            .world
            .xen
            .as_ref()
            .ok_or_else(|| SystemError::Build("no hypervisor in this configuration".into()))?
            .domain(gid)
            .space;
        let pages = self.zc_pool_frames as u64;
        // Re-granting after a revocation reuses the pool pages already
        // mapped in the guest; only a first grant allocates.
        if self
            .machine
            .translate(gspace, ExecMode::Guest, ZC_POOL_BASE, false)
            .is_err()
        {
            self.machine.map_fresh(gspace, ZC_POOL_BASE, pages)?;
        }
        if let Some(iommu) = self.world.iommu.as_mut() {
            // Pin the pool up front, coalescing consecutive pfns.
            let mut run: Option<(u64, u64)> = None; // (start_pfn, count)
            for p in 0..pages {
                let t = self.machine.translate(
                    gspace,
                    ExecMode::Guest,
                    ZC_POOL_BASE + p * PAGE_SIZE,
                    false,
                )?;
                run = match run {
                    Some((start, n)) if t.entry.pfn == start + n => Some((start, n + 1)),
                    Some((start, n)) => {
                        iommu.pin_range(start, n);
                        Some((t.entry.pfn, 1))
                    }
                    None => Some((t.entry.pfn, 1)),
                };
            }
            if let Some((start, n)) = run {
                iommu.pin_range(start, n);
            }
        }
        self.zc_granted.insert(gid.0);
        Ok(pages as usize)
    }

    /// Revokes every cached grant a guest owns — the quarantine seam
    /// for fault isolation: when trust in a guest (or the driver slice
    /// serving it) is withdrawn, its live pool mappings are torn down
    /// (one `grant_unmap` each, charged) and subsequent frames fall
    /// back to copies until the pool is granted again. Returns how many
    /// mappings were revoked.
    pub fn revoke_zero_copy_grants(&mut self, gid: DomId) -> usize {
        let Some(cache) = self.grant_cache.as_mut() else {
            return 0;
        };
        let n = cache.revoke_domain(gid.0);
        for _ in 0..n {
            self.world
                .xen
                .as_mut()
                .expect("zero-copy implies a hypervisor")
                .grant_unmap(&mut self.machine);
        }
        if self.machine.trace.enabled() {
            self.machine.trace_event(TraceEvent::GrantCacheRevoke {
                dom: gid.0,
                count: n as u32,
            });
        }
        self.zc_granted.remove(&gid.0);
        n
    }

    /// One zero-copy slot access for a frame toward domain `dom`:
    /// `slot` is the frame's index within its `(flow, direction)` pool
    /// slice for the current pass. Charges `grant_cache_hit` on a hit;
    /// `grant_map` + `pin_page` on a first-touch miss (plus a
    /// `grant_unmap` when LRU eviction made room); `copy_fallback`
    /// dispatch when the frame cannot land in a slot — ungranted
    /// domain, oversized frame, or exhausted pool slice. Returns `true`
    /// when the mapping covers the frame (the caller skips its copy),
    /// `false` on fallback (the caller copies and charges as in copy
    /// mode).
    fn zc_access(
        &mut self,
        dom: DomId,
        flow: u32,
        tx: bool,
        slot: usize,
        len: u32,
        dev: u32,
    ) -> bool {
        if !self.zc_granted.contains(&dom.0) || len > ZC_SLOT_BYTES || slot >= self.zc_pool_frames {
            let m = &mut self.machine;
            m.meter.charge_to(CostDomain::Xen, m.cost.copy_fallback);
            m.meter.count_event("copy_fallback");
            return false;
        }
        let page = (u64::from(tx) << 48) | (u64::from(flow) << 16) | slot as u64;
        let access = self
            .grant_cache
            .as_mut()
            .expect("granted domains imply a cache")
            .access(dom.0, page);
        match access {
            GrantAccess::Hit => {
                let m = &mut self.machine;
                m.meter.charge_to(CostDomain::Xen, m.cost.grant_cache_hit);
                m.meter.count_event("grant_cache_hit");
                if self.machine.trace.enabled() {
                    self.machine
                        .trace_event(TraceEvent::GrantCacheHit { dom: dom.0, page });
                }
            }
            GrantAccess::Miss { evicted } => {
                self.world
                    .xen
                    .as_mut()
                    .expect("zero-copy implies a hypervisor")
                    .grant_map_dev(&mut self.machine, dev);
                let m = &mut self.machine;
                m.meter.charge_to(CostDomain::Xen, m.cost.pin_page);
                m.meter.count_event("pin_page");
                if self.machine.trace.enabled() {
                    self.machine
                        .trace_event(TraceEvent::GrantCacheMiss { dom: dom.0, page });
                }
                if let Some((edom, epage)) = evicted {
                    self.world
                        .xen
                        .as_mut()
                        .unwrap()
                        .grant_unmap(&mut self.machine);
                    self.machine.meter.count_event("grant_cache_evict");
                    if self.machine.trace.enabled() {
                        self.machine.trace_event(TraceEvent::GrantCacheEvict {
                            dom: edom,
                            page: epage,
                        });
                    }
                }
            }
        }
        true
    }

    fn dispatch_dom0_irq(&mut self, dev: u32) -> Result<(), SystemError> {
        // One interrupt covers however many descriptors the NIC filled;
        // the first packet the handler pushes into the stack pays the
        // full wakeup cost, the rest of the burst the GRO marginal.
        self.world.kernel.begin_stack_burst();
        if self.machine.trace.enabled() {
            self.machine.trace_event(TraceEvent::IrqDelivered { dev });
        }
        let m = &mut self.machine;
        m.meter.count_event("irq");
        m.meter.charge_to(CostDomain::Dom0, m.cost.irq_dispatch);
        // Each NIC asserts its own IRQ line, which probe registered a
        // handler for (`request_irq(dev, …)`).
        let irq = self.world.nics[dev as usize].irq_line();
        let handler = *self
            .world
            .kernel
            .irq_handlers
            .get(&irq)
            .expect("irq handler registered");
        self.machine.meter.push_domain(CostDomain::Driver);
        let r = if self.multi_nic() {
            let intr = self.driver.entry("e1000_intr_dev").unwrap();
            self.call_dom0(intr, &[self.netdev_of(dev) as u32, dev], 10_000_000)
        } else {
            self.call_dom0(handler, &[self.netdev as u32], 10_000_000)
        };
        self.machine.meter.pop_domain();
        r.map(|_| ())
    }

    fn rx_dom0_style(&mut self, on_xen: bool, dev: u32) -> Result<(), SystemError> {
        if on_xen {
            let xen = self.world.xen.as_mut().expect("xen");
            // Xen routes the physical interrupt to dom0 as an event.
            xen.send_virq(&mut self.machine, DomId::DOM0, 3);
            let m = &mut self.machine;
            m.meter
                .charge_to(CostDomain::Xen, m.cost.paravirt_tax_per_packet);
        }
        self.dispatch_dom0_irq(dev)
    }

    fn rx_baseline_guest(&mut self, devs: &[u32]) -> Result<(), SystemError> {
        let gid = self.guest.expect("guest");
        // Interrupts arrive while the guest runs: one event per raising
        // NIC, but a single switch to dom0 covers the whole pass.
        let xen = self.world.xen.as_mut().expect("xen");
        for _ in devs {
            xen.send_virq(&mut self.machine, DomId::DOM0, 3);
        }
        xen.switch_to(&mut self.machine, DomId::DOM0);
        for &dev in devs {
            self.dispatch_dom0_irq(dev)?;
        }
        self.forward_bridged_frames()?;
        let xen = self.world.xen.as_mut().unwrap();
        xen.switch_to(&mut self.machine, gid);
        Ok(())
    }

    /// Pushes frames the bridge queued toward the backend through the
    /// I/O channel into the guest (baseline path, running in dom0):
    /// grants and copies stay per-packet, the guest is notified once for
    /// the whole batch, and its stack pays the full wakeup cost only for
    /// the first frame.
    fn forward_bridged_frames(&mut self) -> Result<(), SystemError> {
        let gid = self.guest.expect("guest");
        let frames: Vec<Frame> = self.world.kernel.rx_delivered.drain(..).collect();
        let batched = !frames.is_empty();
        let mut zc_occ: BTreeMap<u32, usize> = BTreeMap::new();
        for (i, f) in frames.into_iter().enumerate() {
            let dev = self.rx_flow_dev.get(&f.flow).copied().unwrap_or(0);
            {
                let m = &mut self.machine;
                m.meter
                    .charge_to(CostDomain::Dom0, m.cost.netfront_per_packet);
                m.meter.charge_to(CostDomain::Dom0, m.cost.backend_rx_extra);
            }
            // Zero-copy: the frame lands straight in the guest's granted
            // RX pool — a warm pool page costs one cached grant access
            // instead of a grant-copy bracketed by map/unmap.
            let zc_hit = if self.zero_copy {
                let slot = *zc_occ.get(&f.flow).unwrap_or(&0);
                let hit = self.zc_access(gid, f.flow, false, slot, f.len(), dev);
                if hit {
                    *zc_occ.entry(f.flow).or_insert(0) += 1;
                }
                hit
            } else {
                false
            };
            if !zc_hit {
                {
                    let m = &mut self.machine;
                    // Grant-copy of the packet into guest memory.
                    let c = m.cost.copy_cycles(f.len() as u64);
                    m.meter.charge_to(CostDomain::Dom0, c);
                }
                let xen = self.world.xen.as_mut().unwrap();
                xen.grant_map_dev(&mut self.machine, dev);
                xen.grant_unmap_dev(&mut self.machine, dev);
                xen.note_grant_copy(Some(dev));
            }
            {
                let m = &mut self.machine;
                m.meter
                    .charge_to(CostDomain::DomU, m.cost.netfront_per_packet);
                let stack = if i == 0 {
                    m.cost.tcp_rx_per_packet
                } else {
                    m.cost.tcp_rx_batch_marginal
                };
                m.meter.charge_to(CostDomain::DomU, stack);
            }
            let xen = self.world.xen.as_mut().unwrap();
            xen.domain_mut(gid).rx_delivered.push(f);
        }
        if batched {
            let xen = self.world.xen.as_mut().unwrap();
            xen.send_virq(&mut self.machine, gid, 4);
        }
        Ok(())
    }

    fn rx_twin(&mut self, devs: &[u32]) -> Result<(), SystemError> {
        self.rx_twin_reap(devs)?;
        self.flush_guest_rx_queues()
    }

    /// The interrupt half of [`System::rx_twin`]: per-NIC dispatch and
    /// descriptor reap into the per-guest queues, without the demux
    /// flush — so the open-loop harness can model a per-arrival ISR
    /// whose consumer (the flush) runs only when the CPU gets a gap.
    fn rx_twin_reap(&mut self, devs: &[u32]) -> Result<(), SystemError> {
        // The hypervisor takes each NIC's interrupt directly and runs the
        // hypervisor driver's handler in softirq context (paper §4.4) —
        // from the current (guest) context, no switch. Every NIC is its
        // own softirq source (duplicates coalesce per device), and one
        // softirq pass reaps every descriptor each NIC filled.
        for &dev in devs {
            {
                let m = &mut self.machine;
                m.meter.count_event("irq");
                m.meter.charge_to(CostDomain::Xen, m.cost.irq_dispatch);
            }
            if self.machine.trace.enabled() {
                self.machine.trace_event(TraceEvent::IrqDelivered { dev });
            }
            let xen = self.world.xen.as_mut().expect("xen");
            xen.raise_softirq(Softirq::DriverIrq { nic: dev });
        }
        let multi = self.multi_nic();
        let work = self.world.xen.as_mut().unwrap().take_runnable_softirqs();
        for w in work {
            let nic = match w {
                // A poll softirq raised while an interrupt pass is in
                // flight reaps through the same handler: the ICR read
                // inside it consumes whatever cause is latched.
                Softirq::DriverIrq { nic } | Softirq::NapiPoll { nic } => {
                    if self.machine.trace.enabled() {
                        let kind = match w {
                            Softirq::DriverIrq { .. } => "driver_irq",
                            _ => "napi_poll",
                        };
                        self.machine
                            .trace_event(TraceEvent::SoftirqDispatch { kind, dev: nic });
                    }
                    nic
                }
                // The high-water kick: drain the deferred-upcall ring if
                // no burst-pass flush got there first.
                Softirq::UpcallFlush => {
                    if self.machine.trace.enabled() {
                        self.machine.trace_event(TraceEvent::SoftirqDispatch {
                            kind: "upcall_flush",
                            dev: 0,
                        });
                    }
                    self.flush_deferred_upcalls_as(FlushCause::HighWater)?;
                    continue;
                }
            };
            let (intr, args) = if multi {
                (
                    self.hyperdrv.as_ref().unwrap().intr_dev_entry().unwrap(),
                    vec![self.netdev_of(nic) as u32, nic],
                )
            } else {
                (
                    self.hyperdrv.as_ref().unwrap().entry("e1000_intr").unwrap(),
                    vec![self.netdev as u32],
                )
            };
            self.machine.meter.push_domain(CostDomain::Driver);
            let r = self.call_hyperdrv(intr, &args, 20_000_000, nic);
            self.machine.meter.pop_domain();
            r?;
        }
        Ok(())
    }

    /// Fans demultiplexed frames out of the per-guest RX queues into the
    /// guests: per-packet copies and glue, one virtual interrupt per
    /// guest per quantum round, and the guest stack pays the full wakeup
    /// cost only for the first frame of its flush batch (paper §5.3,
    /// batched).
    ///
    /// **Fairness:** the rounds run deficit round-robin. Each round a
    /// backlogged guest's deficit grows by its weighted quantum
    /// ([`SystemOptions::rx_flush_quantum`] ×
    /// [`SystemOptions::guest_weights`], weight 1 when unset) and it is
    /// served up to the deficit, so a guest flooding the wire delays
    /// every other guest's virq by at most one weighted quantum of
    /// copies instead of its whole backlog. Unit weights degenerate to
    /// the plain per-round quantum bit-exactly. Rounds repeat until
    /// every queue drains; [`System::rx_flush_log`] records
    /// `(round, guest, frames)` for observation.
    fn flush_guest_rx_queues(&mut self) -> Result<(), SystemError> {
        self.rx_flush_log.clear();
        // Guests whose stack already paid the full wakeup cost in this
        // flush (later rounds arrive in the same scheduling pass, so they
        // only pay the batched marginal).
        let mut woken: Vec<DomId> = Vec::new();
        // Zero-copy pool occupancy per (guest, flow) across the whole
        // flush: each landed frame takes the next slot of its flow's
        // index ring, and the ring recycles when the flush completes.
        let mut zc_occ: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        let mut round = 0usize;
        while self.flush_rx_round_with(round, &mut woken, &mut zc_occ)? > 0 {
            round += 1;
        }
        Ok(())
    }

    /// One standalone DRR flush round — the open-loop consumer's unit
    /// of work between arrivals. Unlike the rounds inside
    /// [`System::flush_guest_rx_queues`], each standalone round is its
    /// own scheduling pass: the first frame per guest pays the full
    /// wakeup cost again. Returns the frames delivered this round.
    ///
    /// # Errors
    ///
    /// Propagates faults from virtual-interrupt delivery.
    pub fn flush_rx_round(&mut self) -> Result<usize, SystemError> {
        self.rx_flush_log.clear();
        let mut woken: Vec<DomId> = Vec::new();
        let mut zc_occ: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        self.flush_rx_round_with(0, &mut woken, &mut zc_occ)
    }

    fn flush_rx_round_with(
        &mut self,
        round: usize,
        woken: &mut Vec<DomId>,
        zc_occ: &mut BTreeMap<(u32, u32), usize>,
    ) -> Result<usize, SystemError> {
        let quantum = self.rx_flush_quantum.max(1);
        let guest_ids: Vec<DomId> = self
            .world
            .xen
            .as_ref()
            .unwrap()
            .domains
            .iter()
            .filter(|d| !d.rx_queue.is_empty())
            // Sleeping guests' quanta are skipped: their deficit does
            // not grow, no virq is raised, and the frames stay queued
            // until the wakeup edge releases them (bounded by the
            // scheduler's wakeup timer, which idle stepping lands on).
            .filter(|d| self.sched.as_ref().map_or(true, |s| s.is_running(d.id.0)))
            .map(|d| d.id)
            .collect();
        if guest_ids.is_empty() {
            return Ok(0);
        }
        let mut flushed = 0usize;
        for g in guest_ids {
            // Deficit round-robin: the deficit grows by the guest's
            // weighted quantum each round it has backlog, the guest is
            // served up to it, and it resets when the queue drains.
            let w = u64::from(self.guest_weights.get(&g.0).copied().unwrap_or(1).max(1));
            let deficit = self.drr_deficit.entry(g.0).or_insert(0);
            *deficit = deficit.saturating_add(quantum as u64 * w);
            let deficit_at_serve = *deficit;
            let budget = usize::try_from(*deficit).unwrap_or(usize::MAX);
            let frames: Vec<Frame> = {
                let xen = self.world.xen.as_mut().unwrap();
                let queue = &mut xen.domain_mut(g).rx_queue;
                let take = queue.len().min(budget);
                queue.drain(..take).collect()
            };
            let emptied = self
                .world
                .xen
                .as_ref()
                .unwrap()
                .domain(g)
                .rx_queue
                .is_empty();
            let d = self.drr_deficit.get_mut(&g.0).expect("deficit entry");
            if emptied {
                *d = 0;
            } else {
                *d = d.saturating_sub(frames.len() as u64);
            }
            flushed += frames.len();
            if self.machine.trace.enabled() {
                self.machine.trace_event(TraceEvent::DrrGrant {
                    guest: g.0,
                    deficit: deficit_at_serve,
                    granted: frames.len() as u32,
                });
            }
            let xen = self.world.xen.as_mut().unwrap();
            xen.send_virq(&mut self.machine, g, 4);
            self.rx_flush_log.push((round, g, frames.len()));
            let first_wake = !woken.contains(&g);
            if first_wake {
                woken.push(g);
            }
            for (i, f) in frames.into_iter().enumerate() {
                let dev = self.rx_flow_dev.get(&f.flow).copied().unwrap_or(0);
                // Warm vs cold delivery: with the scheduler model on, a
                // frame serviced by a softirq CPU other than the one the
                // owning guest's vCPU occupies finds none of the guest's
                // receive path resident and pays the sTLB/cache refill
                // slice. Affinity placement makes this charge vanish;
                // oblivious policies pay it on most deliveries.
                let cold = match self.sched.as_ref() {
                    Some(s) => s.cpu_of(g.0).is_some_and(|cpu| s.nic_cpu(dev) != cpu),
                    None => false,
                };
                if cold {
                    let m = &mut self.machine;
                    m.meter
                        .charge_to(CostDomain::Xen, m.cost.cold_delivery_refill);
                    m.meter.count_event("cold_delivery");
                }
                // Zero-copy: the twin driver posted a pool page for
                // this slot, so delivery is a cached grant access
                // instead of a copy into the guest.
                let zc_hit = if self.zero_copy {
                    let slot = *zc_occ.get(&(g.0, f.flow)).unwrap_or(&0);
                    let hit = self.zc_access(g, f.flow, false, slot, f.len(), dev);
                    if hit {
                        *zc_occ.entry((g.0, f.flow)).or_insert(0) += 1;
                    }
                    hit
                } else {
                    false
                };
                if !zc_hit {
                    {
                        let m = &mut self.machine;
                        let c = m.cost.copy_cycles(f.len() as u64);
                        m.meter.charge_to(CostDomain::Xen, c);
                    }
                    if let Some(xen) = self.world.xen.as_mut() {
                        xen.note_grant_copy(Some(dev));
                    }
                }
                {
                    let m = &mut self.machine;
                    m.meter.charge_to(CostDomain::Xen, m.cost.twin_glue_rx);
                }
                {
                    let m = &mut self.machine;
                    m.meter.charge_to(CostDomain::DomU, m.cost.pv_driver_guest);
                    let stack = if i == 0 && first_wake {
                        m.cost.tcp_rx_per_packet
                    } else {
                        m.cost.tcp_rx_batch_marginal
                    };
                    m.meter.charge_to(CostDomain::DomU, stack);
                }
                let xen = self.world.xen.as_mut().unwrap();
                xen.domain_mut(g).rx_delivered.push(f);
            }
        }
        Ok(flushed)
    }

    /// Drains frames that reached the wire, across every NIC in device
    /// order.
    pub fn take_wire_frames(&mut self) -> Vec<Frame> {
        let mut out = Vec::new();
        for nic in &mut self.world.nics {
            out.extend(nic.take_tx_frames());
        }
        out
    }

    /// Frames fully delivered to the measured receive endpoint.
    pub fn delivered_rx(&self) -> usize {
        match self.config {
            Config::NativeLinux | Config::XenDom0 => self.world.kernel.rx_delivered.len(),
            Config::XenGuest | Config::TwinDrivers => {
                let gid = self.guest.expect("guest");
                self.world
                    .xen
                    .as_ref()
                    .unwrap()
                    .domain(gid)
                    .rx_delivered
                    .len()
            }
        }
    }

    /// Measures the per-packet cycle breakdown for `packets` transmits
    /// (after a warm-up run that fills the stlb and pools).
    ///
    /// # Errors
    ///
    /// Propagates per-packet errors.
    pub fn measure_tx(&mut self, packets: u64) -> Result<Breakdown, SystemError> {
        for _ in 0..32 {
            self.transmit_one()?;
        }
        self.take_wire_frames();
        self.reset_measurement();
        for _ in 0..packets {
            self.transmit_one()?;
        }
        Ok(Breakdown::from_meter(&self.machine.meter, packets))
    }

    /// Measures the per-packet cycle breakdown for `packets` receives.
    ///
    /// The warm-up covers more than one full RX-ring cycle (128
    /// descriptors): the ring's initial dom0-pool buffers are gradually
    /// replaced by hypervisor-reserved buffers, and steady state begins
    /// only after the swap completes.
    ///
    /// # Errors
    ///
    /// Propagates per-packet errors.
    pub fn measure_rx(&mut self, packets: u64) -> Result<Breakdown, SystemError> {
        for _ in 0..160 {
            self.receive_one()?;
        }
        self.reset_measurement();
        for _ in 0..packets {
            self.receive_one()?;
        }
        Ok(Breakdown::from_meter(&self.machine.meter, packets))
    }

    /// Measures amortized transmit cost at a fixed burst size: at least
    /// `packets` packets move in bursts of `burst`, and the breakdown
    /// divides total cycles by the packets actually sent.
    ///
    /// # Errors
    ///
    /// Propagates per-burst errors; [`SystemError::Build`] if the ring
    /// stops accepting packets entirely.
    pub fn measure_tx_burst(
        &mut self,
        burst: usize,
        packets: u64,
    ) -> Result<crate::measure::BurstMeasurement, SystemError> {
        let burst = burst.clamp(1, MAX_BURST);
        // Warm every NIC's stlb/pools (round-robin rotation spreads the
        // warm-up bursts across all devices).
        for _ in 0..32 * self.world.nics.len() {
            self.transmit_one()?;
        }
        self.take_wire_frames();
        self.reset_measurement();
        let mut sent = 0u64;
        while sent < packets {
            let n = burst.min((packets - sent) as usize);
            let accepted = self.transmit_burst(n)?;
            if accepted == 0 {
                return Err(SystemError::Build("transmit ring wedged".into()));
            }
            sent += accepted as u64;
        }
        Ok(self.burst_measurement(burst, sent))
    }

    /// Measures amortized receive cost at a fixed burst size (see
    /// [`System::measure_tx_burst`]; the warm-up matches
    /// [`System::measure_rx`]).
    ///
    /// # Errors
    ///
    /// Propagates per-burst errors.
    pub fn measure_rx_burst(
        &mut self,
        burst: usize,
        packets: u64,
    ) -> Result<crate::measure::BurstMeasurement, SystemError> {
        let burst = burst.clamp(1, MAX_BURST);
        // Per-NIC steady state needs a full ring cycle of buffer swaps;
        // scale the warm-up so every shard reaches it.
        for _ in 0..160 * self.world.nics.len() {
            self.receive_one()?;
        }
        self.reset_measurement();
        let mut got = 0u64;
        while got < packets {
            let n = burst.min((packets - got) as usize);
            let frames: Vec<Frame> = (0..n).map(|_| self.next_rx_frame()).collect();
            got += self.receive_burst(&frames)? as u64;
        }
        Ok(self.burst_measurement(burst, got))
    }

    fn burst_measurement(&self, burst: usize, packets: u64) -> crate::measure::BurstMeasurement {
        let meter = &self.machine.meter;
        let per_packet = |ev: &str| meter.event(ev) as f64 / packets.max(1) as f64;
        crate::measure::BurstMeasurement {
            burst,
            breakdown: Breakdown::from_meter(meter, packets),
            irqs_per_packet: per_packet("irq"),
            doorbells_per_packet: per_packet("doorbell"),
        }
    }

    /// Lets every closed moderation window open and every latched cause
    /// deliver: idles one full window (plus margin) at a time until no
    /// device holds back a delivery.
    ///
    /// # Errors
    ///
    /// Propagates faults from the deliveries.
    pub fn drain_moderated(&mut self) -> Result<(), SystemError> {
        let horizon = self
            .world
            .nics
            .iter()
            .map(twin_nic::Nic::itr_cycles)
            .max()
            .unwrap_or(0);
        let mut rounds = 0;
        loop {
            self.run_idle(horizon + 1)?;
            if self.moderated_pending.is_empty() || rounds >= 8 {
                break;
            }
            rounds += 1;
        }
        Ok(())
    }

    /// Event-driven moderated drain: idles exactly to each gated
    /// device's window-open instant until nothing is latched, with no
    /// trailing idle once the last cause delivers. Deliveries happen at
    /// the same virtual instants [`System::drain_moderated`] would
    /// produce; only the artificial idle *after* the tail differs —
    /// which is what keeps a closed-loop tuner's idle signal honest
    /// across the autotune harness's phase boundaries.
    fn drain_moderated_tight(&mut self) -> Result<(), SystemError> {
        let mut rounds = 0;
        while !self.moderated_pending.is_empty() && rounds < 64 {
            let now = self.machine.meter.now();
            let due = self
                .moderated_pending
                .iter()
                .filter_map(|&d| self.world.nics[d as usize].irq_ready_at())
                .min();
            let step = match due {
                Some(t) if t > now => t - now,
                _ => 1,
            };
            self.run_idle(step)?;
            rounds += 1;
        }
        Ok(())
    }

    /// Measures the receive path under interrupt moderation with a
    /// paced arrival process: bursts of `burst` frames are scheduled
    /// `gap_cycles` of virtual time apart (wire pacing), frames are
    /// stamped with their *scheduled* arrival, and the ITR timer decides
    /// when each device's latched work is reaped. Reports amortized
    /// cycles/packet, interrupts/packet and arrival-to-delivery latency
    /// percentiles — the latency/throughput trade-off the moderation
    /// sweep plots.
    ///
    /// With ITR 0 every burst is reaped on arrival (the PR 3 behaviour);
    /// when the offered load outruns the unmoderated per-interrupt cost,
    /// the backlog shows up as completion latency — the receive-livelock
    /// regime interrupt moderation exists to fix.
    ///
    /// # Errors
    ///
    /// Propagates per-burst errors.
    pub fn measure_rx_moderated(
        &mut self,
        burst: usize,
        packets: u64,
        gap_cycles: u64,
    ) -> Result<crate::measure::PacedRx, SystemError> {
        let burst = burst.clamp(1, MAX_BURST);
        crate::measure::warm_rx(self)?;
        self.reset_measurement();
        let injected = self.paced_rx_inject(burst, packets, gap_cycles, false)?;
        self.drain_moderated()?;
        Ok(self.paced_point(burst, gap_cycles, injected))
    }

    /// The paced-receive point the meter holds now: `packets` frames
    /// measured in bursts of `burst` scheduled `gap_cycles` apart. The
    /// point is labeled by the widest per-device `ITR` (the device that
    /// dominates the latency tail; where a tuner sits when the window
    /// closes).
    fn paced_point(&self, burst: usize, gap_cycles: u64, packets: u64) -> crate::measure::PacedRx {
        let meter = &self.machine.meter;
        crate::measure::PacedRx {
            nics: self.world.nics.len() as u32,
            burst,
            itr: self
                .world
                .nics
                .iter()
                .map(twin_nic::Nic::itr)
                .max()
                .unwrap_or(0),
            gap_cycles,
            packets,
            breakdown: Breakdown::from_meter(meter, packets),
            irqs_per_packet: meter.event("irq") as f64 / packets.max(1) as f64,
            moderated_irqs: meter.event("irq_moderated"),
            latency: crate::measure::LatencyStats::from_samples(self.rx_latency.samples()),
            retunes: meter.event("itr_retune"),
        }
    }

    /// The paced-injection loop of [`System::measure_rx_moderated`] and
    /// of each autotune-harness phase, with no closing drain — the phase harness separates injection from
    /// draining so a phase's settle span flows straight into its
    /// measured span. `balanced_flows` swaps the classic generator's
    /// flow ids for the device-balanced set
    /// ([`crate::measure::balanced_flow_set`], two flows per device);
    /// sequence numbers still come from the shared counter, so
    /// `(flow, seq)` keys stay unique.
    fn paced_rx_inject(
        &mut self,
        burst: usize,
        packets: u64,
        gap_cycles: u64,
        balanced_flows: bool,
    ) -> Result<u64, SystemError> {
        let balanced = if balanced_flows {
            crate::measure::balanced_flow_set(self.world.nics.len() as u32, 2)
        } else {
            Vec::new()
        };
        let t0 = self.machine.meter.now();
        let mut injected = 0u64;
        let mut round = 0u64;
        while injected < packets {
            let n = burst.min((packets - injected) as usize);
            let target = t0 + round * gap_cycles;
            let now = self.machine.meter.now();
            if now < target {
                self.run_idle(target - now)?;
            }
            let frames: Vec<Frame> = (0..n)
                .map(|_| {
                    let mut f = self.next_rx_frame();
                    if !balanced.is_empty() {
                        f.flow = balanced[(f.seq % balanced.len() as u64) as usize];
                    }
                    f
                })
                .collect();
            injected += self.receive_burst_arriving(&frames, Some(target))? as u64;
            round += 1;
        }
        Ok(injected)
    }

    /// One phase of a shifting-load paced receive run:
    /// `settle_packets` frames paced at the new gap let a retuning
    /// system adapt (unmeasured — the per-phase analogue of every
    /// harness's warm-up), then the settle tail drains event-tight, the
    /// meter and latency window reset, and `packets` frames are
    /// measured on a fresh schedule ending with its own tight drain —
    /// the same settle→drain→reset→measure→drain regime
    /// [`System::measure_rx_moderated`] measures, so per-phase points
    /// are comparable with the static moderation sweep's. The drains
    /// are event-tight ([`System::drain_moderated_tight`]) so no
    /// artificial trailing idle leaks into a closed-loop tuner's load
    /// signal at the measure boundary.
    ///
    /// The multi-phase harness [`crate::measure::measure_rx_autotuned`]
    /// strings these together; static-`ITR` and auto-tuned systems run
    /// the identical code path.
    ///
    /// # Errors
    ///
    /// Propagates per-burst errors.
    pub(crate) fn paced_rx_phase(
        &mut self,
        burst: usize,
        settle_packets: u64,
        packets: u64,
        gap_cycles: u64,
    ) -> Result<crate::measure::PacedRx, SystemError> {
        let burst = burst.clamp(1, MAX_BURST);
        self.paced_rx_inject(burst, settle_packets, gap_cycles, true)?;
        self.drain_moderated_tight()?;
        self.reset_measurement();
        let measured = self.paced_rx_inject(burst, packets, gap_cycles, true)?;
        self.drain_moderated_tight()?;
        Ok(self.paced_point(burst, gap_cycles, measured))
    }
}
