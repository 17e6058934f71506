//! The cycle cost model and attribution meter.
//!
//! The paper reports per-packet CPU overhead split into four categories
//! (Fig. 7/8): the dom0 kernel, the guest kernel, the Xen hypervisor, and
//! the e1000 driver. [`CycleMeter`] reproduces that attribution with an
//! explicit domain stack: whoever is conceptually running pushes its
//! [`CostDomain`]; every charge lands in the top-of-stack category.
//!
//! [`CostParams`] holds all tunable constants. Calibration targets and the
//! rationale for each value are documented in `EXPERIMENTS.md`; the tests
//! in the workspace only assert *shape* (orderings, ratios), never exact
//! constants, so the model stays falsifiable.

use std::collections::BTreeMap;
use std::fmt;

/// Attribution category for cycle charges (the four bars of Fig. 7/8).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CostDomain {
    /// The driver-domain (dom0) kernel — for native Linux runs this is
    /// "the kernel".
    Dom0,
    /// The guest-domain kernel.
    DomU,
    /// The hypervisor (switches, hypercalls, grant ops, packet copies).
    Xen,
    /// The network driver itself (original or rewritten).
    Driver,
}

impl CostDomain {
    /// All categories, in the paper's legend order.
    pub const ALL: [CostDomain; 4] = [
        CostDomain::Dom0,
        CostDomain::DomU,
        CostDomain::Xen,
        CostDomain::Driver,
    ];

    /// Position in [`CostDomain::ALL`].
    #[inline]
    fn index(self) -> usize {
        self as usize
    }

    /// The paper's legend label.
    pub fn label(self) -> &'static str {
        match self {
            CostDomain::Dom0 => "dom0",
            CostDomain::DomU => "domU",
            CostDomain::Xen => "Xen",
            CostDomain::Driver => "e1000",
        }
    }
}

impl fmt::Display for CostDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cost constants, in CPU cycles at the modeled 3.0 GHz (the paper's Xeon).
///
/// Instruction-class costs are charged by the interpreter; the rest are
/// charged by the kernel/hypervisor models when they perform the modeled
/// operation.
#[derive(Clone, Debug)]
pub struct CostParams {
    /// Simple ALU op (reg/reg or reg/imm).
    pub alu: u64,
    /// Register-to-register or immediate move / `lea`.
    pub mov_reg: u64,
    /// Memory load (cache-warm average; includes address generation).
    pub load: u64,
    /// Memory store.
    pub store: u64,
    /// `imul`.
    pub mul: u64,
    /// Not-taken conditional branch.
    pub branch_not_taken: u64,
    /// Taken branch / unconditional jump.
    pub branch_taken: u64,
    /// `call` (direct or indirect), excluding the stack store.
    pub call: u64,
    /// `ret`, excluding the stack load.
    pub ret: u64,
    /// Per-element cost of string instructions beyond the load/store.
    pub string_per_elem: u64,
    /// `cli`/`sti` (virtualised interrupt-flag ops).
    pub cli_sti: u64,
    /// MMIO register read (uncached PCI read — expensive, like a real NIC).
    pub mmio_read: u64,
    /// MMIO register write (posted PCI write).
    pub mmio_write: u64,
    /// Address-space/domain switch, including the TLB and cache refill tax
    /// the paper identifies as the dominant overhead of the hosted model
    /// (§2, citing \[12\]).
    pub domain_switch: u64,
    /// Cold-delivery refill: the extra sTLB/cache warm-up paid when a
    /// frame is delivered by a NIC softirq running on a different
    /// physical CPU than the owning guest's vCPU (or while the guest
    /// sleeps), so none of the guest's receive path is resident. The
    /// cache-local slice of the same refill tax `domain_switch` models;
    /// charged only when the scheduler model is enabled.
    pub cold_delivery_refill: u64,
    /// Hypercall entry/exit (guest → hypervisor → guest, no space switch).
    pub hypercall: u64,
    /// Delivering a virtual interrupt/event to a domain.
    pub virq_deliver: u64,
    /// Grant-table map of one page (baseline Xen I/O channel).
    pub grant_map: u64,
    /// Grant-table unmap of one page.
    pub grant_unmap: u64,
    /// Hit on an already-established grant mapping (zero-copy mode):
    /// validating the cached entry and bumping its recycle index — no
    /// hypercall, no page-table work.
    pub grant_cache_hit: u64,
    /// Pinning one pool page through the IOMMU allowlist at map time
    /// (page-table walk, allowlist insert, flush of the stale IOTLB
    /// entry). Paid once per pool page, never per packet.
    pub pin_page: u64,
    /// Fixed dispatch overhead of taking the copy fallback in zero-copy
    /// mode (detecting the misaligned/exhausted/not-granted buffer and
    /// routing the frame to the bounce path), on top of the copy itself.
    pub copy_fallback: u64,
    /// Software bridge lookup + forwarding decision in dom0.
    pub bridge_per_packet: u64,
    /// Fixed cost of a memory copy (function call, setup).
    pub copy_base: u64,
    /// Per-byte cost of guest-visible packet copies (cache-cold), in
    /// 1/100 cycle units (235 = 2.35 cycles/byte; Fig. 8 discussion:
    /// 3525 cycles to copy a 1500-byte packet).
    pub copy_per_byte_x100: u64,
    /// Per-packet TCP/IP transmit-side stack cost (socket, TCP, IP, queue).
    pub tcp_tx_per_packet: u64,
    /// Per-packet TCP/IP receive-side stack cost (softirq, TCP, socket).
    pub tcp_rx_per_packet: u64,
    /// Additional paravirtualisation tax per packet for a kernel running
    /// on Xen rather than bare metal (pte updates, event checks).
    pub paravirt_tax_per_packet: u64,
    /// netfront/netback per-packet processing (requests, responses, skb
    /// juggling) on the baseline Xen guest path — charged on each side.
    pub netfront_per_packet: u64,
    /// Upcall stack-switch bookkeeping (beyond domain switches and virq).
    pub upcall_overhead: u64,
    /// Saving one deferred upcall into the request ring (routine id,
    /// parameters, continuation id — no domain switch).
    pub upcall_enqueue: u64,
    /// Fixed cost of draining the deferred-upcall ring once: switching to
    /// the upcall stack, walking the ring, posting the batched completion
    /// event (the two domain switches, virq and hypercall are charged by
    /// the hypervisor as usual — per *flush*, not per call).
    pub upcall_flush_overhead: u64,
    /// Per-entry dom0 dispatch during a flush (decode the ring entry,
    /// rebuild the call frame), beyond the routine's own cost.
    pub upcall_dispatch: u64,
    /// Posting one completion record (continuation id, return value) back
    /// through the event channel.
    pub upcall_complete: u64,
    /// Interrupt dispatch cost (vector to handler).
    pub irq_dispatch: u64,
    /// One ITR auto-tune retune: evaluating the `e1000_update_itr`-style
    /// state machine over the window counters plus the posted MMIO write
    /// that reprograms the throttling register. Charged only when the
    /// register actually changes (window evaluations that keep the value
    /// are below the model's resolution).
    pub itr_retune: u64,
    /// One NAPI mode transition (interrupt→poll or poll→interrupt): the
    /// posted `IMC`/`IMS` mask write plus the poll-list bookkeeping the
    /// real `__napi_schedule`/`napi_complete` pair does. Charged at each
    /// switch, never per packet.
    pub napi_switch: u64,
    /// Dispatching one budgeted poll pass from softirq context: no
    /// vector, no `ICR` read — cheaper than [`CostParams::irq_dispatch`]
    /// because the device is masked and the softirq was already raised.
    pub napi_poll_dispatch: u64,
    /// Dropping one frame at RX-descriptor refill time because its
    /// destination guest's backlog is over the admission watermark: a
    /// queue-length compare and a counter bump, paid *before* any reap,
    /// demux or copy work — the whole point of early drop.
    pub early_drop: u64,
    /// Allocating/freeing an sk_buff in the kernel model.
    pub skb_alloc: u64,
    /// DMA map/unmap bookkeeping in the kernel model.
    pub dma_map: u64,
    /// Spinlock acquire/release pair (uncontended).
    pub spinlock: u64,
    /// `eth_type_trans` header inspection.
    pub eth_type_trans: u64,
    /// Additional dom0 backend processing per transmitted packet on the
    /// baseline Xen guest path (request consumption, response production,
    /// skb bookkeeping — the paper's "expensive bridging and grant table
    /// operations in the driver domain", §2).
    pub backend_tx_extra: u64,
    /// Additional dom0 backend processing per received packet on the
    /// baseline path (the RX side is heavier: flipping/copying decisions,
    /// response ring maintenance, fragment bookkeeping).
    pub backend_rx_extra: u64,
    /// Hypervisor glue per transmitted packet on the TwinDrivers path:
    /// hypercall argument handling, acquiring the dom0 skb, chaining the
    /// guest page fragment (paper §5.3).
    pub twin_glue_tx: u64,
    /// Hypervisor glue per received packet on the TwinDrivers path:
    /// scheduling the softirq, guest queue management.
    pub twin_glue_rx: u64,
    /// Guest-side paravirtual driver cost per packet (TwinDrivers path).
    pub pv_driver_guest: u64,
    /// Transmit-stack cost for the second and later packets of one burst
    /// handed to the stack together (TSO/GSO-style aggregation: socket
    /// wakeups, queue-discipline entry and route lookups amortise across
    /// the burst; the first packet of a burst still pays
    /// [`CostParams::tcp_tx_per_packet`]).
    pub tcp_tx_batch_marginal: u64,
    /// Receive-stack cost for the second and later packets of one burst
    /// delivered from a single coalesced interrupt (GRO/NAPI-style
    /// aggregation: softirq entry, per-wakeup scheduling and socket
    /// bookkeeping amortise; the first packet still pays
    /// [`CostParams::tcp_rx_per_packet`]).
    pub tcp_rx_batch_marginal: u64,
}

impl Default for CostParams {
    fn default() -> CostParams {
        CostParams {
            alu: 1,
            mov_reg: 1,
            load: 4,
            store: 4,
            mul: 4,
            branch_not_taken: 1,
            branch_taken: 2,
            call: 4,
            ret: 4,
            string_per_elem: 1,
            cli_sti: 8,
            mmio_read: 250,
            mmio_write: 100,
            domain_switch: 2800,
            cold_delivery_refill: 3400,
            hypercall: 700,
            virq_deliver: 450,
            grant_map: 1050,
            grant_unmap: 950,
            grant_cache_hit: 90,
            pin_page: 400,
            copy_fallback: 120,
            bridge_per_packet: 580,
            copy_base: 60,
            copy_per_byte_x100: 235,
            tcp_tx_per_packet: 3950,
            tcp_rx_per_packet: 8650,
            paravirt_tax_per_packet: 1150,
            netfront_per_packet: 1750,
            // Upcall stub bookkeeping beyond the two domain switches and
            // the virq/hypercall pair; the full guest-context upcall then
            // costs ~12.7k cycles, matching the first-bar drop of Fig 10.
            upcall_overhead: 5950,
            upcall_enqueue: 140,
            upcall_flush_overhead: 1450,
            upcall_dispatch: 170,
            upcall_complete: 90,
            irq_dispatch: 350,
            itr_retune: 220,
            napi_switch: 180,
            napi_poll_dispatch: 260,
            early_drop: 40,
            skb_alloc: 180,
            dma_map: 120,
            spinlock: 40,
            eth_type_trans: 60,
            backend_tx_extra: 3600,
            backend_rx_extra: 7200,
            twin_glue_tx: 1400,
            twin_glue_rx: 600,
            pv_driver_guest: 250,
            tcp_tx_batch_marginal: 1900,
            tcp_rx_batch_marginal: 4300,
        }
    }
}

impl CostParams {
    /// Cycles to copy `bytes` bytes (base + per-byte).
    pub fn copy_cycles(&self, bytes: u64) -> u64 {
        self.copy_base + (bytes * self.copy_per_byte_x100) / 100
    }
}

/// The virtual clock: a monotonic cycle counter advanced by the cost
/// accounting itself. Every cycle the interpreter or a model charges to
/// *any* domain also moves this clock forward, so "when" is derived from
/// "how much work happened" — the one coherent notion of time every
/// time-driven feature (kernel timers, interrupt moderation, upcall-flush
/// deadlines) keys on.
///
/// Unlike the per-domain totals, the clock is **never reset**: it
/// survives [`CycleMeter::reset`] so timers armed before a measurement
/// window still fire at the right instant inside it. Idle time (a system
/// waiting for the wire, a harness modeling inter-arrival gaps) advances
/// the clock *without* charging any domain via
/// [`CycleMeter::advance_idle`], so per-packet cycle breakdowns are
/// untouched by waiting.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now: u64,
}

impl VirtualClock {
    /// Current virtual time in cycles since machine construction.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Moves time forward by `cycles`.
    pub fn advance(&mut self, cycles: u64) {
        self.now += cycles;
    }
}

/// Cycle accounting with domain attribution and named event counters.
///
/// The attribution stack starts empty; charges made with no pushed domain
/// land in [`CostDomain::Dom0`] (a charge must go somewhere — tests push
/// explicitly).
#[derive(Clone, Debug, Default)]
pub struct CycleMeter {
    /// Cycles per domain, indexed by [`CostDomain::index`].
    per_domain: [u64; CostDomain::ALL.len()],
    /// Bit `d.index()` is set once `d` has been charged since the last
    /// reset, so a snapshot lists exactly the charged domains.
    charged: u8,
    stack: Vec<CostDomain>,
    events: BTreeMap<&'static str, u64>,
    insns: u64,
    clock: VirtualClock,
}

impl CycleMeter {
    /// Creates a zeroed meter.
    pub fn new() -> CycleMeter {
        CycleMeter::default()
    }

    /// Pushes an attribution domain; subsequent charges accrue to it.
    pub fn push_domain(&mut self, d: CostDomain) {
        self.stack.push(d);
    }

    /// Pops the current attribution domain.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty (unbalanced push/pop is a harness bug).
    pub fn pop_domain(&mut self) {
        self.stack.pop().expect("unbalanced CycleMeter::pop_domain");
    }

    /// The current attribution domain.
    #[inline]
    pub fn current_domain(&self) -> CostDomain {
        self.stack.last().copied().unwrap_or(CostDomain::Dom0)
    }

    /// Charges `cycles` to the current domain (and advances the virtual
    /// clock by the same amount — charged work *is* elapsed time).
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.charge_to(self.current_domain(), cycles);
    }

    /// Charges `cycles` to an explicit domain (bypassing the stack).
    #[inline]
    pub fn charge_to(&mut self, d: CostDomain, cycles: u64) {
        self.per_domain[d.index()] += cycles;
        self.charged |= 1 << d.index();
        self.clock.advance(cycles);
    }

    /// Current virtual time in cycles (see [`VirtualClock`]).
    #[inline]
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// The virtual clock itself.
    pub fn clock(&self) -> VirtualClock {
        self.clock
    }

    /// Advances the virtual clock without charging any domain: idle time
    /// (wire inter-arrival gaps, a system waiting on a timer). Cycle
    /// breakdowns are unaffected; only "when" moves.
    pub fn advance_idle(&mut self, cycles: u64) {
        self.clock.advance(cycles);
    }

    /// Counts one executed instruction (for dynamic instruction stats).
    #[inline]
    pub fn count_insn(&mut self) {
        self.insns += 1;
    }

    /// Total executed instructions.
    pub fn insns(&self) -> u64 {
        self.insns
    }

    /// Increments a named event counter (e.g. `"domain_switch"`,
    /// `"stlb_miss"`, `"upcall"`).
    pub fn count_event(&mut self, name: &'static str) {
        *self.events.entry(name).or_insert(0) += 1;
    }

    /// Value of a named event counter.
    pub fn event(&self, name: &str) -> u64 {
        self.events.get(name).copied().unwrap_or(0)
    }

    /// All event counters.
    pub fn events(&self) -> &BTreeMap<&'static str, u64> {
        &self.events
    }

    /// Cycles charged to a domain.
    pub fn cycles(&self, d: CostDomain) -> u64 {
        self.per_domain[d.index()]
    }

    /// Total cycles across all domains.
    pub fn total_cycles(&self) -> u64 {
        self.per_domain.iter().sum()
    }

    /// Snapshot of per-domain totals: every domain charged since the last
    /// reset.
    pub fn snapshot(&self) -> BTreeMap<CostDomain, u64> {
        CostDomain::ALL
            .into_iter()
            .filter(|d| self.charged & (1 << d.index()) != 0)
            .map(|d| (d, self.cycles(d)))
            .collect()
    }

    /// Difference of two snapshots, as `self_at_later - earlier`.
    pub fn delta_since(&self, earlier: &BTreeMap<CostDomain, u64>) -> BTreeMap<CostDomain, u64> {
        let mut out = BTreeMap::new();
        for d in CostDomain::ALL {
            let now = self.cycles(d);
            let then = earlier.get(&d).copied().unwrap_or(0);
            out.insert(d, now - then);
        }
        out
    }

    /// Resets all counters (keeps the attribution stack). The virtual
    /// clock is deliberately **not** reset — time is monotonic across
    /// measurement windows, so armed timers and moderation windows stay
    /// coherent.
    pub fn reset(&mut self) {
        self.per_domain = Default::default();
        self.charged = 0;
        self.events.clear();
        self.insns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_follows_stack() {
        let mut m = CycleMeter::new();
        m.push_domain(CostDomain::DomU);
        m.charge(10);
        m.push_domain(CostDomain::Xen);
        m.charge(5);
        m.pop_domain();
        m.charge(1);
        m.pop_domain();
        assert_eq!(m.cycles(CostDomain::DomU), 11);
        assert_eq!(m.cycles(CostDomain::Xen), 5);
        assert_eq!(m.total_cycles(), 16);
    }

    #[test]
    fn default_domain_is_dom0() {
        let mut m = CycleMeter::new();
        m.charge(3);
        assert_eq!(m.cycles(CostDomain::Dom0), 3);
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_pop_panics() {
        let mut m = CycleMeter::new();
        m.pop_domain();
    }

    #[test]
    fn events_and_reset() {
        let mut m = CycleMeter::new();
        m.count_event("stlb_miss");
        m.count_event("stlb_miss");
        assert_eq!(m.event("stlb_miss"), 2);
        assert_eq!(m.event("nonexistent"), 0);
        m.reset();
        assert_eq!(m.event("stlb_miss"), 0);
        assert_eq!(m.total_cycles(), 0);
    }

    #[test]
    fn snapshot_lists_the_charged_domains() {
        let mut m = CycleMeter::new();
        assert!(m.snapshot().is_empty());
        m.charge_to(CostDomain::Xen, 0);
        m.charge_to(CostDomain::Driver, 7);
        let snap = m.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[&CostDomain::Xen], 0);
        assert_eq!(snap[&CostDomain::Driver], 7);
        m.reset();
        assert!(m.snapshot().is_empty());
    }

    #[test]
    fn snapshot_delta() {
        let mut m = CycleMeter::new();
        m.push_domain(CostDomain::Driver);
        m.charge(100);
        let snap = m.snapshot();
        m.charge(50);
        let d = m.delta_since(&snap);
        assert_eq!(d[&CostDomain::Driver], 50);
        assert_eq!(d[&CostDomain::Xen], 0);
    }

    #[test]
    fn virtual_clock_tracks_all_charges_and_survives_reset() {
        let mut m = CycleMeter::new();
        assert_eq!(m.now(), 0);
        m.push_domain(CostDomain::Driver);
        m.charge(100);
        m.pop_domain();
        m.charge_to(CostDomain::Xen, 40);
        assert_eq!(m.now(), 140, "every charge advances the clock");
        m.advance_idle(1000);
        assert_eq!(m.now(), 1140);
        assert_eq!(m.total_cycles(), 140, "idle time charges nothing");
        m.reset();
        assert_eq!(m.total_cycles(), 0);
        assert_eq!(m.now(), 1140, "the clock is monotonic across resets");
        m.charge(5);
        assert_eq!(m.now(), 1145);
    }

    #[test]
    fn copy_cycles_matches_paper_scale() {
        let c = CostParams::default();
        // Paper: ~3525 cycles to copy a 1500-byte packet (Fig. 8 text).
        let cycles = c.copy_cycles(1500);
        assert!((3000..4200).contains(&cycles), "copy of 1500B = {cycles}");
    }
}
