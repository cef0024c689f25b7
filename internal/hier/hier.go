// Package hier composes the memory hierarchy of the simulated machine:
// L1 data cache → unified L2 → bus → main memory, plus the prefetch
// machinery (hardware prefetchers, pollution filter, prefetch queue, and
// the optional dedicated prefetch buffer of §5.5). With the front end
// enabled an L1 instruction cache sits beside the L1D on the same L2.
//
// The hierarchy owns the good/bad prefetch classification of §3: every
// prefetched line carries PIB/RIB metadata; a demand reference sets RIB;
// eviction (or end-of-run residency) classifies the prefetch and trains
// the pollution filter. That loop is written once, on side, and runs
// for each L1: the data side always, the instruction side when the
// front end is modelled.
//
// Timing model. The hierarchy is driven by the CPU's cycle clock. Demand
// accesses compute their completion cycle through the levels (L1 hit
// latency, + L2 latency on an L1 miss, + memory latency and bus transfer
// on an L2 miss). Prefetches accepted by the filter wait in the prefetch
// queue, consume leftover L1 ports to issue, and complete asynchronously:
// a prefetch fill is installed only when its completion cycle arrives, so
// a prefetch that issues too late — e.g. because port contention kept it
// queued — arrives after the demand access it should have covered and is
// classified bad, reproducing the §5.4 "procrastination turns good
// prefetches into bad" effect.
package hier

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/deadblock"
	"repro/internal/frontend"
	"repro/internal/memdram"
	"repro/internal/metrics"
	"repro/internal/pbuffer"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/taxonomy"
	"repro/internal/trace"
	"repro/internal/victim"
	"repro/internal/xrand"
)

// inflight is a prefetch fill in transit from L2/memory toward one
// side's L1.
type inflight struct {
	done      uint64 // cycle the fill arrives at the L1
	lineAddr  uint64
	triggerPC uint64
	side      *side // the side whose L1 the fill lands in
	software  bool
	source    string
}

// inflightHeap is a hand-rolled min-heap of fills ordered by completion
// cycle. container/heap would box every Push/Pop operand into an `any`,
// which profiled as ~40% of all allocations in a simulation; the typed
// sift routines below allocate nothing.
type inflightHeap []inflight

// push inserts a fill, sifting up to restore heap order.
//
//pflint:hotpath
func (h *inflightHeap) push(f inflight) {
	// The backing array reaches steady-state capacity within the first few
	// thousand cycles; after that this append never allocates.
	//pflint:allow hotpath/append amortized growth of the heap's own backing array
	*h = append(*h, f)
	s := *h
	// Sift up.
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent].done <= s[i].done {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// pop removes and returns the earliest-completing fill.
//
//pflint:hotpath
func (h *inflightHeap) pop() inflight {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = inflight{}
	s = s[:n]
	*h = s
	// Sift down.
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s[l].done < s[small].done {
			small = l
		}
		if r < n && s[r].done < s[small].done {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// Hierarchy is the composed memory system.
type Hierarchy struct {
	cfg config.Config

	// D is the data side (the L1D); I is the instruction side (the L1I),
	// nil unless cfg.Frontend is set. Both sides share the single-ported
	// L2, the pollution filter and one in-flight heap.
	D, I *side

	L2  *cache.Cache
	Bus *bus.Bus
	Mem *memdram.Memory

	Filter core.Filter
	HW     prefetch.Prefetcher // composite hardware prefetchers (may be empty)
	// IHW is the instruction-prefetch backend from the internal/frontend
	// registry (nil when the front end is off or prefetches nothing);
	// fetch collapses the PC stream into the fetch-block stream.
	IHW   frontend.Prefetcher
	fetch frontend.FetchUnit

	// l2busyUntil serializes the single-ported L2 (pipelined occupancy).
	l2busyUntil uint64

	// inflight holds both sides' fills in one heap. Fills that complete on
	// the same cycle train the shared filter in push order across both
	// sides; a heap per side would reorder that training.
	inflight inflightHeap

	// Traffic counts L2, memory and bus work; BySource counts issued
	// prefetches per generator.
	Traffic  stats.Traffic
	BySource map[string]uint64

	// LatePrefetches counts fills that arrived after a demand access had
	// already brought the line in (classified bad).
	LatePrefetches uint64

	// FetchBlocks and FetchMisses count the fetch-block stream presented
	// to the L1I.
	FetchBlocks uint64
	FetchMisses uint64

	// Trace, when non-nil, receives a cycle-stamped event for every
	// prefetch lifecycle transition, demand miss, and (via Bus.Trace) bus
	// grant. Attached by AttachObservability; nil by default so the
	// un-instrumented hot path pays one predictable branch per site.
	Trace *trace.Tracer
	// now is the cycle stamp for events raised from shared helpers
	// (eviction classification inside fills); maintained by the
	// entry points that carry a cycle argument.
	now uint64
	// emitFn and fetchEmitFn are the reusable candidate sinks handed to
	// HW and IHW; they read the cycle from h.now. Allocating a fresh
	// closure per demand access was ~30% of all simulation allocations.
	emitFn      func(prefetch.Candidate)
	fetchEmitFn func(frontend.Candidate)
}

// side is one L1 with the prefetch path in front of it. Each side runs
// the paper's loop: a prefetch fills with PIB set, a demand reference
// sets RIB, and eviction classifies the line and trains the shared
// filter. A part one side lacks is a nil field.
type side struct {
	h *Hierarchy

	L1    *cache.Cache
	Queue *prefetch.Queue
	// Pf classifies this side's prefetches.
	Pf stats.Prefetches
	// Merged counts demand misses that merged with an in-flight prefetch
	// (MSHR behaviour); the prefetch classifies good.
	Merged uint64
	lat    uint64 // L1 hit latency in cycles

	// inflightSet indexes this side's fills on the shared heap by line;
	// each side keeps its own so an I-block never collides with a D-line
	// at the same address. merged counts, per line, fills that a demand
	// miss already claimed; complete consumes one count per matching heap
	// entry. A count (not a set): the same line can merge repeatedly if it
	// is evicted and re-prefetched while older fills are still queued.
	inflightSet map[uint64]inflight
	merged      map[uint64]int

	// Buffer is the dedicated prefetch buffer (nil unless
	// cfg.Buffer.Enable); Victim is the victim cache behind the L1 (nil
	// unless cfg.VictimEntries > 0).
	Buffer *pbuffer.Buffer
	Victim *victim.Cache
	// Dead, when non-nil, enables the Lai et al. dead-block baseline: the
	// predictor observes the L1 access/eviction stream and gates each
	// prefetch on the predicted liveness of the line it would displace.
	// DeadGated counts prefetches the gate dropped.
	Dead      *deadblock.Predictor
	DeadGated uint64
	// Tax, when non-nil, records the full Srinivasan prefetch taxonomy
	// (reference [17]) alongside the paper's 2-way classification. Pure
	// instrumentation: it never affects timing or filtering.
	Tax *taxonomy.Tracker
	// m holds live metric handles; all nil (no-op) unless attached.
	m hierMetrics
}

// hierMetrics are the data side's live counters. Each handle is nil
// until AttachObservability registers it, and every update is nil-safe,
// so the disabled path costs one branch per site. The counters track the
// D-side stats.Prefetches fields exactly: after Finish, "sim.pf.good"
// equals Run.Prefetches.Good, and so on — that equality is the contract
// the observability tests pin. The I-side never attaches its handles.
type hierMetrics struct {
	pfIssued, pfGood, pfBad, pfFiltered, pfSquashed, pfOverflow *metrics.Counter
	pfFills, pfRefs, pfLate, pfMerged                           *metrics.Counter
	demandAccesses, demandMisses                                *metrics.Counter
}

// reset zeroes every attached counter (warmup boundary).
func (m *hierMetrics) reset() {
	for _, c := range []*metrics.Counter{
		m.pfIssued, m.pfGood, m.pfBad, m.pfFiltered, m.pfSquashed, m.pfOverflow,
		m.pfFills, m.pfRefs, m.pfLate, m.pfMerged, m.demandAccesses, m.demandMisses,
	} {
		c.Set(0)
	}
}

// AttachObservability wires a tracer and/or metrics registry into the
// hierarchy (and its bus). Either may be nil. Must be called before the
// run starts; the attached instruments are purely observational and
// never alter simulation semantics.
func (h *Hierarchy) AttachObservability(tr *trace.Tracer, reg *metrics.Registry) {
	h.Trace = tr
	h.Bus.Trace = tr
	if reg == nil {
		h.D.m = hierMetrics{}
		return
	}
	h.D.m = hierMetrics{
		pfIssued:       reg.Counter("sim.pf.issued"),
		pfGood:         reg.Counter("sim.pf.good"),
		pfBad:          reg.Counter("sim.pf.bad"),
		pfFiltered:     reg.Counter("sim.pf.filtered"),
		pfSquashed:     reg.Counter("sim.pf.squashed"),
		pfOverflow:     reg.Counter("sim.pf.overflow"),
		pfFills:        reg.Counter("sim.pf.fills"),
		pfRefs:         reg.Counter("sim.pf.refs"),
		pfLate:         reg.Counter("sim.pf.late"),
		pfMerged:       reg.Counter("sim.pf.merged"),
		demandAccesses: reg.Counter("sim.demand.accesses"),
		demandMisses:   reg.Counter("sim.demand.misses"),
	}
}

// l2Occupancy is the pipelined issue interval of the single L2 port, in
// cycles. The L2 has a 15-cycle latency but accepts a new access every
// few cycles, as real pipelined SRAM arrays do.
const l2Occupancy = 2

// New builds the hierarchy from a validated config. The filter must be
// non-nil (use core.NewNull for no filtering).
func New(cfg config.Config, filter core.Filter, rng *xrand.Rand) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if filter == nil {
		return nil, fmt.Errorf("hier: filter must not be nil")
	}
	if rng == nil {
		rng = xrand.New(cfg.Seed)
	}
	h := &Hierarchy{cfg: cfg, Filter: filter, BySource: make(map[string]uint64)}
	d, err := h.newSide("l1", cfg.L1, cfg.Prefetch.QueueEntries, rng)
	if err != nil {
		return nil, err
	}
	h.D = d
	if h.L2, err = cache.New(cfg.L2, rng.Fork()); err != nil {
		return nil, fmt.Errorf("hier: l2: %w", err)
	}
	if h.Bus, err = bus.New(cfg.BusBytesPerCyc); err != nil {
		return nil, err
	}
	if h.Mem, err = memdram.New(cfg.MemoryLatency, 4); err != nil {
		return nil, err
	}
	if cfg.Buffer.Enable {
		if d.Buffer, err = pbuffer.New(cfg.Buffer.Entries); err != nil {
			return nil, err
		}
	}
	if cfg.VictimEntries > 0 {
		if d.Victim, err = victim.New(cfg.VictimEntries); err != nil {
			return nil, err
		}
	}
	if cfg.Filter.Kind == config.FilterDeadBlock {
		if d.Dead, err = deadblock.New(cfg.Filter.TableEntries); err != nil {
			return nil, err
		}
	}
	var parts []prefetch.Prefetcher
	env := prefetch.Env{L2: h.L2}
	for _, kind := range cfg.Prefetch.Enabled() {
		p, err := prefetch.New(kind, cfg.Prefetch, env)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	h.HW = prefetch.NewComposite(parts...)
	h.emitFn = func(c prefetch.Candidate) { d.submit(h.now, c) }
	if fe := cfg.Frontend; fe != nil {
		i, err := h.newSide("l1i", fe.L1I, fe.QueueEntries, rng)
		if err != nil {
			return nil, err
		}
		h.I = i
		if kind := fe.IPrefetch.Canonical(); kind != config.IPrefetchNone {
			if h.IHW, err = frontend.New(kind, *fe); err != nil {
				return nil, err
			}
		}
		h.fetch = frontend.NewFetchUnit(fe.L1I.LineBytes)
		h.fetchEmitFn = func(c frontend.Candidate) {
			i.submit(h.now, prefetch.Candidate{LineAddr: c.Block, TriggerPC: c.TriggerPC, Source: c.Source})
		}
	}
	return h, nil
}

// newSide builds one side: its L1 (from the next rng fork), its prefetch
// queue and its in-flight bookkeeping. Optional parts are left nil.
func (h *Hierarchy) newSide(name string, c config.CacheConfig, queueEntries int, rng *xrand.Rand) (*side, error) {
	l1, err := cache.New(c, rng.Fork())
	if err != nil {
		return nil, fmt.Errorf("hier: %s: %w", name, err)
	}
	q, err := prefetch.NewQueue(queueEntries)
	if err != nil {
		return nil, err
	}
	return &side{
		h:           h,
		L1:          l1,
		Queue:       q,
		lat:         uint64(c.LatencyCycles),
		inflightSet: make(map[uint64]inflight),
		merged:      make(map[uint64]int),
	}, nil
}

// Config returns the machine configuration.
func (h *Hierarchy) Config() config.Config { return h.cfg }

// LineAddr converts a byte address to an L1D line address.
func (h *Hierarchy) LineAddr(addr uint64) uint64 { return h.D.L1.LineAddr(addr) }

// FrontendEnabled reports whether the I-side front end is modelled.
func (h *Hierarchy) FrontendEnabled() bool { return h.I != nil }

// l2Access models one access reaching the L2 at cycle `at`, returning the
// cycle data is available to fill the L1. prefetch tags traffic.
func (h *Hierarchy) l2Access(at uint64, lineAddr uint64, prefetchReq bool) (ready uint64, l2hit bool) {
	// Single L2 port: serialize pipelined access slots.
	start := at
	if h.l2busyUntil > start {
		start = h.l2busyUntil
	}
	h.l2busyUntil = start + l2Occupancy

	h.Traffic.L2Accesses++
	if prefetchReq {
		h.Traffic.PrefetchL2++
	} else {
		h.L2.Stats.DemandAccesses++
	}

	if _, hit := h.L2.Lookup(lineAddr); hit {
		if !prefetchReq {
			h.L2.Stats.DemandHits++
		}
		return start + uint64(h.cfg.L2.LatencyCycles), true
	}
	if !prefetchReq {
		h.L2.Stats.DemandMisses++
	}
	// Miss: main memory + bus transfer back.
	h.Traffic.MemAccesses++
	if prefetchReq {
		h.Traffic.PrefetchMem++
	}
	memReady := h.Mem.Request(start+uint64(h.cfg.L2.LatencyCycles), prefetchReq)
	arrive := h.Bus.Request(memReady, h.cfg.L2.LineBytes, prefetchReq)

	// Fill the L2. An L2 eviction may write back a dirty line over the bus.
	_, evicted, hadEvict := h.L2.Insert(lineAddr)
	if prefetchReq {
		h.L2.Stats.PrefetchFills++
	} else {
		h.L2.Stats.DemandFills++
	}
	if hadEvict && evicted.Dirty {
		h.Bus.Request(arrive, h.cfg.L2.LineBytes, false)
	}
	return arrive, false
}

// writebackL2 pushes a dirty line into the L2 off the critical path:
// pure occupancy on the L2 port, plus a bus transfer if the L2 must
// evict its own dirty victim to memory.
func (h *Hierarchy) writebackL2(lineAddr uint64) {
	h.l2busyUntil += l2Occupancy
	wb, _, wbEvict := h.L2.Insert(lineAddr)
	wb.Dirty = true
	if wbEvict {
		h.Bus.Request(h.l2busyUntil, h.cfg.L2.LineBytes, false)
	}
}

// DemandAccess runs one load/store through the hierarchy at cycle now and
// returns the cycle its data is available. The caller has already charged
// an L1 port for this access.
func (h *Hierarchy) DemandAccess(now uint64, pc, addr uint64, isStore bool) (done uint64) {
	lineAddr := h.D.L1.LineAddr(addr)
	h.now = now
	h.Traffic.DemandAccesses++
	done, at := h.D.demand(now, lineAddr, pc, isStore)
	h.HW.Observe(prefetch.Event{
		Cycle: now, PC: pc, LineAddr: lineAddr, IsStore: isStore,
		L1Hit:       at <= servedNear, // the lower levels never see this access
		L1HitTagged: at == servedTagged,
		L2Hit:       at == servedL2,
	}, h.emitFn)
	return done
}

// FetchAccess runs one instruction fetch through the front end at cycle
// now and returns the cycle the block is available. Same-block fetches
// are absorbed by the fetch unit and complete immediately; only block
// transitions touch the L1I. On a miss the front end stalls: the caller
// must not dispatch past the returned cycle. The fetch miss walks the
// shared L2 as a demand access — it is on the front end's critical path.
func (h *Hierarchy) FetchAccess(now uint64, pc uint64) (done uint64) {
	block, newBlock, redirect := h.fetch.Step(pc)
	if !newBlock {
		return now
	}
	h.now = now
	h.FetchBlocks++
	done, at := h.I.demand(now, block, pc, false)
	miss := at > servedTagged
	if miss {
		h.FetchMisses++
	} else {
		done = now // an L1I hit is pipelined into fetch and stalls nothing
	}
	if h.IHW != nil {
		h.IHW.Observe(frontend.Event{Block: block, PC: pc, Redirect: redirect, Miss: miss}, h.fetchEmitFn)
	}
	return done
}

// served says where a demand reference found its data.
type served uint8

const (
	servedL1     served = iota // L1 hit
	servedTagged               // L1 hit, the first reference to a prefetched line
	servedNear                 // L1 miss served without the L2: MSHR merge, buffer or victim cache
	servedL2                   // L2 hit
	servedMem                  // L2 miss
)

// demand runs one demand reference through the side at cycle now: the
// L1 probe, then on a miss an MSHR merge with an in-flight prefetch, a
// prefetch-buffer promotion, a victim-cache swap, or the walk to the
// shared L2. It returns the cycle the data is available and where the
// reference was served.
func (s *side) demand(now, lineAddr, pc uint64, isStore bool) (done uint64, at served) {
	h := s.h
	s.L1.Stats.DemandAccesses++
	s.m.demandAccesses.Inc()
	if s.Tax != nil {
		s.Tax.OnDemandRef(lineAddr)
	}
	if line, hit := s.L1.Lookup(lineAddr); hit {
		s.L1.Stats.DemandHits++
		if s.Dead != nil {
			s.Dead.OnAccess(line, pc)
		}
		at = servedL1
		// The NSP tag is "consumed" by the first demand reference: a hit
		// on a not-yet-referenced prefetched line triggers the next-line
		// prefetch; later hits do not re-trigger.
		if line.PIB && !line.RIB {
			line.RIB = true
			at = servedTagged
			s.m.pfRefs.Inc()
			if h.Trace != nil {
				h.Trace.Emit(trace.Event{Cycle: now, Kind: trace.KindPrefetchRef,
					LineAddr: lineAddr, PC: pc})
			}
		}
		if isStore {
			line.Dirty = true
		}
		return now + s.lat, at
	}
	s.L1.Stats.DemandMisses++
	s.m.demandMisses.Inc()
	if h.Trace != nil {
		h.Trace.Emit(trace.Event{Cycle: now, Kind: trace.KindDemandMiss,
			LineAddr: lineAddr, PC: pc})
	}

	// MSHR merge: a demand miss on a line with a prefetch already in
	// flight waits for the prefetch's fill instead of launching its own
	// request. The prefetch covered (part of) the miss latency, so the
	// line is installed as a referenced prefetch — it will classify good
	// at eviction and train the filter positively.
	if f, busy := s.inflightSet[lineAddr]; busy {
		delete(s.inflightSet, lineAddr)
		s.merged[lineAddr]++ // complete will skip one matching heap entry
		s.Merged++
		s.m.pfMerged.Inc()
		if h.Trace != nil {
			h.Trace.Emit(trace.Event{Cycle: now, Kind: trace.KindPrefetchMerge,
				LineAddr: lineAddr, PC: f.triggerPC, Source: f.source})
		}
		line, evictedTag, hadEvict := s.fill(lineAddr, true)
		if s.Tax != nil {
			s.Tax.OnPrefetchFill(lineAddr, evictedTag, hadEvict)
			s.Tax.OnDemandRef(lineAddr) // the merging demand is the reference
		}
		f.tag(line, true)
		if isStore {
			line.Dirty = true
		}
		return max(f.done, now+s.lat), servedNear
	}

	// Probe the dedicated prefetch buffer in parallel with the L1.
	if s.Buffer != nil {
		if entry, hit := s.Buffer.Probe(lineAddr); hit {
			// Promotion: the prefetch was good. Classify and train now;
			// the line enters the L1 as an ordinary (PIB=0) line.
			s.Pf.Good++
			s.m.pfGood.Inc()
			s.m.pfRefs.Inc()
			if h.Trace != nil {
				h.Trace.Emit(trace.Event{Cycle: now, Kind: trace.KindPrefetchRef,
					LineAddr: lineAddr, PC: pc})
			}
			h.Filter.Train(core.Feedback{
				LineAddr:   entry.LineAddr,
				TriggerPC:  entry.TriggerPC,
				Referenced: true,
				Source:     core.Source(entry.Source),
			})
			installed, _, _ := s.fill(lineAddr, false)
			if isStore {
				installed.Dirty = true
			}
			return now + s.lat, servedNear
		}
	}

	// Probe the victim cache: a hit swaps the line back into the L1 in
	// one extra cycle, never touching the L2.
	if s.Victim != nil {
		if vEntry, hit := s.Victim.Probe(lineAddr); hit {
			installed, _, _ := s.fill(lineAddr, false)
			installed.Dirty = vEntry.Dirty || isStore
			if s.Dead != nil {
				s.Dead.OnFill(installed, pc)
			}
			return now + s.lat + 1, servedNear
		}
	}

	ready, l2hit := h.l2Access(now+s.lat, lineAddr, false)
	installed, _, _ := s.fill(lineAddr, false)
	if s.Dead != nil {
		s.Dead.OnFill(installed, pc)
	}
	if isStore {
		installed.Dirty = true
	}
	if l2hit {
		return ready, servedL2
	}
	return ready, servedMem
}

// tag marks an L1 line as installed by fill f, with RIB as given.
func (f *inflight) tag(line *cache.Line, rib bool) {
	line.PIB = true
	line.RIB = rib
	line.TriggerPC = f.triggerPC
	line.SoftPF = f.software
	line.PFSource = uint8(core.SourceByName(f.source))
}

// fill installs a line into the L1 and processes the eviction feedback.
// The returned pointer addresses the installed line for metadata setup;
// the evicted line's tag (when any) is returned for the taxonomy hooks.
func (s *side) fill(lineAddr uint64, prefetchReq bool) (installed *cache.Line, evictedTag uint64, hadEvict bool) {
	installed, evicted, hadEvict := s.L1.Insert(lineAddr)
	if hadEvict {
		s.evict(&evicted)
		if s.Victim != nil {
			// The victim cache captures the eviction; its own victim (if
			// dirty) is what finally writes back.
			if ve, vEvict := s.Victim.Insert(evicted.Tag, evicted.Dirty); vEvict && ve.Dirty {
				s.h.writebackL2(ve.LineAddr)
			}
		} else if evicted.Dirty {
			s.h.writebackL2(evicted.Tag)
		}
	}
	if prefetchReq {
		s.L1.Stats.PrefetchFills++
	} else {
		s.L1.Stats.DemandFills++
	}
	return installed, evicted.Tag, hadEvict
}

// evict handles a line leaving the L1: if it was a prefetch, classify
// it and train the filter.
func (s *side) evict(line *cache.Line) {
	if s.Dead != nil {
		s.Dead.OnEvict(*line)
	}
	if !line.PIB {
		return
	}
	s.classify(line.Tag, line.TriggerPC, line.RIB, line.PFSource)
	if s.Tax != nil {
		s.Tax.OnEvict(line.Tag)
	}
}

// classify counts one prefetched line leaving the side — good when a
// demand referenced it — traces the eviction and trains the filter.
func (s *side) classify(lineAddr, triggerPC uint64, good bool, source uint8) {
	if good {
		s.Pf.Good++
		s.m.pfGood.Inc()
	} else {
		s.Pf.Bad++
		s.m.pfBad.Inc()
	}
	h := s.h
	if h.Trace != nil {
		h.Trace.Emit(trace.Event{Cycle: h.now, Kind: trace.KindPrefetchEvict,
			LineAddr: lineAddr, PC: triggerPC, Good: good})
	}
	h.Filter.Train(core.Feedback{
		LineAddr:   lineAddr,
		TriggerPC:  triggerPC,
		Referenced: good,
		Source:     core.Source(source),
	})
}

// SoftwarePrefetch routes a software prefetch instruction (identified in
// the LSQ) through the pollution filter into the prefetch queue. It does
// not consume an L1 port; the eventual fill does, via IssuePrefetches.
func (h *Hierarchy) SoftwarePrefetch(now uint64, pc, addr uint64) {
	if !h.cfg.Prefetch.EnableSoftware {
		return
	}
	h.D.submit(now, prefetch.Candidate{
		LineAddr:  h.D.L1.LineAddr(addr),
		TriggerPC: pc,
		Software:  true,
		Source:    "sw",
	})
}

// resident reports whether the side already holds lineAddr (in the L1 or
// the prefetch buffer).
func (s *side) resident(lineAddr uint64) bool {
	return s.L1.Contains(lineAddr) || (s.Buffer != nil && s.Buffer.Contains(lineAddr))
}

// redundant reports whether a prefetch for lineAddr would duplicate a
// line the side holds or already has in flight.
func (s *side) redundant(lineAddr uint64) bool {
	if s.resident(lineAddr) {
		return true
	}
	_, busy := s.inflightSet[lineAddr]
	return busy
}

// squash records one duplicate-squashed prefetch.
func (s *side) squash() {
	s.Pf.Squashed++
	s.m.pfSquashed.Inc()
}

// filtered records one candidate dropped before the queue (pollution
// filter or dead-block gate).
func (s *side) filtered(now uint64, c prefetch.Candidate) {
	s.Pf.Filtered++
	s.m.pfFiltered.Inc()
	if h := s.h; h.Trace != nil {
		h.Trace.Emit(trace.Event{Cycle: now, Kind: trace.KindPrefetchFilter,
			LineAddr: c.LineAddr, PC: c.TriggerPC, Source: c.Source})
	}
}

// submit runs one candidate through duplicate squashing, the pollution
// filter and the dead-block gate, then enqueues it.
func (s *side) submit(now uint64, c prefetch.Candidate) {
	// Squash duplicates: already resident, already in flight, or already
	// queued. No penalty (paper §5.1).
	if s.redundant(c.LineAddr) || s.Queue.Contains(c.LineAddr) {
		s.squash()
		return
	}
	if !s.h.Filter.Allow(core.Request{LineAddr: c.LineAddr, TriggerPC: c.TriggerPC, Software: c.Software, Source: core.SourceByName(c.Source)}) {
		s.filtered(now, c)
		return
	}
	if s.Dead != nil && !s.Dead.AllowPrefetch(s.L1, c.LineAddr) {
		s.DeadGated++
		s.filtered(now, c)
		return
	}
	if !s.Queue.Enqueue(c, now) {
		s.Pf.Overflow++
		s.m.pfOverflow.Inc()
	}
}

// IssuePrefetches lets up to ports queued data prefetches start their
// fills at cycle now, returning how many L1 ports were consumed.
// Prefetches found to be redundant at issue time are squashed without
// consuming a port.
func (h *Hierarchy) IssuePrefetches(now uint64, ports int) (used int) {
	used = h.D.issue(now, ports)
	h.Traffic.PrefetchAccesses += uint64(used)
	return used
}

// IssueIPrefetches lets up to max queued instruction prefetches start
// their fills at cycle now. It must be called after the cycle's demand
// accesses and D-side prefetch issue, and it only takes the shared L2
// port when the port is otherwise idle: an instruction prefetch never
// claims a slot ahead of — or queues back-to-back against — the data
// path, so I-side fills cannot starve D-side demand misses. The
// contention tests pin this arbitration order.
func (h *Hierarchy) IssueIPrefetches(now uint64, max int) (used int) {
	if h.I == nil {
		return 0
	}
	// Checking the port before each single issue is the same as checking
	// it before every queue pop: squashes never move l2busyUntil.
	for used < max && h.I.Queue.Len() > 0 && h.l2busyUntil <= now+h.I.lat {
		used += h.I.issue(now, 1)
	}
	return used
}

// issue lets up to max queued prefetches start their fills at cycle now,
// returning how many did. Each walks the lower hierarchy like a demand
// miss, tagged as prefetch traffic.
func (s *side) issue(now uint64, max int) (used int) {
	h := s.h
	h.now = now
	for used < max {
		qc, ok := s.Queue.Dequeue()
		if !ok {
			return used
		}
		// Re-check residency: state may have changed while queued.
		if s.redundant(qc.LineAddr) {
			s.squash()
			continue
		}
		used++
		ready, _ := h.l2Access(now+s.lat, qc.LineAddr, true)
		s.Pf.Issued++
		s.m.pfIssued.Inc()
		if h.Trace != nil {
			h.Trace.Emit(trace.Event{Cycle: now, Kind: trace.KindPrefetchIssue,
				LineAddr: qc.LineAddr, PC: qc.TriggerPC, Source: qc.Source})
		}
		h.BySource[qc.Source]++
		f := inflight{
			done:      ready,
			lineAddr:  qc.LineAddr,
			triggerPC: qc.TriggerPC,
			side:      s,
			software:  qc.Software,
			source:    qc.Source,
		}
		h.inflight.push(f)
		s.inflightSet[qc.LineAddr] = f
	}
	return used
}

// Tick completes prefetch fills whose data has arrived by cycle now.
func (h *Hierarchy) Tick(now uint64) {
	for len(h.inflight) > 0 && h.inflight[0].done <= now {
		f := h.inflight.pop()
		f.side.complete(f)
	}
}

// complete lands one fill popped off the shared heap. A fill a demand
// miss already claimed is skipped. A fill whose line was demand-fetched
// while the prefetch was in flight is late: it is dropped and classified
// bad (the prefetch did not cover the demand access). Any other fill is
// installed in the prefetch buffer, when there is one, or in the L1.
func (s *side) complete(f inflight) {
	if n := s.merged[f.lineAddr]; n > 0 {
		// A demand miss already claimed this fill; the line was
		// installed (as a referenced prefetch) at merge time. Guard
		// against consuming the marker for a *live* in-flight entry
		// that happens to complete on the same cycle: merge markers
		// belong only to entries no longer tracked in inflightSet.
		if cur, live := s.inflightSet[f.lineAddr]; !live || cur != f {
			if n == 1 {
				delete(s.merged, f.lineAddr)
			} else {
				s.merged[f.lineAddr] = n - 1
			}
			return
		}
	}
	delete(s.inflightSet, f.lineAddr)
	// Events from this fill are stamped at its arrival cycle, which is
	// exact even during the end-of-run drain (Tick(^uint64(0))).
	h := s.h
	h.now = f.done
	if s.resident(f.lineAddr) {
		h.LatePrefetches++
		s.Pf.Bad++
		s.m.pfLate.Inc()
		s.m.pfBad.Inc()
		if h.Trace != nil {
			h.Trace.Emit(trace.Event{Cycle: f.done, Kind: trace.KindPrefetchLate,
				LineAddr: f.lineAddr, PC: f.triggerPC, Source: f.source})
		}
		h.Filter.Train(core.Feedback{
			LineAddr:   f.lineAddr,
			TriggerPC:  f.triggerPC,
			Referenced: false,
			Source:     core.SourceByName(f.source),
		})
		return
	}
	if h.Trace != nil {
		h.Trace.Emit(trace.Event{Cycle: f.done, Kind: trace.KindPrefetchFill,
			LineAddr: f.lineAddr, PC: f.triggerPC, Source: f.source})
	}
	s.m.pfFills.Inc()
	if s.Buffer != nil {
		evicted, hadEvict := s.Buffer.Insert(f.lineAddr, f.triggerPC, f.software, uint8(core.SourceByName(f.source)))
		if hadEvict {
			s.classify(evicted.LineAddr, evicted.TriggerPC, evicted.Referenced, evicted.Source)
		}
		return
	}
	line, evictedTag, hadEvict := s.fill(f.lineAddr, true)
	if s.Tax != nil {
		s.Tax.OnPrefetchFill(f.lineAddr, evictedTag, hadEvict)
	}
	f.tag(line, false)
}

// ResetStats zeroes every statistic accumulated so far while leaving all
// architectural state — cache contents, shadow directories, the filter's
// history table, queued and in-flight prefetches — warm. Used to exclude
// cold-start effects from measurement after a warmup phase.
func (h *Hierarchy) ResetStats() {
	h.D.resetStats()
	if h.I != nil {
		h.I.resetStats()
	}
	h.Traffic = stats.Traffic{}
	h.BySource = make(map[string]uint64)
	h.LatePrefetches = 0
	h.FetchBlocks, h.FetchMisses = 0, 0
	h.L2.Stats = cache.Stats{}
	h.Bus.ResetStats()
	h.Mem.Requests, h.Mem.PrefetchRequests, h.Mem.QueueStalls = 0, 0, 0
	if r, ok := h.Filter.(interface{ ResetStats() }); ok {
		r.ResetStats()
	}
}

// resetStats zeroes the side's statistics, keeping its state warm.
func (s *side) resetStats() {
	s.Pf = stats.Prefetches{}
	s.Merged, s.DeadGated = 0, 0
	s.L1.Stats = cache.Stats{}
	s.Queue.ResetStats()
	s.m.reset()
	if s.Dead != nil {
		s.Dead.ResetStats()
	}
	if s.Tax != nil {
		s.Tax.ResetCounts()
	}
}

// QueuedPrefetches returns the current data prefetch queue depth.
func (h *Hierarchy) QueuedPrefetches() int { return h.D.Queue.Len() }

// InFlight returns the number of outstanding prefetch fills on both sides.
func (h *Hierarchy) InFlight() int { return len(h.inflight) }

// Finish completes all in-flight fills, then classifies what each side
// still holds so counter conservation holds.
func (h *Hierarchy) Finish() {
	h.Tick(^uint64(0))
	h.D.finish()
	if h.I != nil {
		h.I.finish()
	}
}

// finish classifies state left at end of run: queued-but-unissued
// prefetches are overflow casualties; resident prefetched L1 lines (by
// RIB) and buffer entries (by Referenced) classify good or bad.
func (s *side) finish() {
	n := uint64(len(s.Queue.Drain()))
	s.Pf.Overflow += n
	s.m.pfOverflow.Add(n)
	s.L1.ForEach(func(line *cache.Line) {
		if line.PIB {
			s.residentAtEnd(line.RIB)
		}
	})
	if s.Buffer != nil {
		for _, e := range s.Buffer.Drain() {
			s.residentAtEnd(e.Referenced)
		}
	}
	if s.Tax != nil {
		s.Tax.Finish()
	}
}

// residentAtEnd classifies one prefetch still resident at end of run.
func (s *side) residentAtEnd(good bool) {
	if good {
		s.Pf.Good++
		s.Pf.ResidentGood++
		s.m.pfGood.Inc()
	} else {
		s.Pf.Bad++
		s.Pf.ResidentBad++
		s.m.pfBad.Inc()
	}
}
