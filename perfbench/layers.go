package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hier"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// access is one recorded data-side memory access.
type access struct {
	pc, addr uint64
	store    bool
}

// streams are the replay inputs of the hier and cache replay loops, recorded
// from the workload's benchmarks.
type streams struct {
	data    []access // loads and stores
	fetches []uint64 // PCs at fetch-block transitions
}

// recordLen is how many records each benchmark contributes to the streams.
const recordLen = 20_000

// recordStreams records the data accesses and the fetch-block
// transitions of the first recordLen records of every benchmark.
func recordStreams(benches []string, seed uint64) (streams, error) {
	var s streams
	blockBits := uint(0)
	for b := config.DefaultFrontend().L1I.LineBytes; b > 1; b >>= 1 {
		blockBits++
	}
	lastBlock, live := uint64(0), false
	for _, name := range benches {
		spec, ok := workload.ByName(name)
		if !ok {
			return streams{}, fmt.Errorf("unknown benchmark %q", name)
		}
		src := spec.New(seed)
		for i := 0; i < recordLen; i++ {
			r, ok := src.Next()
			if !ok {
				break
			}
			if r.Op == isa.OpLoad || r.Op == isa.OpStore {
				s.data = append(s.data, access{pc: r.PC, addr: r.Addr, store: r.Op == isa.OpStore})
			}
			if b := r.PC >> blockBits; !live || b != lastBlock {
				s.fetches = append(s.fetches, r.PC)
				lastBlock, live = b, true
			}
		}
		if cl, ok := src.(io.Closer); ok {
			if err := cl.Close(); err != nil {
				return streams{}, fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	return s, nil
}

// replayConfig is the machine the replay loops use: the default
// machine with the paper's filter, and the front end on.
func replayConfig() config.Config {
	cfg := config.Default().WithFilter(config.FilterPA)
	fe := config.DefaultFrontend()
	fe.IPrefetch = config.IPrefetchNextLine
	cfg.Frontend = &fe
	return cfg
}

func newReplayHier(cfg config.Config) (*hier.Hierarchy, error) {
	f := core.NewNull()
	return hier.New(cfg, f, xrand.New(cfg.Seed^0xfeed))
}

// replayStats is what a replay loop did.
type replayStats struct {
	calls      int // DemandAccess or FetchAccess calls
	cycles     uint64
	idleCycles uint64 // cycles with no prefetch issued, none queued and none in flight
	wall       time.Duration
}

// replayData drives a recorded data stream through a hierarchy, one
// access per cycle: Tick, DemandAccess, then IssuePrefetches with the
// ports the access left free.
func replayData(h *hier.Hierarchy, data []access) replayStats {
	ports := h.Config().L1.Ports
	var rs replayStats
	start := time.Now()
	for i, a := range data {
		now := uint64(i + 1)
		h.Tick(now)
		h.DemandAccess(now, a.pc, a.addr, a.store)
		rs.calls++
		if used := h.IssuePrefetches(now, ports-1); used == 0 && h.QueuedPrefetches() == 0 && h.InFlight() == 0 {
			rs.idleCycles++
		}
	}
	rs.cycles = uint64(len(data))
	rs.wall = time.Since(start)
	h.Finish()
	return rs
}

// replayFetch drives a recorded fetch stream through the I-path: each
// fetch waits for its block, and every cycle spent waiting still ticks
// the hierarchy and polls both prefetch queues, as the core's cycle loop
// does while the front end is stalled.
func replayFetch(h *hier.Hierarchy, pcs []uint64) replayStats {
	ports := h.Config().L1.Ports
	var rs replayStats
	now := uint64(0)
	step := func() {
		now++
		h.Tick(now)
	}
	poll := func() {
		used := h.IssuePrefetches(now, ports)
		used += h.IssueIPrefetches(now, 1)
		if used == 0 && h.QueuedPrefetches() == 0 && h.InFlight() == 0 {
			rs.idleCycles++
		}
	}
	start := time.Now()
	for _, pc := range pcs {
		step()
		done := h.FetchAccess(now, pc)
		rs.calls++
		poll()
		for now < done {
			step()
			poll()
		}
	}
	rs.cycles = now
	rs.wall = time.Since(start)
	h.Finish()
	return rs
}

// probeCache runs the recorded L1 line stream through a bare cache:
// Lookup, and Insert on a miss.
func probeCache(cfg config.CacheConfig, data []access) (probes int, wall time.Duration, err error) {
	c, err := cache.New(cfg, xrand.New(1))
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for _, a := range data {
		line := c.LineAddr(a.addr)
		if _, hit := c.Lookup(line); !hit {
			c.Insert(line)
		}
	}
	return len(data), time.Since(start), nil
}

// cacheNewBytes is the heap allocated building the default L1 and L2.
func cacheNewBytes() (uint64, error) {
	cfg := config.Default()
	a0 := heapAllocs()
	l1, err := cache.New(cfg.L1, xrand.New(1))
	if err != nil {
		return 0, err
	}
	l2, err := cache.New(cfg.L2, xrand.New(2))
	if err != nil {
		return 0, err
	}
	n := heapAllocs() - a0
	if l1.Capacity() == 0 || l2.Capacity() == 0 {
		return 0, fmt.Errorf("empty cache")
	}
	return n, nil
}

// layerMetrics fills the ledger with the traced run's per-layer metrics.
func (w workloadDef) layerMetrics(e *env, st *state, l *ledger, tr *recorder, untraced, traced []sweepOut, svc svcOut) error {
	// Cells: source, sim core, filter, cpu, caches, prefetchers, bus.
	var (
		wallNS, cycles, instr, minstr, measured   float64
		fetchStall, portConf, mshr, rob, busStall float64
		l1a, l1m, l2a, l2m, fb, fm                float64
		queries, rejected                         float64
		good, bad, issued, igood, ibad, iissued   float64
		allowNS, allowN, trainNS, trainN          float64
		srcNS, srcN                               = map[string]float64{}, map[string]float64{}
		coreNS                                    float64
	)
	var cells []cellOut
	for _, s := range traced {
		cells = append(cells, s.cells...)
	}
	for _, o := range cells {
		r, obs := o.run, o.obs
		if obs == nil {
			continue
		}
		total := float64(w.budget.total())
		// Cycles with warmup: the measured window's cycles scaled by the
		// share of instructions it covers (the warmup window's cycles
		// are not reported by the simulator).
		cyc := float64(r.Cycles) * total / float64(r.Instructions)
		wallNS += float64(o.wall)
		cycles += cyc
		instr += total
		minstr += float64(r.Instructions)
		measured += float64(r.Cycles)
		portConf += float64(r.PortConflictCycles)
		mshr += float64(obs.mshrStall)
		rob += float64(obs.robStall)
		busStall += float64(obs.busStall)
		l1a += float64(r.L1DemandAccesses)
		l1m += float64(r.L1DemandMisses)
		l2a += float64(r.L2DemandAccesses)
		l2m += float64(r.L2DemandMisses)
		queries += float64(r.FilterQueries)
		rejected += float64(r.FilterRejected)
		good += float64(r.Prefetches.Good)
		bad += float64(r.Prefetches.Bad)
		issued += float64(r.Prefetches.Issued)
		if fe := r.Frontend; fe != nil {
			fetchStall += float64(fe.FetchStallCycles)
			fb += float64(fe.FetchBlocks)
			fm += float64(fe.FetchMisses)
			igood += float64(fe.Prefetches.Good)
			ibad += float64(fe.Prefetches.Bad)
			iissued += float64(fe.Prefetches.Issued)
		}
		allowNS += float64(obs.allowNS)
		allowN += float64(obs.allowCalls)
		trainNS += float64(obs.trainNS)
		trainN += float64(obs.trainCalls)
		srcNS[obs.layer] += float64(obs.sourceNS)
		srcN[obs.layer] += float64(obs.sourceCount)
		coreNS += float64(obs.simNS - obs.sourceNS - obs.allowNS - obs.trainNS)
	}
	simSelf, simCount := tr.layerTotal("sim.Run")
	if d := math.Abs(float64(simSelf) - coreNS); d > 1e-6*coreNS+1 {
		l.fail("sim.Run self time %d ns disagrees with the per-cell sum %.0f ns", simSelf, coreNS)
	}
	l.set("workload.ns_per_record", ratio(srcNS["workload"], srcN["workload"]), fmt.Sprintf("%.0f records", srcN["workload"]))
	l.set("tracefile.ns_per_record", ratio(srcNS["tracefile"], srcN["tracefile"]), fmt.Sprintf("%.0f records", srcN["tracefile"]))
	l.set("sim.core_ns_per_instr", float64(simSelf)/float64(simCount), "sim.Run self time: cpu+hier+cache+prefetch")
	l.set("cpu.host_ns_per_cycle", wallNS/cycles, "cycles with warmup scaled from the measured window")
	l.set("cpu.ipc", ratio(minstr, measured), "measured window")
	l.set("cpu.fetch_stall_frac", ratio(fetchStall, measured), "")
	l.set("cpu.port_conflict_frac", ratio(portConf, measured), "")
	l.set("cpu.mshr_stall_frac", ratio(mshr, measured), "")
	l.set("cpu.rob_stall_frac", ratio(rob, measured), "")
	l.set("cache.l1d_miss_ratio", ratio(l1m, l1a), "")
	l.set("cache.l2_miss_ratio", ratio(l2m, l2a), "")
	l.set("cache.l1i_miss_ratio", ratio(fm, fb), "")
	l.set("filter.allow_ns", ratio(allowNS, allowN), fmt.Sprintf("%.0f calls", allowN))
	l.set("filter.train_ns", ratio(trainNS, trainN), fmt.Sprintf("%.0f calls", trainN))
	l.set("filter.reject_ratio", ratio(rejected, queries), "")
	l.set("prefetch.accuracy", ratio(good, good+bad), "")
	l.set("prefetch.issued_per_kinstr", ratio(issued*1000, minstr), "")
	l.set("frontend.accuracy", ratio(igood, igood+ibad), "")
	l.set("frontend.pollution", ratio(ibad, igood+ibad), "")
	l.set("frontend.issued_per_kinstr", ratio(iissued*1000, minstr), "")
	l.set("bus.stall_frac", ratio(busStall, measured), "")

	// Scheduler: the traced sweeps' parallelism.
	var cellSum, sweepSum time.Duration
	var steals uint64
	var tracedWalls, untracedWalls []float64
	for _, s := range traced {
		for _, o := range s.cells {
			cellSum += o.wall
		}
		sweepSum += s.wall
		steals += s.steals
		tracedWalls = append(tracedWalls, s.wall.Seconds())
	}
	for _, s := range untraced {
		untracedWalls = append(untracedWalls, s.wall.Seconds())
	}
	l.set("sched.speedup", cellSum.Seconds()/sweepSum.Seconds(), fmt.Sprintf("%d workers", jobs))
	l.set("sched.tail_idle_frac", (jobs*sweepSum.Seconds()-cellSum.Seconds())/(jobs*sweepSum.Seconds()), "")
	l.set("sched.steals", float64(steals)/float64(len(traced)), "per traced sweep")
	l.set("trace.overhead_pct", (median(tracedWalls)/median(untracedWalls)-1)*100,
		fmt.Sprintf("median of %d traced sweeps over median of %d untraced, alternated", len(tracedWalls), len(untracedWalls)))

	// Layer probes over the recorded streams.
	cfg := replayConfig()
	h, err := newReplayHier(cfg)
	if err != nil {
		return err
	}
	t0 := tr.now()
	rd := replayData(h, st.streams.data)
	tr.interval("hier.replay_access", -1, t0, int64(rd.calls))
	if rd.calls != len(st.streams.data) || h.Traffic.DemandAccesses != uint64(len(st.streams.data)) {
		l.fail("hier replay issued %d accesses for %d recorded", h.Traffic.DemandAccesses, len(st.streams.data))
	}
	hi, err := newReplayHier(cfg)
	if err != nil {
		return err
	}
	t0 = tr.now()
	rf := replayFetch(hi, st.streams.fetches)
	tr.interval("hier.replay_fetch", -1, t0, int64(rf.calls))
	if hi.FetchBlocks != uint64(len(st.streams.fetches)) {
		l.fail("hier replay fetched %d blocks for %d recorded", hi.FetchBlocks, len(st.streams.fetches))
	}
	l.attempt(2)
	l.set("hier.replay_ns_per_access", float64(rd.wall)/float64(rd.calls), fmt.Sprintf("%d accesses", rd.calls))
	l.set("hier.replay_ns_per_fetch", float64(rf.wall)/float64(rf.calls), fmt.Sprintf("%d fetch blocks", rf.calls))
	l.set("hier.idle_poll_frac", float64(rf.idleCycles)/float64(rf.cycles), fmt.Sprintf("I-path replay, %d cycles", rf.cycles))

	n, wall, err := probeCache(cfg.L1, st.streams.data)
	if err != nil {
		return err
	}
	l.set("cache.ns_per_probe", float64(wall)/float64(n), fmt.Sprintf("%d probes", n))
	var newKB []float64
	for i := 0; i < 5; i++ {
		b, err := cacheNewBytes()
		if err != nil {
			return err
		}
		newKB = append(newKB, float64(b)/1024)
	}
	l.set("cache.new_kb", median(newKB), "default L1 + L2")

	var constructUS []float64
	for _, c := range st.cells {
		start := time.Now()
		_, err := sim.Run(sim.Options{Benchmark: c.bench, Config: c.cfg, MaxInstructions: 1, Warmup: -1})
		constructUS = append(constructUS, float64(time.Since(start))/1e3)
		if err != nil {
			l.fail("construct %s: %v", c.label(), err)
		}
	}
	l.attempt(len(st.cells))
	l.set("sim.construct_us", median(constructUS), fmt.Sprintf("median of %d one-instruction runs", len(constructUS)))

	// Service: client-observed /v1/run latency split by CAS hit.
	l.set("server.hit_ms_p50", quantile(append([]float64{}, svc.hitMS...), 0.5), fmt.Sprintf("n=%d", len(svc.hitMS)))
	l.set("server.hit_ms_p95", quantile(svc.hitMS, 0.95), fmt.Sprintf("n=%d", len(svc.hitMS)))
	l.set("server.miss_ms_p50", quantile(svc.missMS, 0.5), fmt.Sprintf("n=%d", len(svc.missMS)))
	rejected2 := float64(svc.rejected)
	for _, reg := range append(st.cl.wregs, st.cl.creg) {
		for _, k := range []string{"backpressure", "deadline", "draining"} {
			rejected2 += float64(reg.Counter("server.rejected." + k).Value())
		}
	}
	l.set("server.rejected", rejected2, "")
	var memoHits, memoAll float64
	for _, reg := range st.cl.wregs {
		h := float64(reg.Counter("experiments.cache.hits").Value() + reg.Counter("experiments.cache.shared").Value())
		memoHits += h
		memoAll += h + float64(reg.Counter("experiments.cache.misses").Value()+reg.Counter("experiments.cache.store_hits").Value())
	}
	l.set("experiments.memo_hit_ratio", ratio(memoHits, memoAll), fmt.Sprintf("%.0f worker lookups", memoAll))
	casHits := float64(st.cl.creg.Counter("fabric.cas.hits").Value())
	casMiss := float64(st.cl.creg.Counter("fabric.cas.misses").Value())
	l.set("fabric.cas_hit_ratio", ratio(casHits, casHits+casMiss), fmt.Sprintf("%.0f coordinator probes", casHits+casMiss))
	l.set("fabric.redeals", float64(st.cl.creg.Counter("fabric.cells.redealt").Value()), "")

	// Fabric: Coordinator.Run on the streamed sweeps' cells with a fresh
	// seed, first against an empty CAS, then again against the warm one.
	var probe []cell
	for _, c := range st.cells {
		if w.probe(c) {
			probe = append(probe, c)
		}
	}
	fp := fabric.Params{Instructions: w.budget.n, Warmup: w.budget.warmup, Seed: probeSeed(e.seed)}
	fcells := fabricCells(probe, fp)
	cas, err := fabric.OpenCAS(filepath.Join(e.tmp, "probe-cas"), nil)
	if err != nil {
		return err
	}
	coord, err := fabric.New(fabric.Options{Workers: st.cl.coord.Workers(), CAS: cas, PerWorker: 1})
	if err != nil {
		return err
	}
	l.attempt(2 * len(fcells))
	t0 = tr.now()
	cold, coldWall := coordinatorRun(coord, fp, fcells, l.fail)
	tr.interval("fabric.cold_run", -1, t0, int64(len(fcells)))
	t0 = tr.now()
	warm, warmWall := coordinatorRun(coord, fp, fcells, l.fail)
	tr.interval("fabric.warm_run", -1, t0, int64(len(fcells)))
	l.set("fabric.cold_run_s", coldWall.Seconds(), fmt.Sprintf("%d cells", len(fcells)))
	l.set("fabric.warm_run_s", warmWall.Seconds(), fmt.Sprintf("%d cells", len(fcells)))
	coldRuns := map[string]stats.Run{}
	for _, r := range cold {
		coldRuns[r.Cell.Key] = r.Run
	}
	warmRuns := map[string]stats.Run{}
	for _, r := range warm {
		warmRuns[r.Cell.Key] = r.Run
		if r.Source != "cas" {
			l.fail("warm coordinator run: %s came from %s, not the CAS", r.Cell.Bench, r.Source)
		}
	}
	if fabric.Fingerprint(coldRuns) != fabric.Fingerprint(warmRuns) {
		l.fail("warm coordinator run returned different runs than the cold one")
	}

	// CAS: direct Put then Get of the cold runs into a fresh store.
	direct, err := fabric.OpenCAS(filepath.Join(e.tmp, "direct-cas"), nil)
	if err != nil {
		return err
	}
	var putUS, getUS []float64
	for _, r := range cold {
		start := time.Now()
		if err := direct.Put(r.Cell.Key, r.Run); err != nil {
			l.fail("cas put: %v", err)
		}
		putUS = append(putUS, float64(time.Since(start))/1e3)
	}
	for _, r := range cold {
		start := time.Now()
		got, ok, err := direct.Get(r.Cell.Key)
		getUS = append(getUS, float64(time.Since(start))/1e3)
		if err != nil || !ok || fabric.Fingerprint(map[string]stats.Run{"k": got}) != fabric.Fingerprint(map[string]stats.Run{"k": r.Run}) {
			l.fail("cas get %s: ok=%v err=%v or different run", r.Cell.Bench, ok, err)
		}
	}
	l.attempt(2 * len(cold))
	l.set("fabric.cas_put_us", median(putUS), fmt.Sprintf("median of %d", len(putUS)))
	l.set("fabric.cas_get_us", median(getUS), fmt.Sprintf("median of %d", len(getUS)))

	path := filepath.Join(e.root, ".bench_build", "trace-"+w.name+".jsonl")
	if err := tr.write(path); err != nil {
		return err
	}
	l.infof("spans written to %s", path)
	return nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
