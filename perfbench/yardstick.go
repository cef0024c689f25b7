package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The machines this benchmark runs on are shared virtual machines whose
// processors change speed by tens of percent within seconds and between
// minutes: a neighbour on the same core, a frequency change, or the host
// taking a virtual processor away for a while (stolen time). Every host
// time of a run moves with that, whatever the program does. The yardstick
// measures it while the run works. Every yardstickPeriod a goroutine runs
// a fixed burst of integer work and records the burst's wall time, which
// follows the processor's speed, and reads the system's stolen and total
// processor time from /proc/stat. Host-time end-to-end metrics are
// reported at the reference speed: a time measured over an interval is
// multiplied by the share of processor time not stolen in the interval
// and by refBurstUS over the interval's median burst; a rate is divided
// by the same factor. The burst shares no code with the repository, so a
// change to the program moves the scaled figures and a change in the
// machine mostly does not.

// refBurstUS is the burst time the scaled figures are quoted at: about
// the median burst on a 2-vCPU Xeon virtual machine, so scaled figures
// read close to raw ones there.
const refBurstUS = 560.0

const (
	burstIters      = 50_000 // steps of the four chains per burst
	yardstickPeriod = 40 * time.Millisecond
	// minWindow is the fewest bursts an interval is scaled by; a shorter
	// interval borrows the nearest bursts on both sides.
	minWindow = 9
)

// burst is the fixed unit of work: four independent xorshift chains and
// a data-dependent branch, in registers. Independent chains keep several
// execution ports busy, as the simulator's code does, so the burst slows
// down when a neighbour shares the core, not only when the clock drops;
// a single dependent chain followed only part of the simulator's swings.
func burst(x uint64) uint64 {
	a, b, c, d := x, x*3+1, x*5+7, x*7+11
	var acc uint64
	for i := 0; i < burstIters; i++ {
		a ^= a << 13
		a ^= a >> 7
		a ^= a << 17
		b ^= b << 13
		b ^= b >> 7
		b ^= b << 17
		c ^= c << 13
		c ^= c >> 7
		c ^= c << 17
		d ^= d << 13
		d ^= d >> 7
		d ^= d << 17
		if (a^c)&1 == 0 {
			acc += b * 3
		} else {
			acc ^= d >> 3
		}
	}
	return acc ^ a ^ b ^ c ^ d
}

// yardstick samples the processor's speed for the life of a run.
type yardstick struct {
	mu      sync.Mutex
	samples []speedSample
	stop    chan struct{}
	done    chan struct{}
}

type speedSample struct {
	at time.Time // end of the burst
	us float64   // wall time of the burst
	// steal and total are the system's stolen and total processor time
	// so far, in clock ticks (both 0 where /proc/stat cannot be read).
	steal, total uint64
}

// startYardstick starts sampling; close stops it and waits for it.
func startYardstick() *yardstick {
	y := &yardstick{stop: make(chan struct{}), done: make(chan struct{})}
	go y.loop()
	return y
}

func (y *yardstick) loop() {
	defer close(y.done)
	tick := time.NewTicker(yardstickPeriod)
	defer tick.Stop()
	x := uint64(0x9e3779b97f4a7c15)
	for {
		select {
		case <-y.stop:
			return
		case <-tick.C:
		}
		start := time.Now()
		x = burst(x) | 1
		end := time.Now()
		steal, total := cpuTicks()
		y.mu.Lock()
		y.samples = append(y.samples, speedSample{at: end, us: float64(end.Sub(start)) / 1e3, steal: steal, total: total})
		y.mu.Unlock()
	}
}

func (y *yardstick) close() {
	close(y.stop)
	<-y.done
}

// scale is the factor that brings a time measured over [from, to] to the
// reference speed. The interval's bursts are those that ended in it,
// widened to the nearest minWindow when it holds fewer; the factor is the
// share of processor time not stolen from the burst before the first of
// them to the last, times refBurstUS over their median. With no bursts at
// all it is 1.
func (y *yardstick) scale(from, to time.Time) float64 {
	y.mu.Lock()
	defer y.mu.Unlock()
	s := y.samples
	if len(s) == 0 {
		return 1
	}
	lo := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(from) })
	hi := sort.Search(len(s), func(i int) bool { return s[i].at.After(to) })
	for hi-lo < minWindow && (lo > 0 || hi < len(s)) {
		if lo > 0 {
			lo--
		}
		if hi < len(s) && hi-lo < minWindow {
			hi++
		}
	}
	us := make([]float64, 0, hi-lo)
	for _, x := range s[lo:hi] {
		us = append(us, x.us)
	}
	kept := 1.0
	first, last := s[max(lo-1, 0)], s[hi-1]
	if dt := last.total - first.total; dt > 0 && last.steal >= first.steal {
		kept = 1 - float64(last.steal-first.steal)/float64(dt)
	}
	return kept * refBurstUS / median(us)
}

// cpuTicks reads the stolen and the total processor time of the system
// from the first line of /proc/stat ("cpu user nice system idle iowait
// irq softirq steal ..."), or zeros.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i >= 8 {
			break // guest time is already counted in user time
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stealPct is the share of processor time stolen over the whole run.
func (y *yardstick) stealPct() float64 {
	y.mu.Lock()
	defer y.mu.Unlock()
	if len(y.samples) < 2 {
		return 0
	}
	first, last := y.samples[0], y.samples[len(y.samples)-1]
	if last.total <= first.total {
		return 0
	}
	return 100 * float64(last.steal-first.steal) / float64(last.total-first.total)
}

// burstUS is every burst's time, for the report.
func (y *yardstick) burstUS() []float64 {
	y.mu.Lock()
	defer y.mu.Unlock()
	out := make([]float64, len(y.samples))
	for i, x := range y.samples {
		out[i] = x.us
	}
	return out
}
