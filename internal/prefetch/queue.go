// The prefetch queue (Table 1: 64 entries). Accepted prefetches wait here
// and contend with demand accesses for the L1 cache ports; the queue also
// performs the duplicate squashing the paper assumes ("all duplicate
// prefetches are squashed automatically with no penalty").
package prefetch

import "fmt"

// QueuedCandidate is a Candidate plus the cycle it entered the queue, so
// the port arbiter can reason about staleness.
type QueuedCandidate struct {
	Candidate
	EnqueueCycle uint64
}

// Queue is a bounded FIFO of pending prefetches with duplicate squashing.
//
// Duplicate lookup scans addrs, a dense ring of the queued line
// addresses that mirrors buf slot-for-slot. At hardware-realistic
// capacities (Table 1: 64 entries) a linear scan over a packed []uint64
// beats a map: no hashing on the simulator's hot enqueue/squash path, no
// per-entry heap allocation, and the whole mirror fits in a few host
// cache lines. Squashing also guarantees each address appears at most
// once, so the mirror needs no occurrence counting.
type Queue struct {
	buf   []QueuedCandidate
	addrs []uint64 // addrs[i] == buf[i].LineAddr for occupied slots
	head  int
	tail  int
	count int

	Enqueued  uint64
	Squashed  uint64 // duplicates dropped
	Overflows uint64 // dropped because the queue was full
	Dequeued  uint64
}

// NewQueue builds a queue with the given capacity.
func NewQueue(capacity int) (*Queue, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("prefetch: queue capacity must be positive, got %d", capacity)
	}
	return &Queue{
		buf:   make([]QueuedCandidate, capacity),
		addrs: make([]uint64, capacity),
	}, nil
}

// Len returns the number of queued prefetches.
func (q *Queue) Len() int { return q.count }

// Cap returns the queue capacity.
func (q *Queue) Cap() int { return len(q.buf) }

// Contains reports whether a prefetch for the line is already queued.
// It scans only the occupied ring window, in (up to) two contiguous runs
// so the inner loops are simple range scans with no per-element modulo.
//
//pflint:hotpath
func (q *Queue) Contains(lineAddr uint64) bool {
	if q.head+q.count <= len(q.addrs) {
		for _, a := range q.addrs[q.head : q.head+q.count] {
			if a == lineAddr {
				return true
			}
		}
		return false
	}
	for _, a := range q.addrs[q.head:] {
		if a == lineAddr {
			return true
		}
	}
	for _, a := range q.addrs[:q.tail] {
		if a == lineAddr {
			return true
		}
	}
	return false
}

// Enqueue adds a candidate at cycle now. Duplicates of queued lines are
// squashed; a full queue drops the candidate. Both outcomes return false.
//
//pflint:hotpath
func (q *Queue) Enqueue(c Candidate, now uint64) bool {
	if q.Contains(c.LineAddr) {
		q.Squashed++
		return false
	}
	if q.count == len(q.buf) {
		q.Overflows++
		return false
	}
	q.buf[q.tail] = QueuedCandidate{Candidate: c, EnqueueCycle: now}
	q.addrs[q.tail] = c.LineAddr
	q.tail = (q.tail + 1) % len(q.buf)
	q.count++
	q.Enqueued++
	return true
}

// Front returns the oldest queued prefetch without removing it.
func (q *Queue) Front() (QueuedCandidate, bool) {
	if q.count == 0 {
		return QueuedCandidate{}, false
	}
	return q.buf[q.head], true
}

// Dequeue removes and returns the oldest queued prefetch.
//
//pflint:hotpath
func (q *Queue) Dequeue() (QueuedCandidate, bool) {
	if q.count == 0 {
		return QueuedCandidate{}, false
	}
	c := q.buf[q.head]
	q.buf[q.head] = QueuedCandidate{}
	q.addrs[q.head] = 0 // keep the mirror in lockstep: no ghost line addresses
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	q.Dequeued++
	return c, true
}

// ResetStats zeroes the queue's counters (warmup boundary); queued
// candidates stay.
func (q *Queue) ResetStats() {
	q.Enqueued, q.Squashed, q.Overflows, q.Dequeued = 0, 0, 0, 0
}

// Drain empties the queue, returning the remaining candidates in order.
func (q *Queue) Drain() []QueuedCandidate {
	out := make([]QueuedCandidate, 0, q.count)
	for {
		c, ok := q.Dequeue()
		if !ok {
			break
		}
		out = append(out, c)
	}
	return out
}
