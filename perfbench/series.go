package main

import (
	"math/rand"
	"sync/atomic"
)

// series is one generated input stream and the benchmark's own record of
// it. The program pulls values through Next; the record keeps every value
// (the oracle recomputes features from it) and the clock reading at each
// pull that closes a β-batch (the start of that batch's latencies).
//
// Next is called by the program, one call at a time per stream (the
// simulator's loop, or the live node's per-stream ingest lock). Nothing
// else reads the record until the deployment has stopped, except the
// atomic pull counter.
type series struct {
	id  string
	idx int

	rng  *rand.Rand
	x    float64
	step float64

	beta    int
	prefill int // values pulled at registration to fill the window
	now     func() int64

	vals    []float64 // every pulled value, oldest first
	closeAt []int64   // closeAt[s]: clock (ns) at the pull closing batch s
	pulls   atomic.Int64
	// held is the heap the record holds (slice capacities, bytes), kept
	// readable while the program is pulling.
	held atomic.Int64

	// Traced runs only: the gap between consecutive live pulls minus the
	// stream period, on the deployment's clock in ns.
	period   int64
	lastPull int64
	lags     []int64
	trace    bool
}

// newSeries returns a bounded random walk on [0, 1000] starting at a
// seeded point with uniform steps in [-step, step], reflected at the
// bounds: the paper's synthetic stream model, drawn from the benchmark's
// own generator.
func newSeries(idx int, id string, seed int64, step float64, beta, prefill int, now func() int64) *series {
	rng := rand.New(rand.NewSource(seed))
	return &series{
		id:      id,
		idx:     idx,
		rng:     rng,
		x:       100 + 800*rng.Float64(),
		step:    step,
		beta:    beta,
		prefill: prefill,
		now:     now,
	}
}

// Next implements stream.Generator.
func (s *series) Next() float64 {
	var t0 int64
	if s.trace {
		t0 = s.now()
	}
	s.x += s.step * (2*s.rng.Float64() - 1)
	if s.x < 0 {
		s.x = -s.x
	}
	if s.x > 1000 {
		s.x = 2000 - s.x
	}
	s.vals = append(s.vals, s.x)
	s.pulls.Add(1)
	live := len(s.vals) - s.prefill
	if live > 0 && live%s.beta == 0 {
		s.closeAt = append(s.closeAt, s.now())
	}
	if s.trace && live > 0 {
		if live > 1 {
			s.lags = append(s.lags, t0-s.lastPull-s.period)
		}
		s.lastPull = t0
	}
	s.held.Store(int64(cap(s.vals)+cap(s.closeAt)+cap(s.lags)) * 8)
	return s.x
}

// livePoints is the number of values pulled after the window prefill.
func (s *series) livePoints() int { return len(s.vals) - s.prefill }

// batchEnd returns the index into vals of the last point of batch seq: the
// window prefill is followed by one feature per live point, and every β
// consecutive features form one batch.
func (s *series) batchEnd(seq int) int { return s.prefill + (seq+1)*s.beta - 1 }
