package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync/atomic"

	"streamdex/internal/dht"
	"streamdex/internal/query"
)

// checker counts the benchmark's checked operations. Every check is one
// attempted operation; a check that does not hold is a failed one, and
// the first few are described on standard error.
type checker struct {
	attempted, failed int64
	tried, failedBy   map[string]int64 // by kind of check
}

func (c *checker) check(ok bool, what string, args ...any) {
	if c.tried == nil {
		c.tried, c.failedBy = make(map[string]int64), make(map[string]int64)
	}
	c.attempted++
	c.tried[what]++
	if ok {
		return
	}
	c.failed++
	c.failedBy[what]++
	if c.failedBy[what] <= 3 {
		fmt.Fprintf(os.Stderr, "check failed: %s: %s\n", what, fmt.Sprint(args...))
	}
}

// summary prints how many checks of each kind ran and failed.
func (c *checker) summary() {
	kinds := make([]string, 0, len(c.tried))
	for what := range c.tried {
		kinds = append(kinds, what)
	}
	sort.Strings(kinds)
	for _, what := range kinds {
		fmt.Fprintf(os.Stderr, "checks %8d failed %d: %s\n", c.tried[what], c.failedBy[what], what)
	}
}

// simQ is one posted similarity query and what its client saw.
type simQ struct {
	node   int // origin node index
	id     query.ID
	f      []float64
	r      float64
	posted int64 // deployment clock, ns
	expiry int64

	reps      []report     // every match reported, in arrival order
	bad       []string     // reports naming streams the benchmark never made
	responses atomic.Int64 // response deliveries at the client
	held      atomic.Int64 // heap the reports hold, bytes

	// Built from reps by index once the deployment has stopped.
	indexed  int
	first    map[mbrKey]int64   // first report time of each match
	dist     map[mbrKey]float64 // reported lower-bound distance
	detector map[mbrKey]dht.Key // node that detected the match
}

// report is one match as the client saw it.
type report struct {
	k    mbrKey
	at   int64
	dist float64
	node dht.Key
}

func newSimQ(node int, id query.ID, f []float64, r float64, posted, expiry int64) *simQ {
	return &simQ{node: node, id: id, f: f, r: r, posted: posted, expiry: expiry}
}

// onReport records one response delivery at the client.
func (q *simQ) onReport(streamIdx map[string]int, ms []query.Match, now int64) {
	q.responses.Add(1)
	for _, m := range ms {
		si, ok := streamIdx[m.StreamID]
		if !ok {
			q.bad = append(q.bad, m.StreamID)
			continue
		}
		q.reps = append(q.reps, report{mbrKey{int32(si), int32(m.Seq)}, now, m.DistLB, m.Node})
	}
	q.held.Store(int64(cap(q.reps)) * 40)
}

// index folds the reports received since the last call into the lookup
// maps, keeping the first report of each match.
func (q *simQ) index() {
	if q.first == nil {
		q.first = make(map[mbrKey]int64)
		q.dist = make(map[mbrKey]float64)
		q.detector = make(map[mbrKey]dht.Key)
	}
	for _, rp := range q.reps[q.indexed:] {
		if _, seen := q.first[rp.k]; !seen {
			q.first[rp.k], q.dist[rp.k], q.detector[rp.k] = rp.at, rp.dist, rp.node
		}
	}
	q.indexed = len(q.reps)
}

// bookkeeping estimates the heap the benchmark's records of the series and
// the queries hold. Safe while the deployment runs.
func bookkeeping(all []*series, qs []*simQ) int64 {
	var n int64
	for _, s := range all {
		n += s.held.Load()
	}
	for _, q := range qs {
		n += 256 + q.held.Load()
	}
	return n
}

// timing bounds the protocol's own delays on a deployment, used to decide
// which answers must already be visible at check time.
type timing struct {
	push   int64 // push period, ns
	hop    int64 // per-hop delay bound, ns
	slack  int64 // fixed allowance on top, ns
	routeH int64 // routed hops allowance
}

// checkSimilarity judges every client answer against the brute-force
// scan. No phantom matches: every reported (stream, seq) is a real batch
// whose reported lower bound is at most the radius and at most the true
// distance. No false dismissals (paper Eq. 8/9): every batch of the
// measured window whose box lies within the radius, and whose last point
// falls inside the query's registered lifespan early enough for the
// notify relay and the response push to reach the client by check time,
// is reported.
func checkSimilarity(c *checker, rg *ring, qs []*simQ, bs *batchSet, all []*series, win []*batch, tm timing, checkAt int64) (candidates, confirmed int64) {
	for _, q := range qs {
		q.index()
		c.check(len(q.bad) == 0, "similarity: report names unknown stream", q.bad)
		for k, d := range q.dist {
			candidates++
			b := bs.get(all[k.stream], int(k.seq))
			c.check(b != nil, "similarity: phantom batch", k)
			if b == nil {
				continue
			}
			td := b.trueDist(q.f)
			c.check(d <= q.r+featTol && d <= td+featTol, "similarity: lower bound above radius or true distance",
				fmt.Sprintf("q=%d %v lb=%.12f r=%.3f true=%.12f", q.id, k, d, q.r, td))
			if td <= q.r {
				confirmed++
			}
		}
		qlo, qhi := keyOf(rg.space, q.f[0]-q.r), keyOf(rg.space, q.f[0]+q.r)
		covered := rg.cover(qlo, qhi)
		mid := rg.succ(rg.space.Midpoint(qlo, qhi))
		relay := 0
		for _, i := range covered {
			if d := rg.dist(i, mid); d > relay {
				relay = d
			}
		}
		// Registration reaches the far end of the range after the routed
		// hops plus one hop per covering node; a detection then waits for
		// the detector's next flush, one push period per relay hop, and
		// the middle node's response push.
		reg := q.posted + (tm.routeH+int64(len(covered)))*tm.hop + tm.slack
		lag := int64(relay+3)*tm.push + (tm.routeH+int64(len(covered)))*tm.hop + tm.slack
		for _, b := range win {
			if b.closeAt < reg || b.closeAt+lag > q.expiry || b.closeAt+lag > checkAt {
				continue
			}
			md := b.minDist(q.f)
			if md > q.r-featTol {
				continue
			}
			_, ok := q.first[mbrKey{int32(b.stream), int32(b.seq)}]
			c.check(ok, "similarity: false dismissal",
				fmt.Sprintf("q=%d node=%d stream=%d seq=%d mindist=%.6f r=%.3f reported=%d covered=%v mid=%d close-posted=%.3fs", q.id, q.node, b.stream, b.seq, md, q.r, len(q.first), covered, mid, float64(b.closeAt-q.posted)/1e9))
		}
	}
	return candidates, confirmed
}

// checkDeliveries judges range multicast: every MBR whose last point was
// pulled in the measured window is delivered exactly once to every node
// covering its key range — coverage from the sorted node ids — and to no
// other node; the program's box agrees with the oracle's.
func checkDeliveries(c *checker, rg *ring, win []*batch, delivs []delivery, boxes map[mbrKey][2][]float64) {
	got := make(map[mbrKey][]int32)
	for _, d := range delivs {
		k := mbrKey{d.stream, d.seq}
		got[k] = append(got[k], d.node)
	}
	for _, b := range win {
		k := mbrKey{int32(b.stream), int32(b.seq)}
		box, ok := boxes[k]
		c.check(ok, "multicast: MBR never delivered", k)
		if !ok {
			continue
		}
		same := true
		for d := range b.lo {
			if math.Abs(box[0][d]-b.lo[d]) > featTol || math.Abs(box[1][d]-b.hi[d]) > featTol {
				same = false
			}
		}
		c.check(same, "summary: program box differs from oracle box",
			fmt.Sprintf("%v program %v..%v oracle %v..%v", k, box[0], box[1], b.lo, b.hi))
		want := rg.cover(keyOf(rg.space, box[0][0]), keyOf(rg.space, box[1][0]))
		have := append([]int32(nil), got[k]...)
		sort.Slice(have, func(i, j int) bool { return have[i] < have[j] })
		exp := make([]int32, len(want))
		for i, n := range want {
			exp[i] = int32(n)
		}
		sort.Slice(exp, func(i, j int) bool { return exp[i] < exp[j] })
		c.check(fmt.Sprint(have) == fmt.Sprint(exp), "multicast: deliveries differ from coverage",
			fmt.Sprintf("%v delivered at %v, covering nodes %v", k, have, exp))
	}
}

// checkConservation judges the ingest path: each stream's current window
// in the program equals the last W values the benchmark handed it, and
// the program published exactly the batches the pulled points make.
func checkConservation(c *checker, all []*series, window func(s *series) []float64, w int, published int64) {
	var want int64
	for _, s := range all {
		got := window(s)
		tail := s.vals[len(s.vals)-w:]
		same := len(got) == w
		for i := 0; same && i < w; i++ {
			same = got[i] == tail[i]
		}
		c.check(same, "ingest: program window differs from pulled points", s.id)
		want += int64(s.livePoints() / s.beta)
		c.check(len(s.closeAt) == s.livePoints()/s.beta, "ingest: batch count", s.id)
	}
	c.check(published == want, "ingest: MBRs published", fmt.Sprintf("program %d, expected %d", published, want))
}

// responses is the number of response deliveries at the clients so far.
func responses(qs []*simQ) int64 {
	var n int64
	for _, q := range qs {
		n += q.responses.Load()
	}
	return n
}
