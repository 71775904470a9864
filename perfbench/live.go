package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"streamdex/internal/core"
	"streamdex/internal/dht"
	"streamdex/internal/metrics"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/stream"
	"streamdex/internal/summary"
	"streamdex/internal/transport"
)

// The live-ingest workload: a TCP loopback cluster in this process.
const (
	liveNodes       = 3
	liveStreams     = 100 // per node
	livePeriod      = 5 * time.Millisecond
	liveQueries     = 16
	liveRadius      = 0.1
	livePush        = 500 * time.Millisecond
	liveWarmup      = 1 * time.Second
	liveDrain       = 3 * livePush // at least two push periods before answers are checked
	liveSetups      = 3
	liveConvergeMax = 20 * time.Second
	liveStabilize   = 100_000 // µs: ring maintenance period, quick convergence at set-up
)

// liveLat: index visibility is judged per half second of the measured
// phase (about a thousand deliveries each; a run's figure is the median
// over the windows, so a disturbance of a second or two moves a few
// windows, not the run), freshness over the whole phase
// (some thousands of first reports). Both fixed tails sit below the
// simulator's p99. Visibility: beyond p90 the wall-clock figure follows the
// host's scheduling — on a shared two-vCPU host p99 ranged 1.2-5 ms
// across runs as the hypervisor's steal time moved, p90 0.70-0.79 ms.
// Freshness: matches reported by the detecting node itself arrive within
// one push period, matches relayed to a middle node on another node one
// period later, and p99 falls on the gap between the two whenever about
// one percent of a run's matches are relayed — a property of where the
// queries land; p95 stays within the first mode.
var liveLat = latSpec{visTail: 90, frTail: 95, visWin: int64(time.Second / 2)}

// liveDeploy is one running loopback cluster.
type liveDeploy struct {
	cfg       core.Config
	nodes     []*transport.Node
	mws       []*core.Middleware
	rg        *ring
	series    []*series
	streamIdx map[string]int
	nodeIdx   map[dht.Key]int
	recs      []*recorder
	qs        []*simQ
	qByID     []map[query.ID]*simQ // per origin node
}

func liveConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.PushPeriod = sim.Time(livePush / time.Microsecond)
	cfg.StoreShards = 4 * runtime.GOMAXPROCS(0)
	return cfg
}

// buildLive boots the cluster, joins it into one ring, waits for the ring
// to converge, attaches a middleware per node, registers the streams and
// posts the standing queries.
func buildLive(seed int64, trace bool) (*liveDeploy, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := liveConfig()
	d := &liveDeploy{cfg: cfg, streamIdx: make(map[string]int), nodeIdx: make(map[dht.Key]int)}
	// The deployment itself is the same on every run — equidistant node
	// ids, and a fixed middleware seed per node (it sets the push-tick
	// phases) — so with only three nodes the seed varies the data and the
	// queries, not the shape of the cluster.
	var ids []dht.Key
	for i := 0; i < liveNodes; i++ {
		ids = append(ids, cfg.Space.Wrap(dht.Key(uint64(i)*cfg.Space.Size()/liveNodes+12345)))
	}
	d.rg = newRing(cfg.Space, ids)
	for i, id := range d.rg.ids {
		d.nodeIdx[id] = i
		tc := transport.DefaultConfig(id, "127.0.0.1:0")
		tc.Space = cfg.Space
		tc.StabilizeEvery = liveStabilize
		n, err := transport.New(tc)
		if err != nil {
			d.close()
			return nil, err
		}
		d.nodes = append(d.nodes, n)
	}
	d.nodes[0].Create()
	for _, n := range d.nodes[1:] {
		if err := n.Join(d.nodes[0].Addr(), liveConvergeMax); err != nil {
			d.close()
			return nil, fmt.Errorf("join: %w", err)
		}
	}
	if err := d.converge(); err != nil {
		d.close()
		return nil, err
	}
	for i := 0; i < liveNodes*liveStreams; i++ {
		d.streamIdx[fmt.Sprintf("s%d", i)] = i
	}
	d.qByID = make([]map[query.ID]*simQ, liveNodes)
	for i, n := range d.nodes {
		var mw *core.Middleware
		var err error
		ncfg := cfg
		ncfg.Seed = int64(i + 1)
		n.Do(func() { mw, err = core.New(n, ncfg) })
		if err != nil {
			d.close()
			return nil, err
		}
		rec := newRecorder(mw.Collector(), nanotime, d.nodeIdx, d.streamIdx, trace)
		n.SetObserver(rec)
		if trace {
			n.SetApp(d.rg.ids[i], &appSpan{inner: mw.DataCenter(d.rg.ids[i]), spans: &rec.spans})
		}
		byID := make(map[query.ID]*simQ)
		d.qByID[i] = byID
		n.Do(func() {
			mw.OnSimilarity = func(id query.ID, ms []query.Match) {
				if q := byID[id]; q != nil {
					q.onReport(d.streamIdx, ms, nanotime())
				}
			}
		})
		d.mws = append(d.mws, mw)
		d.recs = append(d.recs, rec)
	}

	// Streams: node i sources streams i*liveStreams ... (i+1)*liveStreams-1.
	seeds := make([]int64, liveNodes*liveStreams)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	o := newOracle(cfg.WindowSize, cfg.FeatureDims)
	qf := d.queryFeatures(rng, o, seeds)
	for i, n := range d.nodes {
		id := d.rg.ids[i]
		var err error
		n.Do(func() {
			for j := 0; j < liveStreams && err == nil; j++ {
				k := i*liveStreams + j
				s := newSeries(k, fmt.Sprintf("s%d", k), seeds[k], 1, cfg.Beta, cfg.WindowSize, nanotime)
				s.trace = trace
				s.period = int64(livePeriod)
				d.series = append(d.series, s)
				err = d.mws[i].DataCenter(id).RegisterStream(stream.Stream{
					ID: s.id, Gen: s, Period: sim.Time(livePeriod / time.Microsecond), Prefill: true})
			}
		})
		if err != nil {
			d.close()
			return nil, err
		}
	}
	// Every standing query is posted at node 0: query ids are numbered per
	// middleware but key subscriptions at the covering nodes, so queries
	// posted at two nodes under the same id collide and the later one is
	// never registered (see CHANGES.md).
	for k, f := range qf {
		const i = 0
		var id query.ID
		var err error
		d.nodes[i].Do(func() {
			id, err = d.mws[i].PostSimilarity(d.rg.ids[i], f, liveRadius, sim.Time(time.Hour/time.Microsecond))
			if err == nil {
				q := newSimQ(i, id, f, liveRadius, nanotime(), nanotime()+int64(time.Hour))
				d.qByID[i][id] = q
				d.qs = append(d.qs, q)
			}
		})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("query %d rejected: %w", k, err)
		}
	}
	return d, nil
}

// queryFeatures picks the standing queries: each is centred near the
// feature of a randomly chosen stream's prefill window, computed by the
// oracle from a replica of that stream's generator, so every query has
// streams within reach from the start.
func (d *liveDeploy) queryFeatures(rng *rand.Rand, o *oracle, seeds []int64) []summary.Feature {
	var out []summary.Feature
	for q := 0; q < liveQueries; q++ {
		k := rng.Intn(len(seeds))
		probe := newSeries(k, "", seeds[k], 1, d.cfg.Beta, d.cfg.WindowSize, func() int64 { return 0 })
		for i := 0; i < d.cfg.WindowSize; i++ {
			probe.Next()
		}
		f := make(summary.Feature, d.cfg.FeatureDims)
		o.feature(probe.vals, f)
		for i := range f {
			f[i] += 0.02 * (2*rng.Float64() - 1)
		}
		out = append(out, f)
	}
	return out
}

// converge waits until every node's successor and predecessor match the
// sorted ids.
func (d *liveDeploy) converge() error {
	deadline := time.Now().Add(liveConvergeMax)
	for {
		ok := true
		for _, n := range d.nodes {
			info := n.Ring()
			i := d.nodeIdx[info.Self.ID]
			succ := d.rg.ids[(i+1)%liveNodes]
			pred := d.rg.ids[(i+liveNodes-1)%liveNodes]
			if len(info.SuccList) == 0 || info.SuccList[0].ID != succ || info.Pred == nil || info.Pred.ID != pred {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ring did not converge within %v", liveConvergeMax)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close shuts every node down and waits for each to stop.
func (d *liveDeploy) close() {
	for _, n := range d.nodes {
		n.Close()
	}
}

func (d *liveDeploy) points() int64 {
	var n int64
	for _, s := range d.series {
		n += s.pulls.Load()
	}
	return n - int64(len(d.series)*d.cfg.WindowSize)
}

// setupLive builds the cluster liveSetups times (closing all but the
// last) and returns the last with the median set-up time.
func setupLive(seed int64, trace bool) (*liveDeploy, float64, error) {
	var times []float64
	var d *liveDeploy
	for i := 0; i < liveSetups; i++ {
		if d != nil {
			d.close()
			d = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = buildLive(seed, trace); err != nil {
			return nil, 0, err
		}
		time.Sleep(liveWarmup)
		times = append(times, time.Since(t0).Seconds())
	}
	return d, median(times), nil
}

// measureLive runs the measured phase for budget seconds.
func (d *liveDeploy) measure(budget float64) measured {
	var m measured
	ms0 := readMem()
	p0 := d.points()
	s0, r0 := sumSnaps(d.recs), responses(d.qs)
	c0 := cpuNs()
	m.from = nanotime()
	t0 := time.Now()
	time.Sleep(time.Duration(budget * float64(time.Second)))
	m.wall = time.Since(t0).Seconds()
	m.to = nanotime()
	m.cpu = cpuNs() - c0
	m.points = d.points() - p0
	m.rec = sumSnaps(d.recs).add(s0, -1)
	m.msgs, m.bytes = m.rec.totals()
	m.responses = responses(d.qs) - r0
	ms1 := readMem()
	m.allocs, m.allocB, m.gcCPU = ms1.mallocs-ms0.mallocs, ms1.allocBytes-ms0.allocBytes, ms1.gcCPU-ms0.gcCPU
	m.heap = liveHeapMB(d.bookkeeping())
	m.rounds = 1
	return m
}

// bookkeeping estimates the heap the benchmark's own records hold. The
// records grow on the nodes' goroutines, so this reads them under each
// recorder's lock and through the records' atomic sizes only.
func (d *liveDeploy) bookkeeping() int64 {
	n := bookkeeping(d.series, d.qs)
	for _, r := range d.recs {
		r.mu.Lock()
		n += r.bookkeeping()
		r.mu.Unlock()
	}
	return n
}

func runLive(o options) (*result, error) {
	if o.trace {
		return traceLive(o)
	}
	d, setup, err := setupLive(o.seed, false)
	if err != nil {
		return nil, err
	}
	m := d.measure(o.seconds)
	time.Sleep(liveDrain)
	checkAt := nanotime()
	d.close()
	var c checker
	vis, fresh, _, _ := d.check(&c, m, checkAt)
	c.summary()
	res := &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metric{}}
	if err := endToEnd(res, m, setup, vis, fresh, liveLat); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "live-ingest: wall=%.1fs points=%d msgs=%d checks=%d failed=%d\n",
		m.wall, m.points, m.msgs, c.attempted, c.failed)
	return res, nil
}

// check runs the oracle checks on the stopped cluster.
func (d *liveDeploy) check(c *checker, m measured, checkAt int64) (vis, fresh []lat, candidates, confirmed int64) {
	sort.Slice(d.series, func(i, j int) bool { return d.series[i].idx < d.series[j].idx })
	o := newOracle(d.cfg.WindowSize, d.cfg.FeatureDims)
	bs := newBatchSet(o, len(d.series))
	bs.build(d.series, m.from, m.to)
	win := bs.inWindow(d.series, m.from, m.to)
	tm := timing{push: int64(livePush), hop: int64(5 * time.Millisecond), slack: int64(time.Second), routeH: 4}
	candidates, confirmed = checkSimilarity(c, d.rg, d.qs, bs, d.series, win, tm, checkAt)
	var delivs []delivery
	for _, r := range d.recs {
		delivs = append(delivs, r.delivs...)
	}
	checkDeliveries(c, d.rg, win, delivs, boxMap(d.recs...))
	var published int64
	for _, mw := range d.mws {
		published += mw.Collector().Events(metrics.EventMBR)
	}
	checkConservation(c, d.series, func(s *series) []float64 {
		i := s.idx / liveStreams
		return d.mws[i].DataCenter(d.rg.ids[i]).StreamWindow(s.id)
	}, d.cfg.WindowSize, published)
	vis = visibility(d.series, delivs, m.from, m.to)
	fresh = freshness(d.series, d.qs, m.from, m.to)
	return vis, fresh, candidates, confirmed
}
