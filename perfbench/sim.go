package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"streamdex/internal/chord"
	"streamdex/internal/core"
	"streamdex/internal/dht"
	_ "streamdex/internal/koorde" // registers the koorde routing machine
	"streamdex/internal/metrics"
	"streamdex/internal/query"
	"streamdex/internal/sim"
	"streamdex/internal/stream"
	"streamdex/internal/summary"
)

// simSpec is one simulator workload.
type simSpec struct {
	name     string
	nodes    int
	machine  string
	mode     dht.RangeMode
	queryGap sim.Time // mean gap of the Poisson similarity-query arrivals
	radius   float64
	ops      bool     // subscribe/aggregate/top-k operators ride along
	opsGap   sim.Time // mean gap of the operator arrivals
	warmup   sim.Time
	round    sim.Time // the measured phase runs whole rounds of this length
	drain    sim.Time // virtual time run after the measured phase
	lat      latSpec  // fixed tail percentiles (whole-phase figures)
	setups   int      // set-ups per run; setup_s is their median
}

// simTable1 is the paper's Table I on the simulator.
var simTable1 = simSpec{
	name: "sim-table1", nodes: 500, machine: "chord", mode: dht.RangeSequential,
	queryGap: 500 * sim.Millisecond, radius: 0.1,
	warmup: 100 * sim.Second, round: 10 * sim.Second, drain: 10 * sim.Second,
	lat: latSpec{visTail: 99, frTail: 99}, setups: 3,
}

// simQueryOps is the query-heavy workload on the other routing machine
// and multicast mode.
var simQueryOps = simSpec{
	name: "sim-query-ops", nodes: 200, machine: "koorde", mode: dht.RangeTree,
	queryGap: 100 * sim.Millisecond, radius: 0.2, ops: true, opsGap: 1 * sim.Second,
	warmup: 100 * sim.Second, round: 10 * sim.Second, drain: 10 * sim.Second,
	lat: latSpec{visTail: 99, frTail: 99}, setups: 3,
}

const (
	pmin, pmax = 150 * sim.Millisecond, 250 * sim.Millisecond // stream periods
	qmin, qmax = 20 * sim.Second, 100 * sim.Second            // query lifespans
	hopDelay   = 50 * sim.Millisecond
	checkSpan  = 60 * sim.Second // measured virtual time whose batches are judged
)

// simDeploy is one built simulator deployment.
type simDeploy struct {
	spec      simSpec
	cfg       core.Config
	eng       *sim.Engine
	net       *chord.Network
	mw        *core.Middleware
	rg        *ring
	series    []*series
	streamIdx map[string]int
	nodeIdx   map[dht.Key]int
	rec       *recorder
	qs        []*simQ
	qByID     []*simQ // by query id; operators' ids leave gaps
	ops       []*opRec
}

func (d *simDeploy) now() int64 { return int64(d.eng.Now()) * 1000 }

// buildSim constructs the deployment: ring, middleware, one stream per
// node, and the query and operator arrival processes.
func buildSim(spec simSpec, seed int64, trace bool) (*simDeploy, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := core.DefaultConfig()
	cfg.RangeMode = spec.mode
	cfg.Seed = seed
	cfg.Sketches = spec.ops
	d := &simDeploy{spec: spec, cfg: cfg, eng: sim.NewEngine(),
		streamIdx: make(map[string]int), nodeIdx: make(map[dht.Key]int)}

	seen := make(map[dht.Key]bool)
	var ids []dht.Key
	for len(ids) < spec.nodes {
		k := dht.Key(rng.Uint64() & uint64(cfg.Space.Mask()))
		if !seen[k] {
			seen[k] = true
			ids = append(ids, k)
		}
	}
	d.rg = newRing(cfg.Space, ids)
	for i, id := range d.rg.ids {
		d.nodeIdx[id] = i
	}
	d.net = chord.New(d.eng, chord.Config{Space: cfg.Space, HopDelay: hopDelay, SuccListLen: 8, Machine: spec.machine})
	d.net.BuildStable(d.rg.ids, nil)
	mw, err := core.New(d.net, cfg)
	if err != nil {
		return nil, err
	}
	d.mw = mw
	for i := range d.rg.ids {
		d.streamIdx[fmt.Sprintf("s%d", i)] = i
	}
	d.rec = newRecorder(mw.Collector(), d.now, d.nodeIdx, d.streamIdx, trace)
	d.net.SetObserver(d.rec)
	if trace {
		for _, id := range d.rg.ids {
			d.net.SetApp(id, &appSpan{inner: mw.DataCenter(id), spans: &d.rec.spans})
		}
	}
	mw.OnSimilarity = func(id query.ID, ms []query.Match) {
		if int(id) < len(d.qByID) && d.qByID[id] != nil {
			d.qByID[id].onReport(d.streamIdx, ms, d.now())
		}
	}
	for i, id := range d.rg.ids {
		s := newSeries(i, fmt.Sprintf("s%d", i), rng.Int63(), 1, cfg.Beta, cfg.WindowSize, d.now)
		s.trace = trace
		period := pmin + sim.Time(rng.Int63n(int64(pmax-pmin)+1))
		s.period = int64(period) * 1000
		d.series = append(d.series, s)
		if err := mw.DataCenter(id).RegisterStream(stream.Stream{ID: s.id, Gen: s, Period: period, Prefill: true}); err != nil {
			return nil, err
		}
	}
	qrng := rand.New(rand.NewSource(rng.Int63()))
	var postQuery func()
	postQuery = func() {
		if err := d.postQuery(qrng); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		d.eng.Schedule(expGap(qrng, spec.queryGap), postQuery)
	}
	d.eng.Schedule(expGap(qrng, spec.queryGap), postQuery)
	if spec.ops {
		orng := rand.New(rand.NewSource(rng.Int63()))
		var postOp func()
		postOp = func() {
			if err := d.postOp(orng); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
			d.eng.Schedule(expGap(orng, spec.opsGap), postOp)
		}
		d.eng.Schedule(expGap(orng, spec.opsGap), postOp)
	}
	return d, nil
}

// expGap draws an exponential inter-arrival gap with the given mean.
func expGap(rng *rand.Rand, mean sim.Time) sim.Time {
	g := sim.Time(rng.ExpFloat64() * float64(mean))
	if g < 1 {
		g = 1
	}
	return g
}

// postQuery poses one Table I similarity query: a random origin, a
// routing coordinate uniform over the feature range, the other
// coordinates uniform in [-0.3, 0.3], a lifespan uniform in [20, 100] s.
func (d *simDeploy) postQuery(rng *rand.Rand) error {
	node := rng.Intn(len(d.rg.ids))
	f := make(summary.Feature, d.cfg.FeatureDims)
	f[0] = 2*rng.Float64() - 1
	for i := 1; i < len(f); i++ {
		f[i] = 0.6*rng.Float64() - 0.3
	}
	life := qmin + sim.Time(rng.Int63n(int64(qmax-qmin)+1))
	id, err := d.mw.PostSimilarity(d.rg.ids[node], f, d.spec.radius, life)
	if err != nil {
		return fmt.Errorf("similarity query rejected: %w", err)
	}
	q := newSimQ(node, id, f, d.spec.radius, d.now(), d.now()+int64(life)*1000)
	d.qs = append(d.qs, q)
	for len(d.qByID) <= int(id) {
		d.qByID = append(d.qByID, nil)
	}
	d.qByID[id] = q
	return nil
}

// points is the number of values pulled after the window prefills.
func (d *simDeploy) points() int64 {
	var n int64
	for _, s := range d.series {
		n += int64(s.livePoints())
	}
	return n
}

// runSim runs one simulator workload.
func runSim(spec simSpec, o options) (*result, error) {
	if o.trace {
		return traceSim(spec, o)
	}
	d, setup, err := setupSim(spec, o.seed, false)
	if err != nil {
		return nil, err
	}
	m := d.measure(o.seconds, 0)
	return d.finish(m, setup)
}

// setupSim builds and warms the deployment spec.setups times and keeps
// the last one; it returns the median set-up time.
func setupSim(spec simSpec, seed int64, trace bool) (*simDeploy, float64, error) {
	var times []float64
	var d *simDeploy
	for i := 0; i < spec.setups; i++ {
		d = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = buildSim(spec, seed, trace); err != nil {
			return nil, 0, err
		}
		d.eng.RunFor(spec.warmup)
		times = append(times, time.Since(t0).Seconds())
	}
	return d, median(times), nil
}

// measured holds the raw counts of one measured phase.
type measured struct {
	rounds         int
	from, to       int64 // deployment clock, ns
	wall           float64
	cpu            int64
	points         int64
	msgs, bytes    int64
	events         uint64
	heap           float64
	allocs, allocB uint64
	gcCPU          float64
	rec            recSnap // recorder counters over the phase
	responses      int64   // similarity responses delivered to clients
}

// measure runs whole rounds until the wall-clock budget is spent (or,
// with rounds > 0, exactly that many rounds).
func (d *simDeploy) measure(budget float64, rounds int) measured {
	var m measured
	ms0 := readMem()
	p0, s0, r0 := d.points(), d.rec.snap(), responses(d.qs)
	ev0 := d.eng.Executed()
	m.from = d.now()
	c0 := cpuNs()
	t0 := time.Now()
	for {
		d.eng.RunFor(d.spec.round)
		m.rounds++
		if rounds > 0 && m.rounds >= rounds || rounds == 0 && time.Since(t0).Seconds() >= budget {
			break
		}
	}
	m.wall = time.Since(t0).Seconds()
	m.cpu = cpuNs() - c0
	m.to = d.now()
	m.points = d.points() - p0
	m.events = d.eng.Executed() - ev0
	m.rec = d.rec.snap().add(s0, -1)
	m.msgs, m.bytes = m.rec.totals()
	m.responses = responses(d.qs) - r0
	ms1 := readMem()
	m.allocs, m.allocB, m.gcCPU = ms1.mallocs-ms0.mallocs, ms1.allocBytes-ms0.allocBytes, ms1.gcCPU-ms0.gcCPU
	m.heap = liveHeapMB(d.bookkeeping())
	return m
}

// bookkeeping estimates the heap the benchmark's own records hold, so the
// live-heap metric reports the program's share.
func (d *simDeploy) bookkeeping() int64 {
	return bookkeeping(d.series, d.qs) + d.rec.bookkeeping() + int64(cap(d.qByID))*8
}

// finish drains, checks every answer and computes the end-to-end metrics.
func (d *simDeploy) finish(m measured, setup float64) (*result, error) {
	t0 := time.Now()
	d.eng.RunFor(d.spec.drain)
	t1 := time.Now()
	var c checker
	vis, fresh, _, _ := d.check(&c, m)
	c.summary()
	fmt.Fprintf(os.Stderr, "drain %.2fs check %.2fs\n", t1.Sub(t0).Seconds(), time.Since(t1).Seconds())
	res := &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metric{}}
	if err := endToEnd(res, m, setup, vis, fresh, d.spec.lat); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: rounds=%d virtual=%.0fs points=%d msgs=%d queries=%d checks=%d failed=%d\n",
		d.spec.name, m.rounds, float64(m.to-m.from)/1e9, m.points, m.msgs, len(d.qs), c.attempted, c.failed)
	return res, nil
}

// check runs every oracle check and returns the latency samples (ns):
// index visibility and match freshness.
func (d *simDeploy) check(c *checker, m measured) (vis, fresh []lat, candidates, confirmed int64) {
	o := newOracle(d.cfg.WindowSize, d.cfg.FeatureDims)
	bs := newBatchSet(o, len(d.series))
	// Answers are judged on the batches of the first checkSpan of the
	// measured phase: a fixed amount of checking per seed, whatever the
	// host's speed.
	to := m.from + int64(checkSpan)*1000
	if to > m.to {
		to = m.to
	}
	bs.build(d.series, m.from, to)
	win := bs.inWindow(d.series, m.from, to)
	checkAt := d.now()
	tm := timing{push: int64(d.cfg.PushPeriod) * 1000, hop: int64(hopDelay) * 1000, slack: 2e9, routeH: 16}
	candidates, confirmed = checkSimilarity(c, d.rg, d.qs, bs, d.series, win, tm, checkAt)
	checkDeliveries(c, d.rg, win, d.rec.delivs, boxMap(d.rec))
	checkConservation(c, d.series, func(s *series) []float64 {
		return d.mw.DataCenter(d.rg.ids[s.idx]).StreamWindow(s.id)
	}, d.cfg.WindowSize, d.mw.Collector().Events(metrics.EventMBR))
	if d.spec.ops {
		d.checkOps(c, bs, m, checkAt)
	}
	vis = visibility(d.series, d.rec.delivs, m.from, m.to)
	fresh = freshness(d.series, d.qs, m.from, m.to)
	return vis, fresh, candidates, confirmed
}

// visibility returns, for every MBR closed in [from, to], the delay from
// the pull of its last point to its delivery at each covering node.
func visibility(all []*series, delivs []delivery, from, to int64) []lat {
	var out []lat
	for _, dv := range delivs {
		s := all[dv.stream]
		if int(dv.seq) >= len(s.closeAt) {
			continue
		}
		if at := s.closeAt[dv.seq]; at >= from && at <= to {
			out = append(out, lat{at, dv.at - at})
		}
	}
	return out
}

// freshness returns, for every match of a batch closed in [from, to], the
// delay from the pull of its last point to its first report at the client.
func freshness(all []*series, qs []*simQ, from, to int64) []lat {
	var out []lat
	for _, q := range qs {
		q.index()
		for k, at := range q.first {
			s := all[k.stream]
			if int(k.seq) >= len(s.closeAt) {
				continue
			}
			if c := s.closeAt[k.seq]; c >= from && c <= to {
				out = append(out, lat{c, at - c})
			}
		}
	}
	return out
}

// endToEnd fills the end-to-end metrics from one measured phase.
func endToEnd(res *result, m measured, setup float64, vis, fresh []lat, ls latSpec) error {
	if m.points == 0 {
		return fmt.Errorf("no points ingested in the measured phase")
	}
	v50, vt, err := latency("index_visible", vis, ls.visTail, m.from, m.to, ls.visWin)
	if err != nil {
		return err
	}
	f50, ft, err := latency("match_freshness", fresh, ls.frTail, m.from, m.to, ls.frWin)
	if err != nil {
		return err
	}
	pts := float64(m.points)
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", setup)
	set("ingest_points_per_s", "points/s", pts/m.wall)
	set("cpu_us_per_point", "us", float64(m.cpu)/1e3/pts)
	set("index_visible_p50_ms", "ms", v50)
	set("index_visible_tail_ms", "ms", vt)
	set("match_freshness_p50_ms", "ms", f50)
	set("match_freshness_tail_ms", "ms", ft)
	set("msgs_per_kpoint", "msgs", float64(m.msgs)*1000/pts)
	set("wire_bytes_per_point", "bytes", float64(m.bytes)/pts)
	set("live_heap_mb", "MB", m.heap)
	return nil
}
