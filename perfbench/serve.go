package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"indra"
	"indra/internal/cluster"
	"indra/internal/obs"
	"indra/internal/parallel"
	"indra/internal/serve"
)

// serveExperiments are the cheap single-core experiments whose req=1
// cells make up the serving workload's key population.
var serveExperiments = []string{
	"fig10", "fig11", "fig13", "fig14", "fig15",
	"ablation-line", "ablation-cam", "ablation-monitor", "ablation-space", "ablation-bpred",
}

// serveClients is the closed loop's client count, and serveWorkers the
// local serve workers behind the router (one simulation slot each).
const (
	serveClients = 2
	serveWorkers = 2
)

// serveZipf drives a closed loop of clients posting /v1/cell over
// loopback HTTP to an in-process cluster router. Each round replays
// the same seeded Zipf request sequence against a fresh router and
// fresh workers (empty result caches) that share one warm-boot
// snapshot cache primed at set-up, so every round has the same hits
// and misses.
type serveZipf struct {
	keys []indra.CellKey
	// plan is each client's request sequence (indices into keys). A
	// key belongs to one client, so no two requests for a key are ever
	// in flight together and the hit/miss split is exact.
	plan     [serveClients][]int
	distinct int

	warm *indra.WarmBooter

	st      *stack
	outMu   sync.Mutex
	outs    map[string]string // key -> first served output
	badOut  error             // first served output that disagreed
	badExec error             // first round whose executions != distinct keys

	// inflight maps a key to the innermost open span of the request
	// for it, so worker and chip spans join the client's trace.
	inflightMu sync.Mutex
	inflight   map[string]span

	// Traced-round tallies.
	servers, router      obs.Snapshot
	warmStart            indra.WarmBootStats
	warmHits, warmMisses uint64
}

// newServeZipf builds the key catalog — streamsPerExp request streams
// at req=1 for each experiment, the same for every seed — and, from
// seed, the traffic: every key once (its miss) plus requests-len(keys)
// draws from a Zipf(s) popularity over a seeded ranking of the keys
// (hits), shuffled. Every round of every seed therefore simulates the
// same cells; the seed decides which keys are popular and the order.
func newServeZipf(seed uint64, exps []string, streamsPerExp, requests int, s float64) *serveZipf {
	z := &serveZipf{outs: map[string]string{}, inflight: map[string]span{}}
	for j := 0; j < streamsPerExp; j++ {
		for _, e := range exps {
			z.keys = append(z.keys, indra.CellKey{Experiment: e, Requests: 1, Scale: 1, Seed: derivedSeed(0, uint64(len(z.keys)))})
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rank := rng.Perm(len(z.keys)) // popularity rank -> key index
	cdf := make([]float64, len(z.keys))
	total := 0.0
	for r := range cdf {
		total += math.Pow(float64(r+1), -s)
		cdf[r] = total
	}
	seq := make([]int, 0, max(requests, len(z.keys)))
	for k := range z.keys {
		seq = append(seq, k)
	}
	for len(seq) < requests {
		r := sort.SearchFloat64s(cdf, rng.Float64()*total)
		seq = append(seq, rank[min(r, len(cdf)-1)])
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	for _, k := range seq {
		c := k % serveClients
		z.plan[c] = append(z.plan[c], k)
	}
	z.distinct = len(z.keys)
	return z
}

// setup assembles the programs and primes a fresh warm-boot cache with
// one cell of every experiment in the population. The priming cells
// are fixed (seed 1), so set-up does the same work for every seed.
func (z *serveZipf) setup() error {
	if err := assemblePrograms(); err != nil {
		return err
	}
	warm := indra.NewWarmBooter()
	prime := map[string]bool{}
	for _, k := range z.keys {
		if prime[k.Experiment] {
			continue
		}
		prime[k.Experiment] = true
		k.Seed = 1
		if _, err := indra.RunCell(k, indra.ExpOptions{Workers: 1, Warm: warm}); err != nil {
			return fmt.Errorf("prime %s: %w", k, err)
		}
	}
	z.warm = warm
	return nil
}

// stack is one round's serving stack: workers, router, listener.
type stack struct {
	servers []*serve.Server
	router  *cluster.Router
	url     string
	client  *http.Client
	served  chan error
}

// tracedWorker wraps a cluster worker with a span around Run.
type tracedWorker struct {
	cluster.Worker
	b *bench
	z *serveZipf
}

func (w tracedWorker) Run(ctx context.Context, key indra.CellKey, timeout time.Duration) (cluster.Result, error) {
	k := key.String()
	parent := w.z.open(k)
	s := w.b.tr.begin("worker.Run", k, parent.ID, parent.Trace)
	w.z.setOpen(k, s)
	res, err := w.Worker.Run(ctx, key, timeout)
	w.b.tr.end(s)
	w.z.setOpen(k, parent)
	return res, err
}

func (z *serveZipf) open(key string) span {
	z.inflightMu.Lock()
	defer z.inflightMu.Unlock()
	return z.inflight[key]
}

// setOpen makes s the innermost open span for key; a zero s clears
// the entry.
func (z *serveZipf) setOpen(key string, s span) {
	z.inflightMu.Lock()
	defer z.inflightMu.Unlock()
	if s.ID == 0 {
		delete(z.inflight, key)
		return
	}
	z.inflight[key] = s
}

func (z *serveZipf) prepare(b *bench) error {
	st := &stack{served: make(chan error, 1)}
	var workers []cluster.Worker
	for i := 0; i < serveWorkers; i++ {
		srv := serve.New(serve.Config{
			Workers: 1,
			Warm:    z.warm,
			Runner: func(k indra.CellKey) (string, error) {
				parent := z.open(k.String())
				return indra.RunCell(k, indra.ExpOptions{Workers: 1, Warm: z.warm, RunLoop: b.runLoop(parent.ID, parent.Trace, false)})
			},
		})
		st.servers = append(st.servers, srv)
		workers = append(workers, tracedWorker{Worker: cluster.NewLocalWorker(fmt.Sprintf("w%d", i), srv), b: b, z: z})
	}
	router, err := cluster.New(cluster.Config{}, workers)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_, _ = router.Drain(context.Background())
		return fmt.Errorf("listen: %w", err)
	}
	st.router, st.url = router, "http://"+l.Addr().String()+"/v1/cell"
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	go func() { st.served <- router.Serve(l) }()
	z.st = st
	z.warmStart = z.warm.Stats()
	return nil
}

// finish drains the round's stack, checks that the workers executed
// each distinct key once, and folds the traced round's metrics in.
func (z *serveZipf) finish(b *bench) error {
	st := z.st
	z.st = nil
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	routerSnap, err := st.router.Drain(ctx)
	if err != nil {
		return fmt.Errorf("drain router: %w", err)
	}
	if err := <-st.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("router serve: %w", err)
	}
	st.client.CloseIdleConnections()
	var servers obs.Snapshot
	for _, srv := range st.servers {
		snap, err := srv.Drain(ctx)
		if err != nil {
			return fmt.Errorf("drain worker: %w", err)
		}
		servers.Merge(snap)
	}
	if exec := servers.Counters["serve.executions"]; exec != uint64(z.distinct) && z.badExec == nil {
		z.badExec = fmt.Errorf("workers executed %d cells for %d distinct keys", exec, z.distinct)
	}
	if b.tr != nil {
		z.servers.Merge(servers)
		z.router.Merge(routerSnap)
		w := z.warm.Stats()
		z.warmHits += uint64(w.Hits - z.warmStart.Hits)
		z.warmMisses += uint64(w.Misses - z.warmStart.Misses)
	}
	return nil
}

func (z *serveZipf) close() {
	if z.st != nil {
		_ = z.finish(&bench{})
	}
}

type cellReply struct {
	Output string `json:"output"`
	Cached bool   `json:"cached"`
	Status int    `json:"status"`
	Error  string `json:"error"`
}

func (z *serveZipf) round(b *bench) roundResult {
	root := b.tr.begin("workload", "serve-zipf", 0, 0)
	results := make([]roundResult, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = z.client(b, root.ID, z.plan[c])
		}(c)
	}
	wg.Wait()
	b.tr.end(root)
	rr := roundResult{classes: map[string][]time.Duration{}}
	for _, r := range results {
		rr.ops = append(rr.ops, r.ops...)
		rr.failed += r.failed
		if rr.firstErr == nil {
			rr.firstErr = r.firstErr
		}
		for cl, ds := range r.classes {
			rr.classes[cl] = append(rr.classes[cl], ds...)
		}
	}
	return rr
}

// client sends its plan one request at a time (a closed loop).
func (z *serveZipf) client(b *bench, root uint64, plan []int) roundResult {
	rr := roundResult{classes: map[string][]time.Duration{}}
	for _, ki := range plan {
		key := z.keys[ki].String()
		s := b.tr.begin("client.request", key, root, 0)
		z.setOpen(key, s)
		start := time.Now()
		reply, err := z.post(key)
		lat := time.Since(start)
		b.tr.end(s)
		z.setOpen(key, span{})
		rr.ops = append(rr.ops, lat)
		if err == nil && reply.Status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", reply.Status, reply.Error)
		}
		if err != nil {
			rr.failed++
			if rr.firstErr == nil {
				rr.firstErr = fmt.Errorf("%s: %w", key, err)
			}
			continue
		}
		class := "miss"
		if reply.Cached {
			class = "hit"
		}
		rr.classes[class] = append(rr.classes[class], lat)
		z.recordOutput(key, reply.Output)
	}
	return rr
}

func (z *serveZipf) post(key string) (cellReply, error) {
	body, _ := json.Marshal(map[string]string{"key": key})
	resp, err := z.st.client.Post(z.st.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return cellReply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return cellReply{}, err
	}
	var reply cellReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return cellReply{}, fmt.Errorf("reply: %w", err)
	}
	reply.Status = resp.StatusCode
	return reply, nil
}

func (z *serveZipf) recordOutput(key, out string) {
	z.outMu.Lock()
	defer z.outMu.Unlock()
	prev, ok := z.outs[key]
	switch {
	case !ok:
		z.outs[key] = out
	case prev != out && z.badOut == nil:
		z.badOut = fmt.Errorf("%s served two different outputs (differ at byte %d)", key, firstDiff(prev, out))
	}
}

// check recomputes every served key with a direct cold-boot RunCell
// outside the serving stack (on every CPU, untimed) and requires the
// served bytes to match.
func (z *serveZipf) check(b *bench) error {
	if z.badOut != nil {
		return z.badOut
	}
	if z.badExec != nil {
		return z.badExec
	}
	keys := make([]string, 0, len(z.outs))
	for k := range z.outs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cold, err := parallel.Run(parallel.Pool{Workers: runtime.GOMAXPROCS(0)}, keys, func(_ int, k string) (string, error) {
		ck, err := indra.ParseCellKey(k)
		if err != nil {
			return "", err
		}
		return indra.RunCell(ck, indra.ExpOptions{Workers: 1})
	})
	if err != nil {
		return fmt.Errorf("cold replay: %w", err)
	}
	served := make([]string, len(keys))
	for i, k := range keys {
		served[i] = z.outs[k]
	}
	return sameOutputs("cold replay", keys, served, cold)
}

// layers adds the serving-stack metrics of the traced rounds.
func (z *serveZipf) layers(b *bench, m metrics, ph *phase) error {
	rounds := len(ph.walls)
	perRound := func(x uint64) float64 { return float64(x) / float64(rounds) }
	sc, rc := z.servers.Counters, z.router.Counters
	workerD, _ := b.tr.total("worker.Run")
	m.set("serve.worker_s", workerD.Seconds()/float64(rounds))
	m.set("serve.executions", perRound(sc["serve.executions"]))
	m.set("serve.cache_hits", perRound(sc["serve.cache.hits"]))
	m.set("serve.cache_misses", perRound(sc["serve.cache.misses"]))
	m.set("serve.exec_p50_ms", float64(z.servers.Histograms["serve.exec.latency_us"].Quantile(0.5))/1e3)
	m.set("serve.queue_high", float64(z.servers.Gauges["serve.queue.depth"].High))
	m.set("cluster.proxied", perRound(rc["cluster.proxied"]))
	m.set("cluster.coalesced", perRound(rc["cluster.coalesced"]))
	m.set("cluster.proxy_p50_us", float64(z.router.Histograms["cluster.proxy.latency_us"].Quantile(0.5)))
	m.set("warmboot.hits", perRound(z.warmHits))
	m.set("warmboot.misses", perRound(z.warmMisses))

	// Router time per request: client latency minus the worker span.
	inWorker := b.tr.byTrace("worker.Run")
	var routerT time.Duration
	reqs := 0
	b.tr.mu.Lock()
	for _, s := range b.tr.spans {
		if s.Name == "client.request" {
			routerT += s.dur() - inWorker[s.Trace]
			reqs++
		}
	}
	b.tr.mu.Unlock()
	if reqs > 0 {
		m.set("cluster.router_us_per_req", routerT.Seconds()*1e6/float64(reqs))
	}
	setTail := func(name, class string, p, scale float64) {
		xs := seconds(ph.classes[class])
		for _, ok := range reportable(len(xs)) {
			if ok == p {
				m.set(name, percentile(xs, p)*scale)
			}
		}
	}
	setTail("client.hit_p50_us", "hit", 50, 1e6)
	setTail("client.hit_p99_us", "hit", 99, 1e6)
	setTail("client.miss_p50_ms", "miss", 50, 1e3)
	setTail("client.miss_p90_ms", "miss", 90, 1e3)
	return nil
}
