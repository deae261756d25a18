package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flame/internal/campaign"
	"flame/internal/dist"
	"flame/internal/flame"
	"flame/internal/gpu"
)

// fleetTimeout bounds one fleet repetition; a healthy one takes seconds.
const fleetTimeout = 120 * time.Second

func fleetConfig(in input) (campaign.Config, error) {
	specs, err := specsFor(fleetBenches)
	return campaign.Config{
		Arch: gpu.GTX480(), Opt: flameOpt(), Specs: specs,
		Trials: in.size.fleetTrials, Parallel: parallelism(), Seed: in.seed,
		Model: flame.DataSlice, Prune: true,
	}, err
}

// runFleet is one loopback fleet: a coordinator serving its Handler on
// 127.0.0.1 and parallelism() RunWorker goroutines in this process. The
// clock runs from the NewCoordinator call until Done is closed and the
// merged report is verified; dist.Serve is not used, so its
// post-completion linger stays out of wall_s.
func runFleet(w *workload, in input, tr *tracer) (rep, error) {
	cfg, err := w.config(in)
	if err != nil {
		return rep{}, err
	}
	dir, err := os.MkdirTemp("", "perfbench-fleet-")
	if err != nil {
		return rep{}, err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	c, err := dist.NewCoordinator(dist.CoordConfig{
		Info: dist.InfoFromConfig(&cfg), StateDir: dir, ShardSize: in.size.fleetShard,
	})
	if err != nil {
		return rep{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rep{}, err
	}
	hm := &handlerMeter{next: c.Handler(), traced: tr != nil, done: c.Done()}
	srv := &http.Server{Handler: hm}
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { defer bg.Done(); srv.Serve(ln) }()
	defer func() { srv.Close(); bg.Wait() }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bg.Add(1)
	go func() { defer bg.Done(); c.Run(ctx) }()

	n := parallelism()
	rt := &roundTripMeter{
		next:   &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
		traced: tr != nil,
	}
	url := "http://" + ln.Addr().String()
	workers := make([]*workerProbe, n)
	configs := make([]dist.WorkerConfig, n)
	for i := range workers {
		wp := &workerProbe{name: fmt.Sprintf("w%d", i)}
		workers[i] = wp
		configs[i] = dist.WorkerConfig{
			URL: url, Name: wp.name,
			Client: &http.Client{Transport: rt, Timeout: 30 * time.Second},
		}
		if tr != nil {
			if configs[i].MetricsAddr, err = freeAddr(); err != nil {
				return rep{}, err
			}
			wp.metricsURL = "http://" + configs[i].MetricsAddr + "/metrics"
			configs[i].BeforeTrial = wp.beforeTrial
		}
	}
	if tr != nil {
		hm.probes = workers
	}
	var wwg sync.WaitGroup
	for i, wp := range workers {
		wc := configs[i]
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			t0 := time.Now()
			wp.err = dist.RunWorker(ctx, wc)
			wp.wall = time.Since(t0).Seconds()
		}()
	}
	// Workers exit by themselves once a lease poll answers Done; the
	// cancel only matters on the error paths.
	defer func() { cancel(); wwg.Wait() }()

	select {
	case <-c.Done():
	case <-time.After(fleetTimeout):
		return rep{}, fmt.Errorf("fleet did not finish within %s", fleetTimeout)
	}
	fr := c.Final()
	if fr == nil || !fr.Complete || len(fr.Quarantined) != 0 {
		return rep{}, mismatchf("fleet report incomplete: %+v", fr)
	}
	r, err := checkReport(in, w.name, &cfg, fr.Report)
	if err != nil {
		return rep{}, err
	}
	r.wall = time.Since(start).Seconds()
	first := hm.firstLease()
	if first.IsZero() {
		return rep{}, fmt.Errorf("no lease granted")
	}
	r.setup = first.Sub(start).Seconds()

	wwg.Wait()
	for _, wp := range workers {
		if wp.err != nil {
			return rep{}, fmt.Errorf("worker %s: %w", wp.name, wp.err)
		}
	}
	reqs, non2xx := hm.counts()
	r.attempted += int(reqs)
	r.failed += int(non2xx) + int(rt.errors.Load())
	if tr != nil {
		if err := tr.addFleet(hm, rt, workers, r.trials, r.setup); err != nil {
			return rep{}, err
		}
	}
	return r, nil
}

// freeAddr returns a loopback address with a currently free port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// handlerMeter wraps Coordinator.Handler. Untraced, it counts requests
// and non-2xx answers and notes the first granted lease. Traced, it
// also times every request by path and reads trial lines off the
// events posts.
type handlerMeter struct {
	next   http.Handler
	traced bool
	done   <-chan struct{}
	probes []*workerProbe

	reqs, non2xx atomic.Int64

	mu       sync.Mutex
	first    time.Time
	ms       map[string][]float64 // path -> request durations
	reqBytes int64
	cycles   int64
	lines    int
	pruned   int
}

func (h *handlerMeter) firstLease() time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.first
}

func (h *handlerMeter) counts() (reqs, non2xx int64) {
	return h.reqs.Load(), h.non2xx.Load()
}

func (h *handlerMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.reqs.Add(1)
	isLease := r.URL.Path == "/v1/lease"
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK, watchLease: isLease && h.firstLease().IsZero()}
	if !h.traced {
		h.next.ServeHTTP(sw, r)
		h.finish(sw)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		h.non2xx.Add(1)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	if isLease {
		h.scrapeAfterDone(body)
	}
	t0 := time.Now()
	h.next.ServeHTTP(sw, r)
	d := float64(time.Since(t0).Nanoseconds()) / 1e6
	h.finish(sw)

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ms == nil {
		h.ms = map[string][]float64{}
	}
	h.ms[r.URL.Path] = append(h.ms[r.URL.Path], d)
	h.reqBytes += int64(len(body))
	if r.URL.Path == "/v1/events" {
		var er dist.EventsRequest
		if json.Unmarshal(body, &er) == nil {
			for _, line := range er.Lines {
				var ev struct {
					Cycles int64 `json:"cycles"`
					Pruned bool  `json:"pruned"`
				}
				if json.Unmarshal(line, &ev) == nil {
					h.cycles += ev.Cycles
					h.lines++
					if ev.Pruned {
						h.pruned++
					}
				}
			}
		}
	}
}

func (h *handlerMeter) finish(sw *statusWriter) {
	if sw.code/100 != 2 {
		h.non2xx.Add(1)
	}
	if sw.granted {
		h.mu.Lock()
		if h.first.IsZero() {
			h.first = sw.grantedAt
		}
		h.mu.Unlock()
	}
}

// scrapeAfterDone reads a worker's own /metrics when it polls for a
// lease after the campaign finished: that poll is the worker's last
// request, and its metrics server is still up while it waits.
func (h *handlerMeter) scrapeAfterDone(body []byte) {
	select {
	case <-h.done:
	default:
		return
	}
	var lr dist.LeaseRequest
	if json.Unmarshal(body, &lr) != nil {
		return
	}
	for _, wp := range h.probes {
		if wp.name == lr.Worker {
			wp.mu.Lock()
			if wp.counters == nil && wp.scrapeErr == nil {
				wp.counters, wp.scrapeErr = scrapeCounters(wp.metricsURL)
			}
			wp.mu.Unlock()
		}
	}
}

// scrapeCounters fetches a Prometheus text exposition and returns its
// unlabelled samples by name.
func scrapeCounters(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// statusWriter records the status code and, for the first lease
// answers, whether the coordinator granted a shard.
type statusWriter struct {
	http.ResponseWriter
	code       int
	watchLease bool
	granted    bool
	grantedAt  time.Time
}

var leaseIDTag = []byte(`"lease_id"`)

func (s *statusWriter) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(p []byte) (int, error) {
	if s.watchLease && !s.granted && bytes.Contains(p, leaseIDTag) {
		s.granted, s.grantedAt = true, time.Now()
	}
	return s.ResponseWriter.Write(p)
}

// roundTripMeter is the workers' HTTP transport. It counts transport
// errors (each one makes the worker retry) and, traced, sums the time
// workers spend in HTTP round trips.
type roundTripMeter struct {
	next   http.RoundTripper
	traced bool
	errors atomic.Int64
	nanos  atomic.Int64
}

func (m *roundTripMeter) RoundTrip(r *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := m.next.RoundTrip(r)
	if err != nil {
		m.errors.Add(1)
		return nil, err
	}
	if !m.traced {
		return resp, nil
	}
	// The worker reads the whole body right away; count that read too.
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		m.errors.Add(1)
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	m.nanos.Add(time.Since(t0).Nanoseconds())
	return resp, nil
}

// workerProbe is one fleet worker's traced view: trial start times
// from the BeforeTrial hook and its /metrics counters at the end.
type workerProbe struct {
	name       string
	metricsURL string
	err        error
	wall       float64

	mu        sync.Mutex
	lastBench string
	lastTrial int
	lastAt    time.Time
	trialMS   []float64

	counters  map[string]float64
	scrapeErr error
}

// beforeTrial runs on the worker goroutine before each trial. The gap
// since the previous trial of the same shard is that trial's time,
// including any batched events post in between.
func (wp *workerProbe) beforeTrial(benchName string, t int) error {
	now := time.Now()
	wp.mu.Lock()
	defer wp.mu.Unlock()
	if !wp.lastAt.IsZero() && benchName == wp.lastBench && t == wp.lastTrial+1 {
		wp.trialMS = append(wp.trialMS, float64(now.Sub(wp.lastAt).Nanoseconds())/1e6)
	}
	wp.lastBench, wp.lastTrial, wp.lastAt = benchName, t, now
	return nil
}
