package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// serve-jobs: an in-process serve.Server with 2 workers on 127.0.0.1 and a
// closed loop of 2 clients, each sending its next job only when the
// previous reply has arrived.

const (
	serveWorkers = 2
	serveClients = 2
)

// jobsPerUnit is 6 strata of the job mix, 9-11 s on a 2-CPU host, so a 24
// s run measures two units and pools 1200 latencies: the p99 has at least
// 10 samples beyond it. A variable so the tests can run a short loop.
var jobsPerUnit = 600

// jobSpec is one distinct job: its HTTP request, the CLI command line that
// renders the same table offline, and its weight in the job mix.
type jobSpec struct {
	key    string
	weight int
	upload bool
	block  int
	body   []byte // JSON spec; nil for uploads
	cli    []string
}

// jobRecord is one finished job as the client saw it.
type jobRecord struct {
	upload   bool
	status   int
	latMs    float64 // send until the full body is received
	runMs    float64 // the server's X-Job-Elapsed-Ms
	attempts int
	ok       bool
}

// jobCatalog holds the job mix and each job's offline output, built once
// per run by prepareServe.
type jobCatalog struct {
	jobs  []jobSpec
	total int    // sum of the weights
	trace []byte // packed LU32 bytes for the upload jobs
	ref   map[string][]byte
}

// The job mix, in jobs per 100. Server-side job times on a 2-CPU host:
// LU32 classify ~10 ms, LU32 fig6 ~27 ms, WATER16 ~85 ms, MP3D1000
// ~120 ms, JACOBI ~250 ms. Cheap jobs dominate so two units fit one run;
// the 3% of JACOBI jobs put p99 inside one job class rather than on the
// edge between two. fig6 on the other small workloads (0.25-0.8 s each)
// is left out for the same budget.
var (
	serveBlocks      = []int{16, 64, 256}
	classifyPerBlock = map[string]int{"LU32": 18, "WATER16": 2, "MP3D1000": 1, "JACOBI": 1}
	// uploadPerBlock: ten jobs in 100 upload the packed LU32 trace.
	uploadPerBlock = []int{3, 3, 4}
)

const fig6LU32Weight = 24

// prepareServe builds the job mix into e.jobs, packs LU32 for the upload
// jobs and renders every distinct job offline through the CLI: the bytes
// each 200 body must equal.
func prepareServe(e *env) error {
	c := &jobCatalog{ref: map[string][]byte{}}
	for _, w := range workload.SmallSet() {
		for _, b := range serveBlocks {
			c.jobs = append(c.jobs, specJob(fmt.Sprintf("classify/%s/B%d", w, b), classifyPerBlock[w],
				map[string]any{"experiment": "classify", "workload": w, "block": b, "scheme": "all"},
				"classify", "-workload", w, "-block", strconv.Itoa(b), "-scheme", "all"))
		}
	}
	c.jobs = append(c.jobs, specJob("fig6/LU32/B64", fig6LU32Weight,
		map[string]any{"experiment": "fig6", "workloads": []string{"LU32"}, "block": 64, "parallelism": 1},
		"fig6", "-workloads", "LU32", "-block", "64", "-j", "1"))
	packed := filepath.Join(e.work, "LU32.umtrace")
	if _, err := runCLI(e, filepath.Join(e.work, "pack.log"), nil, "trace", "pack", "-workload", "LU32", "-o", packed); err != nil {
		return err
	}
	var err error
	if c.trace, err = os.ReadFile(packed); err != nil {
		return err
	}
	for i, b := range serveBlocks {
		c.jobs = append(c.jobs, jobSpec{
			key: fmt.Sprintf("upload/LU32/B%d", b), weight: uploadPerBlock[i], upload: true, block: b,
			cli: []string{"classify", "-trace", packed, "-block", strconv.Itoa(b), "-scheme", "all"},
		})
	}
	for _, s := range c.jobs {
		c.total += s.weight
		out := filepath.Join(e.work, "offline.txt")
		if _, err := runCLI(e, out, nil, s.cli...); err != nil {
			return err
		}
		if c.ref[s.key], err = os.ReadFile(out); err != nil {
			return err
		}
	}
	e.jobs = c
	return nil
}

func specJob(key string, weight int, spec map[string]any, cli ...string) jobSpec {
	body, err := json.Marshal(spec)
	if err != nil {
		panic(err)
	}
	return jobSpec{key: key, weight: weight, body: body, cli: cli}
}

// sequence returns jobs [first, first+n) of the seed's sequence. The
// sequence is stratified: every aligned block of c.total jobs holds each
// job exactly weight times, in an order shuffled from (seed, block). So
// every seed does the same work in a different order, and a run's cost
// does not hinge on how many heavy jobs its seed happened to draw.
func (c *jobCatalog) sequence(seed int64, first, n int) []jobSpec {
	var stratum []jobSpec
	for _, s := range c.jobs {
		for k := 0; k < s.weight; k++ {
			stratum = append(stratum, s)
		}
	}
	skip := first % c.total
	var seq []jobSpec
	for block := first / c.total; len(seq) < skip+n; block++ {
		perm := append([]jobSpec(nil), stratum...)
		rand.New(rand.NewPCG(uint64(seed), uint64(block))).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		seq = append(seq, perm...)
	}
	return seq[skip : skip+n]
}

type serveSession struct {
	e      *env
	cat    *jobCatalog
	srv    *serve.Server
	cancel context.CancelFunc
	done   chan error
	url    string
	client *http.Client
}

// setupServe starts a server, waits for /readyz, then warms the trace
// cache: the fig6 jobs (the only ones that read it) materialize LU32. The
// warm-up replies are checked like every other.
func setupServe(e *env) (session, error) {
	srv, err := serve.New(serve.Config{Addr: "127.0.0.1:0", Workers: serveWorkers})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &serveSession{
		e: e, cat: e.jobs, srv: srv, cancel: cancel, done: make(chan error, 1),
		url: "http://" + srv.Addr(),
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
		},
	}
	go func() { s.done <- srv.Run(ctx) }()
	if err := s.waitReady(); err != nil {
		s.close()
		return nil, err
	}
	for _, spec := range s.cat.jobs {
		if !strings.HasPrefix(spec.key, "fig6/") {
			continue
		}
		if r := s.do(spec); !r.ok {
			s.close()
			return nil, fmt.Errorf("warm-up job %s: status %d, body differs from offline output", spec.key, r.status)
		}
	}
	return s, nil
}

func (s *serveSession) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := s.client.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server at %s not ready after 10s", s.url)
}

// do sends one job and reads the whole reply.
func (s *serveSession) do(spec jobSpec) jobRecord {
	var req *http.Request
	var err error
	if spec.upload {
		req, err = http.NewRequest(http.MethodPost, fmt.Sprintf("%s/v1/jobs?block=%d&scheme=all", s.url, spec.block), bytes.NewReader(s.cat.trace))
		if err == nil {
			req.Header.Set("Content-Type", "application/octet-stream")
		}
	} else {
		req, err = http.NewRequest(http.MethodPost, s.url+"/v1/jobs", bytes.NewReader(spec.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	r := jobRecord{upload: spec.upload}
	if err != nil {
		return r
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latMs = ms(time.Since(t0))
	r.status = resp.StatusCode
	r.runMs, _ = strconv.ParseFloat(resp.Header.Get("X-Job-Elapsed-Ms"), 64)
	r.attempts, _ = strconv.Atoi(resp.Header.Get("X-Job-Attempts"))
	r.ok = err == nil && r.status == http.StatusOK && bytes.Equal(body, s.cat.ref[spec.key])
	return r
}

func (s *serveSession) unit(rep int, tr *tracing) (unitResult, error) {
	return s.loop(rep*jobsPerUnit, jobsPerUnit, tr)
}

// loop runs jobs [first, first+n) of the seeded sequence through the
// closed loop of clients. With tr set, a span wraps every job and tr takes
// the loop's runtime and trace-cache figures.
func (s *serveSession) loop(first, n int, tr *tracing) (unitResult, error) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		u    unitResult
	)
	rec := tr.recorder()
	stop := tr.inProcess()
	seq := s.cat.sequence(s.e.seed, first, n)
	u.jobs = make([]jobRecord, n)
	root := rec.start("serve.loop", 0)
	cpu0, t0 := cpuSelf(), time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				spec := seq[i]
				sp := rec.start("serve.job."+spec.key, root)
				u.jobs[i] = s.do(spec)
				rec.end(sp)
			}
		}()
	}
	wg.Wait()
	u.wall, u.cpu = time.Since(t0), cpuSelf()-cpu0
	rec.end(root)
	stop()
	u.rssMB = maxRSSSelfMB()
	for _, j := range u.jobs {
		if j.ok {
			u.latenciesMs = append(u.latenciesMs, j.latMs)
			u.tally.add(1, 0, "")
			continue
		}
		// A failed or refused job misses any latency limit.
		u.latenciesMs = append(u.latenciesMs, math.MaxFloat64)
		u.tally.add(1, 1, fmt.Sprintf("serve job failed (status %d or body differs from offline output)", j.status))
	}
	return u, nil
}

func (s *serveSession) close() {
	s.cancel()
	select {
	case err := <-s.done:
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2eharness: server drain: %v\n", err)
		}
	case <-time.After(30 * time.Second):
		s.srv.Close()
	}
	s.client.CloseIdleConnections()
}
