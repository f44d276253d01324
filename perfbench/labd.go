package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/spec"
	"repro/internal/warm"
)

// The labd-mixed request classes.
const (
	classCold = "cold" // a new spec: executes, journals and persists
	classDisk = "disk" // a spec whose artifact is already in the store
	classMem  = "mem"  // a resubmit of a spec the service has done
)

var labdClasses = []string{classCold, classDisk, classMem}

// labdRatio is the request mix per class, in labdClasses order.
var labdRatio = []int{1, 1, 10}

// labdRequests is the number of requests one repetition sends (a multiple
// of the ratio's sum), labdMemSpecs how many distinct specs the mem class
// resubmits, and labdVerify how many cold and disk artifacts are checked
// against an in-process execution.
const (
	labdRequests = 216
	labdMemSpecs = 6
	labdVerify   = 2
)

var (
	labdBenches = []string{"mcf", "bwaves", "cactusADM", "omnetpp", "hmmer", "lbm"}
	labdMethods = []string{spec.MethodSMARTS, spec.MethodCoolSim, spec.MethodDeLorean}
)

// labdSpecConfig is the configuration of lab.LoadSpecs: one region behind
// a small gap, real work that finishes in tens of milliseconds.
func labdSpecConfig() warm.Config {
	cfg := warm.DefaultConfig()
	cfg.Regions = 1
	cfg.PaperGap = 400_000
	cfg.Scale = 1
	cfg.VicinityEvery = 5_000
	return cfg
}

// labdReq is one planned request: a class and an index into its specs.
type labdReq struct {
	class string
	spec  int
}

// labdPlan is one repetition's input: spec bodies per class and the order
// the requests are sent in. The requests come in blocks that each hold the
// ratio's mix once, shuffled within the block, so every stretch of the
// run sees the same mix. Every seed sends the same benchmarks and methods;
// the seed picks the specs' config seeds and the order within each block.
type labdPlan struct {
	bodies map[string][][]byte
	keys   map[string][]string
	order  []labdReq
	instr  float64 // simulated instructions of one spec
}

func newLabdPlan(seed uint64, requests int) (*labdPlan, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6c616264))
	cfg := labdSpecConfig()
	p := &labdPlan{bodies: map[string][][]byte{}, keys: map[string][]string{}, instr: float64(cfg.TotalInstr())}
	block := 0
	for _, r := range labdRatio {
		block += r
	}
	blocks := requests / block
	for ci, class := range labdClasses {
		specs := blocks * labdRatio[ci]
		if class == classMem {
			specs = labdMemSpecs
		}
		for i := 0; i < specs; i++ {
			c := cfg
			c.Seed = rng.Uint64()
			sp, err := spec.New(spec.SamplingParams{Bench: spec.BenchRef{Name: labdBenches[i%len(labdBenches)]},
				Method: labdMethods[(i/len(labdBenches))%len(labdMethods)], Cfg: c})
			if err != nil {
				return nil, err
			}
			b, err := json.Marshal(sp)
			if err != nil {
				return nil, err
			}
			p.bodies[class] = append(p.bodies[class], b)
			p.keys[class] = append(p.keys[class], sp.Key())
		}
	}
	next := map[string]int{}
	for b := 0; b < blocks; b++ {
		start := len(p.order)
		for ci, class := range labdClasses {
			for i := 0; i < labdRatio[ci]; i++ {
				p.order = append(p.order, labdReq{class: class, spec: next[class] % len(p.bodies[class])})
				next[class]++
			}
		}
		blk := p.order[start:]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	return p, nil
}

// labdOutcome is one request as the client saw it.
type labdOutcome struct {
	class            string
	submitMs, waitMs float64
	code             int
	err              error
}

// labStatus is the part of /v1/status the benchmark reads.
type labStatus struct {
	Executions uint64           `json:"executions"`
	CacheHits  uint64           `json:"cache_hits"`
	StoreHits  uint64           `json:"store_hits"`
	Rejected   uint64           `json:"rejected"`
	Store      artifact.Stats   `json:"store"`
	Journal    lab.JournalStats `json:"journal"`
}

// labdService is a lab server with its store and journal on, listening on
// a loopback port, as `labd -store DIR` runs.
type labdService struct {
	base   string
	client *http.Client
	hs     *http.Server
	served chan error
	jrnl   *lab.Journal
}

func startLabd(dir string, workers int) (*labdService, error) {
	eng, store, err := lab.NewEngine(workers, dir, 0)
	if err != nil {
		return nil, err
	}
	jrnl, _, err := lab.OpenJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		jrnl.Close()
		return nil, err
	}
	srv := lab.NewServerOpts(eng, store, lab.Options{Journal: jrnl})
	s := &labdService{
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2*workers + 2}},
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		jrnl:   jrnl,
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the service down and waits for it.
func (s *labdService) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	if cerr := s.jrnl.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *labdService) status() (labStatus, error) {
	var st labStatus
	resp, err := s.client.Get(s.base + "/v1/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// submit posts a spec and returns the response code and job status.
func (s *labdService) submit(body []byte) (int, lab.JobStatus, error) {
	var st lab.JobStatus
	resp, err := s.client.Post(s.base+"/v1/specs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, st, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	return resp.StatusCode, st, json.NewDecoder(resp.Body).Decode(&st)
}

// wait blocks until the job is done.
func (s *labdService) wait(key string) error {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + key + "/wait")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st lab.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	if st.State != lab.StateDone {
		return fmt.Errorf("job %s ended %s: %s", key, st.State, st.Error)
	}
	return nil
}

// request is one closed-loop request: submit, then wait.
func (s *labdService) request(tr *Tracer, class string, body []byte) labdOutcome {
	out := labdOutcome{class: class}
	root := tr.reserve()
	t0 := time.Now()
	var st lab.JobStatus
	d := tr.timed("lab.submit", root, func() { out.code, st, out.err = s.submit(body) })
	out.submitMs = float64(d.Nanoseconds()) / 1e6
	if out.err == nil {
		d = tr.timed("lab.wait", root, func() { out.err = s.wait(st.Key) })
		out.waitMs = float64(d.Nanoseconds()) / 1e6
	}
	if out.err == nil && class == classMem && !st.Cached {
		out.err = fmt.Errorf("mem request for %s was not served from the ledger", st.Key)
	}
	if out.err == nil && class != classMem && out.code != http.StatusAccepted {
		out.err = fmt.Errorf("%s request for %s was not accepted as new (status %d)", class, st.Key, out.code)
	}
	tr.finish(root, Span{Name: "lab.request", Extra: class, Start: tr.since(t0), End: tr.since(time.Now())})
	return out
}

// closedLoop sends the plan's requests from `clients` concurrent clients,
// each sending its next request once the previous one is done.
func (s *labdService) closedLoop(tr *Tracer, p *labdPlan, clients int) []labdOutcome {
	out := make([]labdOutcome, len(p.order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.order) {
					return
				}
				r := p.order[i]
				out[i] = s.request(tr, r.class, p.bodies[r.class][r.spec])
			}
		}()
	}
	wg.Wait()
	return out
}

// eventStream collects /v1/events while a repetition runs.
type eventStream struct {
	cancel context.CancelFunc
	done   chan struct{}
	mu     sync.Mutex
	events []timedEvent
}

type timedEvent struct {
	lab.Event
	at time.Time
}

func (s *labdService) subscribe() (*eventStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	es := &eventStream{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(es.done)
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var ev lab.Event
			if err := dec.Decode(&ev); err != nil {
				return
			}
			es.mu.Lock()
			es.events = append(es.events, timedEvent{ev, time.Now()})
			es.mu.Unlock()
		}
	}()
	return es, nil
}

// stop ends the stream once it holds want events (or after a second, for
// events the service dropped) and returns them.
func (es *eventStream) stop(want int) []timedEvent {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		es.mu.Lock()
		n := len(es.events)
		es.mu.Unlock()
		if n >= want {
			break
		}
	}
	es.close()
	return es.events
}

// close ends the stream and waits for its reader; closing twice is harmless.
func (es *eventStream) close() {
	es.cancel()
	<-es.done
}

// runLabd runs one closed-loop repetition against a fresh labd.
func runLabd(rc runConfig) (*repReport, error) {
	requests := labdRequests
	if rc.tiny {
		requests = 24
	}
	plan, err := newLabdPlan(rc.seed, requests)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)

	// Set-up: a separate engine persists the disk class's artifacts into
	// the store, then the service opens the same store with the journal
	// on, and the mem class's specs run once so that the ledger holds them.
	pre, _, err := lab.NewEngine(workers, rc.dir, 0)
	if err != nil {
		return nil, err
	}
	var jobs []runner.Job
	for _, b := range plan.bodies[classDisk] {
		sp, err := spec.Decode(b)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, runner.Job{Spec: sp})
	}
	pre.RunMatrix(jobs)
	svc, err := startLabd(rc.dir, workers)
	if err != nil {
		return nil, err
	}
	defer svc.stop()
	var memKeys []string
	for _, b := range plan.bodies[classMem] {
		_, st, err := svc.submit(b)
		if err != nil {
			return nil, err
		}
		memKeys = append(memKeys, st.Key)
	}
	for _, k := range memKeys {
		if err := svc.wait(k); err != nil {
			return nil, err
		}
	}
	rep := &repReport{SetupS: rc.setupDone(), Ops: len(plan.order)}
	if rc.setupOnly {
		return rep, nil
	}

	var tr *Tracer
	var events *eventStream
	var before runtime.MemStats
	if rc.traced {
		tr = newTracer("labd-mixed")
		if events, err = svc.subscribe(); err != nil {
			return nil, err
		}
		defer events.close() // before svc.stop, whose shutdown waits for open streams
		runtime.ReadMemStats(&before)
	}
	st0, err := svc.status()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	outcomes := svc.closedLoop(tr, plan, workers)
	wall := time.Since(start)
	st1, err := svc.status()
	if err != nil {
		return nil, err
	}
	rep.WallS = wall.Seconds()

	count := map[string]int{}
	for _, o := range outcomes {
		count[o.class]++
		if o.err != nil {
			rep.Failed++
			rep.errorf("labd-mixed %s request: %v", o.class, o.err)
			continue
		}
		rep.OpMs = append(rep.OpMs, o.submitMs+o.waitMs)
	}
	rep.Instr = float64(count[classCold]) * plan.instr
	if d := st1.Executions - st0.Executions; d != uint64(count[classCold]) {
		rep.errorf("labd-mixed: %d executions for %d cold requests", d, count[classCold])
	}
	if d := st1.StoreHits - st0.StoreHits; d != uint64(count[classDisk]) {
		rep.errorf("labd-mixed: %d store hits for %d disk requests", d, count[classDisk])
	}
	if err := verifyArtifacts(rep, svc, plan); err != nil {
		return nil, err
	}
	if !rc.traced {
		return rep, nil
	}

	rep.Layer = map[string]float64{}
	goStats(rep.Layer, &before)
	labdLayers(rep, plan, outcomes, st0, st1, wall)
	keyClass := map[string]string{}
	for _, c := range labdClasses {
		for _, k := range plan.keys[c] {
			keyClass[k] = c
		}
	}
	for _, ev := range events.stop(count[classCold] + count[classDisk]) {
		class := keyClass[ev.Key]
		tier := "execute"
		if ev.FromStore {
			tier = "store"
		} else if ev.Cached {
			tier = "memory"
		}
		if (class == classCold && tier == "execute") || (class == classDisk && tier == "store") {
			rep.Layer["runner.job_s.labd."+class] += ev.ElapsedS
		}
		end := tr.since(ev.at)
		tr.add(Span{Name: "labd.job", Kind: ev.Kind, Bench: ev.Bench, Extra: class, Tier: tier,
			Start: end - int64(ev.ElapsedS*1e9), End: end})
	}
	rep.Spans = tr.Spans()
	return rep, nil
}

// labdLayers reports the client-side per-class latencies and the service
// counters' movement over the measured loop.
func labdLayers(rep *repReport, plan *labdPlan, outcomes []labdOutcome, st0, st1 labStatus, wall time.Duration) {
	l := rep.Layer
	rep.Samples = map[string][]float64{}
	submit, wait := map[string][]float64{}, map[string][]float64{}
	for _, o := range outcomes {
		if o.err != nil {
			continue
		}
		submit[o.class] = append(submit[o.class], o.submitMs)
		wait[o.class] = append(wait[o.class], o.waitMs)
		rep.Samples[o.class] = append(rep.Samples[o.class], o.submitMs+o.waitMs)
		switch o.code {
		case http.StatusAccepted:
			l["lab.accepted"]++
		case http.StatusOK:
			l["lab.cached_200"]++
		}
	}
	for _, c := range labdClasses {
		l["lab.submit_ms."+c] = median(submit[c])
		l["lab.wait_ms."+c] = median(wait[c])
	}
	l["lab.req_per_s"] = float64(len(plan.order)) / wall.Seconds()
	l["lab.rejected_429"] = float64(st1.Rejected - st0.Rejected)
	l["journal.records"] = float64(st1.Journal.Records - st0.Journal.Records)
	l["journal.syncs"] = float64(st1.Journal.Syncs - st0.Journal.Syncs)
	l["artifact.saves"] = float64(st1.Store.Saves - st0.Store.Saves)
	l["artifact.hits"] = float64(st1.Store.Hits - st0.Store.Hits)
	l["artifact.load_misses"] = float64(st1.Store.LoadMisses - st0.Store.LoadMisses)
	l["artifact.corrupt"] = float64(st1.Store.Corrupt - st0.Store.Corrupt)
	l["runner.executions"] = float64(st1.Executions - st0.Executions)
	l["runner.mem_hits"] = float64(st1.CacheHits - st0.CacheHits)
	l["runner.store_hits"] = float64(st1.StoreHits - st0.StoreHits)
}

// verifyArtifacts fetches the first cold and disk artifacts from the
// service, checks each byte for byte against an in-process execution of
// the same spec, and digests them.
func verifyArtifacts(rep *repReport, svc *labdService, plan *labdPlan) error {
	var parts [][]byte
	for _, class := range []string{classCold, classDisk} {
		for i := 0; i < labdVerify && i < len(plan.bodies[class]); i++ {
			key := plan.keys[class][i]
			resp, err := svc.client.Get(svc.base + "/v1/artifacts/" + key)
			if err != nil {
				return err
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				rep.errorf("labd-mixed: artifact %s: status %d", key, resp.StatusCode)
				continue
			}
			want, err := execute(plan.bodies[class][i])
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				rep.errorf("labd-mixed: %s artifact %s differs from an in-process execution", class, key)
			}
			parts = append(parts, got)
		}
	}
	rep.Digest = digest(parts)
	return nil
}

// execute runs a spec body on a private engine and encodes the result as
// the store would.
func execute(body []byte) ([]byte, error) {
	sp, err := spec.Decode(body)
	if err != nil {
		return nil, err
	}
	v, err := runner.New(1).RunSpec(sp)
	if err != nil {
		return nil, err
	}
	return spec.Codecs()[sp.Kind()].Encode(v)
}

// poolLabd derives the per-class latency percentiles from the samples of
// every traced repetition.
func poolLabd(reps []*repReport, layer map[string]float64) error {
	tails := map[string]float64{classCold: 0.90, classDisk: 0.90, classMem: 0.99}
	for _, c := range labdClasses {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, r.Samples[c]...)
		}
		layer["lab."+c+"_p50_ms"] = median(xs)
		q := tails[c]
		v, err := percentile(xs, q)
		if err != nil {
			return fmt.Errorf("lab.%s latency: %w", c, err)
		}
		layer[fmt.Sprintf("lab.%s_p%d_ms", c, int(q*100+0.5))] = v
	}
	return nil
}
