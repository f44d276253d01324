// Package lab is the long-running experiment service behind cmd/labd: an
// HTTP front over the spec → runner → artifact-store pipeline. Clients
// POST a serialized spec (internal/spec wire form); the service validates
// it strictly, deduplicates it against running and finished work by its
// canonical key — concurrent identical requests ride the runner's
// single-flight path, repeated ones are served from the in-memory cache or
// the persistent artifact store — executes it on the shared worker pool,
// streams per-job progress, and serves the resulting artifact.
//
// The service is built to stay up under real load (DESIGN.md §11):
// submissions pass admission control (a bounded queue answers 429 +
// Retry-After instead of accepting unbounded work), queued and running
// jobs are cancellable (DELETE /v1/jobs/{key}, or automatically when the
// last /wait client disconnects), failed and cancelled jobs re-arm on
// resubmit instead of serving a stale error forever, the job ledger is
// TTL-pruned so a long-running daemon's memory stays bounded, and
// /metrics exposes the whole pipeline's counters and latency histograms
// in Prometheus text format.
//
// The same package provides the thin-CLI wiring (NewEngine,
// ProgressPrinter) so all five command-line fronts and the service drive
// experiments through one identical pipeline.
package lab

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/runner"
	"repro/internal/spec"
)

// NewEngine builds the standard driver engine: the given worker bound,
// backed by a persistent artifact store when storeDir is non-empty
// (storeMaxBytes <= 0: unbounded). Every CLI's -store/-workers flags and
// labd go through this single constructor.
func NewEngine(workers int, storeDir string, storeMaxBytes int64) (*runner.Engine, *artifact.Store, error) {
	eng := runner.New(workers)
	if storeDir == "" {
		return eng, nil, nil
	}
	st, err := spec.OpenStore(storeDir, storeMaxBytes)
	if err != nil {
		return nil, nil, fmt.Errorf("open artifact store: %w", err)
	}
	eng.Store = st
	return eng, st, nil
}

// ProgressPrinter returns the standard per-job progress line writer the
// CLIs install as Engine.OnProgress.
func ProgressPrinter(w io.Writer) func(runner.Progress) {
	return func(p runner.Progress) {
		tag := ""
		switch {
		case p.FromStore:
			tag = " (store)"
		case p.Cached:
			tag = " (cached)"
		}
		fmt.Fprintf(w, "  [%3d/%3d] %s/%s%s %.1fs\n",
			p.Done, p.Total, p.Bench, p.Method, tag, p.Elapsed.Seconds())
	}
}

// JobState values.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// jobStates lists every state, in lifecycle order, for the per-state
// gauges on /metrics and /v1/status.
var jobStates = []string{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}

// terminal reports whether a state is final. Terminal jobs hold no worker
// slot, are TTL-pruned from the ledger, and — for failed and cancelled
// ones — re-arm on resubmit.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobStatus is the wire form of one submitted spec's lifecycle.
type JobStatus struct {
	Key       string `json:"key"`
	Kind      string `json:"kind"`
	Bench     string `json:"bench"`
	Method    string `json:"method"`
	Extra     string `json:"extra,omitempty"`
	State     string `json:"state"`
	Cached    bool   `json:"cached"`     // served without executing (memory, store, or pre-existing job)
	FromStore bool   `json:"from_store"` // subset of Cached: persistent artifact store
	Error     string `json:"error,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

type job struct {
	spec      spec.Spec
	state     string
	cached    bool
	fromStore bool
	// body is the raw submission (kept only in fleet mode) so a non-owner
	// can forward the spec verbatim to its owner node; noProxy marks a
	// submission that itself arrived via a fleet proxy and must execute
	// locally (cycle guard).
	body     []byte
	noProxy  bool
	err      string
	val      any
	started  time.Time
	finished time.Time
	elapsed  time.Duration
	done     chan struct{}
	// ctx/cancel bound the execution: DELETE /v1/jobs/{key} (or the last
	// waiter disconnecting) cancels, and the runner plus the engines'
	// region/quantum Cancel hooks observe it cooperatively.
	ctx    context.Context
	cancel context.CancelFunc
	// waiters counts the /wait clients currently attached; when the last
	// one disconnects before the job finishes, nobody is left to consume
	// the result and the job is aborted.
	waiters int
}

// arm (re)initializes the job's execution state: fresh done channel,
// fresh cancellation scope, back to the queue. Used at creation and when
// a failed or cancelled job is resubmitted.
func (j *job) arm() {
	j.state = StateQueued
	j.cached, j.fromStore = false, false
	j.err = ""
	j.val = nil
	j.started, j.finished = time.Time{}, time.Time{}
	j.elapsed = 0
	j.done = make(chan struct{})
	j.ctx, j.cancel = context.WithCancel(context.Background())
}

// Options tune the service's production behaviour. The zero value means
// defaults (see withDefaults); explicit negatives disable a bound.
type Options struct {
	// MaxQueue bounds jobs in StateQueued: a submission that would exceed
	// it is refused with 429 and a Retry-After hint. 0: default 256;
	// negative: unbounded.
	MaxQueue int
	// RetryAfter is the hint sent with 429 responses. 0: default 1s.
	RetryAfter time.Duration
	// JobTTL is how long terminal jobs stay in the ledger; pruning is
	// opportunistic (on submit/status/metrics). 0: default 15m; negative:
	// keep forever.
	JobTTL time.Duration
	// MaxJobs caps the whole ledger. When exceeded, the oldest-finished
	// terminal jobs are evicted early (before their TTL); if the ledger is
	// all queued/running work, submissions are refused with 429. 0:
	// default 16384; negative: unbounded.
	MaxJobs int
	// MaxBody bounds one submission request's body; larger bodies are
	// refused with 413. 0: default 16 MiB.
	MaxBody int64
	// Fleet wires this node into a multi-node fleet (cross-node
	// single-flight + work stealing, DESIGN.md §13). Zero value: fleet
	// mode off.
	Fleet FleetConfig
	// Journal is the durable job WAL (DESIGN.md §14): every accepted
	// submission is fsynced to it before the client sees 202, and
	// Server.Recover re-arms whatever it holds after a crash. nil: no
	// crash durability (the default for embedded/test servers).
	Journal *Journal
}

func (o Options) withDefaults() Options {
	if o.MaxQueue == 0 {
		o.MaxQueue = 256
	}
	if o.RetryAfter == 0 {
		o.RetryAfter = time.Second
	}
	if o.JobTTL == 0 {
		o.JobTTL = 15 * time.Minute
	}
	if o.MaxJobs == 0 {
		o.MaxJobs = 16384
	}
	if o.MaxBody == 0 {
		o.MaxBody = 16 << 20
	}
	return o
}

// Server is the lab service. Construct with NewServer (defaults) or
// NewServerOpts; it owns the engine's OnProgress hook (events fan out to
// /v1/events subscribers and drive per-job cache attribution).
type Server struct {
	eng   *runner.Engine
	store *artifact.Store
	opts  Options
	// sem bounds concurrently executing submissions to the engine's
	// worker budget: RunSpec executes on the caller's goroutine, so
	// without this gate N clients would mean N concurrent experiments
	// regardless of -workers. Jobs stay "queued" while waiting.
	sem chan struct{}
	// fleet is the cross-node single-flight router; nil outside fleet
	// mode.
	fleet *fleet
	// jrnl is the durable job WAL; nil when crash durability is off.
	jrnl *Journal

	mets serviceMetrics

	mu        sync.Mutex
	jobs      map[string]*job
	queued    int // jobs in StateQueued (admission-control gauge)
	lastPrune time.Time
	subs      map[chan runner.Progress]bool
}

// NewServerOpts wires a lab service over an engine and its optional store
// (nil: artifacts are served from memory only); the zero Options select
// the production defaults.
func NewServerOpts(eng *runner.Engine, store *artifact.Store, opts Options) *Server {
	s := &Server{eng: eng, store: store, opts: opts.withDefaults(),
		sem:  make(chan struct{}, runner.PoolSize(eng.Workers)),
		jobs: make(map[string]*job), subs: make(map[chan runner.Progress]bool)}
	if s.opts.Fleet.Enabled() {
		s.fleet = newFleet(s.opts.Fleet)
	}
	s.jrnl = s.opts.Journal
	eng.OnProgress = s.onProgress
	return s
}

// Recover re-arms jobs the journal replayed as accepted-but-unfinished
// (call once, after construction, before serving traffic). Each pending
// submission is decoded and enqueued exactly as a fresh POST would be —
// at-least-once semantics: a job that actually finished just before the
// crash re-executes, but the engine's content-keyed caches and the
// artifact store make that re-execution a cheap lookup. Admission control
// is deliberately skipped: these jobs were already accepted and journaled,
// and refusing them now would break the durability contract. Returns the
// number of jobs re-armed; undecodable bodies (journal from an older,
// incompatible build) are skipped, not fatal.
func (s *Server) Recover(pending []PendingJob) int {
	n := 0
	for _, p := range pending {
		sp, err := spec.Decode(p.Body)
		if err != nil {
			continue
		}
		var body []byte
		if s.fleet != nil {
			body = p.Body // fleet routing forwards the verbatim submission
		}
		s.mu.Lock()
		if _, ok := s.jobs[sp.Key()]; ok {
			s.mu.Unlock()
			continue // a client resubmitted it before recovery got here
		}
		j := &job{spec: sp, body: body}
		j.arm()
		s.jobs[sp.Key()] = j
		s.queued++
		s.mu.Unlock()
		s.mets.recovered.Add(1)
		go s.run(j)
		n++
	}
	return n
}

// onProgress attributes completion events to jobs and fans them out to
// event-stream subscribers. Calls are serialized by the engine.
func (s *Server) onProgress(p runner.Progress) {
	s.mu.Lock()
	if j, ok := s.jobs[p.Key]; ok && j.state == StateRunning {
		j.cached = p.Cached
		j.fromStore = p.FromStore
	}
	for ch := range s.subs {
		select {
		case ch <- p:
		default: // slow subscriber: drop, never block the engine
		}
	}
	s.mu.Unlock()
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/specs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{key}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{key}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{key}/wait", s.handleWait)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/artifacts/{key}", s.handleArtifact)
	mux.HandleFunc("GET /v1/kinds", s.handleKinds)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Server) status(j *job) JobStatus {
	bench, method, extra := j.spec.Identity()
	st := JobStatus{Key: j.spec.Key(), Kind: j.spec.Kind(),
		Bench: bench, Method: method, Extra: extra,
		State: j.state, Cached: j.cached, FromStore: j.fromStore, Error: j.err}
	switch {
	case j.state == StateRunning:
		st.ElapsedMS = time.Since(j.started).Milliseconds()
	case terminal(j.state):
		st.ElapsedMS = j.elapsed.Milliseconds()
	}
	return st
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// pruneLocked bounds the job ledger: terminal jobs past their TTL are
// dropped, and when the ledger exceeds MaxJobs the oldest-finished
// terminal jobs are evicted early. Queued and running jobs are never
// pruned. The TTL sweep is O(jobs), so it is throttled to at most once
// per TTL/4; the overflow eviction runs whenever needed.
func (s *Server) pruneLocked(now time.Time) {
	ttl := s.opts.JobTTL
	if ttl > 0 && now.Sub(s.lastPrune) >= ttl/4 {
		s.lastPrune = now
		for k, j := range s.jobs {
			if terminal(j.state) && !j.finished.IsZero() && now.Sub(j.finished) > ttl {
				delete(s.jobs, k)
			}
		}
	}
	if max := s.opts.MaxJobs; max > 0 && len(s.jobs) > max {
		s.evictTerminalLocked(len(s.jobs) - max)
	}
}

// evictTerminalLocked drops up to n terminal jobs, oldest-finished first.
// Queued and running jobs are never evicted; if fewer than n terminal
// jobs exist the ledger stays over bound (admission control then refuses
// new work).
func (s *Server) evictTerminalLocked(n int) {
	for ; n > 0; n-- {
		victim := ""
		var oldest time.Time
		for k, j := range s.jobs {
			if !terminal(j.state) {
				continue
			}
			if victim == "" || j.finished.Before(oldest) {
				victim, oldest = k, j.finished
			}
		}
		if victim == "" {
			return
		}
		delete(s.jobs, victim)
	}
}

// handleSubmit accepts a spec, deduplicates it by key, and starts it if
// new. A repeated POST of a finished spec reports state "done" with
// cached=true — the acceptance check for "labd serves the same spec from
// cache on a repeated request". A failed or cancelled job re-arms: the
// resubmit queues a fresh execution instead of serving the stale error.
// Admission control: when the queue (or the ledger) is full the
// submission is refused with 429 and a Retry-After hint.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.mets.submitLat.Observe(time.Since(start).Seconds()) }()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "spec body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	sp, err := spec.Decode(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mets.submits.Add(1)
	raw := body // the journal needs the verbatim submission either way
	if s.fleet == nil {
		body = nil // only the fleet router forwards bodies; don't pin them
	}
	noProxy := r.Header.Get(proxyHeader) != ""

	s.mu.Lock()
	s.pruneLocked(start)
	if j, ok := s.jobs[sp.Key()]; ok {
		j.body, j.noProxy = body, j.noProxy || noProxy
		if j.state == StateFailed || j.state == StateCancelled {
			// Re-arm: the recorded failure may be transient (and the
			// engine never caches errors), so a resubmit retries instead
			// of serving the stale error until restart. Only the queue
			// bound applies — the job is already a ledger entry.
			if !s.admitLocked(w, false) {
				s.mu.Unlock()
				return
			}
			if !s.journalAcceptLocked(w, sp.Key(), raw) {
				s.mu.Unlock()
				return
			}
			j.arm()
			s.queued++
			st := s.status(j)
			s.mu.Unlock()
			go s.run(j)
			writeJSON(w, http.StatusAccepted, st)
			return
		}
		st := s.status(j)
		if j.state == StateDone {
			st.Cached = true
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
		return
	}
	if !s.admitLocked(w, true) {
		s.mu.Unlock()
		return
	}
	if !s.journalAcceptLocked(w, sp.Key(), raw) {
		s.mu.Unlock()
		return
	}
	j := &job{spec: sp, body: body, noProxy: noProxy}
	j.arm()
	s.jobs[sp.Key()] = j
	s.queued++
	st := s.status(j)
	s.mu.Unlock()

	go s.run(j)
	writeJSON(w, http.StatusAccepted, st)
}

// admitLocked applies admission control for one queue entry; on refusal
// it writes the 429 itself and returns false. newJob distinguishes a
// fresh submission (needs a ledger slot too) from a re-armed one (already
// a ledger entry, so only the queue bound applies — and the ledger check
// must not evict the very job being re-armed).
func (s *Server) admitLocked(w http.ResponseWriter, newJob bool) bool {
	retry := func(format string, args ...any) bool {
		s.mets.rejected.Add(1)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.opts.RetryAfter.Seconds())))
		writeError(w, http.StatusTooManyRequests, format, args...)
		return false
	}
	if max := s.opts.MaxQueue; max > 0 && s.queued >= max {
		return retry("queue full (%d queued); retry later", s.queued)
	}
	if max := s.opts.MaxJobs; newJob && max > 0 && len(s.jobs) >= max {
		// Make room by dropping finished history before refusing: only a
		// ledger full of live (queued/running) work is a real overload.
		s.evictTerminalLocked(len(s.jobs) - max + 1)
		if len(s.jobs) >= max {
			return retry("job ledger full (%d live jobs); retry later", len(s.jobs))
		}
	}
	return true
}

// journalAcceptLocked makes a submission durable before it is
// acknowledged: the accepted record (with the verbatim body, which replay
// resubmits) is fsynced while s.mu is held, so its WAL position is
// ordered against the racing finish/resubmit records of the same key. If
// the journal cannot take the record the submission is refused with 500 —
// accepting un-journaled work would silently drop the crash-safety
// contract. No-op without a journal.
func (s *Server) journalAcceptLocked(w http.ResponseWriter, key string, body []byte) bool {
	if s.jrnl == nil {
		return true
	}
	if err := s.jrnl.Accepted(key, body); err != nil {
		writeError(w, http.StatusInternalServerError, "journal submission: %v", err)
		return false
	}
	s.mets.journaled.Add(1)
	return true
}

func (s *Server) run(j *job) {
	// Fleet routing happens while the job is still queued, BEFORE a worker
	// slot is taken: proxy-waiting on another node is idle network time,
	// and holding a slot through it would let a fleet of saturated nodes
	// proxy-wait at each other in a cycle — a distributed deadlock. After
	// routing, the local execution (a peer-tier artifact pull when the
	// proxy succeeded, a real run otherwise) takes the slot as usual.
	s.routeToOwner(j)

	// Queued phase: wait for a worker slot, but leave immediately if the
	// job is cancelled first — cancellation must abort queued work without
	// consuming a slot.
	select {
	case s.sem <- struct{}{}:
	case <-j.ctx.Done():
		s.finish(j, nil, j.ctx.Err())
		return
	}
	defer func() { <-s.sem }()

	s.mu.Lock()
	s.queued--
	j.state = StateRunning
	j.started = time.Now()
	if s.jrnl != nil {
		_ = s.jrnl.Started(j.spec.Key()) // best-effort: loss re-runs, never loses, the job
	}
	s.mu.Unlock()

	val, err := s.eng.RunSpecCtx(j.ctx, j.spec)

	// Once the artifact is safely persisted, the in-memory copy is
	// redundant (handleArtifact prefers the store) — drop it so a
	// long-running daemon's job ledger doesn't pin every result forever.
	if err == nil && s.store != nil {
		if _, _, ok := s.store.Raw(j.spec.Key()); ok {
			val = nil
		}
	}
	s.finish(j, val, err)
}

// routeToOwner is the cross-node single-flight decision for one queued
// job: if another node owns the key, proxy the submission there and wait
// it out (the job then executes exactly once, remotely; the follow-up
// local RunSpecCtx pulls the artifact through the tiered store — peer
// fetch, integrity check, local persist — without executing). A saturated
// owner (queue deeper than StealDepth), a dead owner, or a failed proxy
// degrades to local execution — a steal. If the owner dies between proxy
// and pull, the peer fetch misses and the engine recomputes; either way
// the job never fails because of the fleet.
func (s *Server) routeToOwner(j *job) {
	f := s.fleet
	if f == nil || j.noProxy {
		return
	}
	key := j.spec.Key()
	owner := f.owner(key)
	if owner == f.cfg.Self || s.localHit(key) {
		return
	}
	depth, derr := f.queueDepth(j.ctx, owner)
	if derr == nil && (f.cfg.StealDepth < 0 || depth <= f.cfg.StealDepth) {
		if err := f.proxyWait(j.ctx, owner, j.body, key); err == nil {
			f.proxied.Add(1)
			return
		} else if j.ctx.Err() != nil {
			return // cancelled mid-proxy: run() observes the dead context
		}
		f.proxyErrors.Add(1)
	}
	f.steals.Add(1)
}

// localHit reports whether key can be served without executing or
// proxying: a live engine cache entry (done, or in flight — joining it is
// single-flight) or an indexed local artifact.
func (s *Server) localHit(key string) bool {
	if s.eng.HasCached(key) {
		return true
	}
	return s.store != nil && s.store.Has(key)
}

// finish moves a job to its terminal state and wakes the waiters.
func (s *Server) finish(j *job, val any, err error) {
	s.mu.Lock()
	now := time.Now()
	if j.state == StateQueued {
		s.queued--
	} else {
		j.elapsed = now.Sub(j.started)
	}
	j.finished = now
	j.val = val
	switch {
	case err == nil:
		j.state = StateDone
	case j.ctx.Err() != nil:
		// The job's own context was cancelled (DELETE or abandoned wait):
		// report "cancelled", not a failure — the distinction matters for
		// operators and for the resubmit path's semantics.
		j.state = StateCancelled
		j.err = err.Error()
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
	// The terminal journal record must land while s.mu is held: a racing
	// resubmit journals its accepted record under the same lock, so
	// appending after unlock could order "failed" AFTER the re-arm's
	// "accepted" and make replay drop a live job.
	if s.jrnl != nil {
		switch j.state {
		case StateDone:
			_ = s.jrnl.Done(j.spec.Key())
		case StateCancelled:
			_ = s.jrnl.Cancelled(j.spec.Key())
		case StateFailed:
			_ = s.jrnl.Failed(j.spec.Key())
		}
	}
	// Capture this incarnation's channel and cancel under the lock: once
	// the state is terminal a racing resubmit may re-arm the job and
	// replace both, and cancelling the new incarnation's context would
	// abort the re-run.
	done, cancel := j.done, j.cancel
	s.mu.Unlock()
	cancel() // release the context's resources; no-op if already cancelled
	close(done)
}

func (s *Server) lookup(r *http.Request) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("key")]
	return j, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("key"))
		return
	}
	s.mu.Lock()
	st := s.status(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleCancel aborts a queued or running job: the job's context is
// cancelled, the runner and the engines' region/quantum hooks observe it
// cooperatively, and the job lands in state "cancelled" (re-runnable by
// resubmitting the spec). Cancelling a terminal job is a no-op that
// reports the current status — the operation is idempotent.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("key"))
		return
	}
	s.mu.Lock()
	st := s.status(j)
	cancel := j.cancel
	isTerminal := terminal(j.state)
	s.mu.Unlock()
	if isTerminal {
		writeJSON(w, http.StatusOK, st)
		return
	}
	s.mets.cancels.Add(1)
	cancel()
	// The transition to "cancelled" is asynchronous — the executor unwinds
	// at its next cooperative check — so answer 202 with the pre-cancel
	// status; clients poll or /wait for the terminal state.
	writeJSON(w, http.StatusAccepted, st)
}

// handleWait blocks until the job finishes. While a client waits it holds
// a waiter reference on the job; if the last waiter disconnects before
// the job finishes, nobody is left to consume the result and the job is
// aborted (equivalent to DELETE). Fire-and-forget submitters that only
// poll GET /v1/jobs/{key} never attach a waiter and are unaffected.
func (s *Server) handleWait(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("key"))
		return
	}
	start := time.Now()
	s.mu.Lock()
	waiting := !terminal(j.state)
	done := j.done
	if waiting {
		j.waiters++
	}
	s.mu.Unlock()

	if waiting {
		select {
		case <-done:
			s.mu.Lock()
			j.waiters--
			s.mu.Unlock()
		case <-r.Context().Done():
			s.mu.Lock()
			j.waiters--
			// j.done == done guards against a re-armed job: this waiter
			// belongs to the incarnation it attached to, and must not
			// cancel a fresh re-run it never waited on.
			abandoned := j.waiters == 0 && !terminal(j.state) && j.done == done
			cancel := j.cancel
			s.mu.Unlock()
			if abandoned {
				s.mets.cancels.Add(1)
				cancel()
			}
			return
		}
	}
	s.mets.waitLat.Observe(time.Since(start).Seconds())
	s.mu.Lock()
	st := s.status(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams engine completion events as NDJSON until the
// client disconnects (or, with ?key=..., until that job finishes). Every
// event carries the finished spec's key, kind and identity — for a
// composite spec the stream shows its nested experiments completing one
// by one, which is the service's per-job progress view.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, _ := w.(http.Flusher)
	ch := make(chan runner.Progress, 256)
	s.mu.Lock()
	s.subs[ch] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.subs, ch)
		s.mu.Unlock()
	}()

	var done chan struct{}
	if key := r.URL.Query().Get("key"); key != "" {
		s.mu.Lock()
		if j, ok := s.jobs[key]; ok {
			done = j.done
		}
		s.mu.Unlock()
		if done == nil {
			writeError(w, http.StatusNotFound, "unknown job %q", key)
			return
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if fl != nil {
		fl.Flush()
	}
	enc := json.NewEncoder(w)
	for {
		select {
		case p := <-ch:
			if err := enc.Encode(progressEvent(p)); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		case <-done:
			// Drain anything already queued, then finish the stream.
			for {
				select {
				case p := <-ch:
					_ = enc.Encode(progressEvent(p))
				default:
					if fl != nil {
						fl.Flush()
					}
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// Event is one serialized progress event.
type Event struct {
	Key       string  `json:"key"`
	Kind      string  `json:"kind"`
	Bench     string  `json:"bench"`
	Method    string  `json:"method"`
	Extra     string  `json:"extra,omitempty"`
	Cached    bool    `json:"cached"`
	FromStore bool    `json:"from_store"`
	ElapsedS  float64 `json:"elapsed_s"`
}

func progressEvent(p runner.Progress) Event {
	return Event{Key: p.Key, Kind: p.Kind, Bench: p.Bench, Method: p.Method,
		Extra: p.Extra, Cached: p.Cached, FromStore: p.FromStore,
		ElapsedS: p.Elapsed.Seconds()}
}

// handleArtifact serves the result payload for a key: from the persistent
// store when available (integrity-checked raw bytes), else re-encoded
// from the in-memory result of a finished job. With ?envelope=1 it serves
// the raw artifact envelope instead — the peer-fetch read path
// (artifact.PeerBlob), which needs the envelope's own integrity metadata
// to re-verify on receipt. Envelope serving is strictly local (store
// only, never the peer tier): two nodes must not ping-pong a miss
// between each other.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if r.URL.Query().Get("envelope") == "1" {
		s.serveEnvelope(w, key)
		return
	}
	if s.store != nil {
		if payload, kind, ok := s.store.Raw(key); ok {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Artifact-Kind", kind)
			w.Header().Set("X-Artifact-Source", "store")
			_, _ = w.Write(payload)
			return
		}
	}
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no artifact for %q", key)
		return
	}
	s.mu.Lock()
	done := j.state == StateDone
	val := j.val
	s.mu.Unlock()
	if !done || val == nil {
		// val == nil: the result was persisted and dropped from memory,
		// but the store no longer has it (evicted or corrupted).
		writeError(w, http.StatusNotFound, "no artifact for %q", key)
		return
	}
	var codec artifact.Codec
	for _, k := range spec.Kinds() {
		if k.Name == j.spec.Kind() {
			codec = k.Codec
		}
	}
	payload, err := codec.Encode(val)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode artifact: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Artifact-Kind", j.spec.Kind())
	w.Header().Set("X-Artifact-Source", "memory")
	_, _ = w.Write(payload)
}

// serveEnvelope writes the verified raw envelope for key: the peer fetch
// path, whose bytes and headers mixed-version fleets rely on.
func (s *Server) serveEnvelope(w http.ResponseWriter, key string) {
	if s.store == nil {
		writeError(w, http.StatusNotFound, "no artifact store")
		return
	}
	raw, kind, ok := s.store.Envelope(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no artifact for %q", key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", fmt.Sprintf("%d", len(raw)))
	w.Header().Set("X-Artifact-Kind", kind)
	w.Header().Set("X-Artifact-Source", "envelope")
	_, _ = w.Write(raw)
}

func (s *Server) handleKinds(w http.ResponseWriter, _ *http.Request) {
	type kindInfo struct {
		Name         string `json:"name"`
		About        string `json:"about"`
		CodecVersion int    `json:"codec_version"`
	}
	var out []kindInfo
	for _, k := range spec.Kinds() {
		out = append(out, kindInfo{Name: k.Name, About: k.About, CodecVersion: k.Codec.Version})
	}
	writeJSON(w, http.StatusOK, out)
}

// stateCountsLocked tallies the ledger by state.
func (s *Server) stateCountsLocked() map[string]int {
	counts := make(map[string]int, len(jobStates))
	for _, st := range jobStates {
		counts[st] = 0
	}
	for _, j := range s.jobs {
		counts[j.state]++
	}
	return counts
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	hits, misses := s.eng.CacheStats()
	s.mu.Lock()
	s.pruneLocked(time.Now())
	jobs := len(s.jobs)
	queued := s.queued
	counts := s.stateCountsLocked()
	s.mu.Unlock()
	st := map[string]any{
		"jobs":          jobs,
		"jobs_by_state": counts,
		"queue_depth":   queued,
		"cache_hits":    hits,
		"cache_miss":    misses,
		"store_hits":    s.eng.StoreHits(),
		"executions":    s.eng.Executions(),
		"submits":       s.mets.submits.Load(),
		"rejected":      s.mets.rejected.Load(),
		"cancels":       s.mets.cancels.Load(),
	}
	if s.store != nil {
		st["store"] = s.store.Stats()
	}
	if s.jrnl != nil {
		js := s.jrnl.Stats()
		js.Recovered = s.mets.recovered.Load() // jobs actually re-armed, not just replayed
		st["journal"] = js
	}
	if s.fleet != nil {
		fs := s.fleet.stats()
		if s.store != nil && s.store.Peers() != nil {
			fs.PeerFetch = s.store.Peers().Stats()
		}
		st["fleet"] = fs
	}
	writeJSON(w, http.StatusOK, st)
}

// handleMetrics is the hand-rolled Prometheus text exposition: engine
// cache counters, artifact-store counters, queue and per-state job
// gauges, admission-control counters, and submit/wait latency
// histograms. Scrapers poll it; nothing here blocks on experiment work.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	hits, misses := s.eng.CacheStats()
	storeHits := s.eng.StoreHits()
	s.mu.Lock()
	s.pruneLocked(time.Now())
	queued := s.queued
	counts := s.stateCountsLocked()
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	promCounter(w, "labd_engine_cache_hits_total", "in-memory result cache hits", hits)
	promCounter(w, "labd_engine_cache_misses_total", "jobs executed (cache misses)", misses)
	promCounter(w, "labd_engine_store_hits_total", "jobs served by the persistent artifact store", storeHits)
	promCounter(w, "labd_engine_executions_total", "spec executions started on this node (fleet dedup invariant sums these)", s.eng.Executions())
	if s.store != nil {
		st := s.store.Stats()
		promCounter(w, "labd_store_loads_total", "artifact store load attempts", st.Loads)
		promCounter(w, "labd_store_load_misses_total", "artifact store load misses", st.LoadMisses)
		promCounter(w, "labd_store_hits_total", "artifact store loads served from a valid artifact", st.Hits)
		promCounter(w, "labd_store_saves_total", "artifacts persisted", st.Saves)
		promCounter(w, "labd_store_evictions_total", "artifacts evicted by the LRU byte budget", st.Evictions)
		promCounter(w, "labd_store_corrupt_total", "artifact integrity failures", st.Corrupt)
		promCounter(w, "labd_store_peer_hits_total", "loads served by fetching from a fleet peer", st.PeerHits)
		promGauge(w, "labd_store_artifacts", "artifacts currently in the store", int64(st.Artifacts))
		promGauge(w, "labd_store_bytes", "bytes currently in the store", st.Bytes)
		promGauge(w, "labd_store_max_bytes", "store byte budget (0: unbounded)", st.MaxBytes)
	}
	if s.fleet != nil {
		fs := s.fleet.stats()
		promGauge(w, "labd_fleet_peers", "peer nodes in the static fleet", int64(len(fs.Peers)))
		promCounter(w, "labd_fleet_proxied_total", "jobs proxy-waited on their owner node", fs.Proxied)
		promCounter(w, "labd_fleet_proxy_errors_total", "proxy attempts that failed over to local execution", fs.ProxyErrors)
		promCounter(w, "labd_fleet_steals_total", "non-owned jobs executed locally (owner saturated or dead)", fs.Steals)
		if s.store != nil && s.store.Peers() != nil {
			ps := s.store.Peers().Stats()
			promCounter(w, "labd_peer_fetch_hits_total", "artifact fetches served by a peer (integrity verified)", ps.Hits)
			promCounter(w, "labd_peer_fetch_misses_total", "artifact fetches no peer could serve", ps.Misses)
			promCounter(w, "labd_peer_fetch_errors_total", "peer fetch errors (transport, non-404 status, failed verification)", ps.Errors)
		}
	}
	promGauge(w, "labd_queue_depth", "jobs waiting for a worker slot", int64(queued))
	fmt.Fprintf(w, "# HELP labd_jobs jobs in the ledger by state\n# TYPE labd_jobs gauge\n")
	for _, state := range jobStates {
		fmt.Fprintf(w, "labd_jobs{state=%q} %d\n", state, counts[state])
	}
	promCounter(w, "labd_submits_total", "specs accepted for decoding on POST /v1/specs", s.mets.submits.Load())
	promCounter(w, "labd_rejected_total", "submissions refused with 429 (queue or ledger full)", s.mets.rejected.Load())
	promCounter(w, "labd_cancels_total", "job cancellations (DELETE or abandoned wait)", s.mets.cancels.Load())
	if s.jrnl != nil {
		js := s.jrnl.Stats()
		promCounter(w, "labd_journal_records_total", "job journal records appended", js.Records)
		promCounter(w, "labd_journal_syncs_total", "job journal fsyncs (one per durable acceptance)", js.Syncs)
		promCounter(w, "labd_journal_recovered_total", "journaled jobs re-armed after restart", s.mets.recovered.Load())
	}
	s.mets.submitLat.writeProm(w, "labd_submit_latency_seconds", "POST /v1/specs handler latency")
	s.mets.waitLat.writeProm(w, "labd_wait_latency_seconds", "successful /v1/jobs/{key}/wait latency")
}
