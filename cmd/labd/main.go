// Command labd is the long-running lab service: an HTTP front over the
// spec → runner → artifact-store pipeline that every CLI also drives.
// Clients submit serialized experiment specs; labd deduplicates them by
// canonical key, executes them on a shared worker pool, persists results
// in the artifact store and serves them back — so one warm daemon answers
// any number of figure, DSE or co-run requests without re-running work.
//
// Usage:
//
//	labd [-addr :8080] [-store DIR] [-store-max-mb N] [-workers N]
//	     [-max-queue N] [-job-ttl D] [-max-jobs N]
//	     [-journal PATH|auto|off] [-progress-every N] [-faultpoints SCHED]
//	     [-self URL -peers URL,URL,...] [-steal-depth N] [-peer-fetch-timeout D]
//
// Crash safety (DESIGN.md §14): with a store, labd keeps a durable job
// journal (default <store>/journal.wal) — every accepted submission is
// fsynced before the 202, and a restarted daemon re-arms and re-runs
// whatever was accepted but unfinished. Long co-run cells additionally
// checkpoint mid-run progress into the store every -progress-every
// measured quanta, so a crash, cancellation or fleet steal resumes from
// the last paid-for quantum instead of starting over. -faultpoints arms
// deterministic crash sites (SIGKILL at the Nth hit) for the chaos
// harness; never set it in production.
//
// Fleet mode (-self + -peers, DESIGN.md §13): nodes share one static
// peer list, agree on a rendezvous-hashed owner per spec key (non-owners
// proxy-wait on the owner, or steal the work when the owner's queue
// exceeds -steal-depth or the owner is dead), and serve each other's
// artifacts over a read-only peer fetch tier — a checkpoint warmed
// anywhere in the fleet is paid for once. Fetches are checked for
// corruption, not forgery: list only trusted nodes in -peers. Requires
// -store.
//
// API:
//
//	POST   /v1/specs            submit a spec {"kind": ..., "params": {...}}
//	                            (429 + Retry-After when the queue is full)
//	GET    /v1/jobs/{key}       job status
//	DELETE /v1/jobs/{key}       cancel a queued or running job
//	GET    /v1/jobs/{key}/wait  block until the job finishes; disconnecting
//	                            the last waiter cancels the job
//	GET    /v1/events[?key=K]   NDJSON stream of experiment completions
//	GET    /v1/artifacts/{key}  the result payload (JSON); ?envelope=1
//	                            serves the raw envelope (peer fetch path)
//	GET    /v1/kinds            registered experiment kinds
//	GET    /v1/status           engine and store statistics
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness
//
// Example:
//
//	labd -store /tmp/lab-store &
//	curl -s -X POST localhost:8080/v1/specs -d '{
//	  "kind": "sampling",
//	  "params": {"bench": {"name": "mcf"}, "method": "delorean",
//	             "cfg": '"$(go run ./cmd/labd -print-default-cfg)"'}}'
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/faultpoint"
	"repro/internal/lab"
	"repro/internal/spec"
	"repro/internal/warm"
)

// defaultCfg is what -print-default-cfg emits: the paper's experimental
// setup, ready to paste into a spec's "cfg" field.
func defaultCfg() warm.Config { return warm.DefaultConfig() }

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		storeDir = flag.String("store", "", "artifact store directory (empty = in-memory cache only)")
		storeMax = flag.Int64("store-max-mb", 0, "artifact store size budget in MiB (0 = unbounded)")
		workers  = flag.Int("workers", 0, "experiment worker pool size (0 = GOMAXPROCS)")
		maxQueue = flag.Int("max-queue", 0, "queued-job bound before 429 (0 = default 256, negative = unbounded)")
		jobTTL   = flag.Duration("job-ttl", 0, "how long finished jobs stay in the ledger (0 = default 15m, negative = forever)")
		maxJobs  = flag.Int("max-jobs", 0, "job ledger cap (0 = default 16384, negative = unbounded)")
		printCfg = flag.Bool("print-default-cfg", false, "print the default warm.Config as JSON and exit")

		self         = flag.String("self", "", "fleet mode: this node's advertised base URL (must appear in every peer's -peers)")
		peers        = flag.String("peers", "", "fleet mode: comma-separated peer base URLs")
		stealDepth   = flag.Int("steal-depth", 0, "owner queue depth above which non-owners steal work (0 = default 4, negative = never)")
		fetchTimeout = flag.Duration("peer-fetch-timeout", 0, "per-attempt peer artifact fetch timeout (0 = default 5s)")

		journalPath   = flag.String("journal", "auto", "durable job journal WAL path (auto = <store>/journal.wal when -store is set, off = disable)")
		progressEvery = flag.Uint64("progress-every", spec.ProgressEveryQuanta, "co-run mid-run checkpoint cadence in measured quanta (0 = disable)")
		faultpoints   = flag.String("faultpoints", "", "deterministic crash schedule for chaos testing, e.g. journal.accept=2,artifact.put=1 (SIGKILLs the process at the Nth hit)")
	)
	flag.Parse()

	if *printCfg {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(defaultCfg()); err != nil {
			fatal(err)
		}
		return
	}

	spec.ProgressEveryQuanta = *progressEvery
	if *faultpoints != "" {
		if err := faultpoint.Arm(*faultpoints); err != nil {
			fatal(err)
		}
	}

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	fleet := lab.FleetConfig{Self: *self, Peers: peerList, StealDepth: *stealDepth}
	if (len(peerList) > 0) != (*self != "") {
		fatal(fmt.Errorf("fleet mode needs both -self and -peers"))
	}
	if fleet.Enabled() && *storeDir == "" {
		// The peer tier is an artifact tier: a node with nothing to serve
		// would be a freeloader that also re-executes everything.
		fatal(fmt.Errorf("fleet mode requires an artifact store (-store)"))
	}

	eng, store, err := lab.NewEngine(*workers, *storeDir, *storeMax<<20)
	if err != nil {
		fatal(err)
	}
	if fleet.Enabled() {
		// Local misses are retried against the fleet (integrity
		// re-verified, then persisted locally) before recomputing.
		store.AttachPeers(artifact.NewPeerBlob(peerList, artifact.PeerOptions{Timeout: *fetchTimeout}))
	}

	// Durable job journal (DESIGN.md §14): accepted submissions are
	// fsynced before the 202, and whatever a previous incarnation accepted
	// but never finished is re-armed below, once the server exists.
	var (
		jrnl    *lab.Journal
		pending []lab.PendingJob
	)
	switch {
	case *journalPath == "off":
	case *journalPath == "auto" && *storeDir == "":
		// No store, nothing durable to resume against: journal off.
	default:
		path := *journalPath
		if path == "auto" {
			path = filepath.Join(*storeDir, "journal.wal")
		}
		if jrnl, pending, err = lab.OpenJournal(path); err != nil {
			fatal(err)
		}
	}

	labSrv := lab.NewServerOpts(eng, store, lab.Options{
		MaxQueue: *maxQueue, JobTTL: *jobTTL, MaxJobs: *maxJobs, Fleet: fleet,
		Journal: jrnl,
	})
	if n := labSrv.Recover(pending); n > 0 {
		fmt.Fprintf(os.Stderr, "labd: recovered %d journaled job(s)\n", n)
	}
	srv := &http.Server{Addr: *addr, Handler: labSrv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()

	where := "in-memory cache only"
	if store != nil {
		where = "store " + store.Dir()
	}
	if jrnl != nil {
		where += ", journal on"
	}
	if fleet.Enabled() {
		where += fmt.Sprintf(", fleet of %d peers", len(peerList))
	}
	// Listen before announcing so the printed address is the resolved one
	// (with -addr :0 the kernel picks the port; the chaos harness parses
	// this line to find it).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "labd: listening on %s (%s)\n", ln.Addr(), where)
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "labd:", err)
	os.Exit(1)
}
