package lab

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/artifact"
	"repro/internal/runner"
)

// LocalFleet boots n in-process labd nodes on loopback listeners, wired
// into one static fleet (every node's peer list is the other n-1). It is
// the harness behind the fleet perf scenario and the fleet tests; the CI
// fleet-smoke job does the same thing with real labd processes.
type LocalFleet struct {
	Nodes []*LocalNode
}

// LocalNode is one in-process fleet member with its engine and store
// exposed so callers can read the per-node execution and cache counters
// the zero-duplicate invariant sums.
type LocalNode struct {
	URL    string
	Engine *runner.Engine
	Store  *artifact.Store
	Server *Server

	srv *http.Server
	ln  net.Listener
}

// LocalFleetOptions tunes StartLocalFleet.
type LocalFleetOptions struct {
	// Workers per node (<= 0: GOMAXPROCS).
	Workers int
	// StoreDir returns node i's artifact store directory (required —
	// fleet mode needs a store).
	StoreDir func(i int) string
	// StoreMaxBytes bounds each node's store (<= 0: unbounded).
	StoreMaxBytes int64
	// FetchTimeout bounds each peer artifact fetch attempt (0: default).
	FetchTimeout time.Duration
	// Service options applied to every node; the Fleet field is
	// overwritten per node.
	Opts Options
}

// StartLocalFleet starts the fleet. Listeners are bound first so every
// node knows the full URL set before any server starts — the rendezvous
// candidate list must be identical everywhere.
func StartLocalFleet(n int, o LocalFleetOptions) (*LocalFleet, error) {
	if o.StoreDir == nil {
		return nil, fmt.Errorf("lab: LocalFleetOptions.StoreDir is required")
	}
	f := &LocalFleet{}
	urls := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		peers := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		// A fleet node needs a store: the peer tier is an artifact tier.
		eng, st, err := NewEngine(o.Workers, o.StoreDir(i), o.StoreMaxBytes)
		if err == nil && st == nil {
			err = fmt.Errorf("lab: LocalFleetOptions.StoreDir(%d) is empty", i)
		}
		if err != nil {
			for _, ln := range lns {
				ln.Close()
			}
			f.Close()
			return nil, err
		}
		st.AttachPeers(artifact.NewPeerBlob(peers, artifact.PeerOptions{Timeout: o.FetchTimeout}))
		opts := o.Opts
		opts.Fleet = FleetConfig{Self: urls[i], Peers: peers, StealDepth: o.Opts.Fleet.StealDepth}
		sv := NewServerOpts(eng, st, opts)
		node := &LocalNode{URL: urls[i], Engine: eng, Store: st, Server: sv,
			srv: &http.Server{Handler: sv.Handler()}, ln: lns[i]}
		f.Nodes = append(f.Nodes, node)
		go node.srv.Serve(lns[i]) //nolint:errcheck // ends with ErrServerClosed on Close
	}
	return f, nil
}

// URLs returns the node base URLs in start order.
func (f *LocalFleet) URLs() []string {
	out := make([]string, len(f.Nodes))
	for i, n := range f.Nodes {
		out[i] = n.URL
	}
	return out
}

// Executions sums the per-node engine execution counters — the left-hand
// side of the fleet's zero-duplicate invariant. Killed nodes still count:
// their past executions happened.
func (f *LocalFleet) Executions() uint64 {
	var sum uint64
	for _, n := range f.Nodes {
		sum += n.Engine.Executions()
	}
	return sum
}

// Kill hard-stops node i (listener and established connections), leaving
// the rest of the fleet to discover the dead peer through timeouts — the
// failure the dead-peer failover test injects mid-matrix.
func (f *LocalFleet) Kill(i int) {
	n := f.Nodes[i]
	if n.srv != nil {
		n.srv.Close()
		n.srv = nil
	}
}

// Close stops every node.
func (f *LocalFleet) Close() {
	for i := range f.Nodes {
		f.Kill(i)
	}
}
