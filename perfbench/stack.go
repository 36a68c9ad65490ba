package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/summary"
)

// listener is one HTTP endpoint served on loopback.
type listener struct {
	URL  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{URL: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

func (l *listener) close() {
	_ = l.srv.Close()
	<-l.done
}

// stack is one serving set-up: a single node (explore) or a primary, a
// pull replica and a caching router (dashboard, ingest). Everything runs
// in this process and is reached over loopback TCP.
type stack struct {
	rel       *relation.Relation
	primary   *server.Registry
	replica   *server.Registry // nil for a single node
	live      *server.Live     // ingest only
	nodeURL   string           // the primary
	replURL   string
	routerURL string // "" for a single node
	readURL   string // where the workload sends its reads

	setup     time.Duration // data generation → first answered query
	coldStart time.Duration // replica: empty store → first answer
	heapMB    float64       // heap the set-up added, measured after forced GCs

	closers []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// stackConfig selects the shape of a set-up.
type stackConfig struct {
	fleet       bool // primary + replica + router, else one node
	refreshRows int  // > 0: the primary ingests (server.Live)
	tr          *tracer
	dir         string // scratch directory for snapshot stores
}

// buildStack sets one stack up and times it: from the start of data
// generation to the first query answered at the stack's read endpoint.
// Snapshot save and replica restore are part of the set-up where the
// shape has them.
func buildStack(cfg stackConfig, probe *http.Client) (s *stack, err error) {
	s = &stack{}
	heapBefore := heapInUse()
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	start := time.Now()
	s.rel = workloadRelation()
	s.primary = server.NewRegistry()
	dopts := server.DatasetOptions{Summary: summaryOptions(), SkipExact: true}
	var st *store.Store
	if cfg.fleet {
		if st, err = store.Open(filepath.Join(cfg.dir, "primary")); err != nil {
			return nil, err
		}
		dopts.Store = st
	}
	if cfg.refreshRows > 0 {
		s.live, _, err = server.BuildLiveDataset(s.primary, datasetName, relation.NewMutable(s.rel),
			server.LiveOptions{Dataset: dopts, RefreshRows: cfg.refreshRows})
	} else {
		_, err = server.BuildDataset(s.primary, datasetName, s.rel, dopts)
	}
	if err != nil {
		return nil, err
	}
	srv := server.New(s.primary, server.Options{Store: st, NodeName: "node0"})
	if s.live != nil {
		srv.AttachLive(s.live)
	}
	node, err := serve(cfg.tr.middleware(layerNode, srv.Handler()))
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, node.close)
	s.nodeURL, s.readURL = node.URL, node.URL

	if cfg.fleet {
		coldStart := time.Now()
		rst, err := store.Open(filepath.Join(cfg.dir, "replica"))
		if err != nil {
			return nil, err
		}
		s.replica = server.NewRegistry()
		syncer := fleet.NewSyncer(node.URL, rst, s.replica, fleet.SyncerOptions{Interval: time.Second})
		rsrv := server.New(s.replica, server.Options{Store: rst, NodeName: "node1", SyncNotify: syncer.Notify})
		syncer.AttachCache(rsrv.Cache())
		ctx, cancel := context.WithCancel(context.Background())
		syncDone := make(chan struct{})
		go func() {
			defer close(syncDone)
			syncer.Run(ctx)
		}()
		s.closers = append(s.closers, func() { cancel(); <-syncDone })
		repl, err := serve(cfg.tr.middleware(layerNode, rsrv.Handler()))
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, repl.close)
		s.replURL = repl.URL
		if err := awaitAnswer(probe, repl.URL, 10*time.Second); err != nil {
			return nil, fmt.Errorf("replica cold start: %w", err)
		}
		s.coldStart = time.Since(coldStart)

		ropts := fleet.Options{}
		if cfg.tr != nil {
			ropts.Client = &http.Client{Transport: &transport{t: cfg.tr, base: http.DefaultTransport}}
		}
		router, err := fleet.NewRouter([]fleet.NodeConfig{
			{Name: "node0", URL: node.URL},
			{Name: "node1", URL: repl.URL},
		}, ropts)
		if err != nil {
			return nil, err
		}
		rl, err := serve(cfg.tr.middleware(layerRouter, router.Handler()))
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, rl.close)
		s.routerURL, s.readURL = rl.URL, rl.URL
	}
	if err := awaitAnswer(probe, s.readURL, 10*time.Second); err != nil {
		return nil, fmt.Errorf("first answer: %w", err)
	}
	s.setup = time.Since(start)
	s.heapMB = float64(heapInUse()-heapBefore) / (1 << 20)
	return s, nil
}

// heapInUse is the live heap after a forced collection.
func heapInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// awaitAnswer asks base for the match-all count until it answers 200.
func awaitAnswer(c *http.Client, base string, limit time.Duration) error {
	body, _ := json.Marshal(server.QueryRequest{Estimator: maxentName})
	deadline := time.Now().Add(limit)
	for {
		resp, err := c.Post(base+"/query", "application/json", bytes.NewReader(body))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no answer from %s within %v: %w", base, limit, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// setups builds the stack n times, keeping the last, and returns it with
// the set-up times, replica cold starts and heap figures of every round;
// earlier rounds are torn down before the next starts.
func setups(n int, cfg stackConfig, probe *http.Client) (*stack, []float64, []float64, []float64, error) {
	var setupS, coldMS, heapMB []float64
	var s *stack
	for i := 0; i < n; i++ {
		if s != nil {
			s.close()
		}
		dir := filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i))
		c := cfg
		c.dir = dir
		var err error
		if s, err = buildStack(c, probe); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		s.closers = append([]func(){func() { _ = os.RemoveAll(dir) }}, s.closers...)
		setupS = append(setupS, s.setup.Seconds())
		coldMS = append(coldMS, float64(s.coldStart)/1e6)
		heapMB = append(heapMB, s.heapMB)
	}
	return s, setupS, coldMS, heapMB, nil
}

// maxent returns the summary the registry serves under the dataset's
// MaxEnt name.
func maxent(reg *server.Registry) (*summary.Summary, error) {
	ent, ok := reg.Get(maxentName)
	if !ok {
		return nil, errors.New("no " + maxentName + " registered")
	}
	sum, ok := ent.Estimator.(*summary.Summary)
	if !ok {
		return nil, fmt.Errorf("%s is a %T", maxentName, ent.Estimator)
	}
	return sum, nil
}
