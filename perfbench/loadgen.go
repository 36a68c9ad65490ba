package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is the client-side record of one operation. Due is when the
// schedule wanted it sent (open loop; equal to Sent in a closed loop),
// Dispatched when the generator handed it to a worker, Sent when a
// worker started it and Done when its reply was read. All are offsets
// from the start of the measured window.
type sample struct {
	Due, Dispatched, Sent, Done time.Duration
	OK                          bool
}

// Latency is the client-observed time, counted from when the operation
// was due, so a stall also charges the operations queued behind it.
func (s sample) Latency() time.Duration { return s.Done - s.Due }

// Late is how far behind its schedule the generator itself handed the
// operation out.
func (s sample) Late() time.Duration { return s.Dispatched - s.Due }

// lane is one open-loop stream: operations due at fixed offsets, served
// FIFO by a fixed set of workers. do runs operation i and reports whether
// it succeeded.
type lane struct {
	due     []time.Duration
	workers int
	do      func(i int) bool
}

// runOpenLoop runs every lane until all of its operations have finished
// and returns one sample slice per lane, indexed like lane.due. Each lane
// has its own dispatcher, which sleeps until an operation is due and then
// queues it; a queue that grows because the workers are busy shows up as
// latency, not as generator lateness.
func runOpenLoop(lanes []lane) [][]sample {
	start := time.Now()
	out := make([][]sample, len(lanes))
	var wg sync.WaitGroup
	for li, ln := range lanes {
		samples := make([]sample, len(ln.due))
		out[li] = samples
		// Sized to the number of sends, so the dispatcher never blocks
		// behind busy workers and its lateness stays its own.
		queue := make(chan int, len(ln.due))
		wg.Add(1)
		go func(ln lane) {
			defer wg.Done()
			defer close(queue)
			for i, due := range ln.due {
				for wait := due - time.Since(start); wait > 0; wait = due - time.Since(start) {
					sleepPrecise(wait)
				}
				samples[i].Due = due
				samples[i].Dispatched = time.Since(start)
				queue <- i
			}
		}(ln)
		for range ln.workers {
			wg.Add(1)
			go func(ln lane) {
				defer wg.Done()
				for i := range queue {
					samples[i].Sent = time.Since(start)
					samples[i].OK = ln.do(i)
					samples[i].Done = time.Since(start)
				}
			}(ln)
		}
	}
	wg.Wait()
	return out
}

// schedule returns n due offsets at a fixed rate per second.
func schedule(n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// runClosedLoop runs clients that each send their next operation only
// after the previous reply, until the window closes. do runs the
// client's k-th operation and reports whether it succeeded.
func runClosedLoop(clients int, window time.Duration, do func(c, k int) bool) []sample {
	start := time.Now()
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				sent := time.Since(start)
				if sent >= window {
					return
				}
				ok := do(c, k)
				per[c] = append(per[c], sample{Due: sent, Dispatched: sent, Sent: sent, Done: time.Since(start), OK: ok})
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// client is the benchmark's HTTP client: keep-alive connections capped at
// maxConns, with every dial counted so the run can prove it stayed within
// its connection budget.
type client struct {
	*http.Client
	dials atomic.Int64
}

func newClient(maxConns int) *client {
	c := &client{}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     maxConns,
		MaxIdleConns:        maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	c.Client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	return c
}

func (c *client) close() { c.Client.Transport.(*http.Transport).CloseIdleConnections() }
