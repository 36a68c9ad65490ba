package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// One worker, operations due every 2ms that each take 10ms: the queue
// grows, and the latency charged to each operation is counted from its due
// time, so the k-th operation waits for the k before it.
func TestOpenLoopChargesQueueingFromDueTime(t *testing.T) {
	const n, gap, work = 6, 2 * time.Millisecond, 10 * time.Millisecond
	samples := runOpenLoop([]lane{{
		due:     schedule(n, float64(time.Second/gap)),
		workers: 1,
		do:      func(int) bool { time.Sleep(work); return true },
	}})[0]
	for k, s := range samples {
		if s.Due != time.Duration(k)*gap {
			t.Fatalf("op %d due at %v, want %v", k, s.Due, time.Duration(k)*gap)
		}
		// Served FIFO by one worker: op k cannot finish before (k+1)*work.
		minLatency := time.Duration(k+1)*work - s.Due
		if s.Latency() < minLatency {
			t.Errorf("op %d latency %v, want at least %v (queueing behind earlier ops)", k, s.Latency(), minLatency)
		}
		if s.Sent-s.Due < time.Duration(k)*(work-gap) {
			t.Errorf("op %d started %v after due, want at least %v", k, s.Sent-s.Due, time.Duration(k)*(work-gap))
		}
		if !s.OK {
			t.Errorf("op %d not OK", k)
		}
	}
	// The generator itself handed every operation out on time: the wait
	// is the system's, not the generator's.
	for k, s := range samples {
		if s.Late() > 5*time.Millisecond {
			t.Errorf("op %d dispatched %v late; a busy worker must not delay the generator", k, s.Late())
		}
	}
}

func TestOpenLoopLanesRunIndependently(t *testing.T) {
	var slow, fast atomic.Int64
	out := runOpenLoop([]lane{
		{due: schedule(3, 1000), workers: 1, do: func(int) bool { slow.Add(1); time.Sleep(20 * time.Millisecond); return true }},
		{due: schedule(5, 1000), workers: 1, do: func(i int) bool { fast.Add(1); return i != 2 }},
	})
	if slow.Load() != 3 || fast.Load() != 5 || len(out[0]) != 3 || len(out[1]) != 5 {
		t.Fatalf("ran %d and %d ops, samples %d and %d", slow.Load(), fast.Load(), len(out[0]), len(out[1]))
	}
	if out[1][2].OK || !out[1][1].OK {
		t.Fatalf("failure not recorded on its own op: %+v", out[1])
	}
	// The fast lane does not queue behind the slow one.
	if l := out[1][4].Latency(); l > 15*time.Millisecond {
		t.Errorf("fast lane op waited %v behind the slow lane", l)
	}
}
