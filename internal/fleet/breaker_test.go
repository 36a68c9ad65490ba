package fleet

import (
	"testing"
	"time"
)

// TestBreakerLifecycle walks the closed → open → half-open → closed loop
// on a fake clock.
func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(3, time.Second, func() time.Time { return now })

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Failure()
	}
	if st, _ := b.State(); st != BreakerClosed {
		t.Fatalf("state %v after 2/3 failures, want closed", st)
	}
	b.Failure()
	if st, opens := b.State(); st != BreakerOpen || opens != 1 {
		t.Fatalf("state %v opens %d after threshold, want open/1", st, opens)
	}
	if b.Allow() {
		t.Fatal("open breaker passed traffic before cooldown")
	}

	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// A failed probe reopens immediately (no threshold accumulation).
	b.Failure()
	if st, opens := b.State(); st != BreakerOpen || opens != 2 {
		t.Fatalf("state %v opens %d after failed probe, want open/2", st, opens)
	}

	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the second probe")
	}
	b.Success()
	if st, _ := b.State(); st != BreakerClosed {
		t.Fatalf("state %v after successful probe, want closed", st)
	}
	if !b.Allow() {
		t.Fatal("recovered breaker refused traffic")
	}
}

// TestBreakerSuccessResetsStreak proves interleaved successes keep the
// breaker closed: only consecutive failures open it.
func TestBreakerSuccessResetsStreak(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(2, time.Second, func() time.Time { return now })
	for i := 0; i < 10; i++ {
		b.Failure()
		b.Success()
	}
	if st, opens := b.State(); st != BreakerClosed || opens != 0 {
		t.Fatalf("state %v opens %d after alternating outcomes, want closed/0", st, opens)
	}
}

// TestPickSpendsProbeOnlyOnChosenNode pins that ranking candidates does
// not consume a half-open breaker's single probe: a cooled-down node the
// picker passes over stays open (probe still available) instead of being
// stuck half-open with no probe ever sent.
func TestPickSpendsProbeOnlyOnChosenNode(t *testing.T) {
	now := time.Unix(0, 0)
	rt, err := NewRouter([]NodeConfig{{URL: "http://a"}, {URL: "http://b"}, {URL: "http://c"}},
		Options{BreakerThreshold: 1, BreakerCooldown: time.Second, Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	sick := rt.nodes[1]
	sick.breaker.Failure()
	now = now.Add(2 * time.Second)

	probed := false
	for i := 0; i < 3*len(rt.nodes); i++ {
		n := rt.pick(map[*node]bool{}, -1)
		st, _ := sick.breaker.State()
		switch {
		case n == sick:
			if probed {
				t.Fatal("picked the half-open node again while its probe is in flight")
			}
			if st != BreakerHalfOpen {
				t.Fatalf("probe sent with the breaker %v", st)
			}
			probed = true
		case !probed && st != BreakerOpen:
			t.Fatalf("passing over the cooled-down node left its breaker %v", st)
		}
	}
	if !probed {
		t.Fatal("the cooled-down node never got its probe")
	}
}
