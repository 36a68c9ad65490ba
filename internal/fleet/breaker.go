package fleet

import (
	"sync"
	"time"
)

// BreakerState is the lifecycle position of one node's circuit breaker.
type BreakerState int

// The three breaker states: Closed passes traffic, Open sheds it, and
// HalfOpen admits a single probe after the cooldown.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state for /metrics and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breaker is a consecutive-failure circuit breaker guarding one node:
// threshold consecutive failures open it, the cooldown later it admits
// exactly one probe (half-open), and the probe's outcome closes or
// reopens it. It exists so a dead replica costs the router one connection
// timeout per cooldown instead of one per request.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu          sync.Mutex
	state       BreakerState
	consecutive int
	openedAt    time.Time
	opens       uint64
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// Allow reports whether a request may be sent to the node right now. In
// the open state it transitions to half-open — and admits the caller as
// the probe — once the cooldown has elapsed.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	default: // half-open: the probe is already in flight
		return false
	}
}

// ready reports whether Allow would admit a request now, without the
// open → half-open transition, so a picker ranking candidates does not
// spend the single probe on a node it then passes over.
func (b *breaker) ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == BreakerClosed || (b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cooldown)
}

// Success records a served request, closing the breaker.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.consecutive = 0
}

// Failure records a failed request. A half-open probe failure reopens
// immediately; otherwise the breaker opens at the consecutive-failure
// threshold.
func (b *breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.state == BreakerHalfOpen || b.consecutive >= b.threshold {
		if b.state != BreakerOpen {
			b.opens++
		}
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.consecutive = 0
	}
}

// State returns the current state without side effects (no open →
// half-open transition), plus how often the breaker has opened.
func (b *breaker) State() (BreakerState, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens
}
