package feed

// BreakerState is the circuit-breaker position of one feed.
type BreakerState int

// The breaker state machine: Closed (fetching normally) opens after a
// run of consecutive failed slots; Open skips fetching entirely until the
// cooldown elapses; HalfOpen lets one trial fetch through — success
// closes the breaker, failure re-opens it for another cooldown.
const (
	Closed BreakerState = iota
	Open
	HalfOpen
)

// String renders the state for reports.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breaker is a slot-granular circuit breaker. Outcomes are recorded once
// per slot (a slot's bounded retries count as one outcome), so
// breakerTrip and breakerCooldown are both measured in slots.
type breaker struct {
	state    BreakerState
	fails    int
	openedAt int
}

// Allow reports whether the feed should attempt a fetch this slot,
// transitioning Open → HalfOpen when the cooldown has elapsed.
func (b *breaker) Allow(slot int) bool {
	if b.state == Open {
		if slot-b.openedAt >= breakerCooldown {
			b.state = HalfOpen
			return true
		}
		return false
	}
	return true
}

// Record feeds one slot-level fetch outcome into the state machine.
func (b *breaker) Record(slot int, ok bool) {
	if ok {
		b.state, b.fails = Closed, 0
		return
	}
	b.fails++
	if b.state == HalfOpen || b.fails >= breakerTrip {
		b.state, b.openedAt = Open, slot
	}
}
