package core

// RateLimit is a deterministic token-bucket admission stage: the bucket
// refills by RatePerTick tokens per simulation tick up to Burst, and
// every arrival reaching the admission controller consumes one token.
// An arrival finding the bucket empty is DEFERRED, not dropped — it goes
// back into the lifecycle deferral queue and retries next tick, so a
// burst storm is smeared over the refill rate instead of rejected (only
// the deferral deadline, lifecycle.DefaultMaxDeferTicks, can turn
// starvation into a rejection). Refill is driven by virtual ticks, never the wall clock,
// so rate-limited runs stay bit-identical across reruns.
//
// The zero value is unusable; set RatePerTick > 0. A RateLimit is owned
// by the single goroutine that drives the manager, like every other
// piece of admission state.
type RateLimit struct {
	// RatePerTick is the sustained admission rate in arrivals per tick.
	RatePerTick float64
	// Burst is the bucket capacity — the largest arrival burst admitted
	// at once after an idle period (0 = max(RatePerTick, 1)).
	Burst float64

	tokens   float64
	lastTick int
	primed   bool
}

// burst returns the effective bucket capacity.
func (r *RateLimit) burst() float64 {
	if r.Burst > 0 {
		return r.Burst
	}
	if r.RatePerTick > 1 {
		return r.RatePerTick
	}
	return 1
}

// Advance refills the bucket for the ticks elapsed since the last call.
// The first call primes a full bucket. Call it once per tick, before the
// tick's admission decisions.
func (r *RateLimit) Advance(tick int) {
	if !r.primed {
		r.tokens = r.burst()
		r.lastTick = tick
		r.primed = true
		return
	}
	if dt := tick - r.lastTick; dt > 0 {
		r.tokens += r.RatePerTick * float64(dt)
		if b := r.burst(); r.tokens > b {
			r.tokens = b
		}
	}
	r.lastTick = tick
}

// Take consumes one token if available and reports whether it did.
func (r *RateLimit) Take() bool {
	if !r.primed {
		r.tokens = r.burst()
		r.primed = true
	}
	if r.tokens < 1 {
		return false
	}
	r.tokens--
	return true
}
