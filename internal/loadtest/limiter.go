package loadtest

import (
	"time"
)

// Limiter is a token-bucket rate limiter used to pace connection attempts
// (ctraffic's -rate knob applied to the harness's own actions rather than
// the bots' in-protocol command streams, which pace themselves). It takes
// explicit clock readings so edge cases — rate 0, burst 1, a clock stepping
// backwards — are table-testable without sleeping.
//
// A Limiter is not safe for concurrent use; the harness serializes access.
type Limiter struct {
	rate   float64 // tokens per second; <= 0 means unlimited
	burst  float64
	tokens float64
	last   time.Time
	primed bool
}

// NewLimiter creates a limiter minting rate tokens per second with the
// given burst capacity. The bucket starts full. rate <= 0 disables limiting
// entirely (Allow always succeeds); burst < 1 is clamped to 1.
func NewLimiter(rate float64, burst int) *Limiter {
	if burst < 1 {
		burst = 1
	}
	return &Limiter{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

// advance refills the bucket for the time elapsed since the last call. A
// clock reading earlier than the previous one (skew, suspend/resume, a
// stepped NTP adjustment) mints nothing and resets the reference point, so
// skew can delay tokens but never mint them.
func (l *Limiter) advance(now time.Time) {
	if !l.primed {
		l.primed = true
		l.last = now
		return
	}
	if now.Before(l.last) {
		l.last = now
		return
	}
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
}

// Allow reports whether an event may proceed at time now, consuming one
// token when it does.
func (l *Limiter) Allow(now time.Time) bool {
	if l.rate <= 0 {
		return true
	}
	l.advance(now)
	if l.tokens >= 1 {
		l.tokens--
		return true
	}
	return false
}

// Delay returns how long after now the next token becomes available (zero
// when Allow would already succeed). It does not consume the token.
func (l *Limiter) Delay(now time.Time) time.Duration {
	if l.rate <= 0 {
		return 0
	}
	l.advance(now)
	if l.tokens >= 1 {
		return 0
	}
	return time.Duration((1 - l.tokens) / l.rate * float64(time.Second))
}
