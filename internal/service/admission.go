package service

import (
	"math"
	"sync"
	"time"
)

// tokenBucket is the ingest admission meter: a classic leaky bucket refilled
// continuously at rate tokens/sec up to burst. It exists so one tenant
// flooding POST /v1/telemetry cannot monopolise the shared training pool's
// input or the HTTP server's goroutine budget — the flood is shed at the
// door with 429 while other tenants' admission state is untouched (each
// server owns its own bucket).
//
// Implemented locally rather than importing a limiter because the repo is
// stdlib-only; the math is the standard refill-on-read formulation.
type tokenBucket struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	return &tokenBucket{rate: rate, burst: burst, tokens: burst}
}

// take spends one token. On refusal it returns the whole seconds until one
// token accrues, rounded up — the Retry-After the shed response carries.
func (b *tokenBucket) take(now time.Time) (ok bool, retryAfter int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	return false, int(math.Ceil(deficit / b.rate))
}
