package cluster

import (
	"hash/fnv"
	"time"
)

// requeueJitter is the share of a requeue backoff the coordinator may
// shave off; retryJitter is the worker's for protocol retries.
const (
	requeueJitter = 0.2
	retryJitter   = 0.5
)

// backoff is the wait before retry n (n >= 1): base << (n-1) clamped to
// max, less a jitter01(parts...) share of up to frac. The exponent is
// checked before shifting because a large n would wrap the shift to a
// small positive duration that no range check afterwards catches. The
// jitter only subtracts, so the wait never exceeds max while a batch of
// retries started together still fans out.
func backoff(base, max time.Duration, n int, frac float64, parts ...string) time.Duration {
	d := max
	if shift := n - 1; shift < 63 && base<<shift>>shift == base {
		d = base << shift
	}
	if d > max || d <= 0 {
		d = max
	}
	return d - time.Duration(float64(d)*frac*jitter01(parts...))
}

// jitter01 maps its parts to a pseudo-uniform fraction in [0, 1). It is
// a hash, not a random stream, on purpose: concurrent callers cannot
// perturb each other's draws, so the jitter applied to (item, attempt)
// or (worker, path, attempt) is identical across runs no matter how
// goroutines interleave — which keeps chaos soaks reproducible while
// still de-synchronizing retries within one run.
func jitter01(parts ...string) float64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	// Keep the top 53 bits: the widest integer a float64 holds exactly.
	return float64(h.Sum64()>>11) / float64(1<<53)
}
