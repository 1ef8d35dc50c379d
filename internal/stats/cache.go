package stats

import (
	"fmt"
	"sync/atomic"
)

// CacheStats are the result-cache and singleflight counters behind
// swiftdir-serve's /statsz endpoint. All fields are atomic so the
// cache's hit path and the server's request handlers update them without
// a lock; Snapshot gives a consistent-enough point-in-time copy for
// reporting (each counter is read atomically, the set is not fenced —
// these are observability numbers, not invariants).
type CacheStats struct {
	Hits       atomic.Uint64 // Get served from memory or verified disk
	Misses     atomic.Uint64 // Get found nothing servable
	Dedups     atomic.Uint64 // singleflight waiters that shared a leader's run
	Runs       atomic.Uint64 // underlying experiment executions started
	Evictions  atomic.Uint64 // LRU entries dropped from memory
	Corrupt    atomic.Uint64 // disk entries rejected by hash verification
	DiskErrors atomic.Uint64 // disk reads/writes that failed and degraded
	Inflight   atomic.Int64  // requests currently resolving (gauge)
}

// CacheSnapshot is one point-in-time reading of CacheStats, in the wire
// shape /statsz marshals.
type CacheSnapshot struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Dedups     uint64 `json:"dedups"`
	Runs       uint64 `json:"runs"`
	Evictions  uint64 `json:"evictions"`
	Corrupt    uint64 `json:"corrupt"`
	DiskErrors uint64 `json:"disk_errors"`
	Inflight   int64  `json:"inflight"`
}

// Snapshot reads every counter.
func (c *CacheStats) Snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits:       c.Hits.Load(),
		Misses:     c.Misses.Load(),
		Dedups:     c.Dedups.Load(),
		Runs:       c.Runs.Load(),
		Evictions:  c.Evictions.Load(),
		Corrupt:    c.Corrupt.Load(),
		DiskErrors: c.DiskErrors.Load(),
		Inflight:   c.Inflight.Load(),
	}
}

// HitRate returns hits/(hits+misses), 0 before any lookup.
func (s CacheSnapshot) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Footer renders the one-line cache accounting (the CLI/log sibling of
// the campaign footer).
func (s CacheSnapshot) Footer() string {
	return fmt.Sprintf("[cache] %d hits, %d misses (%.1f%% hit rate), %d deduped, %d runs, %d evicted, %d corrupt, %d disk errors",
		s.Hits, s.Misses, 100*s.HitRate(), s.Dedups, s.Runs, s.Evictions, s.Corrupt, s.DiskErrors)
}
