package resultcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/stats"
)

// Entry is one memoized experiment execution. Report is the
// deterministic artifact — the exact bytes a fresh run would render.
// Wall is the producing run's compute time, the number a hit saves.
type Entry struct {
	Key    Key
	Report []byte
	Wall   time.Duration
}

// Cache is the content-addressed store: a bounded LRU of entries in
// memory, optionally backed by a directory of hash-verified JSON files.
// All methods are safe for concurrent use. The memory hit path takes one
// mutex and allocates nothing.
type Cache struct {
	stats *stats.CacheStats
	logf  func(format string, args ...any)

	mu      sync.Mutex
	max     int
	entries map[ID]*list.Element // -> *Entry elements in lru
	lru     *list.List           // front = most recently used
	dir     string               // "" after a disk failure: memory-only
}

// New builds a cache holding at most maxEntries in memory (minimum 1),
// persisting to dir when non-empty. A dir that cannot be created demotes
// the cache to memory-only with a logged warning — construction never
// fails, because the cache must degrade to compute-through rather than
// take the service down. st must be non-nil when the caller wants
// counters; nil gets a private set. logf defaults to a stderr logger.
func New(maxEntries int, dir string, st *stats.CacheStats, logf func(string, ...any)) *Cache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	if st == nil {
		st = &stats.CacheStats{}
	}
	if logf == nil {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "resultcache: "+format+"\n", args...)
		}
	}
	c := &Cache{
		stats:   st,
		logf:    logf,
		max:     maxEntries,
		entries: make(map[ID]*list.Element, maxEntries),
		lru:     list.New(),
		dir:     dir,
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			c.stats.DiskErrors.Add(1)
			c.logf("cache dir %s unusable (%v); degrading to memory-only compute-through", dir, err)
			c.dir = ""
		}
	}
	return c
}

// Stats returns the counter set the cache reports into.
func (c *Cache) Stats() *stats.CacheStats { return c.stats }

// Get returns the entry stored under id. Memory hits are O(1) and
// allocation-free; on a memory miss the disk tier is probed and a
// verified entry is promoted into memory. Every return of (nil, false)
// has already counted a miss.
func (c *Cache) Get(id ID) (*Entry, bool) {
	c.mu.Lock()
	if el, ok := c.entries[id]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.stats.Hits.Add(1)
		return el.Value.(*Entry), true
	}
	dir := c.dir
	c.mu.Unlock()

	if dir != "" {
		if e := c.readDisk(dir, id); e != nil {
			c.insert(id, e)
			c.stats.Hits.Add(1)
			return e, true
		}
	}
	c.stats.Misses.Add(1)
	return nil, false
}

// Put stores e in memory and, when a disk tier is configured, persists
// it. Disk write failures degrade the store to memory-only with one
// logged warning; the entry stays servable from memory either way.
func (c *Cache) Put(e *Entry) {
	id := e.Key.ID()
	c.insert(id, e)
	c.mu.Lock()
	dir := c.dir
	c.mu.Unlock()
	if dir == "" {
		return
	}
	if err := c.writeDisk(dir, id, e); err != nil {
		c.stats.DiskErrors.Add(1)
		c.logf("persist %s: %v; degrading to memory-only compute-through", id, err)
		c.mu.Lock()
		c.dir = ""
		c.mu.Unlock()
	}
}

// Len reports the in-memory entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

func (c *Cache) insert(id ID, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[id]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.entries[id] = c.lru.PushFront(e)
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		victim := back.Value.(*Entry)
		c.lru.Remove(back)
		delete(c.entries, victim.Key.ID())
		c.stats.Evictions.Add(1)
	}
}

// envelope is the on-disk JSON frame. Digest is the SHA-256 of the
// report bytes; together with the file name (the key's ID) it makes
// reads self-verifying: a flipped bit in either the key block or the
// report fails verification and the entry is treated as a miss. WallNS
// is informational and unverified. Unknown fields, such as the footer
// text older builds stored, are ignored.
type envelope struct {
	Key    Key    `json:"key"`
	Digest string `json:"report_sha256"`
	Report string `json:"report"`
	WallNS int64  `json:"wall_ns"`
}

func (c *Cache) path(dir string, id ID) string {
	return filepath.Join(dir, id.String()+".json")
}

// readDisk loads and verifies one entry; any failure (unreadable,
// unparsable, digest mismatch, key mismatch) counts and returns nil. A
// corrupt file is deleted so it cannot fail verification forever.
func (c *Cache) readDisk(dir string, id ID) *Entry {
	path := c.path(dir, id)
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.stats.DiskErrors.Add(1)
			c.logf("read %s: %v", path, err)
		}
		return nil
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		c.discardCorrupt(path, fmt.Sprintf("unparsable: %v", err))
		return nil
	}
	sum := sha256.Sum256([]byte(env.Report))
	if hex.EncodeToString(sum[:]) != env.Digest {
		c.discardCorrupt(path, "report digest mismatch")
		return nil
	}
	if env.Key.ID() != id {
		c.discardCorrupt(path, "key digest mismatch")
		return nil
	}
	return &Entry{Key: env.Key, Report: []byte(env.Report), Wall: time.Duration(env.WallNS)}
}

// discardCorrupt counts, warns, and removes a failed-verification file.
func (c *Cache) discardCorrupt(path, why string) {
	c.stats.Corrupt.Add(1)
	c.logf("corrupt cache entry %s (%s): treating as miss", path, why)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		c.stats.DiskErrors.Add(1)
	}
}

// writeDisk persists one entry atomically (temp file + rename) so a
// crash mid-write leaves either the old entry or none — never a torn
// file that must rely on digest verification alone.
func (c *Cache) writeDisk(dir string, id ID, e *Entry) error {
	sum := sha256.Sum256(e.Report)
	env := envelope{
		Key:    e.Key,
		Digest: hex.EncodeToString(sum[:]),
		Report: string(e.Report),
		WallNS: e.Wall.Nanoseconds(),
	}
	raw, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(raw, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.path(dir, id)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
