package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

func testKey(t *testing.T, name string, p experiments.Params) Key {
	t.Helper()
	k, err := NewKey(name, p)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func testEntry(t *testing.T, name, report string) *Entry {
	t.Helper()
	return &Entry{
		Key:    testKey(t, name, experiments.Params{}),
		Report: []byte(report),
		Wall:   123 * time.Millisecond,
	}
}

func TestKeyNormalization(t *testing.T) {
	// Knobs the experiment ignores must not fork the key: table5 consumes
	// no params at all.
	a := testKey(t, "table5", experiments.Params{})
	b := testKey(t, "table5", experiments.Params{Scale: 0.5, Bits: 64, Samples: 9})
	if a.ID() != b.ID() {
		t.Errorf("irrelevant params forked the key:\n%s\n%s", a.Canonical(), b.Canonical())
	}

	// Unset knobs resolve to the experiment's defaults: a bare fig7 spec
	// and an explicit default-scale spec are the same execution.
	c := testKey(t, "fig7", experiments.Params{})
	d := testKey(t, "fig7", experiments.Params{Scale: 0.25, Bits: 512})
	if c.ID() != d.ID() {
		t.Errorf("default resolution broken:\n%s\n%s", c.Canonical(), d.Canonical())
	}

	// Knobs the experiment does consume must fork it.
	e := testKey(t, "fig7", experiments.Params{Scale: 0.1})
	if c.ID() == e.ID() {
		t.Error("scale change did not fork the fig7 key")
	}

	// The policy set and code version are in the preimage.
	if !strings.Contains(string(c.Canonical()), `"policies":["MESI","SwiftDir","S-MESI"]`) {
		t.Errorf("canonical key missing policy set: %s", c.Canonical())
	}
	if !strings.Contains(string(c.Canonical()), `"code_version"`) {
		t.Errorf("canonical key missing code version: %s", c.Canonical())
	}

	if _, err := NewKey("fig99", experiments.Params{}); err == nil {
		t.Error("unknown experiment accepted")
	} else if !strings.Contains(err.Error(), "fig7") {
		t.Errorf("unknown-experiment error does not list the registry: %v", err)
	}
}

func TestCodeVersionForksKeys(t *testing.T) {
	k1 := testKey(t, "table5", experiments.Params{})
	if k1.CodeVersion != CodeVersion() {
		t.Fatalf("key code version %q, want the build's %q", k1.CodeVersion, CodeVersion())
	}
	k2 := k1
	k2.CodeVersion = "other-build"
	if k1.ID() == k2.ID() {
		t.Error("code version change did not fork the key")
	}
}

func TestIDRoundTrip(t *testing.T) {
	id := testKey(t, "fig6", experiments.Params{Samples: 7}).ID()
	back, err := ParseID(id.String())
	if err != nil || back != id {
		t.Fatalf("ParseID(%s) = %v, %v", id, back, err)
	}
	if _, err := ParseID("zz"); err == nil {
		t.Error("bad hex accepted")
	}
}

func TestMemoryRoundTripAndLRU(t *testing.T) {
	var st stats.CacheStats
	c := New(2, "", &st, func(string, ...any) {})
	e1 := testEntry(t, "table5", "report-1")
	e2 := testEntry(t, "fig4", "report-2")
	e3 := testEntry(t, "fig5", "report-3")

	if _, ok := c.Get(e1.Key.ID()); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(e1)
	c.Put(e2)
	got, ok := c.Get(e1.Key.ID())
	if !ok || string(got.Report) != "report-1" {
		t.Fatalf("Get e1 = %v, %v", got, ok)
	}
	// e1 is now most recent; inserting e3 must evict e2.
	c.Put(e3)
	if _, ok := c.Get(e2.Key.ID()); ok {
		t.Error("LRU victim e2 still served")
	}
	if _, ok := c.Get(e1.Key.ID()); !ok {
		t.Error("recently-used e1 evicted")
	}
	s := st.Snapshot()
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if s.Hits != 2 || s.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2", s.Hits, s.Misses)
	}
}

func TestDiskPersistenceAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	e := testEntry(t, "table5", "persistent report\nline 2\n")
	New(4, dir, nil, func(string, ...any) {}).Put(e)

	// A fresh cache (cold memory) must serve the verified disk entry.
	var st stats.CacheStats
	c2 := New(4, dir, &st, func(string, ...any) {})
	got, ok := c2.Get(e.Key.ID())
	if !ok {
		t.Fatal("disk entry not served")
	}
	if string(got.Report) != string(e.Report) || got.Wall != e.Wall {
		t.Fatalf("disk round trip mangled the entry: %+v", got)
	}
	if st.Snapshot().Hits != 1 {
		t.Errorf("disk hit not counted")
	}
	// The promoted entry now hits memory without touching disk.
	os.RemoveAll(dir)
	if _, ok := c2.Get(e.Key.ID()); !ok {
		t.Error("promoted entry not in memory")
	}
}

// Entries written by builds whose envelope still carried the "sidecar"
// accounting field read as verified hits: the digest never covered it.
func TestLegacySidecarEnvelopeIsAHit(t *testing.T) {
	dir := t.TempDir()
	e := testEntry(t, "table5", "report from an older build\n")
	sum := sha256.Sum256(e.Report)
	raw, err := json.MarshalIndent(struct {
		Key     Key    `json:"key"`
		Digest  string `json:"report_sha256"`
		Report  string `json:"report"`
		Sidecar string `json:"sidecar,omitempty"`
		WallNS  int64  `json:"wall_ns"`
	}{e.Key, hex.EncodeToString(sum[:]), string(e.Report), "[campaign table5] 1 jobs on 1 workers", e.Wall.Nanoseconds()}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, e.Key.ID().String()+".json"), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	var st stats.CacheStats
	got, ok := New(4, dir, &st, func(string, ...any) {}).Get(e.Key.ID())
	if !ok || string(got.Report) != string(e.Report) || got.Wall != e.Wall {
		t.Fatalf("legacy entry: got %+v, %v; want a hit on the same report and wall", got, ok)
	}
	if s := st.Snapshot(); s.Hits != 1 || s.Corrupt != 0 {
		t.Errorf("hits/corrupt = %d/%d, want 1/0", s.Hits, s.Corrupt)
	}
}

// A flipped bit on disk must read as a miss — never as a served report.
func TestCorruptDiskEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	e := testEntry(t, "table5", "the authentic report bytes")
	New(4, dir, nil, func(string, ...any) {}).Put(e)

	path := filepath.Join(dir, e.Key.ID().String()+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the report payload.
	i := strings.Index(string(raw), "authentic")
	raw[i] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var st stats.CacheStats
	var warned []string
	c := New(4, dir, &st, func(f string, a ...any) { warned = append(warned, f) })
	if got, ok := c.Get(e.Key.ID()); ok {
		t.Fatalf("corrupt entry served: %q", got.Report)
	}
	s := st.Snapshot()
	if s.Corrupt != 1 || s.Misses != 1 {
		t.Errorf("corrupt/misses = %d/%d, want 1/1", s.Corrupt, s.Misses)
	}
	if len(warned) == 0 {
		t.Error("corruption not logged")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt file not removed")
	}

	// Recompute-and-put must repopulate a good entry.
	c.Put(e)
	c2 := New(4, dir, nil, func(string, ...any) {})
	if _, ok := c2.Get(e.Key.ID()); !ok {
		t.Error("repaired entry not served")
	}
}

// A garbled JSON frame and a key/filename mismatch are also misses.
func TestUnparsableAndMisfiledEntries(t *testing.T) {
	dir := t.TempDir()
	e := testEntry(t, "table5", "report")
	var st stats.CacheStats
	c := New(4, dir, &st, func(string, ...any) {})
	path := filepath.Join(dir, e.Key.ID().String()+".json")

	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(e.Key.ID()); ok {
		t.Fatal("unparsable entry served")
	}

	// A valid envelope filed under the wrong ID (e.g. a tampered key
	// block whose payload digest still matches) must fail the key check.
	other := testEntry(t, "fig4", "report")
	New(4, dir, nil, func(string, ...any) {}).Put(other)
	src := filepath.Join(dir, other.Key.ID().String()+".json")
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(e.Key.ID()); ok {
		t.Fatal("misfiled entry served")
	}
	if got := st.Snapshot().Corrupt; got != 2 {
		t.Errorf("corrupt count = %d, want 2", got)
	}
}

// An unusable cache directory (here: a path through a regular file,
// which fails for root and non-root alike — chmod-based permission
// denials are invisible to root, and tests may run as root) must degrade
// the cache to memory-only compute-through with a logged warning, never
// an error.
func TestUnusableDirDegradesToMemoryOnly(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var st stats.CacheStats
	var warned int
	c := New(4, filepath.Join(file, "cache"), &st, func(string, ...any) { warned++ })
	if warned == 0 {
		t.Error("degradation not logged")
	}
	if st.Snapshot().DiskErrors == 0 {
		t.Error("disk error not counted")
	}
	// The cache still works in memory.
	e := testEntry(t, "table5", "memory-only report")
	c.Put(e)
	if got, ok := c.Get(e.Key.ID()); !ok || string(got.Report) != "memory-only report" {
		t.Fatalf("memory tier broken after degradation: %v %v", got, ok)
	}
}

// A write failure after construction (directory vanishes) degrades the
// same way: the Put is served from memory, later Puts skip the disk.
func TestWriteFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	var st stats.CacheStats
	c := New(4, dir, &st, func(string, ...any) {})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, "table5", "report")
	c.Put(e)
	if _, ok := c.Get(e.Key.ID()); !ok {
		t.Error("entry lost after disk write failure")
	}
	if st.Snapshot().DiskErrors == 0 {
		t.Error("write failure not counted")
	}
}
