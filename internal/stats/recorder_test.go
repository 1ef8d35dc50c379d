package stats

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// A context carries its recorder to every callee; a nil context and a
// bare context both read as "no recorder", and a nil recorder retains
// nothing.
func TestRecorderOnContext(t *testing.T) {
	rec := &Recorder{Workers: 3}
	ctx := WithRecorder(context.Background(), rec)
	child, cancel := context.WithCancel(ctx)
	defer cancel()
	if RecorderFrom(child) != rec {
		t.Fatal("child context lost the recorder")
	}

	for _, c := range []context.Context{nil, context.Background()} {
		none := RecorderFrom(c)
		if none != nil {
			t.Fatalf("RecorderFrom(%v) = %v, want nil", c, none)
		}
		none.RecordCampaign(CampaignSummary{Label: "x"})
		none.RecordFastPath(FastPathSummary{Label: "x"})
		if none.Campaigns() != nil || none.FastPaths() != nil {
			t.Error("nil recorder retained something")
		}
	}
}

// Campaign workers record from many goroutines at once; every entry
// lands, and the returned slices are copies the caller may keep.
func TestRecorderConcurrentRecords(t *testing.T) {
	rec := &Recorder{}
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			label := fmt.Sprint(i)
			rec.RecordCampaign(CampaignSummary{Label: label})
			rec.RecordFastPath(FastPathSummary{Label: label, Fast: 1})
			_ = rec.Campaigns()
			_ = rec.FastPaths()
		}()
	}
	wg.Wait()
	sums, fps := rec.Campaigns(), rec.FastPaths()
	if len(sums) != n || len(fps) != n {
		t.Fatalf("recorded %d campaigns and %d splits, want %d each", len(sums), len(fps), n)
	}
	fps[0].Label = "mutated"
	if rec.FastPaths()[0].Label == "mutated" {
		t.Error("FastPaths returned the recorder's own slice")
	}
	if MergeFastPaths("all", fps).Fast != n {
		t.Error("a split went missing")
	}
}
