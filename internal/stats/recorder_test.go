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
		if none.Campaigns() != nil {
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
			_ = rec.Campaigns()
		}()
	}
	wg.Wait()
	sums := rec.Campaigns()
	if len(sums) != n {
		t.Fatalf("recorded %d campaigns, want %d", len(sums), n)
	}
	sums[0].Label = "mutated"
	if rec.Campaigns()[0].Label == "mutated" {
		t.Error("Campaigns returned the recorder's own slice")
	}
}
