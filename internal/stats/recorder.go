package stats

import (
	"context"
	"sync"
)

// Recorder is one run's accounting, carried on the run's
// context.Context: the campaign pool size going in, and the campaign
// summaries coming out. Every campaign under that context reports into
// it, so runs on separate recorders never see each other's numbers,
// however they overlap. A run without one uses runtime.NumCPU()
// workers, and a nil *Recorder retains nothing. The methods are safe for
// concurrent use.
type Recorder struct {
	// Workers is the campaign pool size; 0 means runtime.NumCPU(). Set
	// it before the run starts.
	Workers int

	mu        sync.Mutex
	campaigns []CampaignSummary
}

type recorderKey struct{}

// WithRecorder returns a copy of ctx that carries r.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, r)
}

// RecorderFrom returns the recorder ctx carries, or nil when ctx is nil
// or carries none.
func RecorderFrom(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(recorderKey{}).(*Recorder)
	return r
}

// RecordCampaign appends one campaign's summary.
func (r *Recorder) RecordCampaign(s CampaignSummary) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.campaigns = append(r.campaigns, s)
	r.mu.Unlock()
}

// Campaigns returns the recorded campaign summaries in completion order.
func (r *Recorder) Campaigns() []CampaignSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]CampaignSummary(nil), r.campaigns...)
}

// TakeFastPaths does nothing: every access takes the event path, so there
// is no fast-path split to take. It remains only because benchmark/sim.go,
// which the repository benchmark builds from this tree, still calls it;
// delete it together with that call in the next change to the benchmark.
func TakeFastPaths() {}
