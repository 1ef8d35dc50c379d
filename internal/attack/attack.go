// Package attack implements the E/S coherence timing-channel attacks the
// paper defends against (Yao et al., HPCA'18, as summarized in §II-B):
//
//   - a covert channel in which a sender process modulates secret bits
//     into the coherence state of shared (write-protected) cache lines —
//     Exclusive for 1, Shared for 0 — and a receiver decodes them by
//     timing its own loads: a three-hop E-state service is measurably
//     slower than a two-hop S-state LLC service;
//
//   - a side channel in which an attacker infers whether a victim
//     accessed a shared line within an interval, by priming the line into
//     E and probing whether it degraded to S.
//
// Both channels are built strictly from read operations on shared memory
// established through a shared library mapping, exactly as the threat
// model prescribes. Against SwiftDir (and S-MESI) the measured latency is
// the constant LLC round trip regardless of prior accesses, so decoding
// degenerates to guessing.
package attack

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/sim"
)

// linesPerPage is how many cache lines of each 4 KB page carry payload
// bits; line 0 of every page is reserved for warming the receiver's TLB
// so that translation costs never pollute the timing measurement.
const (
	lineSize     = 64
	linesPerPage = mmu.PageSize/lineSize - 1
)

// Channel is a configured covert channel across two colluding processes.
type Channel struct {
	m *core.Machine

	// Sender threads on two cores (thread B creates the S state).
	senderA, senderB *core.Context
	// Receiver thread on a third core.
	receiver *core.Context

	senderBase, receiverBase mmu.VAddr

	// fetch sends and probes with instruction fetches instead of data
	// loads (NewTextChannel).
	fetch bool

	// Threshold separating "fast" (LLC, S) from "slow" (remote, E)
	// loads, placed midway between the two calibrated service times.
	Threshold sim.Cycle

	// thresholds, when set, overrides Threshold per payload line (see
	// SetThresholds). On a mesh the LLC-served latency of a line depends
	// on the receiver-to-home-bank distance, so one global cut-off
	// misclassifies distant lines; a calibrating attacker measures each
	// line's baseline first.
	thresholds []sim.Cycle
}

// SetThresholds installs per-line decision thresholds — typically from
// CalibrateThresholds on an identically configured machine — overriding
// the global Threshold for lines i < len(t).
func (c *Channel) SetThresholds(t []sim.Cycle) { c.thresholds = t }

// parties is the setup every channel of this package shares: a fresh
// machine with two processes, the first running threads on cores 0 and 1
// and the second one thread on core 2.
type parties struct {
	m          *core.Machine
	p, q       *core.Process
	p0, p1, q2 *core.Context

	// pages is the number of pages holding capacity payload lines, and
	// length the bytes of a mapping of them plus one page.
	pages, length int
	// threshold sits midway between the LLC-served (S) and the
	// three-hop (E) load latency.
	threshold sim.Cycle
}

func newParties(cfg core.Config, capacity int) (parties, error) {
	if cfg.Cores < 3 {
		return parties{}, fmt.Errorf("attack: channel needs >=3 cores, have %d", cfg.Cores)
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return parties{}, err
	}
	pages := (capacity + linesPerPage - 1) / linesPerPage
	p, q := m.NewProcess(), m.NewProcess()
	return parties{
		m: m, p: p, q: q,
		p0: p.AttachContext(0), p1: p.AttachContext(1), q2: q.AttachContext(2),
		pages:     pages,
		length:    (pages + 1) * mmu.PageSize,
		threshold: (cfg.Timing.LLCLoadLatency() + cfg.Timing.RemoteLoadLatency()) / 2,
	}, nil
}

// channel returns the covert channel of the parties: the first process
// sends, the second receives. The caller maps the shared region.
func (pt parties) channel() *Channel {
	return &Channel{m: pt.m, senderA: pt.p0, senderB: pt.p1, receiver: pt.q2, Threshold: pt.threshold}
}

// NewChannel builds the covert channel on a fresh machine with the given
// protocol, over a shared library mapped into both processes. The
// machine needs at least 3 cores (one per colluding thread role);
// capacity is the number of bits transmittable before lines run out.
func NewChannel(cfg core.Config, capacityBits int) (*Channel, error) {
	return newLibraryChannel(cfg, capacityBits, mmu.NewFile("libshared.so", 0x11B), false)
}

// NewTextChannel builds the covert channel over instruction fetches of
// shared library CODE rather than data loads. Library text is mapped
// PROT_READ|PROT_EXEC / MAP_SHARED — write-protected — and instruction
// cache lines are coherent peers of the hierarchy, so executing
// (fetching) a library function drives the same E/S state machine the
// data channel exploits. SwiftDir's GETS_WP applies to instruction
// fetches unchanged: text lines are pinned in S and the fetch-timing
// channel closes with the same constant LLC latency. Its results are
// labelled "<protocol>/ifetch".
func NewTextChannel(cfg core.Config, capacityBits int) (*Channel, error) {
	return newLibraryChannel(cfg, capacityBits, mmu.NewFile("libcrypto.so.text", 0x7E), true)
}

func newLibraryChannel(cfg core.Config, capacityBits int, lib *mmu.File, fetch bool) (*Channel, error) {
	pt, err := newParties(cfg, capacityBits)
	if err != nil {
		return nil, err
	}
	ch := pt.channel()
	ch.fetch = fetch
	ch.senderBase = pt.p.MmapLibrary(lib, pt.length)
	ch.receiverBase = pt.q.MmapLibrary(lib, pt.length)
	return ch, nil
}

// lineAddr returns the virtual address of payload line i within base's
// mapping, skipping line 0 of each page (the TLB-warming line).
func lineAddr(base mmu.VAddr, i int) mmu.VAddr {
	page := i / linesPerPage
	line := i%linesPerPage + 1
	return base + mmu.VAddr(page*mmu.PageSize+line*lineSize)
}

// pageAddr returns the warming line of payload index i's page.
func pageAddr(base mmu.VAddr, i int) mmu.VAddr {
	return base + mmu.VAddr((i/linesPerPage)*mmu.PageSize)
}

// read runs one synchronous read of v by ctx: a data load, or an
// instruction fetch on a fetch channel.
func (c *Channel) read(ctx *core.Context, v mmu.VAddr) (coherence.AccessResult, error) {
	if c.fetch {
		return ctx.FetchSync(v)
	}
	return ctx.AccessSync(v, false, 0)
}

// Transmit encodes one bit into line i's coherence state:
//
//	bit 1: a single cold access from sender thread A (state E under MESI)
//	bit 0: accesses from both sender threads (state S)
func (c *Channel) Transmit(i int, bit bool) error {
	if _, err := c.read(c.senderA, lineAddr(c.senderBase, i)); err != nil {
		return err
	}
	if !bit {
		if _, err := c.read(c.senderB, lineAddr(c.senderBase, i)); err != nil {
			return err
		}
	}
	return nil
}

// Probe times the receiver's read of line i and decodes the bit. The
// receiver first touches the page's warming line so the payload
// measurement is a pure cache-coherence latency.
func (c *Channel) Probe(i int) (bit bool, latency sim.Cycle, err error) {
	if _, err := c.read(c.receiver, pageAddr(c.receiverBase, i)); err != nil {
		return false, 0, err
	}
	r, err := c.read(c.receiver, lineAddr(c.receiverBase, i))
	if err != nil {
		return false, 0, err
	}
	th := c.Threshold
	if i < len(c.thresholds) {
		th = c.thresholds[i]
	}
	return r.Latency > th, r.Latency, nil
}

// CalibrateThresholds plays the calibrating attacker's warm-up: on a
// throwaway machine with the same configuration it transmits an all-zero
// pattern and times every probe, yielding each line's S-state (LLC-
// served) baseline. The returned per-line thresholds sit half the E/S
// service gap above that baseline, so a subsequent run on a fresh,
// identically configured machine decodes each line against its own
// distance-dependent floor. The simulator is deterministic, which makes
// the throwaway machine a perfect stand-in — on real hardware the same
// pass costs the attacker one extra scan of the mapped library.
func CalibrateThresholds(cfg core.Config, nBits int) ([]sim.Cycle, error) {
	ch, err := NewChannel(cfg, nBits)
	if err != nil {
		return nil, err
	}
	half := (cfg.Timing.RemoteLoadLatency() - cfg.Timing.LLCLoadLatency()) / 2
	th := make([]sim.Cycle, nBits)
	for i := range th {
		if err := ch.Transmit(i, false); err != nil {
			return nil, err
		}
		_, lat, err := ch.Probe(i)
		if err != nil {
			return nil, err
		}
		th[i] = lat + half
	}
	return th, nil
}

// Result summarizes a covert-channel run.
type Result struct {
	Protocol     string
	Bits         int
	Errors       int
	BER          float64 // bit error rate
	MeanLatency1 float64 // receiver latency when '1' was sent
	MeanLatency0 float64 // receiver latency when '0' was sent
	Gap          float64 // MeanLatency1 - MeanLatency0 (the E/S channel)
	Leaked       bool    // channel usable (BER well below guessing)
	Latencies1   []sim.Cycle
	Latencies0   []sim.Cycle

	// Throughput: simulated cycles consumed end to end (sender encode +
	// receiver decode) and the implied leak rate on the paper's 3 GHz
	// clock (compare with the 700~1,100 Kbps reported for real Xeons).
	TotalCycles  sim.Cycle
	CyclesPerBit float64
}

// KbpsAt reports the channel's leak rate in kilobits per second for a
// clock of ghz gigahertz, counting only correctly transferred bits.
func (r Result) KbpsAt(ghz float64) float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	goodBits := float64(r.Bits - r.Errors)
	seconds := float64(r.TotalCycles) / (ghz * 1e9)
	return goodBits / seconds / 1e3
}

// Run transmits bits (generated from seed) and decodes them, returning
// the bit error rate and the observed E/S latency gap.
func (c *Channel) Run(nBits int, seed uint64) (Result, error) {
	rng := sim.NewRNG(seed)
	res := Result{Protocol: c.m.Cfg.Protocol.Name(), Bits: nBits}
	if c.fetch {
		res.Protocol += "/ifetch"
	}
	var sum1, sum0 float64
	var n1, n0 int
	start := c.m.Now()
	for i := 0; i < nBits; i++ {
		sent := rng.Bool(0.5)
		if err := c.Transmit(i, sent); err != nil {
			return res, err
		}
		got, lat, err := c.Probe(i)
		if err != nil {
			return res, err
		}
		if got != sent {
			res.Errors++
		}
		if sent {
			sum1 += float64(lat)
			n1++
			res.Latencies1 = append(res.Latencies1, lat)
		} else {
			sum0 += float64(lat)
			n0++
			res.Latencies0 = append(res.Latencies0, lat)
		}
	}
	if n1 > 0 {
		res.MeanLatency1 = sum1 / float64(n1)
	}
	if n0 > 0 {
		res.MeanLatency0 = sum0 / float64(n0)
	}
	res.BER = float64(res.Errors) / float64(nBits)
	res.Gap = res.MeanLatency1 - res.MeanLatency0
	res.Leaked = res.BER < 0.25
	res.TotalCycles = c.m.Now() - start
	res.CyclesPerBit = float64(res.TotalCycles) / float64(nBits)
	return res, nil
}

// Describe renders the result for reports.
func (r Result) Describe() string {
	status := "CHANNEL CLOSED (decoding is guessing)"
	if r.Leaked {
		status = "CHANNEL OPEN (secret leaks)"
	}
	return fmt.Sprintf(
		"%-9s bits=%d errors=%d BER=%.3f  latency(sent 1)=%.1f cyc  latency(sent 0)=%.1f cyc  gap=%.1f cyc  => %s",
		r.Protocol, r.Bits, r.Errors, r.BER, r.MeanLatency1, r.MeanLatency0, r.Gap, status)
}
