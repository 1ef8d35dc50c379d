package attack

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mmu"
)

// NewDedupChannel builds the covert channel over the paper's second
// source of exploitable shared memory: memory deduplication. The two
// colluding processes fill anonymous private pages with identical
// (pre-agreed) content; the KSM daemon merges them into shared,
// write-protected frames; the E/S channel then runs over the merged
// lines exactly as over a shared library.
func NewDedupChannel(cfg core.Config, capacityBits int) (*Channel, error) {
	pt, err := newParties(cfg, capacityBits)
	if err != nil {
		return nil, err
	}
	ch := pt.channel()
	ch.senderBase = pt.p.MmapAnon(pt.length)
	ch.receiverBase = pt.q.MmapAnon(pt.length)

	// Both processes fill their pages with the same pre-agreed content.
	for pg := 0; pg <= pt.pages; pg++ {
		content := 0xDED0_0000 + uint64(pg)
		if err := pt.p.AS.WritePage(ch.senderBase+mmu.VAddr(pg)*mmu.PageSize, content); err != nil {
			return nil, err
		}
		if err := pt.q.AS.WritePage(ch.receiverBase+mmu.VAddr(pg)*mmu.PageSize, content); err != nil {
			return nil, err
		}
	}
	// The KSM daemon merges and write-protects; stale writable TLB
	// entries are shot down (as write_protect_page does via the kernel).
	if merged := pt.m.KSM.Scan(); merged < pt.pages {
		return nil, fmt.Errorf("attack: KSM merged only %d of %d pages", merged, pt.pages)
	}
	ch.senderA.DTLB.Flush()
	ch.senderB.DTLB.Flush()
	ch.receiver.DTLB.Flush()
	return ch, nil
}
