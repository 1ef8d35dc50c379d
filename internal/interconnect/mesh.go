package interconnect

import (
	"fmt"

	"repro/internal/sim"
)

// MeshConfig describes a W x H 2D mesh with XY dimension-order routing.
// Every endpoint port is attached to a router; a message from src to dst
// pays the base latency plus PerHop cycles per Manhattan hop between
// their routers. With LinkOccupancy > 0 each directed inter-router link
// (and the endpoint's injection/ejection port) admits one message per
// occupancy window, so congestion queues messages and latency becomes
// load-dependent — the NoC analogue of the crossbar's port occupancy.
type MeshConfig struct {
	Ports int // number of endpoints
	W, H  int // mesh dimensions (routers = W*H)

	Latency sim.Cycle // base traversal latency per message (incl. ejection)
	PerHop  sim.Cycle // additional latency per inter-router hop

	// LinkOccupancy is the per-link (and per-endpoint-port) occupancy per
	// message. 0 models infinite bandwidth: the mesh is pure-latency.
	LinkOccupancy sim.Cycle

	// RouterOf maps each port to its router in [0, W*H). nil spreads the
	// ports evenly across the routers in port order.
	RouterOf []int

	// LinkExtra, if non-nil, returns extra hold cycles for one directed
	// link (router*4+dir) as a message crosses it at now — the mesh's
	// fault-injection hook, consulted once per link on the XY route. Like
	// the crossbar's Extra, the injected cycles flow through the per-link
	// bookkeeping, so a latency spike congests exactly one directed link
	// and per-link FIFO order is preserved: a perturbed mesh is still a
	// legal mesh. Any non-nil hook routes every message through the
	// bookkeeping even at zero occupancy, so the hook's draw sequence is
	// a deterministic function of the message sequence.
	LinkExtra func(link int, now sim.Cycle) sim.Cycle
}

// Validate checks the configuration.
func (c MeshConfig) Validate() error {
	if c.Ports <= 0 {
		return fmt.Errorf("interconnect: non-positive port count %d", c.Ports)
	}
	if c.W < 1 || c.H < 1 {
		return fmt.Errorf("interconnect: mesh dimensions %dx%d invalid", c.W, c.H)
	}
	if c.PerHop < 0 || c.Latency < 0 || c.LinkOccupancy < 0 {
		return fmt.Errorf("interconnect: negative mesh timing")
	}
	if c.RouterOf != nil {
		if len(c.RouterOf) != c.Ports {
			return fmt.Errorf("interconnect: RouterOf has %d entries for %d ports", len(c.RouterOf), c.Ports)
		}
		for p, r := range c.RouterOf {
			if r < 0 || r >= c.W*c.H {
				return fmt.Errorf("interconnect: RouterOf[%d] = %d out of range [0,%d)", p, r, c.W*c.H)
			}
		}
	}
	return nil
}

// Directed link indexes per router: east, west, south, north. A link id
// is router*4 + direction, identifying the outgoing link of that router.
const (
	linkEast = iota
	linkWest
	linkSouth
	linkNorth
	linkDirs
)

// MeshLinks returns the number of directed link ids a W x H mesh uses
// (router*4 + direction) — the id space MeshConfig.LinkExtra is keyed by
// and fault plans pin storms to.
func MeshLinks(w, h int) int { return w * h * linkDirs }

// Mesh is a W x H 2D mesh of routers with XY dimension-order routing:
// a message first travels along X to its destination column, then along
// Y — the classic deadlock-free order (no cycle in the channel dependency
// graph, and the event-driven model holds no finite buffers to exhaust).
type Mesh struct {
	eng *sim.Engine
	cfg MeshConfig

	routerOf []int

	// Per-port and per-link availability, used only when LinkOccupancy > 0.
	txFreeAt   []sim.Cycle // per-source injection-port availability
	rxFreeAt   []sim.Cycle // per-destination ejection-port availability
	linkFreeAt []sim.Cycle // per directed link (router*4+dir) availability

	// Stats
	Messages     uint64
	HopsTotal    uint64    // total inter-router hops traversed
	QueuedCycles sim.Cycle // total cycles spent beyond the unloaded latency
	MaxQueue     sim.Cycle // worst single-message queueing delay
}

// NewMesh builds a mesh over the engine.
func NewMesh(eng *sim.Engine, cfg MeshConfig) (*Mesh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Mesh{eng: eng, cfg: cfg}
	if cfg.RouterOf != nil {
		m.routerOf = cfg.RouterOf
	} else {
		m.routerOf = make([]int, cfg.Ports)
		for p := range m.routerOf {
			m.routerOf[p] = p * cfg.W * cfg.H / cfg.Ports
		}
	}
	if cfg.LinkOccupancy > 0 || cfg.LinkExtra != nil {
		m.txFreeAt = make([]sim.Cycle, cfg.Ports)
		m.rxFreeAt = make([]sim.Cycle, cfg.Ports)
		m.linkFreeAt = make([]sim.Cycle, cfg.W*cfg.H*linkDirs)
	}
	return m, nil
}

// Config returns the mesh configuration.
func (m *Mesh) Config() MeshConfig { return m.cfg }

// RouterOfPort returns the router a port is attached to.
func (m *Mesh) RouterOfPort(port int) int { return m.routerOf[port] }

// dist returns the Manhattan hop count between two routers.
func (m *Mesh) dist(a, b int) int {
	ax, ay := a%m.cfg.W, a/m.cfg.W
	bx, by := b%m.cfg.W, b/m.cfg.W
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// MinLatency returns the unloaded src -> dst latency: base latency plus
// PerHop per Manhattan hop between the endpoints' routers.
func (m *Mesh) MinLatency(src, dst int) sim.Cycle {
	return m.cfg.Latency + m.cfg.PerHop*sim.Cycle(m.dist(m.routerOf[src], m.routerOf[dst]))
}

// admit computes the absolute delivery cycle of a message entering the
// mesh now at src bound for dst, walking the XY route and updating link
// occupancy and queueing statistics. With zero link occupancy it reduces
// to now + MinLatency — the pure-latency path, which allocates nothing
// and updates no shared bookkeeping beyond the message count.
func (m *Mesh) admit(src, dst int) sim.Cycle {
	m.Messages++
	now := m.eng.Now()
	r, rd := m.routerOf[src], m.routerOf[dst]
	d := m.dist(r, rd)
	m.HopsTotal += uint64(d)
	lat := m.cfg.Latency + m.cfg.PerHop*sim.Cycle(d)
	occ := m.cfg.LinkOccupancy
	if occ == 0 && m.cfg.LinkExtra == nil {
		return now + lat
	}
	if d == 0 {
		// Same router: no inter-router link is traversed, so the message
		// contends only for the two endpoint ports — exactly the crossbar's
		// bookkeeping, which is what makes a 1x1 mesh with occupancy
		// byte-identical to an occupancy crossbar.
		start := now
		if m.txFreeAt[src] > start {
			start = m.txFreeAt[src]
		}
		if m.rxFreeAt[dst] > start {
			start = m.rxFreeAt[dst]
		}
		m.note(start - now)
		m.txFreeAt[src] = start + occ
		m.rxFreeAt[dst] = start + occ
		return start + lat
	}
	// Cross-router: inject at src, walk the XY route link by link (each
	// link serializes its messages), then eject at dst. Per-link FIFO
	// admission keeps per-port-pair delivery order monotone.
	t := now
	if m.txFreeAt[src] > t {
		t = m.txFreeAt[src]
	}
	m.txFreeAt[src] = t + occ
	x, y := r%m.cfg.W, r/m.cfg.W
	dx, dy := rd%m.cfg.W, rd/m.cfg.W
	for x != dx {
		var li int
		if x < dx {
			li = (y*m.cfg.W+x)*linkDirs + linkEast
			x++
		} else {
			li = (y*m.cfg.W+x)*linkDirs + linkWest
			x--
		}
		if m.linkFreeAt[li] > t {
			t = m.linkFreeAt[li]
		}
		hold := occ
		if f := m.cfg.LinkExtra; f != nil {
			hold += f(li, t)
		}
		m.linkFreeAt[li] = t + hold
		t += m.cfg.PerHop
	}
	for y != dy {
		var li int
		if y < dy {
			li = (y*m.cfg.W+x)*linkDirs + linkSouth
			y++
		} else {
			li = (y*m.cfg.W+x)*linkDirs + linkNorth
			y--
		}
		if m.linkFreeAt[li] > t {
			t = m.linkFreeAt[li]
		}
		hold := occ
		if f := m.cfg.LinkExtra; f != nil {
			hold += f(li, t)
		}
		m.linkFreeAt[li] = t + hold
		t += m.cfg.PerHop
	}
	if m.rxFreeAt[dst] > t {
		t = m.rxFreeAt[dst]
	}
	m.rxFreeAt[dst] = t + occ
	deliver := t + m.cfg.Latency
	m.note(deliver - now - lat)
	return deliver
}

// note records one message's queueing delay.
func (m *Mesh) note(queued sim.Cycle) {
	m.QueuedCycles += queued
	if queued > m.MaxQueue {
		m.MaxQueue = queued
	}
}

// SendEvent schedules h.Handle(p) for when the message has traversed
// src -> dst.
func (m *Mesh) SendEvent(src, dst int, h sim.Handler, p sim.Payload) {
	m.eng.ScheduleEventAt(m.admit(src, dst), h, p)
}

// MessageCount returns the number of messages admitted so far.
func (m *Mesh) MessageCount() uint64 { return m.Messages }

// AvgHops returns the mean inter-router hop count per message.
func (m *Mesh) AvgHops() float64 {
	if m.Messages == 0 {
		return 0
	}
	return float64(m.HopsTotal) / float64(m.Messages)
}

// AvgQueueing returns mean queueing delay per message beyond the
// unloaded latency.
func (m *Mesh) AvgQueueing() float64 {
	n := m.MessageCount()
	if n == 0 {
		return 0
	}
	return float64(m.QueuedCycles) / float64(n)
}
