package sim

import (
	"fmt"
	"math"
	"sort"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/noc"
)

// Tile-level pipelined batch engine. Run prices ONE inference as a
// serial critical path — the Fig. 7 latency. A spatial architecture
// additionally overlaps consecutive inferences: every SYNC-delimited
// layer section owns its own tiles, so once sample i leaves a section,
// sample i+1 can enter it, and the activations of different samples
// contend for the same NoC links. The Engine models that as a
// discrete-event pipeline: stages are the SYNC sections (service time =
// the section's tile-resident critical path, priced by the exact same
// arithmetic as Run), resources are the tile footprints of the
// compilation's placement IR and the directed mesh links (plus
// chip-egress ports) the transfers traverse. B samples stream through
// in order; the engine reports the fill latency (B = 1, bit-identical
// to Run), the makespan, the achieved throughput, and the analytic
// steady-state bound set by the busiest resource.
//
// Link traffic follows the placement: a stage's output drains from its
// shard tiles to its anchor (gather), crosses the XY route to the next
// stage's anchor — through the chip-egress corner and ChipDistance
// board links when the placement spans chips — and fans out to the
// consumer's tiles (scatter). All of a transfer's links are occupied
// for its serialization time, which is what makes sloppy layouts (and
// co-located neighbours, see engineset.go) measurably slower.
//
// The engine is the inner loop of placement search and online serving,
// so its scheduling state is built for reuse: every interconnect
// resource gets a dense index into one shared span arena (no map
// lookups on the hot path, reset is a length truncation), bookings use
// an append-mostly calendar (samples book in near-monotone order), the
// per-run BatchResults come from an engine-owned pool, and reprice
// swaps in a new compilation without reconstructing the engine. See
// DESIGN.md "Engine internals".
//
// This goes beyond the paper's latency-only evaluation and is
// documented as an extension in DESIGN.md.

// linkKey identifies one contention resource of the interconnect: a
// directed mesh edge inside one node.
type linkKey struct {
	node     int
	from, to int
}

// bulkXfer is one drain/prefetch transfer of a stage: a gather from a
// shard tile to the stage anchor, or a scatter from the consumer's
// anchor into one of its tiles. Bulk traffic rides its own virtual
// channel (it never head-of-line-blocks the forward activation path)
// but its link occupancy is real: colliding bulk transfers stall the
// drain engines, and a stage whose drain has not finished when the next
// sample's compute wants the tiles is back-pressured.
type bulkXfer struct {
	links []linkKey
	ports []int
	serNs float64
}

// engineStage is one executable pipeline stage. The linkKey/port slices
// name the resources (trace registration, bottleneck attribution); the
// scheduler itself books through the dense indices of the engine's
// binding, never these keys.
type engineStage struct {
	name      string
	serviceNs float64    // tile-resident time per sample (analog+digital+SYNC)
	sendLatNs float64    // head latency of the output transfer
	sendSerNs float64    // per-link serialization occupancy of the transfer
	chipSerNs float64    // chip-port occupancy (0 when the send stays on-node)
	tiles     []int      // global tile footprint owned by the stage
	links     []linkKey  // mesh links of the forward anchor→anchor route
	chipPorts []int      // nodes whose chip ports the forward route occupies
	bulk      []bulkXfer // gather + scatter drain traffic
	conflicts []int      // indices of other stages sharing a tile with this one
}

// busySpan is one booked occupancy of an interconnect resource.
type busySpan struct{ s, e float64 }

// calSeg is one resource's header in the span arena: where its segment
// starts, how many spans it can hold, how many are booked this run, and
// a copy of the last booked span, so the tail checks of earliestFree
// and book never read the arena. An empty segment's last span is
// noSpan, which ends and starts before any time.
type calSeg struct {
	off, n, cap int
	last        busySpan
}

var noSpan = busySpan{s: math.Inf(-1), e: math.Inf(-1)}

// vcCal holds the booking calendars of ONE virtual channel: every
// resource (mesh link or chip port) owns a segment of one shared span
// arena, found by its dense index. Samples are scheduled sequentially
// but their transfers are not in global time order (an early stage of
// sample s+1 fires long before the last stage of sample s), so a scalar
// free-time would serialize transfers that never actually overlap; the
// calendar books the earliest window that is genuinely free.
//
// The arena is sized exactly: each admitted sample books each resource
// perSample[r] times (a static property of the bound stage routes), so
// a run of B samples needs perSample[r]×B spans — carved contiguously
// per resource, no per-booking allocation, and reset zeroes the fill
// counts.
type vcCal struct {
	arena     []busySpan
	seg       []calSeg // resource → segment header
	perSample []int    // resource → bookings per admitted sample (all bound engines)
	sized     int      // samples the current layout accommodates
	dirty     bool     // perSample changed since the last layout
}

// grow registers room for resource index r.
func (c *vcCal) grow(r int) {
	for len(c.perSample) <= r {
		c.seg = append(c.seg, calSeg{last: noSpan})
		c.perSample = append(c.perSample, 0)
	}
}

// beginCount zeroes the per-sample booking counts ahead of a reseal.
func (c *vcCal) beginCount() {
	clear(c.perSample)
	c.dirty = true
}

// ensure lays the arena out for runs of up to b samples. Layout is
// recomputed only when the booking counts changed (reseal) or b grew;
// the arena reallocates only when the total span count exceeds its
// capacity.
func (c *vcCal) ensure(b int) {
	if !c.dirty && b <= c.sized {
		return
	}
	if b < c.sized {
		b = c.sized // never shrink: RunBatches sweeps reuse one layout
	}
	total := 0
	for r, ps := range c.perSample {
		c.seg[r].off = total
		c.seg[r].cap = ps * b
		total += ps * b
	}
	if total > cap(c.arena) {
		c.arena = make([]busySpan, total)
	} else {
		c.arena = c.arena[:total]
	}
	c.sized = b
	c.dirty = false
}

// reset starts a new run: every calendar becomes empty by truncation.
func (c *vcCal) reset() {
	for r := range c.seg {
		c.seg[r].n, c.seg[r].last = 0, noSpan
	}
}

// earliestFree returns the first start ≥ tc where resource r is free
// for dur. Most queries start after the resource's last booked span,
// where the search would return tc too; that tail check is small
// enough to inline into bookXfer.
func (c *vcCal) earliestFree(r int32, tc, dur float64) float64 {
	h := &c.seg[r]
	if h.last.e <= tc {
		return tc
	}
	return c.searchFree(h, tc, dur)
}

// searchFree is earliestFree's general case over a non-empty segment.
func (c *vcCal) searchFree(h *calSeg, tc, dur float64) float64 {
	seg := c.arena[h.off : h.off+h.n]
	// Binary search for the first span that could overlap [tc, tc+dur).
	lo, hi := 0, len(seg)
	for lo < hi {
		mid := (lo + hi) / 2
		if seg[mid].e <= tc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := tc
	for i := lo; i < len(seg); i++ {
		if seg[i].s >= start+dur {
			break
		}
		if seg[i].e > start {
			start = seg[i].e
		}
	}
	return start
}

// book inserts [start, start+dur) into resource r's calendar. The
// insertion hint is the segment tail: bookings arrive in near-monotone
// start order (sample after sample), so the common case is a pure
// append; an out-of-order booking (an early-stage transfer of the next
// sample landing before a late-stage one already booked) falls back to
// binary search + shift within the segment. Only the append path moves
// the header's last span: an insert lands before it.
func (c *vcCal) book(r int32, start, dur float64) {
	h := &c.seg[r]
	o, n := h.off, h.n
	if n == h.cap {
		panic("sim: calendar segment overflow — booking count exceeded the sealed per-sample sizing")
	}
	sp := busySpan{s: start, e: start + dur}
	if start >= h.last.s {
		c.arena[o+n] = sp
		h.n = n + 1
		h.last = sp
		return
	}
	seg := c.arena[o : o+n]
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if seg[mid].s < start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(c.arena[o+lo+1:o+n+1], c.arena[o+lo:o+n])
	c.arena[o+lo] = sp
	h.n = n + 1
}

// bookXfer books one transfer on the channel: the earliest window at or
// after ready in which every link and port is simultaneously free.
// Returns the booked start. The fixed point terminates because every
// retry jumps past some already-booked interval.
func (c *vcCal) bookXfer(ready float64, links, ports []int32, serNs, portNs float64) float64 {
	start := ready
	for {
		next := start
		for _, l := range links {
			if f := c.earliestFree(l, next, serNs); f > next {
				next = f
			}
		}
		for _, p := range ports {
			if f := c.earliestFree(p, next, portNs); f > next {
				next = f
			}
		}
		if next == start {
			break
		}
		start = next
	}
	for _, l := range links {
		c.book(l, start, serNs)
	}
	for _, p := range ports {
		c.book(p, start, portNs)
	}
	return start
}

// vcSpace is one virtual channel's resource index space: the maps
// assign each link/chip-port a dense index into the channel's calendar.
// The maps are touched only when a compilation binds (NewEngine,
// reprice, swap), never on the scheduling hot path; indices are sticky,
// so rebinding a different placement reuses the space and only new
// resources register.
type vcSpace struct {
	linkIdx map[linkKey]int32
	chipIdx map[int]int32
	cal     vcCal
}

func (v *vcSpace) init() {
	v.linkIdx = map[linkKey]int32{}
	v.chipIdx = map[int]int32{}
}

func (v *vcSpace) linkID(k linkKey) int32 {
	if id, ok := v.linkIdx[k]; ok {
		return id
	}
	id := int32(len(v.linkIdx) + len(v.chipIdx))
	v.linkIdx[k] = id
	v.cal.grow(int(id))
	return id
}

func (v *vcSpace) chipID(n int) int32 {
	if id, ok := v.chipIdx[n]; ok {
		return id
	}
	id := int32(len(v.linkIdx) + len(v.chipIdx))
	v.chipIdx[n] = id
	v.cal.grow(int(id))
	return id
}

// fabricClock is the shared booking state of the interconnect: the
// forward activation channel (anchor→anchor routes, gates sample
// progress) and the bulk channel (gather/scatter drain traffic,
// occupancy + back-pressure only). Each Engine owns one for isolated
// runs; an EngineSet hands the same clock to every co-located engine.
type fabricClock struct {
	fwd  vcSpace
	bulk vcSpace
}

func newFabricClock() *fabricClock {
	f := &fabricClock{}
	f.fwd.init()
	f.bulk.init()
	return f
}

func (f *fabricClock) reset() {
	f.fwd.cal.reset()
	f.bulk.cal.reset()
}

// ensure sizes both channels' arenas for runs of up to b samples.
func (f *fabricClock) ensure(b int) {
	f.fwd.cal.ensure(b)
	f.bulk.cal.ensure(b)
}

// seal recomputes the per-sample booking counts from the given bindings
// (every engine bound to this clock must be listed — each admitted
// sample of each engine books its stage routes exactly once).
func (f *fabricClock) seal(binds ...*binding) {
	f.fwd.cal.beginCount()
	f.bulk.cal.beginCount()
	for _, bd := range binds {
		for i := range bd.st {
			bs := &bd.st[i]
			for _, l := range bs.fwdLinks {
				f.fwd.cal.perSample[l]++
			}
			for _, p := range bs.fwdPorts {
				f.fwd.cal.perSample[p]++
			}
			for bi := range bs.bulk {
				bx := &bs.bulk[bi]
				for _, l := range bx.links {
					f.bulk.cal.perSample[l]++
				}
				for _, p := range bx.ports {
					f.bulk.cal.perSample[p]++
				}
			}
		}
	}
}

// boundXfer is one bulk transfer resolved to dense calendar indices.
type boundXfer struct {
	links []int32
	ports []int32
	serNs float64
}

// boundStage is one stage's routes resolved against a fabric clock.
type boundStage struct {
	fwdLinks []int32
	fwdPorts []int32
	bulk     []boundXfer
}

// binding resolves an engine's stage routes to the dense resource
// indices of one fabric clock. An engine always carries a binding to
// its private clock; an EngineSet additionally binds every member to
// the shared clock. Bindings are rebuilt (in place, allocation-reusing)
// whenever the compilation or the clock changes.
type binding struct {
	fb *fabricClock
	st []boundStage
}

// bindTo resolves the engine's routes against fb into bd, reusing bd's
// slices.
func (e *Engine) bindTo(fb *fabricClock, bd *binding) {
	bd.fb = fb
	if cap(bd.st) < len(e.stages) {
		st := make([]boundStage, len(e.stages))
		copy(st, bd.st)
		bd.st = st
	} else {
		bd.st = bd.st[:len(e.stages)]
	}
	for i := range e.stages {
		st := &e.stages[i]
		bs := &bd.st[i]
		bs.fwdLinks = bs.fwdLinks[:0]
		bs.fwdPorts = bs.fwdPorts[:0]
		for _, k := range st.links {
			bs.fwdLinks = append(bs.fwdLinks, fb.fwd.linkID(k))
		}
		for _, p := range st.chipPorts {
			bs.fwdPorts = append(bs.fwdPorts, fb.fwd.chipID(p))
		}
		if cap(bs.bulk) < len(st.bulk) {
			bk := make([]boundXfer, len(st.bulk))
			copy(bk, bs.bulk)
			bs.bulk = bk
		} else {
			bs.bulk = bs.bulk[:len(st.bulk)]
		}
		for bi := range st.bulk {
			bt := &st.bulk[bi]
			bx := &bs.bulk[bi]
			bx.links = bx.links[:0]
			bx.ports = bx.ports[:0]
			for _, k := range bt.links {
				bx.links = append(bx.links, fb.bulk.linkID(k))
			}
			for _, p := range bt.ports {
				bx.ports = append(bx.ports, fb.bulk.chipID(p))
			}
			bx.serNs = bt.serNs
		}
	}
}

// Engine schedules batches of inferences over the pipeline of one
// compiled model. Build one with NewEngine; re-target it with reprice.
// An Engine carries internal scratch, so concurrent RunBatch calls need
// one Engine per caller. Results returned by RunBatch/RunBatches are
// engine-owned and recycled by the next run (or reprice) — callers that
// retain one across runs must Clone it.
type Engine struct {
	sim       *Simulator
	res       *Result
	stages    []engineStage
	mesh      noc.Config
	placement *compiler.Placement
	fb        *fabricClock // private clock for isolated runs
	priv      binding      // this engine's binding to fb
	// scratch reused across RunBatch calls.
	tileFree   []float64
	busyNs     []float64
	drainReady []float64 // when each stage's previous drain completes
	// cursor state for the incremental sample scheduler.
	linkWaitNs float64
	// result pool: snapshot hands out recycled BatchResults so a
	// steady-state RunBatch allocates nothing.
	results   []*BatchResult
	resUsed   int
	bsScratch [1]int
	brScratch [1]*BatchResult
	// construction scratch reused across reprice calls: per-tile marks
	// of the conflict pass and the bottleneck's per-tile and
	// per-resource busy sums.
	lb        *linkBuilder
	tileMark  []int32
	tileBusy  []float64
	fwdTally  resTally
	bulkTally resTally
	// steady-state bottleneck, precomputed at configure time (static
	// per compilation) so snapshot stays allocation-free.
	bneckNs   float64
	bneckName string
	// tr is the optional trace emission state (trace.go); nil when
	// tracing is disabled, which keeps runSample branch-cheap.
	tr *engineTrace
}

// NewEngine lowers a compiled model into pipeline stages. The embedded
// single-inference Result is priced by the same pass Run uses, so
// Latency/Energy/Counters are bit-identical to the serial simulator.
func (s *Simulator) NewEngine(c *compiler.Compiled) (*Engine, error) {
	e := &Engine{sim: s, fb: newFabricClock()}
	if err := e.configure(c); err != nil {
		return nil, err
	}
	return e, nil
}

// reprice re-targets the engine at a new compilation, reusing the stage
// slices, calendars and result pool — the cheap path for evaluators
// that price many candidates of the same model. The engine behaves
// bit-identically to a fresh NewEngine on the same compilation (pinned
// by TestRepriceMatchesNewEngine). Tracing is detached (the registered
// tracks belong to the old compilation); on error the engine is left in
// an undefined state and must be discarded.
func (e *Engine) reprice(c *compiler.Compiled) error {
	e.tr = nil
	return e.configure(c)
}

// configure (re)builds the engine's stages, routes, binding and scratch
// from a compilation, reusing prior allocations where shapes allow.
func (e *Engine) configure(c *compiler.Compiled) error {
	s := e.sim
	res, costs, err := s.price(c)
	if err != nil {
		return err
	}
	cfg, mesh := s.cfg, s.mesh
	if len(costs) == 0 {
		return fmt.Errorf("sim: program has no pipeline stages")
	}
	pl := c.Placement
	if pl == nil {
		return fmt.Errorf("sim: compiled %s has no placement", c.ModelName)
	}
	if err := pl.Validate(cfg); err != nil {
		return err
	}
	if len(pl.Layers) != len(costs) {
		return fmt.Errorf("sim: %d pipeline stages but %d placed layers", len(costs), len(pl.Layers))
	}
	e.res, e.mesh, e.placement = res, mesh, pl
	if e.lb == nil {
		e.lb = newLinkBuilder(mesh, cfg)
	} else {
		e.lb.mesh, e.lb.cfg = mesh, cfg
	}
	lb := e.lb
	if cap(e.stages) < len(costs) {
		st := make([]engineStage, len(costs))
		copy(st, e.stages)
		e.stages = st
	} else {
		e.stages = e.stages[:len(costs)]
	}
	maxTile := 0
	for i, sc := range costs {
		st := &e.stages[i]
		st.name = sc.name
		st.serviceNs = sc.serviceNs
		st.sendLatNs = sc.sendLatNs
		st.sendSerNs, st.chipSerNs = 0, 0
		st.tiles = pl.GlobalTiles(i, cfg)
		st.links = st.links[:0]
		st.chipPorts = st.chipPorts[:0]
		st.bulk = st.bulk[:0]
		st.conflicts = st.conflicts[:0]
		for _, t := range st.tiles {
			maxTile = max(maxTile, t)
		}
		if sc.sendBytes > 0 {
			st.sendSerNs = mesh.SerializationNs(sc.sendBytes)
			st.chipSerNs = mesh.ChipHopNs
			srcChip, srcTile := pl.Layers[i].Anchor()
			// Forward route: anchor to the consumer's anchor (or the host
			// through the egress corner after the last stage).
			lb.reset()
			dstChip, dstTile := -1, 0
			if i+1 < len(costs) {
				dstChip, dstTile = pl.Layers[i+1].Anchor()
			}
			if err := lb.addRoute(srcChip, srcTile, dstChip, dstTile); err != nil {
				return err
			}
			st.links = append(st.links, lb.links...)
			st.chipPorts = append(st.chipPorts, lb.ports...)
			// Bulk drain traffic: one gather per non-anchor tile of this
			// stage (each carries its slice of the output) and one
			// scatter per tile of the consumer (the activation is
			// broadcast — every consumer tile needs the full input).
			nTiles := len(st.tiles)
			gatherSer := mesh.SerializationNs((sc.sendBytes + int64(nTiles) - 1) / int64(nTiles))
			addBulk := func(sc2, st2, dc, dt int, ser float64) error {
				lb.reset()
				if err := lb.addRoute(sc2, st2, dc, dt); err != nil {
					return err
				}
				if len(lb.links)+len(lb.ports) == 0 {
					return nil
				}
				n := len(st.bulk)
				if n < cap(st.bulk) {
					st.bulk = st.bulk[:n+1]
				} else {
					st.bulk = append(st.bulk, bulkXfer{})
				}
				bx := &st.bulk[n]
				bx.links = append(bx.links[:0], lb.links...)
				bx.ports = append(bx.ports[:0], lb.ports...)
				bx.serNs = ser
				return nil
			}
			for _, sh := range pl.Layers[i].Shards {
				for _, t := range sh.Tiles {
					if sh.Chip == srcChip && t == srcTile {
						continue
					}
					if err := addBulk(sh.Chip, t, srcChip, srcTile, gatherSer); err != nil {
						return err
					}
				}
			}
			if i+1 < len(costs) {
				for _, sh := range pl.Layers[i+1].Shards {
					for _, t := range sh.Tiles {
						if sh.Chip == dstChip && t == dstTile {
							continue
						}
						if err := addBulk(dstChip, dstTile, sh.Chip, t, st.sendSerNs); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	// Stages whose tile footprints overlap (the greedy allocator packs
	// layer boundaries into shared tiles) cannot compute concurrently.
	// Stage i stamps its tiles with i+1; a later stage's stamp never
	// matches an earlier one, so the marks are cleared once.
	e.tileMark = resized(e.tileMark, maxTile+1)
	clear(e.tileMark)
	for i := range e.stages {
		stamp := int32(i + 1)
		for _, t := range e.stages[i].tiles {
			e.tileMark[t] = stamp
		}
		for j := range e.stages {
			if i == j {
				continue
			}
			for _, t := range e.stages[j].tiles {
				if e.tileMark[t] == stamp {
					e.stages[i].conflicts = append(e.stages[i].conflicts, j)
					break
				}
			}
		}
	}
	e.tileFree = resized(e.tileFree, len(e.stages))
	e.busyNs = resized(e.busyNs, len(e.stages))
	e.drainReady = resized(e.drainReady, len(e.stages))
	e.bindTo(e.fb, &e.priv)
	e.fb.seal(&e.priv)
	// The steady-state bottleneck is a static property of the stages and
	// routes; computing it here keeps snapshot allocation-free.
	e.bneckNs, e.bneckName = e.bottleneck(maxTile)
	return nil
}

// resized resizes a scratch slice to n, reusing capacity.
func resized[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// linkBuilder accumulates the deduplicated link and chip-port sets of
// one stage's transfers, in first-seen order for determinism. One
// builder is reused across all of an engine's routes (reset between
// transfers).
type linkBuilder struct {
	mesh  noc.Config
	cfg   arch.Config
	links []linkKey
	ports []int
	route []noc.Link // RouteXY scratch
	seenL map[linkKey]bool
	seenP map[int]bool
}

func newLinkBuilder(mesh noc.Config, cfg arch.Config) *linkBuilder {
	return &linkBuilder{mesh: mesh, cfg: cfg, seenL: map[linkKey]bool{}, seenP: map[int]bool{}}
}

func (lb *linkBuilder) reset() {
	clear(lb.seenL)
	clear(lb.seenP)
	lb.links = lb.links[:0]
	lb.ports = lb.ports[:0]
}

func (lb *linkBuilder) addLinks(node int, route []noc.Link) {
	for _, l := range route {
		k := linkKey{node: node, from: l.From, to: l.To}
		if !lb.seenL[k] {
			lb.seenL[k] = true
			lb.links = append(lb.links, k)
		}
	}
}

func (lb *linkBuilder) addPort(node int) {
	if !lb.seenP[node] {
		lb.seenP[node] = true
		lb.ports = append(lb.ports, node)
	}
}

// addXY adds the links of the XY route between two tiles of one node.
func (lb *linkBuilder) addXY(node, a, b int) error {
	route, err := lb.mesh.RouteXY(lb.route[:0], a, b)
	lb.route = route
	if err != nil {
		return err
	}
	lb.addLinks(node, route)
	return nil
}

// addRoute adds the links of one transfer. dstChip -1 means the host:
// the transfer drains to the source chip's egress corner and out its
// port.
func (lb *linkBuilder) addRoute(srcChip, srcTile, dstChip, dstTile int) error {
	if srcChip == dstChip {
		return lb.addXY(srcChip, srcTile, dstTile)
	}
	if err := lb.addXY(srcChip, srcTile, lb.mesh.EgressTile()); err != nil {
		return err
	}
	lb.addPort(srcChip)
	if dstChip < 0 {
		return nil
	}
	lb.addPort(dstChip)
	return lb.addXY(dstChip, lb.mesh.EgressTile(), dstTile)
}

// Result returns the embedded single-inference pricing (bit-identical
// to Simulator.Run on the same compilation).
func (e *Engine) Result() *Result { return e.res }

// StageOccupancy is one stage's utilization in a batch run.
type StageOccupancy struct {
	Name      string
	ServiceNs float64 // per-sample tile-resident service time
	SendNs    float64 // per-sample transfer head latency
	Tiles     int     // tile footprint owned by the stage
	Busy      float64 // fraction of the makespan the stage's tiles are busy
}

// BatchResult is the outcome of streaming a batch through the pipeline.
type BatchResult struct {
	// ModelName, Design and Batch echo the inputs.
	ModelName string
	Design    arch.Design
	Batch     int
	// LatencyNs is the single-inference critical path — identical to
	// Simulator.Run (and to the Fig. 7 series) by construction.
	LatencyNs float64
	// MakespanNs is when the last sample's logits reach the host.
	MakespanNs float64
	// ThroughputPerSec is Batch / Makespan.
	ThroughputPerSec float64
	// SteadyStatePerSec is the analytic throughput ceiling: the busiest
	// resource (tile footprint, mesh link or chip port) bounds the
	// per-sample interval at saturation.
	SteadyStatePerSec float64
	// BottleneckName names that resource.
	BottleneckName string
	// BottleneckNs is its per-sample busy time.
	BottleneckNs float64
	// LinkWaitNs is the total time samples stalled on busy NoC links —
	// the contention the serial simulator cannot see.
	LinkWaitNs float64
	// EnergyPJPerInference is the per-sample energy (batch-invariant:
	// optical power is duty-cycled per activation).
	EnergyPJPerInference float64
	// Stages is the per-stage utilization.
	Stages []StageOccupancy
}

// Clone deep-copies a result. RunBatch/RunBatches results are
// engine-owned and recycled by the engine's next run; callers that
// retain one past that point (caches, reports) must keep a Clone.
func (br *BatchResult) Clone() *BatchResult {
	cp := *br
	cp.Stages = append([]StageOccupancy(nil), br.Stages...)
	return &cp
}

// resetLocal clears the engine-owned scheduling state (tile clocks,
// busy accounting, drain back-pressure); the fabric clock is reset by
// whoever owns it — the engine itself for isolated runs, the EngineSet
// for co-located ones.
func (e *Engine) resetLocal() {
	for i := range e.tileFree {
		e.tileFree[i] = 0
		e.busyNs[i] = 0
		e.drainReady[i] = 0
	}
	e.linkWaitNs = 0
	if e.tr != nil {
		e.tr.seq = 0
	}
}

// runSample schedules one sample through every stage against the given
// binding's fabric clock and returns its completion time. Deterministic
// greedy list scheduling: the forward transfer books the earliest
// window in which every link and chip port on its route is
// simultaneously free; bulk drain traffic books on its own channel and
// back-pressures the stage's next sample instead of blocking this one.
func (e *Engine) runSample(bd *binding) float64 {
	t := 0.0 // completion time of the previous stage for this sample
	fwd := &bd.fb.fwd.cal
	bulk := &bd.fb.bulk.cal
	tr := e.tr
	var seq int64
	if tr != nil {
		seq = tr.seq
		tr.seq++
	}
	for si := range e.stages {
		st := &e.stages[si]
		bs := &bd.st[si]
		// Back-pressure: the tiles' drain of the previous sample must
		// finish before they take the next one.
		start := max(t, e.tileFree[si], e.drainReady[si])
		for _, cj := range st.conflicts {
			start = max(start, e.tileFree[cj])
		}
		computeDone := start + st.serviceNs
		e.tileFree[si] = computeDone
		e.busyNs[si] += st.serviceNs
		if tr != nil {
			tr.traceStage(si, seq, start, st.serviceNs)
		}
		sendStart := computeDone
		if len(bs.fwdLinks)+len(bs.fwdPorts) > 0 {
			sendStart = fwd.bookXfer(computeDone, bs.fwdLinks, bs.fwdPorts, st.sendSerNs, st.chipSerNs)
			if tr != nil {
				tr.traceXfer(si, seq, computeDone, sendStart, st.sendSerNs, st.chipSerNs,
					st.links, st.chipPorts, tr.fwdLink, tr.fwdPort, tr.waitNm)
			}
		}
		e.linkWaitNs += sendStart - computeDone
		drainEnd := computeDone
		for bi := range bs.bulk {
			bx := &bs.bulk[bi]
			bsStart := bulk.bookXfer(computeDone, bx.links, bx.ports, bx.serNs, st.chipSerNs)
			e.linkWaitNs += bsStart - computeDone
			drainEnd = max(drainEnd, bsStart+bx.serNs)
			if tr != nil {
				bt := &st.bulk[bi]
				tr.traceXfer(si, seq, computeDone, bsStart, bt.serNs, st.chipSerNs,
					bt.links, bt.ports, tr.bulkLink, tr.bulkPort, tr.drainNm)
			}
		}
		e.drainReady[si] = drainEnd
		t = sendStart + st.sendLatNs
	}
	if tr != nil {
		tr.traceDone(seq, t)
	}
	return t
}

// takeResult hands out the next pooled BatchResult of the current run.
func (e *Engine) takeResult() *BatchResult {
	if e.resUsed < len(e.results) {
		r := e.results[e.resUsed]
		e.resUsed++
		return r
	}
	r := &BatchResult{}
	e.results = append(e.results, r)
	e.resUsed++
	return r
}

// snapshot assembles a BatchResult for the first b samples of the
// current run (makespan = completion time of sample b-1). The result
// comes from the engine's pool: valid until the next run.
func (e *Engine) snapshot(b int, makespan float64) *BatchResult {
	out := e.takeResult()
	out.ModelName = e.res.ModelName
	out.Design = e.res.Design
	out.Batch = b
	out.LatencyNs = e.res.LatencyNs
	out.MakespanNs = makespan
	out.ThroughputPerSec = float64(b) * 1e9 / makespan
	out.LinkWaitNs = e.linkWaitNs
	out.EnergyPJPerInference = e.res.EnergyPJ()
	out.BottleneckNs, out.BottleneckName = e.bneckNs, e.bneckName
	out.SteadyStatePerSec = 1e9 / out.BottleneckNs
	out.Stages = out.Stages[:0]
	for si := range e.stages {
		st := &e.stages[si]
		out.Stages = append(out.Stages, StageOccupancy{
			Name:      st.name,
			ServiceNs: st.serviceNs,
			SendNs:    st.sendLatNs,
			Tiles:     len(st.tiles),
			Busy:      e.busyNs[si] / makespan,
		})
	}
	return out
}

// RunBatch streams a batch of b inferences through the pipeline and
// returns the timing report. Deterministic: same engine, same b, same
// result. The result is engine-owned (recycled by the next run); Clone
// it to retain. Steady-state RunBatch performs zero allocations
// (pinned by TestRunBatchZeroAlloc).
func (e *Engine) RunBatch(b int) (*BatchResult, error) {
	e.bsScratch[0] = b
	e.brScratch[0] = nil
	if err := e.runBatches(e.bsScratch[:], e.brScratch[:]); err != nil {
		return nil, err
	}
	return e.brScratch[0], nil
}

// RunBatches sweeps several batch sizes in ONE schedule pass: the
// scheduler is incremental in the sample index, so the b-sample result
// is a snapshot of the maxB-sample run after sample b. Results are
// bit-identical to calling RunBatch per size (pinned by tests) at a
// fraction of the cost — the throughput sweep used to re-run the whole
// schedule per batch size. Results are engine-owned; Clone to retain
// past the next run.
func (e *Engine) RunBatches(bs []int) ([]*BatchResult, error) {
	out := make([]*BatchResult, len(bs))
	if err := e.runBatches(bs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// MaxBatch is the largest batch one engine run schedules. The calendar
// arena holds every span a run books, a fixed number per sample, so the
// batch size bounds the memory a run takes; a larger batch is an error,
// not an allocation.
const MaxBatch = 1 << 16

// CheckBatch rejects a batch size the engine cannot run. Commands call
// it on their batch flags so a bad size fails before any output.
func CheckBatch(b int) error {
	if b < 1 || b > MaxBatch {
		return fmt.Errorf("sim: batch size %d outside [1, %d]", b, MaxBatch)
	}
	return nil
}

// runBatches is the shared scheduling core: out[i] receives the
// snapshot after bs[i] samples (duplicated sizes share one snapshot).
func (e *Engine) runBatches(bs []int, out []*BatchResult) error {
	if len(bs) == 0 {
		return fmt.Errorf("sim: no batch sizes given")
	}
	maxB := 0
	for _, b := range bs {
		if err := CheckBatch(b); err != nil {
			return err
		}
		maxB = max(maxB, b)
	}
	e.resUsed = 0
	e.resetLocal()
	e.fb.ensure(maxB)
	e.fb.reset()
	for sample := 0; sample < maxB; sample++ {
		t := e.runSample(&e.priv)
		var snap *BatchResult
		for i, b := range bs {
			if b != sample+1 {
				continue
			}
			if snap == nil {
				snap = e.snapshot(b, t)
				e.traceMeta(b, t)
			}
			out[i] = snap
		}
	}
	return nil
}

// resRef is one channel resource in a bottleneck tally: its dense id
// and what names it (a link key; a port's node in key.node).
type resRef struct {
	id  int32
	key linkKey
}

// resTally sums one channel's per-sample busy time by dense resource
// id, listing links and ports in first-seen order.
type resTally struct {
	busy         []float64
	seen         []bool
	links, ports []resRef
}

// reset empties the tally for a channel of n resources.
func (t *resTally) reset(n int) {
	t.busy = resized(t.busy, n)
	t.seen = resized(t.seen, n)
	clear(t.busy)
	clear(t.seen)
	t.links, t.ports = t.links[:0], t.ports[:0]
}

// add charges ns to resource id, appending it to order on first sight.
func (t *resTally) add(order []resRef, id int32, key linkKey, ns float64) []resRef {
	if !t.seen[id] {
		t.seen[id] = true
		order = append(order, resRef{id: id, key: key})
	}
	t.busy[id] += ns
	return order
}

// bottleneck finds the resource with the largest per-sample busy time:
// the steady-state inter-departure interval of the saturated pipeline.
// Deterministic: ties resolve to the earliest stage/resource. maxTile
// is the largest global tile any stage owns; links and ports are
// tallied by the dense ids of the engine's private binding.
func (e *Engine) bottleneck(maxTile int) (ns float64, name string) {
	// Tile busy: stages sharing a tile cannot compute concurrently, so
	// the max per-tile service sum is the serialization bound.
	e.tileBusy = resized(e.tileBusy, maxTile+1)
	clear(e.tileBusy)
	for i := range e.stages {
		st := &e.stages[i]
		for _, t := range st.tiles {
			e.tileBusy[t] += st.serviceNs
		}
	}
	bneckTile := -1
	for t, busy := range e.tileBusy {
		if busy > ns {
			ns, bneckTile = busy, t
		}
	}
	if bneckTile >= 0 {
		// Name the heaviest stage occupying the bottleneck tile.
		heaviest := -1.0
		for i := range e.stages {
			st := &e.stages[i]
			for _, t := range st.tiles {
				if t == bneckTile && st.serviceNs > heaviest {
					heaviest, name = st.serviceNs, st.name
				}
			}
		}
	}
	// Mesh links and chip ports: transfers crossing the same edge
	// serialize (per virtual channel — forward and bulk traffic are
	// tracked separately, matching the scheduler). Accumulate in
	// first-seen order for determinism.
	// Ports are booked per channel in the scheduler (fwd and bulk have
	// independent calendars), so their busy sums must stay separate too
	// — merging them would report a "ceiling" below what the schedule
	// actually sustains.
	fwd, bulk := &e.fwdTally, &e.bulkTally
	fwd.reset(len(e.fb.fwd.cal.perSample))
	bulk.reset(len(e.fb.bulk.cal.perSample))
	for i := range e.stages {
		st := &e.stages[i]
		bs := &e.priv.st[i]
		for j, l := range st.links {
			fwd.links = fwd.add(fwd.links, bs.fwdLinks[j], l, st.sendSerNs)
		}
		for j, p := range st.chipPorts {
			fwd.ports = fwd.add(fwd.ports, bs.fwdPorts[j], linkKey{node: p}, st.chipSerNs)
		}
		for bi := range st.bulk {
			bt, bx := &st.bulk[bi], &bs.bulk[bi]
			for j, l := range bt.links {
				bulk.links = bulk.add(bulk.links, bx.links[j], l, bt.serNs)
			}
			for j, p := range bt.ports {
				bulk.ports = bulk.add(bulk.ports, bx.ports[j], linkKey{node: p}, st.chipSerNs)
			}
		}
	}
	// The winner is named once, after every strict-> comparison.
	const (
		none = iota
		bulkLink
		fwdLink
		fwdPort
		bulkPort
	)
	kind, key := none, linkKey{}
	pick := func(t *resTally, order []resRef, k int) {
		for _, r := range order {
			if busy := t.busy[r.id]; busy > ns {
				ns, kind, key = busy, k, r.key
			}
		}
	}
	pick(bulk, bulk.links, bulkLink)
	pick(fwd, fwd.links, fwdLink)
	pick(fwd, fwd.ports, fwdPort)
	pick(bulk, bulk.ports, bulkPort)
	switch kind {
	case bulkLink:
		name = fmt.Sprintf("bulk-link n%d:%d->%d", key.node, key.from, key.to)
	case fwdLink:
		name = fmt.Sprintf("link n%d:%d->%d", key.node, key.from, key.to)
	case fwdPort:
		name = fmt.Sprintf("chip-port n%d", key.node)
	case bulkPort:
		name = fmt.Sprintf("bulk-chip-port n%d", key.node)
	}
	return ns, name
}

// tileSet returns the engine's global tile footprint, sorted (the
// EngineSet disjointness check).
func (e *Engine) tileSet() []int {
	seen := map[int]bool{}
	for _, st := range e.stages {
		for _, t := range st.tiles {
			seen[t] = true
		}
	}
	out := make([]int, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}
