// Package noc models the interconnect of the EinsteinBarrier spatial
// architecture (paper Fig. 4): a 2-D mesh on-chip network between the
// tiles of a node, and serial chip-to-chip links between nodes.
package noc

import (
	"fmt"
	"math"
)

// Config describes the network fabric.
type Config struct {
	// MeshWidth is the side of the per-node tile mesh (tiles arranged
	// MeshWidth × MeshWidth).
	MeshWidth int
	// HopLatencyNs is the per-hop router+link traversal latency.
	HopLatencyNs float64
	// FlitBytes is the link width per cycle.
	FlitBytes int
	// BytePJ is the energy per byte per hop.
	BytePJ float64
	// ChipHopNs / ChipBytePJ describe the chip-to-chip (node-to-node)
	// interconnect, an order of magnitude costlier than on-chip hops.
	ChipHopNs  float64
	ChipBytePJ float64
}

// DefaultConfig returns mesh defaults (PUMA-class 32-bit links).
func DefaultConfig(meshWidth int) Config {
	return Config{
		MeshWidth:    meshWidth,
		HopLatencyNs: 1.0,
		FlitBytes:    32,
		BytePJ:       0.8,
		ChipHopNs:    30,
		ChipBytePJ:   12,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.MeshWidth < 1:
		return fmt.Errorf("noc: mesh width %d must be ≥ 1", c.MeshWidth)
	case c.HopLatencyNs <= 0 || c.ChipHopNs <= 0:
		return fmt.Errorf("noc: hop latencies must be positive")
	case c.FlitBytes < 1:
		return fmt.Errorf("noc: flit bytes %d must be ≥ 1", c.FlitBytes)
	case c.BytePJ < 0 || c.ChipBytePJ < 0:
		return fmt.Errorf("noc: negative energy per byte")
	}
	return nil
}

// Coord is a tile position in the mesh.
type Coord struct{ X, Y int }

// tileCoord maps a tile index to its mesh coordinate (row-major).
func (c Config) tileCoord(tile int) (Coord, error) {
	if tile < 0 || tile >= c.MeshWidth*c.MeshWidth {
		return Coord{}, fmt.Errorf("noc: tile %d outside %d×%d mesh", tile, c.MeshWidth, c.MeshWidth)
	}
	return Coord{X: tile % c.MeshWidth, Y: tile / c.MeshWidth}, nil
}

// Hops returns the Manhattan (XY-routed) hop count between two tiles.
func (c Config) Hops(a, b int) (int, error) {
	ca, err := c.tileCoord(a)
	if err != nil {
		return 0, err
	}
	cb, err := c.tileCoord(b)
	if err != nil {
		return 0, err
	}
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y), nil
}

// Transfer models moving `bytes` over `hops` on-chip hops plus
// `chipHops` chip-to-chip hops, returning latency (ns) and energy (pJ).
// The transfer is wormhole-routed: the head pays the hop latency, the
// body streams at one flit per hop-cycle.
func (c Config) Transfer(bytes int64, hops, chipHops int) (latencyNs, energyPJ float64, err error) {
	if bytes < 0 || hops < 0 || chipHops < 0 {
		return 0, 0, fmt.Errorf("noc: negative transfer args (bytes=%d hops=%d chipHops=%d)",
			bytes, hops, chipHops)
	}
	if bytes == 0 {
		return 0, 0, nil
	}
	flits := math.Ceil(float64(bytes) / float64(c.FlitBytes))
	latencyNs = float64(hops)*c.HopLatencyNs + (flits-1)*c.HopLatencyNs +
		float64(chipHops)*c.ChipHopNs
	energyPJ = float64(bytes) * (float64(hops)*c.BytePJ + float64(chipHops)*c.ChipBytePJ)
	return latencyNs, energyPJ, nil
}

// Link is one directed mesh edge between adjacent tiles, identified by
// the node-local tile indices it connects. Links are the contention
// resource of the pipeline engine: two transfers crossing the same
// directed edge serialize.
type Link struct{ From, To int }

// RouteXY appends to dst the directed links of the XY
// (dimension-ordered) route between two node-local tiles: all X hops
// first, then Y — the same deterministic routing the Hops metric
// assumes. It appends nothing when source and destination share a
// tile. A caller routing many transfers passes one reused buffer.
func (c Config) RouteXY(dst []Link, a, b int) ([]Link, error) {
	ca, err := c.tileCoord(a)
	if err != nil {
		return dst, err
	}
	cb, err := c.tileCoord(b)
	if err != nil {
		return dst, err
	}
	for cur := ca; cur != cb; {
		next := cur
		switch {
		case cur.X < cb.X:
			next.X++
		case cur.X > cb.X:
			next.X--
		case cur.Y < cb.Y:
			next.Y++
		default:
			next.Y--
		}
		dst = append(dst, Link{From: cur.Y*c.MeshWidth + cur.X, To: next.Y*c.MeshWidth + next.X})
		cur = next
	}
	return dst, nil
}

// ChipDistance is the chip-hop count between two nodes: the serial
// chip-to-chip links form a linear chain (node i connects to i±1), so a
// transfer between nodes a and b crosses |a-b| board-level links. This
// is the ChipHops operand the ShardPlacer stamps on cross-chip gather
// SENDs, priced by Transfer's chipHops term.
func (c Config) ChipDistance(a, b int) int { return abs(a - b) }

// EgressTile is the node-local tile that owns the chip's egress port:
// the mesh corner (0,0), where the memory controller and the
// chip-to-chip serializer attach. Multi-program engines route host
// deliveries through it, so co-located models contend for the spine
// links leading to the corner.
func (c Config) EgressTile() int { return 0 }

// SerializationNs is how long a transfer of the given size occupies
// each link on its route: the wormhole body streams one flit per
// hop-cycle, so the edge is busy for flits × hop latency.
func (c Config) SerializationNs(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return math.Ceil(float64(bytes)/float64(c.FlitBytes)) * c.HopLatencyNs
}

// AverageHops returns the expected hop count between two uniformly
// random distinct tiles of the mesh — the allocator's estimate when the
// placement is not yet known.
func (c Config) AverageHops() float64 {
	// E|x1-x2| for uniform over [0,w) is (w^2-1)/(3w).
	w := float64(c.MeshWidth)
	if w <= 1 {
		return 0
	}
	return 2 * (w*w - 1) / (3 * w)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
