package noc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig(4).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Config{
		{MeshWidth: 0, HopLatencyNs: 1, FlitBytes: 4, ChipHopNs: 1},
		{MeshWidth: 2, HopLatencyNs: 0, FlitBytes: 4, ChipHopNs: 1},
		{MeshWidth: 2, HopLatencyNs: 1, FlitBytes: 0, ChipHopNs: 1},
		{MeshWidth: 2, HopLatencyNs: 1, FlitBytes: 4, ChipHopNs: 1, BytePJ: -1},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestTileCoordAndHops(t *testing.T) {
	c := DefaultConfig(4)
	co, err := c.tileCoord(5) // row-major: (1,1)
	if err != nil || co.X != 1 || co.Y != 1 {
		t.Fatalf("coord = %+v, err %v", co, err)
	}
	h, err := c.Hops(0, 15) // (0,0) → (3,3)
	if err != nil || h != 6 {
		t.Fatalf("hops = %d, err %v", h, err)
	}
	if h, _ := c.Hops(7, 7); h != 0 {
		t.Fatal("self distance must be 0")
	}
	if _, err := c.tileCoord(16); err == nil {
		t.Fatal("out-of-mesh tile should fail")
	}
	if _, err := c.Hops(-1, 0); err == nil {
		t.Fatal("negative tile should fail")
	}
}

func TestHopsSymmetricProperty(t *testing.T) {
	c := DefaultConfig(5)
	f := func(a, b uint8) bool {
		ta, tb := int(a)%25, int(b)%25
		h1, e1 := c.Hops(ta, tb)
		h2, e2 := c.Hops(tb, ta)
		return e1 == nil && e2 == nil && h1 == h2 && h1 >= 0 && h1 <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTransferZeroBytes(t *testing.T) {
	c := DefaultConfig(4)
	lat, e, err := c.Transfer(0, 3, 1)
	if err != nil || lat != 0 || e != 0 {
		t.Fatalf("zero transfer: %g %g %v", lat, e, err)
	}
}

func TestTransferErrors(t *testing.T) {
	c := DefaultConfig(4)
	if _, _, err := c.Transfer(-1, 0, 0); err == nil {
		t.Fatal("negative bytes should fail")
	}
	if _, _, err := c.Transfer(1, -1, 0); err == nil {
		t.Fatal("negative hops should fail")
	}
}

func TestTransferWormhole(t *testing.T) {
	c := DefaultConfig(4) // 32B flits, 1 ns/hop
	// 64 bytes over 2 hops: head 2 ns + 1 extra flit 1 ns = 3 ns.
	lat, e, err := c.Transfer(64, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat-3) > 1e-9 {
		t.Fatalf("latency = %g, want 3", lat)
	}
	wantE := 64.0 * 2 * c.BytePJ
	if math.Abs(e-wantE) > 1e-9 {
		t.Fatalf("energy = %g, want %g", e, wantE)
	}
}

func TestTransferChipHopsCostMore(t *testing.T) {
	c := DefaultConfig(4)
	lOn, eOn, _ := c.Transfer(1024, 1, 0)
	lOff, eOff, _ := c.Transfer(1024, 0, 1)
	if lOff <= lOn || eOff <= eOn {
		t.Fatalf("chip-to-chip should dominate: %g/%g vs %g/%g", lOff, eOff, lOn, eOn)
	}
}

func TestTransferMonotoneInBytes(t *testing.T) {
	c := DefaultConfig(4)
	prevL, prevE := -1.0, -1.0
	for _, b := range []int64{1, 32, 33, 1024, 65536} {
		l, e, err := c.Transfer(b, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if l < prevL || e <= prevE {
			t.Fatalf("not monotone at %d bytes", b)
		}
		prevL, prevE = l, e
	}
}

func TestAverageHops(t *testing.T) {
	if h := DefaultConfig(1).AverageHops(); h != 0 {
		t.Fatalf("1x1 mesh average = %g", h)
	}
	// 2x2 mesh: E|Δ| per axis = (4-1)/(3·2) = 0.5 → total 1.0.
	if h := DefaultConfig(2).AverageHops(); math.Abs(h-1.0) > 1e-9 {
		t.Fatalf("2x2 mesh average = %g, want 1.0", h)
	}
	// Larger meshes have more average hops.
	if DefaultConfig(8).AverageHops() <= DefaultConfig(4).AverageHops() {
		t.Fatal("average hops must grow with mesh size")
	}
}

func TestRouteXYMatchesHops(t *testing.T) {
	c := DefaultConfig(4)
	// RouteXY appends: the buffer's links stay ahead of the route's.
	buf := []Link{{-1, -1}}
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			route, err := c.RouteXY(buf, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if route[0] != buf[0] {
				t.Fatalf("route %d->%d overwrote the buffer: %v", a, b, route)
			}
			route = route[1:]
			hops, err := c.Hops(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if len(route) != hops {
				t.Fatalf("route %d->%d has %d links, Hops says %d", a, b, len(route), hops)
			}
			// The route is connected: each link starts where the previous
			// ended, from a and into b.
			cur := a
			for _, l := range route {
				if l.From != cur {
					t.Fatalf("route %d->%d broken at link %+v (cur %d)", a, b, l, cur)
				}
				cur = l.To
			}
			if hops > 0 && cur != b {
				t.Fatalf("route %d->%d ends at %d", a, b, cur)
			}
		}
	}
	if _, err := c.RouteXY(nil, -1, 3); err == nil {
		t.Fatal("bad tile must error")
	}
}

func TestSerializationNs(t *testing.T) {
	c := DefaultConfig(4)
	if got := c.SerializationNs(0); got != 0 {
		t.Fatalf("zero bytes serialize in %g ns", got)
	}
	// 33 bytes over 32-byte flits = 2 flits × 1 ns/hop.
	if got := c.SerializationNs(33); got != 2*c.HopLatencyNs {
		t.Fatalf("33 bytes: %g ns", got)
	}
}

// Chip-egress routing: transfers leaving the chip drain through the
// egress corner tile. The ShardPlacer relies on the egress spine routes
// and the chipHops pricing below, so both get explicit coverage.

func TestRouteXYToEgressCorner(t *testing.T) {
	c := DefaultConfig(4)
	if e := c.EgressTile(); e != 0 {
		t.Fatalf("egress tile = %d, want the (0,0) corner", e)
	}
	// X-first dimension order: from tile 15 (3,3) the route walks row 3
	// to column 0, then column 0 up to the corner — the exact spine edges
	// co-located programs contend on.
	route, err := c.RouteXY(nil, 15, c.EgressTile())
	if err != nil {
		t.Fatal(err)
	}
	want := []Link{{15, 14}, {14, 13}, {13, 12}, {12, 8}, {8, 4}, {4, 0}}
	if len(route) != len(want) {
		t.Fatalf("route = %v, want %v", route, want)
	}
	for i, l := range route {
		if l != want[i] {
			t.Fatalf("route[%d] = %v, want %v", i, l, want[i])
		}
	}
	// Every tile of the bottom row funnels through the same final edge
	// 4->0: the shared-spine contention the multi-program engine models.
	for _, from := range []int{4, 8, 12} {
		r, err := c.RouteXY(nil, from, 0)
		if err != nil {
			t.Fatal(err)
		}
		if last := r[len(r)-1]; last != (Link{4, 0}) {
			t.Fatalf("route %d->0 ends with %v, want 4->0", from, last)
		}
	}
	// Egress from the corner itself uses no mesh links at all.
	r, err := c.RouteXY(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 0 {
		t.Fatalf("corner self-route has %d links", len(r))
	}
}

func TestChipDistance(t *testing.T) {
	c := DefaultConfig(4)
	for _, tc := range []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {0, 3, 3}, {3, 1, 2},
	} {
		if got := c.ChipDistance(tc.a, tc.b); got != tc.want {
			t.Fatalf("ChipDistance(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestTransferWithChipHops(t *testing.T) {
	c := DefaultConfig(4)
	// 64 bytes = 2 flits, 2 mesh hops + 3 chip hops: the head pays
	// 2×1 ns mesh + 1 ns body streaming + 3×30 ns board links; energy is
	// per byte per hop with the chip links an order of magnitude costlier.
	lat, pj, err := c.Transfer(64, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantLat := 2*c.HopLatencyNs + 1*c.HopLatencyNs + 3*c.ChipHopNs
	if math.Abs(lat-wantLat) > 1e-12 {
		t.Fatalf("latency = %g, want %g", lat, wantLat)
	}
	wantPJ := 64 * (2*c.BytePJ + 3*c.ChipBytePJ)
	if math.Abs(pj-wantPJ) > 1e-12 {
		t.Fatalf("energy = %g, want %g", pj, wantPJ)
	}
	// Chip hops dominate: one extra chip hop costs more latency than ten
	// extra mesh hops at default parameters.
	lat1, _, err := c.Transfer(64, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	lat10, _, err := c.Transfer(64, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat1 <= lat10 {
		t.Fatalf("chip hop (%g ns) should cost more than 10 mesh hops (%g ns)", lat1, lat10)
	}
	// A pure chip-to-chip transfer (no mesh hops) is legal: the body
	// still pays flit streaming on the serial link.
	if _, _, err := c.Transfer(1, 0, 2); err != nil {
		t.Fatal(err)
	}
}
