package compiler

import (
	"testing"

	"einsteinbarrier/internal/arch"
)

// FuzzRegionRelTile: for any valid region and any in-range relative
// tile index, ResolveTile and RelTile must invert each other, and
// out-of-region coordinates must be rejected rather than aliased. The
// seeds are the PR 5 mesh/shard corner cases from
// TestRegionRelativeRoundTrip plus single-cell and full-fabric shapes.
func FuzzRegionRelTile(f *testing.F) {
	f.Add(0, 4, 0, 0, 4, 4, 0)  // full fabric
	f.Add(1, 2, 1, 2, 3, 2, 5)  // offset multi-chip rect
	f.Add(3, 1, 0, 0, 1, 1, 0)  // single cell on the last chip
	f.Add(0, 8, 0, 0, 2, 2, 17) // chips beyond the config (invalid)
	f.Add(2, 1, 3, 3, 1, 1, 0)  // far corner
	f.Add(0, 1, 0, 0, 4, 1, 3)  // single row
	f.Fuzz(func(t *testing.T, chip, chips, x0, y0, w, h, rel int) {
		cfg := arch.DefaultConfig()
		r := Region{Chip: chip, Chips: chips, X0: x0, Y0: y0, W: w, H: h}
		if err := r.Validate(cfg); err != nil {
			return // invalid regions are out of contract
		}
		n := r.Chips * r.W * r.H
		if rel < 0 || rel >= n {
			if _, _, err := r.ResolveTile(rel, cfg); err == nil {
				t.Fatalf("region %v resolved out-of-range rel %d", r, rel)
			}
			return
		}
		// A valid region may overhang the bottom of a partial mesh; rel
		// ids landing on off-mesh cells must error, never alias.
		within := rel % (r.W * r.H)
		x := r.X0 + within%r.W
		y := r.Y0 + within/r.W
		offMesh := y*cfg.MeshWidth()+x >= cfg.TilesPerNode
		c, tile, err := r.ResolveTile(rel, cfg)
		if offMesh {
			if err == nil {
				t.Fatalf("region %v rel %d resolved an off-mesh cell (%d,%d)", r, rel, x, y)
			}
			return
		}
		if err != nil {
			t.Fatalf("region %v rel %d: %v", r, rel, err)
		}
		if c < r.Chip || c >= r.Chip+r.Chips {
			t.Fatalf("region %v rel %d resolved to chip %d outside the region", r, rel, c)
		}
		if tile < 0 || tile >= cfg.TilesPerNode {
			t.Fatalf("region %v rel %d resolved to tile %d outside the chip", r, rel, tile)
		}
		back, err := r.relTile(c, tile, cfg)
		if err != nil {
			t.Fatalf("region %v: RelTile(%d,%d): %v", r, c, tile, err)
		}
		if back != rel {
			t.Fatalf("region %v: rel %d → (%d,%d) → %d", r, rel, c, tile, back)
		}
	})
}
