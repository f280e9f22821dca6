package arch

import (
	"testing"
	"testing/quick"

	"einsteinbarrier/internal/device"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.TilesPerNode = 0 },
		func(c *Config) { c.VCoresPerECore = 0 },
		func(c *Config) { c.CrossbarRows = 255 }, // odd
		func(c *Config) { c.ColumnsPerADC = 1024 },
		func(c *Config) { c.WDMCapacity = 0 },
		func(c *Config) { c.InputBits = 0 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestDesignStringsAndTech(t *testing.T) {
	if BaselineEPCM.String() != "Baseline-ePCM" ||
		TacitEPCM.String() != "TacitMap-ePCM" ||
		EinsteinBarrier.String() != "EinsteinBarrier" {
		t.Fatal("design names wrong")
	}
	if BaselineEPCM.Tech() != device.EPCM || TacitEPCM.Tech() != device.EPCM {
		t.Fatal("electronic designs must be ePCM")
	}
	if EinsteinBarrier.Tech() != device.OPCM {
		t.Fatal("EinsteinBarrier must be oPCM")
	}
	if Design(9).String() == "" {
		t.Fatal("unknown design should print")
	}
}

func TestHierarchyCounts(t *testing.T) {
	c := DefaultConfig()
	if c.totalTiles() != 64 {
		t.Fatalf("TotalTiles = %d", c.totalTiles())
	}
	if c.totalECores() != 512 {
		t.Fatalf("TotalECores = %d", c.totalECores())
	}
	if c.TotalVCores() != 4096 {
		t.Fatalf("TotalVCores = %d", c.TotalVCores())
	}
	if c.CellsPerVCore() != 65536 {
		t.Fatalf("CellsPerVCore = %d", c.CellsPerVCore())
	}
	if c.MeshWidth() != 4 {
		t.Fatalf("MeshWidth = %d", c.MeshWidth())
	}
}

func TestEffectiveK(t *testing.T) {
	c := DefaultConfig()
	if c.EffectiveK(BaselineEPCM) != 1 || c.EffectiveK(TacitEPCM) != 1 {
		t.Fatal("electronic designs have no WDM dimension")
	}
	if c.EffectiveK(EinsteinBarrier) != c.WDMCapacity {
		t.Fatal("EinsteinBarrier must see full K")
	}
}

func TestVCoreIndexRoundTrip(t *testing.T) {
	c := DefaultConfig()
	f := func(raw uint16) bool {
		i := int(raw) % c.TotalVCores()
		id, err := c.VCoreByIndex(i)
		if err != nil {
			return false
		}
		back, err := c.Index(id)
		return err == nil && back == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVCoreIndexErrors(t *testing.T) {
	c := DefaultConfig()
	if _, err := c.VCoreByIndex(-1); err == nil {
		t.Fatal("negative index should fail")
	}
	if _, err := c.VCoreByIndex(c.TotalVCores()); err == nil {
		t.Fatal("overflow index should fail")
	}
	if _, err := c.Index(VCoreID{Node: c.Nodes}); err == nil {
		t.Fatal("bad id should fail")
	}
}

func TestVCoreByIndexStructure(t *testing.T) {
	c := DefaultConfig()
	id, err := c.VCoreByIndex(c.VCoresPerECore) // first VCore of second ECore
	if err != nil {
		t.Fatal(err)
	}
	if id.VCore != 0 || id.ECore != 1 || id.Tile != 0 || id.Node != 0 {
		t.Fatalf("id = %+v", id)
	}
}
